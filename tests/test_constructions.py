"""Extremal family builders and the periodic pattern sets."""

from __future__ import annotations

import itertools

import pytest

from isolation_lab.bounds import THEOREMS
from isolation_lab.constructions import build_B, pattern_isolating_set
from isolation_lab.enumeration import canonical_form
from isolation_lab.families import edge_family, exact_iota, is_isolating
from isolation_lab.graphs import (
    cycle_graph,
    graph6_decode,
    induced_subgraph,
    is_connected,
    leaves,
    mask_of,
    named_graph,
    path_graph,
)

E1, E2, E3 = edge_family(1), edge_family(2), edge_family(3)


def test_spine_arithmetic():
    # build_B's spine is 0..a-1 with a = n // (k+1), its b - a extras a..b-1
    # hang off spine vertex a-1 (b = n - k*a), and a copies of F follow, the
    # i-th joined to spine vertex i at its ``joins`` vertices
    for f, joins, n in itertools.product(("K1", "K2", "K3"), (None, (0,)), range(1, 40)):
        model = named_graph(f)
        k = model.n
        joined = range(k) if joins is None else joins
        g = build_B(n, f, joins)
        a = n // (k + 1)
        b = n - k * a
        assert g.n == n and is_connected(g)
        if a == 0:  # n <= k
            assert g == path_graph(n)
            continue
        assert a <= b <= a + k
        spine = mask_of(range(a))
        assert induced_subgraph(g, spine) == path_graph(a)
        assert all(g.adj[x] == 1 << (a - 1) for x in range(a, b))
        for i in range(a):
            copy = mask_of(range(b + i * k, b + (i + 1) * k))
            assert induced_subgraph(g, copy) == model
            ports = mask_of(b + i * k + u for u in joined)
            assert g.adj[i] & ~spine == ports | (mask_of(range(a, b)) if i == a - 1 else 0)
            assert all(g.adj[b + i * k + u] & ~copy == (1 << i if u in joined else 0)
                       for u in range(k))


def test_build_B_shape():
    g = build_B(12, "K3")
    assert g.n == 12 and is_connected(g)
    # three spine vertices, each joined to a private triangle
    assert g.adj[0].bit_count() == 4  # spine neighbour + 3 copy vertices
    g2 = build_B(13, "K2")
    assert g2.n == 13 and is_connected(g2)


def test_build_B_small_degenerates_to_path():
    assert build_B(2, "K3") == path_graph(2)
    assert build_B(3, "K3") == path_graph(3)
    with pytest.raises(ValueError):
        build_B(0, "K3")


def test_build_B_attains_bounds_spot():
    for n in (6, 9, 11):
        assert exact_iota(build_B(n, "K2"), E1).value == n // 3
    for n in (8, 12, 14):
        assert exact_iota(build_B(n, "K3"), E3).value == n // 4


def test_build_B_prime_P3_shape_and_value():
    for n in (8, 11, 13):
        g = build_B(n, "P3", (1,))
        assert g.n == n and is_connected(g)
        a = n // 4
        # leaves: the b - a extras hanging off the spine plus both copy endpoints
        assert leaves(g).bit_count() == (n - 4 * a) + 2 * a
        assert exact_iota(g, E2).value == THEOREMS["k2"].bound(g) == n // 4


def test_build_B_prime_P3_small():
    assert build_B(3, "P3", (1,)) == path_graph(3)
    assert canonical_form(build_B(4, "P3", (1,))) == canonical_form(named_graph("K13"))


def test_build_B_prime_7r_C6():
    g1 = build_B(7, "C6", (0,))
    assert canonical_form(g1) == canonical_form(named_graph("C6P"))
    g2 = build_B(14, "C6", (0,))
    assert g2.n == 14 and is_connected(g2) and leaves(g2).bit_count() == 0
    assert exact_iota(g2, E2).value == 4


@pytest.mark.parametrize("n, f, joins, gadget", [
    (7, "C6", (0, 1), "FqG]?"),
    (7, "C6", (0, 2), "FqGZ?"),
    (7, "C6", (0, 1, 2), "F}GGg"),
    (4, "K3", (0, 1), "C}"),
    (4, "K3", (0,), "C{"),
])
def test_build_B_multi_vertex_joins(n, f, joins, gadget):
    # the r = 1 members of the catalogue's spined families are the gadgets
    assert canonical_form(build_B(n, f, joins)) == canonical_form(graph6_decode(gadget))


def test_pattern_masks_small():
    # 0-based translations of the 1-based periodic formulas
    assert pattern_isolating_set("path", 4, 2) == 1 << 3
    assert pattern_isolating_set("path", 8, 2) == (1 << 3) | (1 << 7)
    assert pattern_isolating_set("cycle", 5, 2) == 1 << 0
    assert pattern_isolating_set("cycle", 10, 2) == (1 << 0) | (1 << 5)
    assert pattern_isolating_set("path", 10, 3) == (1 << 4) | (1 << 9)
    assert pattern_isolating_set("cycle", 12, 3) == (1 << 0) | (1 << 6)
    # the E_3 path period places nothing below n = 5; P_4 still needs a vertex
    assert pattern_isolating_set("path", 3, 3) == 0
    assert pattern_isolating_set("path", 4, 3).bit_count() == 1
    with pytest.raises(ValueError):
        pattern_isolating_set("tree", 8, 2)
    with pytest.raises(ValueError):
        pattern_isolating_set("path", 8, 4)
    # below its least n a pattern would not isolate, so it is refused
    with pytest.raises(ValueError):
        pattern_isolating_set("path", 3, 2)
    with pytest.raises(ValueError):
        pattern_isolating_set("cycle", 2, 3)


@pytest.mark.parametrize("kind,k", [("path", 2), ("cycle", 2),
                                    ("path", 3), ("cycle", 3)])
def test_patterns_isolate(kind, k):
    build = path_graph if kind == "path" else cycle_graph
    fam = edge_family(k)
    for n in range(4, 65):
        d = pattern_isolating_set(kind, n, k)
        assert is_isolating(build(n), d, fam), (kind, k, n)


def test_pattern_sizes_match_bounds():
    # on leafless cycles the pattern meets the k=2 bound with slack <= 1
    for n in range(8, 40):
        d = pattern_isolating_set("cycle", n, 2)
        assert d.bit_count() == (n + 4) // 5
        assert d.bit_count() <= THEOREMS["k2"].bound(cycle_graph(n))
