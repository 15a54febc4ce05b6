"""Bound formulas and exception recognition."""

from __future__ import annotations

import random

import pytest

import oracles
from isolation_lab.bounds import (
    THEOREMS,
    check_bound,
    classify_exception,
)
from isolation_lab.families import exact_iota
from isolation_lab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    leaves,
    named_graph,
    path_graph,
    star_graph,
)

# the six exceptions of the E_2 bound, as the paper lists them
S_TAGS = ("P3", "K3", "K13", "C6", "C6P", "C6PP")


def test_bound_formulas():
    def bounds(theorem, graphs):
        return [THEOREMS[theorem].bound(g) for g in graphs]

    assert bounds("k1", map(path_graph, (1, 3, 8, 15))) == [0, 1, 2, 5]
    assert bounds("k2", (cycle_graph(6), cycle_graph(14))) == [1, 4]
    # a 10-vertex path with a pendant at each of vertices 1..4
    leafy = Graph(14, [(i, i + 1) for i in range(9)]
                  + [(i, i + 9) for i in range(1, 5)])
    assert leaves(leafy).bit_count() == 6
    assert THEOREMS["k2"].bound(leafy) == 3  # leaves lower the k=2 bound
    assert bounds("k3", map(path_graph, (4, 7, 16))) == [1, 1, 4]
    assert bounds("cycles", map(cycle_graph, (3, 4, 16))) == [0, 1, 4]


def test_theorem_bound_dispatch():
    g = star_graph(4)  # n=5, 4 leaves
    assert THEOREMS["k1"].bound(g) == 1
    assert THEOREMS["k2"].bound(g) == (4 * 5 - 4) // 14
    assert THEOREMS["k3"].bound(g) == 1
    assert THEOREMS["cycles"].bound(g) == 1
    assert THEOREMS["k2"].family.k == 2


def test_classify_exception_recognizes_relabelings():
    assert classify_exception(path_graph(3), "k2") == "P3"
    assert classify_exception(cycle_graph(7), "k3") == "C7"
    assert classify_exception(cycle_graph(7), "k2") is None
    assert classify_exception(cycle_graph(6), "k2") == "C6"
    assert classify_exception(cycle_graph(6), "k3") is None
    assert classify_exception(complete_graph(3), "cycles") == "K3"
    assert classify_exception(complete_graph(2), "k1") == "K2"
    assert classify_exception(cycle_graph(5), "k1") == "C5"
    # a scrambled labeling of the pendant 6-cycle is still recognized
    model = named_graph("C6P")
    perm = [4, 2, 6, 0, 5, 1, 3]
    scrambled = Graph(7, [(perm[u], perm[v]) for u, v in model.edges()])
    assert classify_exception(scrambled, "k2") == "C6P"
    with pytest.raises(ValueError):
        classify_exception(path_graph(3), "k9")


def test_classify_exception_matches_oracle_keys(connected_upto):
    # every class with n <= 7 and one seeded relabelling of each, against
    # the brute-force canonical keys of the exception graphs
    expected = {}
    for theorem in THEOREMS:
        for tag in {"k1": ("K2", "C5"), "k2": S_TAGS,
                    "k3": ("K3", "C7"), "cycles": ("K3",)}[theorem]:
            model = named_graph(tag)
            key = (model.n, oracles.canonical_edge_key(model.n, list(model.edges())))
            expected[theorem, key] = tag
    rng = random.Random(7)
    found = set()
    for g in connected_upto(1, 7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for h in (g, relabelled):
            key = (h.n, oracles.canonical_edge_key(h.n, list(h.edges())))
            for theorem in THEOREMS:
                tag = classify_exception(h, theorem)
                assert tag == expected.get((theorem, key))
                if tag is not None:
                    found.add((theorem, tag))
    # every exception of every bound is met, so no comparison is vacuous
    assert found == {(th, tag) for (th, _), tag in expected.items()}


def test_s_graph_tags():
    for tag in S_TAGS:
        assert classify_exception(named_graph(tag), "k2") == tag
    assert classify_exception(cycle_graph(7), "k2") is None
    assert set(THEOREMS) == {"k1", "k2", "k3", "cycles"}


def test_every_exception_exceeds_its_bound_by_one():
    # extremal expects bound + 1 of a sharp family's member that is an
    # exception, which rests on this
    pairs = [(th, tag) for th in THEOREMS.values() for tag in th.exceptions]
    assert len(pairs) == 11
    for th, tag in pairs:
        g = named_graph(tag)
        assert exact_iota(g, th.family).value == th.bound(g) + 1, tag


def test_check_bound_exception_graph():
    rec = check_bound(cycle_graph(6), "k2")
    assert rec.exception == "C6"
    assert rec.iota == 2 and rec.bound == 1
    assert not rec.violated and not rec.tight


def test_check_bound_tight_graph():
    rec = check_bound(cycle_graph(6), "k3")
    assert rec.exception is None
    assert rec.iota == 1 and rec.bound == 1
    assert rec.tight and not rec.violated


def test_check_bound_budget_skip():
    rec = check_bound(cycle_graph(9), "k1", budget=0)
    assert rec.iota is None and rec.witness is None and not rec.violated
