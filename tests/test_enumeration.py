"""Builtin enumeration against brute-force oracles, and graph6 streams."""

from __future__ import annotations

import multiprocessing
import random

import pytest

import oracles
from isolation_lab import enumeration
from isolation_lab.enumeration import (
    BUILTIN_MAX_N,
    KNOWN_CONNECTED_COUNTS,
    Graph6StreamError,
    canonical_form,
    connected_graphs,
    read_graph6_stream,
)
from isolation_lab.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    graph6_encode,
    is_connected,
    path_graph,
    star_graph,
)


def test_counts_against_labeled_brute_force():
    for n in range(1, 7):
        assert len(tuple(connected_graphs(n))) == oracles.connected_class_count(n)
        # the oracle's own connectivity filter, cross-checked by recurrence
        assert (oracles.labeled_connected_count(n)
                == oracles.labeled_connected_count_recurrence(n))


def test_counts_known_values(connected_upto):
    for n in range(1, 9):
        assert len(tuple(connected_graphs(n))) == KNOWN_CONNECTED_COUNTS[n]
    assert len(connected_upto(1, 8)) == sum(KNOWN_CONNECTED_COUNTS[1:9])


def test_emitted_graphs_are_connected_and_distinct(connected_upto):
    for n in (7, 8):
        forms = set()
        for g in connected_upto(n, n):
            assert g.n == n and is_connected(g)
            forms.add(canonical_form(g))
        assert len(forms) == KNOWN_CONNECTED_COUNTS[n]


def test_no_isomorphic_duplicates_small(connected_upto):
    # the brute-force oracle key, not the package's canonical form
    for n in range(1, 7):
        classes = connected_upto(n, n)
        keys = {oracles.canonical_edge_key(n, list(g.edges())) for g in classes}
        assert len(keys) == len(classes)


def test_determinism():
    first = [graph6_encode(g) for g in connected_graphs(6)]
    second = [graph6_encode(g) for g in connected_graphs(6)]
    assert first == second


def test_builtin_range_guard():
    with pytest.raises(ValueError):
        list(connected_graphs(BUILTIN_MAX_N + 1))
    assert list(connected_graphs(0)) == []


def test_canonical_form_is_label_invariant():
    a = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    perm = [2, 5, 0, 4, 1, 3]
    b = Graph(6, [(perm[u], perm[v]) for u, v in a.edges()])
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(path_graph(4)) != canonical_form(cycle_graph(4))


def test_refined_colors_follow_relabelling(connected_upto):
    # the canonical-deletion test is exact only because the colours are an
    # isomorphism invariant: relabelling a graph permutes its colours
    rng = random.Random(8)
    classes = connected_upto(1, 7)
    assert len(classes) == sum(KNOWN_CONNECTED_COUNTS[1:8])
    for g in classes:
        colors = enumeration._refined_colors(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            moved = enumeration._refined_colors(h)
            assert [moved[perm[v]] for v in range(g.n)] == colors


def test_children_rejected_before_canonical_form(monkeypatch):
    parents = tuple(connected_graphs(6))
    children = len(parents) * (2 ** 6 - 1)  # every parent by every mask
    real = enumeration.canonical_form
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "canonical_form", counted)
    level = enumeration._next_level(parents, map)
    assert len(level) == KNOWN_CONNECTED_COUNTS[7]
    assert {real(g) for g in level} == {real(g) for g in connected_graphs(7)}
    # only children with a tied deletion vertex are keyed: 281 of 7,056
    assert children == 7056 and calls <= children // 24


def test_pooled_level_matches_serial():
    # the process-wide levels are built before any CLI test reaches a
    # pool, so build level 7 here both ways from the same parents
    parents = tuple(connected_graphs(6))
    serial = enumeration._next_level(parents, map)
    with multiprocessing.Pool(processes=2) as pool:
        pooled = enumeration._next_level(parents, pool.imap)
    assert len(serial) == KNOWN_CONNECTED_COUNTS[7]
    assert [g.adj for g in pooled] == [g.adj for g in serial]


def _graph_kernel():
    """The package's colours and key as (n, adj) functions, for the oracle."""
    def colors(n, adj):
        return enumeration._refined_colors(Graph.from_adj(n, adj))

    def key(n, adj):
        return canonical_form(Graph.from_adj(n, adj))

    return colors, key


def test_levels_match_keyed_oracle():
    # orbit pruning and the unkeyed children change nothing: the keyed
    # enumerator builds the same classes, representatives and order
    level = [Graph(1).adj]
    for n in range(2, 8):
        level = oracles.next_level(level)
        assert level == [g.adj for g in connected_graphs(n)], n
    # level 8 through the package's kernel, which
    # test_kernel_matches_plain_oracle ties to the plain one
    level = oracles.next_level(level, *_graph_kernel())
    assert level == [g.adj for g in connected_graphs(8)]


def test_children_keyed_only_when_tied(connected_upto):
    # a child's key is None exactly when its new vertex is the only vertex
    # that passes the canonical-deletion test (level 8 is covered by
    # test_levels_match_keyed_oracle: a wrong None would add a class)
    keyed = unkeyed = 0
    for parent in connected_upto(1, 6):
        for mask, key in enumeration._children(parent):
            child = enumeration._child(parent, mask)
            passing = oracles.deletion_candidates(child.n, child.adj)
            assert parent.n in passing
            if key is None:
                assert passing == [parent.n], graph6_encode(child)
                unkeyed += 1
            else:
                assert len(passing) > 1 and key == canonical_form(child)
                keyed += 1
    assert keyed + unkeyed == 854 + 112 + 21 + 6 + 2 + 1
    assert keyed == 281 + 58 + 13 + 5 + 2 + 1


def test_generators_give_brute_force_orbits(connected_upto):
    # the leaf maps of the canonical search and the twin transpositions
    # generate Aut(g): their orbits on the vertex masks are those of every
    # automorphism, found by brute force
    graphs = connected_upto(1, 6)
    for n in range(2, 9):
        graphs += [complete_graph(n), star_graph(n - 1)]
        graphs += [_complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)]
        if n >= 3:
            graphs.append(cycle_graph(n))
    for g in graphs:
        auts = oracles.automorphisms(g.n, g.adj)
        gens = enumeration._generators(g)
        assert all(image in auts for image in gens), graph6_encode(g)
        covered = 0
        for mask in range(1, 1 << g.n):
            if covered >> mask & 1:
                continue
            members = [v for v in range(g.n) if mask >> v & 1]
            orbit = {sum(1 << a[v] for v in members) for a in auts}
            assert enumeration._orbit(mask, gens) == orbit, (graph6_encode(g), mask)
            for m in orbit:
                covered |= 1 << m


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def test_kernel_matches_plain_oracle(connected_upto):
    # the count signatures and the twin pruning must not change a single
    # colour value or key: the rejection rule compares colour values, and
    # the keys pick each class's representative
    rng = random.Random(9)
    graphs = []
    for g in connected_upto(1, 7):
        graphs += [g, _relabelled(g, rng), _relabelled(g, rng)]
    for n in range(1, 9):  # the graphs twin pruning cuts down most
        graphs += [complete_graph(n), star_graph(n - 1)]
        graphs += [_complete_bipartite(a, n - a) for a in range(1, n)]
        if n >= 3:
            graphs.append(cycle_graph(n))
    assert len(graphs) == 3 * sum(KNOWN_CONNECTED_COUNTS[1:8]) + 50
    for g in graphs:
        assert (enumeration._refined_colors(g)
                == oracles.refined_colors(g.n, g.adj)), graph6_encode(g)
        assert (canonical_form(g)
                == oracles.canonical_form(g.n, g.adj)), graph6_encode(g)


# ===== graph6 streams ========================================================


def test_stream_reads_and_filters():
    lines = [
        ">>graph6<<",
        "",
        graph6_encode(cycle_graph(5)),
        graph6_encode(Graph(3, [(0, 1)])),  # disconnected
        graph6_encode(path_graph(2)),
    ]
    issues = []
    got = list(read_graph6_stream(lines, connected_only=True, issues=issues))
    assert [g.n for g in got] == [5, 2]
    assert [line_no for line_no, _ in issues] == [4]
    got_all = list(read_graph6_stream(lines))
    assert len(got_all) == 3


def test_stream_strict_raises_with_line_number():
    lines = ["Bw", "!!bad!!", "A_"]
    with pytest.raises(Graph6StreamError) as err:
        list(read_graph6_stream(lines, strict=True))
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


def test_stream_lenient_records_issues():
    lines = ["Bw", "!!bad!!", "A_"]
    issues: list = []
    got = list(read_graph6_stream(lines, strict=False, issues=issues))
    assert len(got) == 2
    assert len(issues) == 1 and issues[0][0] == 2
