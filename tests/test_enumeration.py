"""Builtin enumeration against brute-force oracles, and graph6 streams."""

from __future__ import annotations

import multiprocessing
import random

import pytest

import oracles
from isolation_lab import enumeration
from isolation_lab.enumeration import (
    BUILTIN_MAX_N,
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
    iter_components,
    path_graph,
    star_graph,
)

# connected graphs per isomorphism class, n = 0..9 (OEIS A001349; the
# labelled brute-force oracle reproduces them for n <= 6)
KNOWN_CONNECTED_COUNTS = (0, 1, 1, 2, 6, 21, 112, 853, 11117, 261080)


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


def test_canonical_form_memo_returns_the_uncached_key(connected_upto):
    # every class n <= 7, asked for once (a miss), again (a hit) and as an
    # equal copy (a hit on the same labelled graph)
    unmemoised = canonical_form.__wrapped__
    graphs = connected_upto(1, 7)
    canonical_form.cache_clear()
    for g in graphs:
        key = unmemoised(g)
        assert canonical_form(g) == key
        assert canonical_form(g) == key
        assert canonical_form(Graph.from_adj(g.n, g.adj)) == key
    info = canonical_form.cache_info()
    assert info.misses == 996 and info.hits == 2 * 996


def test_canonical_form_memo_stays_within_its_bound(connected_upto):
    bound = canonical_form.cache_info().maxsize
    graphs = connected_upto(8, 8)
    assert bound is not None and len(graphs) > bound
    for g in graphs:
        canonical_form(g)
    assert canonical_form.cache_info().currsize == bound


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
    real = enumeration._search
    calls = 0

    def counted(g, *args):
        nonlocal calls
        calls += g.n == 7  # a child's search, not a parent's generators
        return real(g, *args)

    monkeypatch.setattr(enumeration, "_search", counted)
    level = enumeration._next_level(parents, map)
    # only children with a tied deletion vertex are searched: 281 of 7,056
    assert children == 7056 and calls <= children // 24
    assert len(level) == KNOWN_CONNECTED_COUNTS[7]
    assert ({canonical_form(g) for g in level}
            == {canonical_form(g) for g in connected_graphs(7)})


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


def _keys(level, key=oracles.canonical_form) -> set:
    return {key(len(adj), adj) for adj in level}


def test_levels_match_keyed_oracle():
    # the keyed enumerator, which merges every passing child through one
    # set of canonical keys, builds the same classes
    level = [Graph(1).adj]
    for n in range(2, 8):
        level = oracles.next_level(level)
        assert _keys(level) == _keys(g.adj for g in connected_graphs(n)), n
    # level 8 through the package's kernel, which
    # test_kernel_matches_plain_oracle ties to the plain one
    colors, key = _graph_kernel()
    level = oracles.next_level(level, colors, key)
    assert _keys(level, key) == _keys((g.adj for g in connected_graphs(8)), key)


def test_children_keep_one_per_class(connected_upto):
    # each kept child's new vertex passes the canonical-deletion test, and
    # a child in which it is the only passing vertex is kept when its mask
    # is the least of its Aut(parent) orbit (level 8 is covered by
    # test_levels_match_keyed_oracle: a wrong keep would add a class)
    kept = tied = 0
    for parent in connected_upto(1, 6):
        masks = set(enumeration._children(parent))
        auts = oracles.automorphisms(parent.n, parent.adj)
        for mask in range(1, 1 << parent.n):
            child = enumeration._child(parent, mask)
            passing = oracles.deletion_candidates(child.n, child.adj)
            if mask in masks:
                assert parent.n in passing, graph6_encode(child)
                kept += 1
                tied += len(passing) > 1
            elif passing == [parent.n]:
                members = [v for v in range(parent.n) if mask >> v & 1]
                assert mask > min(sum(1 << a[v] for v in members)
                                  for a in auts), graph6_encode(child)
    assert kept == sum(KNOWN_CONNECTED_COUNTS[2:8])
    # of the 281 children searched at n = 7, one is rejected
    assert tied == 280 + 58 + 13 + 5 + 2 + 1


def _children_refined_first(parent: Graph, refined_colors) -> list[int]:
    """``enumeration._children`` deciding every tie on the stable colours,
    as the reference for the round-1 decision."""
    new = parent.n
    degree = [a.bit_count() for a in parent.adj]
    order = sorted(range(new), key=degree.__getitem__)
    splits = [list(iter_components(parent, parent.vertex_mask & ~(1 << u)))
              for u in range(new)]
    gens: list[list[int]] = []
    enumeration._search(parent, refined_colors(parent), gens)
    tried: set[int] = set()
    out = []
    for mask in range(1, 1 << new):
        d = mask.bit_count()
        ties = []
        for u in order:
            du = degree[u] + (mask >> u & 1)
            if du > d:
                continue
            if all(mask & c for c in splits[u]):
                if du < d:
                    break
                ties.append(u)
        else:
            if gens:
                if mask in tried:
                    continue
                tried |= enumeration._orbit(mask, gens)
            if ties:
                child = enumeration._child(parent, mask)
                colors = refined_colors(child)
                top = max(colors[u] for u in ties)
                if top > colors[new]:
                    continue
                if top == colors[new]:
                    auts: list[list[int]] = []
                    _, best = enumeration._search(child, colors, auts)
                    first = next(v for v in best if colors[v] == top
                                 and (v == new or v in ties))
                    if 1 << new not in enumeration._orbit(1 << first, auts):
                        continue
            out.append(mask)
    return out


def test_round_one_keeps_the_children_of_full_refinement(connected_upto, monkeypatch):
    # a child whose round-1 signatures tell its new vertex from its ties is
    # decided there; the kept masks must be those of deciding every tie on
    # the stable colours, at n <= 8 and on a sample of level 9
    real = enumeration._refined_colors
    refined = 0

    def counted(g):
        nonlocal refined
        refined += 1
        return real(g)

    monkeypatch.setattr(enumeration, "_refined_colors", counted)
    parents = connected_upto(1, 7)
    for parent in parents:
        assert enumeration._children(parent) == _children_refined_first(parent, real)
    # generation n <= 8: one refinement per parent, and one per child whose
    # tie round 1 leaves (4,144 of the 12,252 children with a tie)
    assert refined - len(parents) <= 4144
    for parent in connected_upto(8, 8)[::40]:
        assert enumeration._children(parent) == _children_refined_first(parent, real)


def _rounds(g: Graph) -> list[list[int]]:
    """The colourings of g from the degrees on, one per refinement round,
    n + 1 rounds whether or not a round splits a class."""
    colors = [a.bit_count() for a in g.adj]
    out = [colors]
    for _ in range(g.n + 1):
        sigs = enumeration._signatures(g.adj, colors, range(g.n))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        out.append(colors)
    return out


def test_refinement_never_reverses_an_order(connected_upto):
    # the round-1 decision is exact only because a round keeps the order of
    # any two vertices of different colours: the old colour is the leading
    # digit of every signature
    rng = random.Random(11)
    for g in connected_upto(1, 7):
        for h in (g, _relabelled(g, rng), _relabelled(g, rng)):
            rounds = _rounds(h)
            for r, earlier in enumerate(rounds):
                classes: dict[int, list[int]] = {}
                for v, c in enumerate(earlier):
                    classes.setdefault(c, []).append(v)
                ordered = [classes[c] for c in sorted(classes)]
                for later in rounds[r + 1:]:
                    for low, high in zip(ordered, ordered[1:]):
                        assert (max(later[v] for v in low)
                                < min(later[v] for v in high)), graph6_encode(h)
            # the early stop loses nothing: later rounds change no colour
            assert rounds[-1] == enumeration._refined_colors(h), graph6_encode(h)


def test_search_ordering_gives_the_key(connected_upto):
    # the keep rule reads the first passing vertex off the ordering that
    # _search returns, so relabelling g by it must give the key's columns
    rng = random.Random(10)
    for g in connected_upto(1, 7):
        for h in (g, _relabelled(g, rng), _relabelled(g, rng)):
            colors = enumeration._refined_colors(h)
            key, order = enumeration._search(h, colors)
            assert enumeration._search(h, colors, []) == (key, order)
            assert sorted(order) == list(range(h.n))
            label = {v: i for i, v in enumerate(order)}
            adj = [0] * h.n
            for u, v in h.edges():
                adj[label[u]] |= 1 << label[v]
                adj[label[v]] |= 1 << label[u]
            cols = []
            for pos in range(1, h.n):
                col = 0
                for i in range(pos):
                    col = col << 1 | (adj[pos] >> i & 1)
                cols.append(col)
            assert key == (h.n, *cols), graph6_encode(h)


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
        gens: list[list[int]] = []
        enumeration._search(g, enumeration._refined_colors(g), gens)
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
