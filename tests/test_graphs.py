"""Bitmask graph core: construction, neighbourhoods, components, graph6."""

from __future__ import annotations

import os
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isolation_lab.enumeration import canonical_form
from isolation_lab.graphs import (
    Graph,
    Graph6Error,
    bits,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_connected,
    iter_components,
    leaves,
    mask_of,
    named_graph,
    path_graph,
    star_graph,
)

import oracles

# The benchmark's generator and checker carry their own graph6 writer and
# reader and import nothing from the package, so they check the bit layout
# independently of the package and of the plain codec in ``oracles``.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import checker  # noqa: E402
import graphgen  # noqa: E402


def test_graph_construction_and_queries():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.adj[0].bit_count() == 1 and g.adj[1].bit_count() == 2
    assert g.adj[1] >> 2 & 1 and not g.adj[0] >> 3 & 1
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert sorted((a.bit_count() for a in g.adj), reverse=True) == [2, 2, 1, 1]
    assert g.vertex_mask == 0b1111
    # equal graphs hash alike and collapse in a set; the edge order is not kept
    twin = Graph(4, [(3, 2), (1, 0), (2, 1)])
    assert twin == g and hash(twin) == hash(g)
    assert len({g, twin, path_graph(4), star_graph(3)}) == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(65)


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]


def test_closed_neighborhood():
    g = path_graph(5)
    assert closed_neighborhood(g, 1 << 2) == mask_of([1, 2, 3])
    assert closed_neighborhood(g, mask_of([0, 4])) == mask_of([0, 1, 3, 4])
    assert closed_neighborhood(g, 0) == 0


def test_induced_subgraph_relabels():
    g = cycle_graph(5)
    keep = mask_of([1, 2, 4])
    sub = induced_subgraph(g, keep)
    assert sub.n == 3
    # the only surviving edge is 1-2, which maps to local 0-1; local i is
    # the i-th lowest vertex kept
    assert sorted(sub.edges()) == [(0, 1)]
    labels = tuple(bits(keep))
    assert [(labels[a], labels[b]) for a, b in sub.edges()] == [(1, 2)]


def test_delete_vertices_and_closed_neighborhood():
    g = path_graph(6)
    h = induced_subgraph(g, g.vertex_mask & ~mask_of([0, 5]))
    assert h.n == 4 and is_connected(h)
    # G - N[2], as the induced subgraph on the complement of N[2]
    rest = g.vertex_mask & ~closed_neighborhood(g, 1 << 2)
    h2 = induced_subgraph(g, rest)
    assert tuple(bits(rest)) == (0, 4, 5)
    assert sorted(h2.edges()) == [(1, 2)]


def test_components():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    comps = list(iter_components(g))
    assert sorted(comps) == sorted([mask_of([0, 1, 2]), mask_of([3, 4]),
                                    mask_of([5, 6])])
    assert list(iter_components(g, within=mask_of([0, 2, 3, 4]))) == [
        1 << 0, 1 << 2, mask_of([3, 4])]
    assert not is_connected(g)
    assert is_connected(path_graph(4))
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))
    # a piece is connected when g induced on it is; the empty one is
    assert is_connected(g, within=mask_of([0, 1, 2]))
    assert not is_connected(g, within=mask_of([0, 2, 3, 4]))
    assert is_connected(g, within=0)


def test_leaves_and_degrees():
    g = star_graph(3)
    assert leaves(g) == mask_of([1, 2, 3])
    assert g.adj[0].bit_count() == 3 and g.adj[1].bit_count() == 1
    assert leaves(cycle_graph(5)) == 0


def test_builders():
    assert path_graph(1).n == 1 and path_graph(1).edge_count() == 0
    assert cycle_graph(3).edge_count() == 3
    assert complete_graph(4).edge_count() == 6
    star = star_graph(5)
    assert sorted((a.bit_count() for a in star.adj), reverse=True) == [5, 1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_named_graphs():
    assert named_graph("C6").n == 6
    assert named_graph("C6P").n == 7 and leaves(named_graph("C6P")).bit_count() == 1
    c6pp = named_graph("C6PP")
    assert c6pp.n == 7 and c6pp.edge_count() == 8
    assert named_graph("K5").edge_count() == 10
    assert named_graph("P10").n == 10
    # the exception tags that the P<n>/C<n>/K<n> rule builds
    for tag, model in (("K1", complete_graph(1)), ("K2", complete_graph(2)),
                       ("P3", path_graph(3)), ("K3", complete_graph(3)),
                       ("C5", cycle_graph(5)), ("C6", cycle_graph(6)),
                       ("C7", cycle_graph(7))):
        assert named_graph(tag).adj == model.adj
    with pytest.raises(ValueError):
        named_graph("X9")


def test_isomorphism_positive():
    # same 6-vertex tree under two labelings
    a = Graph(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    perm = [3, 0, 5, 1, 4, 2]
    b = Graph(6, [(perm[u], perm[v]) for u, v in a.edges()])
    assert canonical_form(a) == canonical_form(b)


def test_isomorphism_negative_same_degree_sequence():
    # both are 6-vertex trees with degrees (3,2,2,1,1,1), not isomorphic:
    # the spider has its leaves at distances (1,2,2) from the centre, the
    # caterpillar at (1,1,3)
    spider = Graph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])
    caterpillar = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    assert (sorted(a.bit_count() for a in spider.adj)
            == sorted(a.bit_count() for a in caterpillar.adj))
    assert canonical_form(spider) != canonical_form(caterpillar)
    assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))


# ===== graph6 ================================================================


def test_graph6_known_values():
    # n <= 62 header is a single printable byte chr(n + 63)
    assert graph6_encode(Graph(0)) == "?"
    assert graph6_encode(Graph(1)) == "@"
    assert graph6_encode(complete_graph(2)) == "A_"
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_decode("Bw") == complete_graph(3)
    assert graph6_decode("A_") == complete_graph(2)
    assert graph6_decode("A?") == Graph(2)


def test_graph6_rejects_malformed():
    for bad in ("", "B", "Bww", "\x1f", "B\x7f", "~~~"):
        with pytest.raises(Graph6Error):
            graph6_decode(bad)


def test_graph6_optional_header_is_stripped():
    assert graph6_decode(">>graph6<<Bw") == complete_graph(3)


def test_graph6_strips_only_ascii_whitespace():
    assert graph6_decode(" \t\v\fBw\r\n") == complete_graph(3)
    # separators and non-ASCII spaces are bytes outside the graph6 range
    for line, byte in (("Bw\xa0", 160), ("Cr\x1c", 28), ("Bw\x85", 133),
                       ("\x1fBw", 31)):
        pos = line.index(chr(byte))
        with pytest.raises(Graph6Error, match=f"^byte {byte} at position {pos} "
                                               "outside graph6 range$"):
            graph6_decode(line)


def test_graph6_text_is_kept_only_when_canonical():
    # a decoded graph gives back its line's text without the layout and the
    # header; the long vertex count of a graph on at most 62 vertices is
    # not canonical, so that line is re-encoded
    for line in ("Bw", "~??Bw", ">>graph6<<Bw", " Bw\t", ">>graph6<<~??Bw\n"):
        assert graph6_encode(graph6_decode(line)) == "Bw", repr(line)
    big = graph6_encode(path_graph(63))
    assert big.startswith("~??~") and graph6_encode(graph6_decode(big)) == big


def test_graph6_text_is_no_part_of_the_graph():
    # equality, hashing and pickles read n and adj only: a graph with a kept
    # text is interchangeable with one without, and a pickle drops the text
    texts = [graph6_decode(line) for line in ("Bw", "~??Bw", ">>graph6<<Bw")]
    plain = Graph.from_adj(3, complete_graph(3).adj)
    for g in texts:
        assert g == plain and hash(g) == hash(plain)
        assert pickle.dumps(g) == pickle.dumps(plain)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and graph6_encode(copy) == "Bw"
    assert len({*texts, plain, complete_graph(3)}) == 1
    assert canonical_form(texts[0]) == canonical_form(plain)


def _random_adj(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def _assert_codec_agrees(g: Graph) -> None:
    line = graph6_encode(g)
    assert line == oracles.graph6_encode(g.n, g.adj) == graphgen.graph6(g.adj)
    assert graph6_decode(line) == g
    assert oracles.graph6_decode(line) == (g.n, g.adj)
    assert checker.decode(line) == g.adj


def test_graph6_matches_plain_codec_on_small_classes(connected_upto):
    for g in connected_upto(0, 8):
        _assert_codec_agrees(g)


def test_graph6_matches_plain_codec_on_random_graphs():
    # every n up to the cap, so both header forms (n = 62 is '}', 63 and 64
    # take '~' and three digits) and every padding width are crossed
    rng = random.Random(6)
    for n in range(65):
        for p in (0, 0.03, 0.1, 0.5, 1):
            for _ in range(2):
                _assert_codec_agrees(Graph.from_adj(n, _random_adj(rng, n, p)))
    assert graph6_encode(Graph(62))[0] == "}"
    assert graph6_encode(Graph(63)).startswith("~??~")
    assert graph6_encode(Graph(64)).startswith("~?@?")


def _mutations(rng: random.Random, line: str) -> list[str]:
    """Lines one edit away from ``line``, malformed or not."""
    pos = rng.randrange(len(line))
    other = chr(rng.choice((rng.randrange(32, 200), rng.randrange(63, 127))))
    out = [
        line[:pos] + other + line[pos + 1:],  # a byte replaced
        line[:pos] + line[pos + 1:],  # a byte dropped
        line[:pos] + other + line[pos:],  # a byte added
        line[:-1] + chr(rng.randrange(63, 127)),  # padding bits touched
        "~~" + line,
        ">>graph6<<" + line,
        ">>graph6<<",
        rng.choice((" ", "\t", "\r\n", "\x0b", "\x1e", "\xa0")) + line,
    ]
    if line[0] == "~":
        out += [line[:cut] for cut in range(1, 4)]  # truncated header
    return out


def test_graph6_malformed_lines_keep_their_messages():
    rng = random.Random(14)
    outcomes = {"graph": 0, "error": 0}
    for n in list(range(12)) + [40, 61, 62, 63, 64]:
        for p in (0.1, 0.5):
            line = graph6_encode(Graph.from_adj(n, _random_adj(rng, n, p)))
            for _ in range(8):
                for bad in _mutations(rng, line):
                    try:
                        expected = oracles.graph6_decode(bad)
                    except ValueError as exc:
                        with pytest.raises(Graph6Error) as got:
                            graph6_decode(bad)
                        assert str(got.value) == str(exc), repr(bad)
                        outcomes["error"] += 1
                    else:
                        g = graph6_decode(bad)
                        assert (g.n, g.adj) == expected, repr(bad)
                        outcomes["graph"] += 1
    assert outcomes["graph"] > 100 and outcomes["error"] > 1000, outcomes


def test_graph6_kept_text_is_the_canonical_line():
    # every line the decoder accepts, including the edits of the test above
    # that it accepts, gives back the text the encoder writes for its graph
    rng = random.Random(15)
    accepted = 0
    for n in list(range(12)) + [40, 61, 62, 63, 64]:
        line = graph6_encode(Graph.from_adj(n, _random_adj(rng, n, 0.3)))
        # the same graph with a long vertex count, canonical from n = 63 on
        body = line[1:] if n <= 62 else line[4:]
        long = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)) + body
        for _ in range(8):
            for text in _mutations(rng, line) + [long]:
                try:
                    g = graph6_decode(text)
                except Graph6Error:
                    continue
                accepted += 1
                assert graph6_encode(g) == oracles.graph6_encode(g.n, g.adj), repr(text)
    assert accepted > 100


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_graph6_round_trip_random(data):
    n = data.draw(st.integers(min_value=0, max_value=20))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, picked)
    assert graph6_decode(graph6_encode(g)) == g
