"""The inductive construction: case fixtures, soundness, and refusals.

Most of the interesting branches only activate on graphs larger than the
exhaustive sweep range (two bad components need n >= 11 with the spine they
hang from), so each branch gets a hand-built fixture known to land on it.
The fixtures pin the dispatched case label, the certificate size, and the
bound, so any change to the dispatch order or the tie-breaking shows up here.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import Counter

import pytest

from isolation_lab import bounds, cli, families, graphs, prover
from isolation_lab.bounds import THEOREMS, bad_piece
from isolation_lab.families import edge_family, exact_iota, is_isolating, piece_witness
from isolation_lab.graphs import (Graph, bits, cycle_graph, graph6_decode, is_connected,
                                  iter_components, leaves, mask_of, named_graph)
from isolation_lab.prover import (
    Certificate,
    InternalConsistencyError,
    TraceEntry,
    isolate_k2,
    isolate_k3,
    residual_set_for_bad,
)

# the benchmark's seeded generator imports nothing from the package
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import graphgen  # noqa: E402

E2, E3 = edge_family(2), edge_family(3)


def _prove(k: int, g: Graph) -> Certificate:
    return isolate_k2(g) if k == 2 else isolate_k3(g)


# ===== engineered case fixtures ==============================================
#
# (k, expected top-level case, |d|, bound, edges); the vertex counts are the
# smallest that make the case reachable.  v = 0 is always the max-degree
# vertex the induction pivots on.

CASE_FIXTURES = [
    # one anchor shared by two bad components
    (2, "shared-anchor", 2, 2, 10,
     [(0, 1), (0, 2), (0, 3), (1, 4), (1, 7), (4, 5), (5, 6), (7, 8), (8, 9)]),
    # two bad components on distinct anchors: a triangle carves off
    (2, "pair-carve", 2, 3, 11,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (5, 7), (8, 9), (9, 10),
      (1, 5), (3, 5), (2, 9), (4, 9)]),
    # ... or both components are 6-cycles
    (2, "pair-carve", 4, 4, 17,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
      (10, 5), (11, 12), (12, 13), (13, 14), (14, 15), (15, 16), (16, 11),
      (1, 5), (3, 5), (2, 11), (4, 11)]),
    # ... or a midpoint-linked 3-path whose ends are both true leaves
    (2, "pair-carve", 3, 3, 14,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9), (9, 10),
      (10, 11), (11, 12), (12, 13), (13, 8), (1, 6), (3, 6), (2, 8), (4, 11)]),
    # 3-path + 6-cycle pair, no true leaf on the path ends
    (2, "pair-p3-unleafed", 4, 4, 14,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9), (9, 10),
      (10, 11), (11, 12), (12, 13), (13, 8), (1, 5), (3, 7), (2, 8), (4, 11)]),
    # ... exactly one true leaf end
    (2, "pair-p3-halfleaf", 3, 3, 14,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9), (9, 10),
      (10, 11), (11, 12), (12, 13), (13, 8), (1, 5), (3, 5), (2, 8), (4, 11)]),
    # two 3-paths, at most two true leaf ends: dominate both midpoints
    (2, "pair-p3p3-dominate", 3, 3, 11,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9), (9, 10),
      (1, 5), (3, 7), (2, 8), (4, 10)]),
    # two 3-paths, three or more leaf ends: shed a leafy path
    (2, "pair-p3p3-shedleaf", 2, 2, 11,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9), (9, 10),
      (1, 6), (3, 6), (2, 9), (4, 9)]),
    # lone bad component that is a pendant 6-cycle
    (2, "single-attached", 3, 3, 11,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
      (4, 10), (1, 5), (2, 8)]),
    # lone bad 6-cycle spanning the whole graph: I connected
    (2, "single-c6-whole", 2, 2, 10,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
      (1, 4), (2, 7)]),
    # ... I disconnected
    (2, "single-c6-whole", 2, 2, 10,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
      (1, 4), (2, 5)]),
    # ... I another 6-cycle
    (2, "single-c6-whole", 2, 2, 10,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
      (1, 4), (2, 6), (3, 8)]),
    # lone bad 6-cycle with more graph hanging off the frontier
    (2, "single-c6-carve", 2, 3, 11,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
      (1, 4), (2, 7), (3, 10)]),
    (2, "single-c6-split", 3, 3, 12,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4),
      (1, 4), (2, 5), (3, 10), (10, 11)]),
    # singly-linked bad component whose removal leaves a small exception
    (2, "lone-anchor-small-rescue", 1, 2, 9,
     [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (5, 6), (1, 7), (7, 8)]),
    (2, "lone-anchor-cycle-rescue", 2, 2, 10,
     [(0, 1), (0, 2), (0, 3), (2, 4), (4, 5), (5, 6), (6, 3), (1, 7), (7, 8),
      (8, 9)]),

    (3, "shared-anchor", 2, 2, 10,
     [(0, 1), (0, 2), (0, 3), (1, 4), (1, 7), (4, 5), (5, 6), (6, 4), (7, 8),
      (8, 9), (9, 7)]),
    (3, "pair-carve", 2, 2, 11,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (7, 5), (8, 9), (9, 10),
      (10, 8), (1, 5), (3, 5), (2, 8), (4, 8)]),
    # carving a triangle can strand part of a 7-cycle as a 4-path
    (3, "pair-carve", 3, 3, 15,
     [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
      (10, 11), (11, 5), (12, 13), (13, 14), (14, 12), (1, 5), (3, 5),
      (2, 12), (4, 12)]),
    # lone bad 7-cycle spanning the whole graph: I connected
    (3, "single-c7-whole", 2, 2, 11,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
      (10, 4), (1, 4), (2, 6)]),
    # ... I another 7-cycle
    (3, "single-c7-whole", 2, 2, 11,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
      (10, 4), (1, 4), (2, 6), (3, 9)]),
    (3, "single-c7-carve", 2, 3, 12,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
      (10, 4), (1, 4), (2, 6), (3, 11)]),
    (3, "single-c7-split", 2, 3, 12,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
      (10, 4), (1, 4), (2, 5), (3, 11)]),
    # lone bad triangle whose removal leaves a 7-cycle through v
    (3, "single-k3-cyclepatch", 2, 2, 11,
     [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (6, 4), (1, 4), (2, 5), (2, 7),
      (7, 8), (8, 9), (9, 10), (10, 3)]),
    (3, "lone-anchor-small-rescue", 1, 2, 9,
     [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (4, 5), (5, 6), (6, 4), (1, 7),
      (7, 8)]),
    (3, "lone-anchor-cycle-rescue", 2, 2, 11,
     [(0, 1), (0, 2), (0, 3), (2, 4), (4, 5), (5, 6), (6, 7), (7, 3), (1, 8),
      (8, 9), (9, 10), (10, 8)]),
]


# Copies of fixtures above that reach a branch their originals miss: a
# relabelling by one shuffle of random.Random(0), or one more edge.  The key
# names the branch and ends the test id.
BRANCH_FIXTURES = {
    # 4th shuffle of the first k2 pair-carve fixture: the triangle is the
    # second bad component, so that one is carved
    "second-carved": (2, "pair-carve", 2, 3, 11,
        [(0, 1), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (3, 5), (3, 8),
         (3, 9), (4, 6), (4, 7), (4, 10), (7, 10)]),
    # the shedleaf fixture with its second path's end 10 linked to 4: the
    # first path has two leaf ends and the second one, so the second is shed
    "second-shed": (2, "pair-p3p3-shedleaf", 2, 2, 11,
        [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9), (9, 10),
         (1, 6), (3, 6), (2, 9), (4, 9), (4, 10)]),
    # 41st shuffle of the first k3 single-c7-whole fixture: the cycle is
    # reversed so that the partner anchor meets it two steps from y1
    "cycle-reversed": (3, "single-c7-whole", 2, 2, 11,
        [(0, 5), (0, 6), (1, 2), (1, 7), (2, 9), (3, 5), (3, 9), (4, 6),
         (4, 7), (5, 10), (6, 8), (7, 10), (8, 9)]),
}
ALL_FIXTURES = CASE_FIXTURES + list(BRANCH_FIXTURES.values())


@pytest.mark.parametrize(
    "k,case,d_size,bound,n,edges", ALL_FIXTURES,
    ids=[f"k{k}-{case}-n{n}" for k, case, _, _, n, edges in CASE_FIXTURES]
    + [f"k{k}-{case}-{name}" for name, (k, case, *_) in BRANCH_FIXTURES.items()])
def test_case_fixture(k, case, d_size, bound, n, edges):
    g = Graph(n, edges)
    cert = _prove(k, g)
    assert cert.trace[-1].case == case
    assert cert.d.bit_count() == d_size
    assert cert.bound == bound == THEOREMS[f"k{k}"].bound(g)
    assert cert.leaves == leaves(g)
    fam = E2 if k == 2 else E3
    assert is_isolating(g, cert.d, fam)
    assert exact_iota(g, fam).value <= d_size <= bound


# Cases that the exhaustive range does reach, pinned to one 8-vertex witness
# each (first builtin graph in enumeration order that lands on the case).

SWEEP_WITNESSES = [
    (2, "path-pattern", "GqGOOG", 2, 2),
    (2, "cycle-pattern", "GqGOOK", 2, 2),
    (2, "dominated", "GsaCC?", 1, 1),
    (2, "no-bad", "GsaCA?", 1, 1),
    (2, "wide-frontier", "Gs`A@K", 2, 2),
    (2, "wide-frontier-all-leaves", "Gs`A?K", 1, 2),
    (2, "lone-anchor", "GsP@?W", 2, 2),
    (2, "single-small-dominate", "GsP@?w", 2, 2),
    (2, "single-small-wleaf", "GsP@@W", 2, 2),
    (2, "single-small-splitattach", "GsO_Oo", 2, 2),
    (2, "single-small-sharedattach", "GsOoGC", 2, 2),
    (3, "path-pattern", "GqGOOG", 1, 2),
    (3, "cycle-pattern", "GqGOOK", 2, 2),
    (3, "dominated", "GsaCC?", 1, 2),
    (3, "no-bad", "GsaCA?", 1, 2),
    (3, "wide-frontier", "Gs`?GK", 2, 2),
    (3, "lone-anchor", "GsO_OS", 2, 2),
    (3, "single-k3-carve", "GsP@PS", 2, 2),
]


@pytest.mark.parametrize(
    "k,case,g6,d_size,bound", SWEEP_WITNESSES,
    ids=[f"k{k}-{case}" for k, case, *_ in SWEEP_WITNESSES])
def test_sweep_witness(k, case, g6, d_size, bound):
    g = graph6_decode(g6)
    cert = _prove(k, g)
    assert cert.trace[-1].case == case
    assert cert.d.bit_count() == d_size and cert.bound == bound
    assert is_isolating(g, cert.d, E2 if k == 2 else E3)


def test_success_path_copies_only_exceptions_and_memo_keys(monkeypatch):
    # the prover works on pieces of the input in its own labels; the only
    # relabelled copies are the pieces whose canonical form bad_piece needs,
    # and the small-piece memo's keys: pieces of at most 7 vertices that
    # hold an F-graph (an F-free piece is answered without a copy)
    original, canonical = graphs.induced_subgraph, bounds.canonical_form
    built = []  # (calling function, the bound's k, the copy) per call
    formed = {}  # id -> graph given to bad_piece's canonical_form, kept alive
    k_now = 0

    def counting(g, keep):
        out = original(g, keep)
        built.append((sys._getframe(1).f_code.co_name, k_now, out))
        return out

    def forming(g):
        formed[id(g)] = g
        return canonical(g)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "isolation_lab" and \
                getattr(module, "induced_subgraph", None) is original:
            monkeypatch.setattr(module, "induced_subgraph", counting)
    monkeypatch.setattr(bounds, "canonical_form", forming)
    inputs = [(k, Graph(n, edges)) for k, _, _, _, n, edges in ALL_FIXTURES]
    inputs += [(k, graph6_decode(g6)) for k, _, g6, _, _ in SWEEP_WITNESSES]
    for k_now, g in inputs:
        _prove(k_now, g)
    assert {caller for caller, _, _ in built} == {"bad_piece", "piece_witness"}
    for caller, k, h in built:
        if caller == "bad_piece":
            assert formed.get(id(h)) is h
        else:
            assert caller == "piece_witness"
            assert h.n <= 7 and is_connected(h) and h.edge_count() >= k


# certify-stream seed 1 chunk 0 of the benchmark: per (k, case), the trace
# entries that the 2,000 graphs produce under isolate_k2 and isolate_k3
STREAM_CASES = {
    (2, "cycle-pattern"): 1, (2, "lone-anchor"): 524,
    (2, "lone-anchor-cycle-rescue"): 1, (2, "lone-anchor-small-rescue"): 33,
    (2, "no-bad"): 6238, (2, "path-pattern"): 95, (2, "shared-anchor"): 49,
    (2, "single-small-dominate"): 14, (2, "single-small-sharedattach"): 3,
    (2, "single-small-splitattach"): 10, (2, "single-small-wleaf"): 7,
    (2, "wide-frontier"): 813, (2, "wide-frontier-all-leaves"): 14,
    (3, "cycle-pattern"): 1, (3, "lone-anchor"): 6, (3, "no-bad"): 7516,
    (3, "path-pattern"): 74, (3, "wide-frontier"): 22,
}


# sha256 over every certificate of that chunk, k2 then k3 per graph: its
# sorted vertex list and its trace lines, one per line
STREAM_SHA256 = "e6f9d327f11f68f60425491df71f9759f28b6316bfcadf4628bdbe0c09db3b16"


def test_certify_stream_counts_hold():
    entries: Counter = Counter()
    cert_sizes = 0
    digest = hashlib.sha256()
    for adj in graphgen.certify_stream(1, 0):
        g = Graph.from_adj(len(adj), adj)
        for k in (2, 3):
            cert = _prove(k, g)
            cert_sizes += cert.d.bit_count()
            entries.update((k, e.case) for e in cert.trace)
            lines = [str(sorted(bits(cert.d)))] + [e.line() for e in cert.trace]
            digest.update(("\n".join(lines) + "\n").encode())
    assert sum(entries.values()) == 15421 and cert_sizes == 22250
    assert dict(entries) == STREAM_CASES
    assert digest.hexdigest() == STREAM_SHA256


def test_shape_memo_changes_no_certificate():
    # 300 graphs of the chunk above: each certificate (set, bound, trace and
    # leaves) with the small-piece memo cleared before its graph is the one
    # that a warm memo gives
    inputs = [Graph.from_adj(len(adj), adj) for adj in graphgen.certify_stream(1, 0)][:300]
    for k in (2, 3):
        cold = []
        for g in inputs:
            families._shape_witness.cache_clear()
            cold.append(_prove(k, g))
        for _ in range(2):  # the first pass warms the memo for the second
            assert [_prove(k, g) for g in inputs] == cold
        assert families._shape_witness.cache_info().hits > 0


def test_certify_scans_the_leaves_once(monkeypatch, tmp_path, capsys):
    # the root step's degree pass gives the certificate's bound and the
    # row's leaf count: neither Theorem.bound nor cli._row scans them again
    callers = []
    original = graphs.leaves

    def counting(g):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(g)

    for module in (bounds, cli):
        monkeypatch.setattr(module, "leaves", counting)
    inputs = [Graph.from_adj(len(adj), adj) for adj in graphgen.certify_stream(1, 0)[:200]]
    source = tmp_path / "chunk.g6"
    source.write_text("".join(f"{graphs.graph6_encode(g)}\n" for g in inputs))
    for k in ("2", "3"):
        assert cli.main(["certify", "--k", k, "--source", f"file:{source}",
                         "--json", str(tmp_path / "rows.jsonl")]) == 0
    capsys.readouterr()
    assert "bound" not in callers and "_row" not in callers
    rows = [json.loads(line) for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
    assert [row["leaves"] for row in rows] == [leaves(g).bit_count() for g in inputs]


def test_one_degree_pass_gives_pivot_leaves_and_potentials(monkeypatch):
    # on every piece the prover visits, in the fixtures and in certify-stream
    # seed 1 chunk 0: the pivot is the first vertex of maximum degree, the
    # shared leaf mask is the piece's leaves, and every potential that the
    # step reads from it (the piece's, and each component's of the piece
    # minus N[v]) equals the one counted by a plain scan of the piece
    step, visited = prover._step, []

    def plain_potential(th, g, piece, part):
        ends = sum(1 for u in bits(part) if (g.adj[u] & piece).bit_count() == 1)
        return th.per_vertex * part.bit_count() - th.per_leaf * ends

    def checked(run, g, piece, v, lg):
        assert v == max(bits(piece), key=lambda u: (g.adj[u] & piece).bit_count(),
                        default=-1)
        assert lg == mask_of(u for u in bits(piece) if (g.adj[u] & piece).bit_count() == 1)
        parts = [piece]
        if v >= 0:
            parts += iter_components(g, piece & ~(g.adj[v] | 1 << v))
        for part in parts:
            assert run.th.potential(part, lg) == plain_potential(run.th, g, piece, part)
        visited.append(piece)
        return step(run, g, piece, v, lg)

    monkeypatch.setattr(prover, "_step", checked)
    inputs = [(k, Graph(n, edges)) for k, _, _, _, n, edges in ALL_FIXTURES]
    inputs += [(k, Graph.from_adj(len(adj), adj))
               for adj in graphgen.certify_stream(1, 0) for k in (2, 3)]
    entries = sum(len(_prove(k, g).trace) for k, g in inputs)
    # one step per trace entry: the chunk alone has 15,421
    assert len(visited) == entries > 15421


def test_exact_base_below_eight():
    cert = isolate_k2(graph6_decode("@"))
    assert cert.trace[-1].case == "exact-base" and cert.d == 0


def test_empty_graph_is_certified():
    # the empty graph is connected and covered: it has no pivot, and the
    # exact base case isolates it with no vertex within the bound 0
    for prove in (isolate_k2, isolate_k3):
        cert = prove(Graph(0))
        assert (cert.d, cert.bound) == (0, 0)
        assert [e.line() for e in cert.trace] == ["case=exact-base n=0 v=-1 |d|=0"]


# ===== soundness and shape ===================================================


def test_sandwich_all_small_graphs(connected_upto):
    for g in connected_upto(1, 6):
        for k, fam in ((2, E2), (3, E3)):
            try:
                cert = _prove(k, g)
            except ValueError:
                continue  # exception graph
            value = exact_iota(g, fam).value
            assert is_isolating(g, cert.d, fam)
            assert value <= cert.d.bit_count() <= cert.bound
            assert cert.bound == THEOREMS[f"k{k}"].bound(g)


def test_refuses_exception_graphs():
    for tag in ("P3", "K3", "K13", "C6", "C6P", "C6PP"):
        with pytest.raises(ValueError, match=tag):
            isolate_k2(named_graph(tag))
    for tag in ("K3", "C7"):
        with pytest.raises(ValueError, match=tag):
            isolate_k3(named_graph(tag))
    # non-exceptional small graphs go through fine
    assert isolate_k3(named_graph("C6")).d.bit_count() <= 1
    assert isolate_k2(named_graph("C7")).d.bit_count() <= 2


def test_refuses_disconnected_input():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(ValueError, match="connected"):
        isolate_k2(g)


def test_certificate_is_deterministic():
    g = Graph(14, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (8, 9),
                   (9, 10), (10, 11), (11, 12), (12, 13), (13, 8), (1, 5),
                   (3, 7), (2, 8), (4, 11)])
    a, b = isolate_k2(g), isolate_k2(g)
    assert a.d == b.d and a.bound == b.bound and a.trace == b.trace


def test_trace_structure_and_serialization():
    # a 17-vertex pair fixture recurses on the carved remainder, so the
    # sub-case precedes the top-level entry
    g = Graph(17, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (7, 8),
                   (8, 9), (9, 10), (10, 5), (11, 12), (12, 13), (13, 14),
                   (14, 15), (15, 16), (16, 11), (1, 5), (3, 5), (2, 11),
                   (4, 11)])
    cert = isolate_k2(g)
    assert len(cert.trace) == 2
    assert cert.trace[-1].case == "pair-carve"
    assert cert.trace[-1].n == 17
    assert cert.trace[0].n < 17  # the carved remainder
    for entry in cert.trace:
        assert isinstance(entry, TraceEntry)
        assert entry.line() == (f"case={entry.case} n={entry.n} v={entry.v} "
                                f"|d|={entry.d_size}")


def test_internal_consistency_error_type():
    assert issubclass(InternalConsistencyError, RuntimeError)


# ===== the one check catches a broken step ===================================


def _add_outside_vertex(run, g, piece, added, pieces):
    outside = g.vertex_mask & ~piece
    if outside:
        return added | (outside & -outside), pieces
    return None  # the whole graph: nothing lies outside


def _drop_a_child(run, g, piece, added, pieces):
    for child in pieces:
        if piece_witness(g, child, run.fam):  # its solution is non-empty
            return added, [c for c in pieces if c != child]
    return None


@pytest.mark.parametrize("mutate,least", [(_add_outside_vertex, 4), (_drop_a_child, 12)])
def test_finish_catches_a_broken_step(monkeypatch, mutate, least):
    # break the first step that the mutation applies to; the check after
    # that step's children are solved must name its case
    step, broken = prover._step, []

    def patched(run, g, piece, v, lg):
        case, added, pieces = step(run, g, piece, v, lg)
        out = None if broken else mutate(run, g, piece, added, pieces)
        if out is None:
            return case, added, pieces
        broken.append(case)
        return (case, *out)

    monkeypatch.setattr(prover, "_step", patched)
    caught = 0
    for k, _, _, _, n, edges in ALL_FIXTURES:
        broken.clear()
        try:
            _prove(k, Graph(n, edges))
        except InternalConsistencyError as exc:
            assert broken and str(exc).startswith(f"case {broken[0]}: ")
            caught += 1
        else:
            assert not broken
    assert caught >= least


def test_finish_catches_a_set_over_the_bound(monkeypatch):
    # C8 under E_3 is one cycle-pattern step whose set has floor(8/4) = 2
    # vertices, the bound itself; one vertex more still isolates and stays
    # in the piece, so only the size check can catch it
    tight = isolate_k3(cycle_graph(8))
    assert tight.d.bit_count() == tight.bound == 2
    assert [entry.case for entry in tight.trace] == ["cycle-pattern"]
    pattern = prover.pattern_isolating_set

    def one_more(kind, n, k):
        local = pattern(kind, n, k)
        return local | ~local & (local + 1)  # its lowest missing vertex

    monkeypatch.setattr(prover, "pattern_isolating_set", one_more)
    with pytest.raises(InternalConsistencyError,
                       match=r"^case cycle-pattern: \|d\|=3 exceeds bound 2 on piece "):
        isolate_k3(cycle_graph(8))


# ===== bad-component classification ==========================================


def test_classify_bad_components_standalone():
    for tag in ("P3", "K3", "K13", "C6", "C6P", "C6PP"):
        g = named_graph(tag)
        assert bad_piece(g, g.vertex_mask, "k2") == tag
    assert bad_piece(named_graph("K3"), 0b111, "k3") == "K3"
    c7 = named_graph("C7")
    assert bad_piece(c7, c7.vertex_mask, "k3") == "C7"
    for tag in ("P3", "C6", "C6P"):
        g = named_graph(tag)
        assert bad_piece(g, g.vertex_mask, "k3") is None


def test_classification_matches_its_meaning(connected_upto):
    # a component is bad exactly when its isolation number exceeds its share
    # of the bound: 14 iota_2 > 4n - leaves for k=2, 4 iota_3 > n for k=3
    for h in connected_upto(1, 7):
        full = h.vertex_mask
        i2 = exact_iota(h, E2).value
        i3 = exact_iota(h, E3).value
        leaf = sum(1 for a in h.adj if a.bit_count() == 1)
        assert (bad_piece(h, full, "k2") is not None) == \
            (14 * i2 > 4 * h.n - leaf)
        assert (bad_piece(h, full, "k3") is not None) == \
            (4 * i3 > h.n)


def test_pendant_attachment_classification():
    # every exception H as a piece of a larger G, with every subset of H's
    # leaves linked to a vertex outside the piece.  A linked leaf is no leaf
    # of G, which raises the piece's share: a pendant 6-cycle whose pendant
    # vertex is linked onward gets 28/14, enough for the 2 isolating
    # vertices it needs, and is not bad
    outcomes = set()
    for theorem in ("k2", "k3"):
        fam = THEOREMS[theorem].family
        for tag in THEOREMS[theorem].exceptions:
            h = named_graph(tag)
            iota = exact_iota(h, fam).value
            # outside the piece: a hub tied to a non-leaf of H, and a leaf
            # of G on the hub that the piece's share must not count
            hub, tail = h.n, h.n + 1
            centre = max(range(h.n), key=lambda u: h.adj[u].bit_count())
            h_leaves = [u for u in range(h.n) if h.adj[u].bit_count() == 1]
            for pick in range(1 << len(h_leaves)):
                linked = [u for i, u in enumerate(h_leaves) if pick >> i & 1]
                g = Graph(h.n + 2, list(h.edges()) + [(hub, tail)]
                          + [(hub, u) for u in [centre] + linked])
                leaf = sum(1 for u in range(h.n) if g.adj[u].bit_count() == 1)
                assert leaf == len(h_leaves) - len(linked)
                if theorem == "k2":
                    bad = 14 * iota > 4 * h.n - leaf
                else:
                    bad = 4 * iota > h.n
                got = bad_piece(g, h.vertex_mask, theorem, leaf_mask=leaves(g))
                assert got == (tag if bad else None), (theorem, tag, linked)
                outcomes.add(bad)
    assert outcomes == {True, False}


def test_residual_sets():
    p3 = named_graph("P3")
    assert residual_set_for_bad(p3, p3.vertex_mask, "P3", 1) == 0
    k3 = named_graph("K3")
    assert residual_set_for_bad(k3, k3.vertex_mask, "K3", 0) == 0
    c6 = named_graph("C6")
    y4 = residual_set_for_bad(c6, c6.vertex_mask, "C6", 0)
    assert y4.bit_count() == 1
    # the residual vertex sits three steps around the cycle from the attach
    g = named_graph("C6")
    step3 = 3
    assert y4 == 1 << step3
    k13 = named_graph("K13")
    with pytest.raises(ValueError):
        residual_set_for_bad(k13, k13.vertex_mask, "K13", 1)  # leaf attach
    assert residual_set_for_bad(k13, k13.vertex_mask, "K13", 0) == 0


def test_residual_set_refuses_a_leaf_of_the_component():
    # a star or pendant 6-cycle inside a larger graph, attached at its own
    # leaf: that leaf has a neighbour outside, so it is no leaf of G, but it
    # is still a leaf of the component
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    with pytest.raises(ValueError, match="leaf"):
        residual_set_for_bad(star, 0b1111, "K13", 1)
    assert residual_set_for_bad(star, 0b1111, "K13", 0) == 0
    c6p = named_graph("C6P")
    g = Graph(8, list(c6p.edges()) + [(6, 7)])
    with pytest.raises(ValueError, match="leaf"):
        residual_set_for_bad(g, c6p.vertex_mask, "C6P", 6)
    assert residual_set_for_bad(g, c6p.vertex_mask, "C6P", 0) == 1 << 3
