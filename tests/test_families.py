"""Exact isolation numbers against a brute-force oracle, and family checks."""

from __future__ import annotations

import os
import random
import sys
from itertools import combinations
from typing import Optional

import pytest

from isolation_lab import families
from isolation_lab.bounds import THEOREMS, bad_piece, classify_exception
from isolation_lab.constructions import build_B
from isolation_lab.families import (
    CYCLES,
    FamilySpec,
    IsolationResult,
    edge_family,
    exact_iota,
    is_isolating,
    piece_witness,
)
from isolation_lab.graphs import (
    Graph,
    bits,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    graph6_decode,
    induced_subgraph,
    is_connected,
    iter_components,
    leaves,
    mask_of,
    named_graph,
    path_graph,
    star_graph,
)

# The benchmark's checker and generator import nothing from the package, so
# its E_2 solver is an independent reference for large graphs.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import checker  # noqa: E402
import graphgen  # noqa: E402
import oracles  # noqa: E402

E1, E2, E3 = edge_family(1), edge_family(2), edge_family(3)


# ===== independent oracle ====================================================
#
# The solver under test searches with pruning and witness-driven branching.
# This oracle shares none of that: it scans vertex subsets in size order and
# checks the survivor graph by counting edges per component (a component
# contains a cycle iff it has at least as many edges as vertices).


def _oracle_clear(g: Graph, alive: int, fam: FamilySpec) -> bool:
    adj = g.adj
    for comp in oracles.components(adj, alive):
        edges = oracles.edges_within(adj, comp)
        if fam.kind == "edges" and edges >= fam.k:
            return False
        if fam.kind == "cycles" and edges >= comp.bit_count():
            return False
    return True


def naive_iota(g: Graph, fam: FamilySpec, alive: Optional[int] = None) -> int:
    """iota of g, or of the search node ``alive``: the least size of a D
    inside V(g) that leaves g[alive - N[D]] F-free."""
    alive = g.vertex_mask if alive is None else alive
    for size in range(g.n + 1):
        for d in combinations(range(g.n), size):
            if _oracle_clear(g, alive & ~closed_neighborhood(g, mask_of(d)), fam):
                return size
    raise AssertionError("taking all vertices always isolates")


@pytest.mark.parametrize("fam", [E1, E2, E3, CYCLES],
                         ids=["e1", "e2", "e3", "cycles"])
def test_exact_iota_matches_oracle_small(fam, connected_upto):
    for g in connected_upto(1, 7):
        got = exact_iota(g, fam)
        assert got is not None
        assert got.value == naive_iota(g, fam)
        assert is_isolating(g, got.witness, fam)
        assert got.witness.bit_count() == got.value


def test_known_isolation_values():
    assert exact_iota(cycle_graph(6), E2).value == 2
    assert exact_iota(cycle_graph(7), E3).value == 2
    assert exact_iota(named_graph("C6P"), E2).value == 2
    assert exact_iota(named_graph("C6PP"), E2).value == 2
    assert exact_iota(path_graph(3), E2).value == 1
    assert exact_iota(star_graph(3), E2).value == 1
    assert exact_iota(complete_graph(3), E3).value == 1
    assert exact_iota(cycle_graph(5), E1).value == 2
    assert exact_iota(complete_graph(2), E1).value == 1
    assert exact_iota(Graph(1), E1).value == 0
    assert exact_iota(cycle_graph(3), CYCLES).value == 1


def test_contains_family_graph():
    # g contains an F-graph exactly when the empty set does not isolate F
    assert not is_isolating(path_graph(3), 0, E2)
    assert is_isolating(path_graph(3), 0, E3)
    assert is_isolating(Graph(5), 0, E1)
    assert not is_isolating(cycle_graph(4), 0, CYCLES)
    assert is_isolating(path_graph(9), 0, CYCLES)


def test_is_isolating():
    g = path_graph(6)
    assert is_isolating(g, 1 << 1, E2) is False
    assert is_isolating(g, mask_of([1, 4]), E2) is True
    assert is_isolating(g, 0, E2) is False
    # the empty set isolates anything family-free
    assert is_isolating(path_graph(2), 0, E2) is True
    # a candidate outside the host, or outside ``within``, is an error
    with pytest.raises(ValueError):
        is_isolating(g, 1 << 6, E2)
    with pytest.raises(ValueError):
        is_isolating(g, 1 << 4, E2, within=mask_of([0, 1, 2]))


def test_exact_iota_additive_over_components():
    g = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
    assert exact_iota(g, E2).value == 3


def test_exact_iota_budget_semantics():
    g = cycle_graph(6)  # iota_2 = 2
    assert exact_iota(g, E2, budget=1) is None
    got = exact_iota(g, E2, budget=2)
    assert got is not None and got.value == 2


def test_family_free_pieces_skip_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("an F-free piece needs no search")

    monkeypatch.setattr(families, "_Search", no_search)
    g = path_graph(5)
    for fam in (E2, E3, CYCLES):
        assert exact_iota(Graph(1), fam) == IsolationResult(0, 0)
        assert exact_iota(path_graph(2), fam, budget=0) == IsolationResult(0, 0)
        for piece in (0b1, 0b10, 0b11, 0b11000, 0b10001):
            assert exact_iota(induced_subgraph(g, piece), fam) == IsolationResult(0, 0)
    assert exact_iota(induced_subgraph(g, 0b10100), E1) == IsolationResult(0, 0)


def test_family_free_piece_over_a_negative_budget():
    # None exactly when the optimum exceeds the budget, even when it is 0
    assert exact_iota(path_graph(2), E2, budget=-1) is None
    assert exact_iota(Graph(1), CYCLES, budget=-1) is None


def _regrown(g: Graph, fam: FamilySpec, **kw) -> Optional[IsolationResult]:
    """exact_iota's answer from the plain solver that regrows every witness."""
    got = oracles.exact_iota(g.n, g.adj, fam.kind, fam.k, **kw)
    return None if got is None else IsolationResult(*got)


def _on_copy(g: Graph, fam: FamilySpec, piece: int, **kw) -> Optional[IsolationResult]:
    """exact_iota's answer on the copy ``induced_subgraph(g, piece)``, with
    the witness read back in g's labels through the piece's vertex order."""
    got = exact_iota(induced_subgraph(g, piece), fam, **kw)
    if got is None:
        return None
    old = tuple(bits(piece))
    return IsolationResult(got.value, mask_of(old[i] for i in bits(got.witness)))


def _pieces(g: Graph) -> list[int]:
    """The whole graph and the pieces G - N[v] that a proof step leaves."""
    return [g.vertex_mask] + [g.vertex_mask & ~closed_neighborhood(g, 1 << v)
                              for v in range(g.n)]


@pytest.mark.parametrize("fam", [E1, E2, E3, CYCLES],
                         ids=["e1", "e2", "e3", "cycles"])
def test_exact_iota_agrees_with_the_search(fam, connected_upto):
    # on the copy of the whole graph and of each G - N[v], the same value
    # and witness as the plain solver that regrows every witness, solving the
    # piece in place; at budget 0, None exactly when the piece holds an
    # F-graph; at budget 1, where a node takes the least vertex that meets
    # every hood, the plain solver's answer
    for g in connected_upto(1, 7):
        for piece in _pieces(g):
            assert _on_copy(g, fam, piece) == _regrown(g, fam, within=piece)
            free = _on_copy(g, fam, piece, budget=0)
            assert (free is None) == families._contains_within(g, piece, fam)
            assert free in (None, IsolationResult(0, 0))
            assert _on_copy(g, fam, piece, budget=1) == \
                _regrown(g, fam, budget=1, within=piece)


@pytest.mark.parametrize("fam", [E1, E2, E3, CYCLES],
                         ids=["e1", "e2", "e3", "cycles"])
def test_search_nodes_are_asked_at_most_their_optimum(fam, connected_upto, monkeypatch):
    # the precondition of _Search.solve that deepening gives: every call,
    # with no budget and with budgets 1 and 2, on the copy of every class
    # n <= 7 and of each G - N[v], has 1 <= cap <= iota(alive), so the first
    # set a node finds is a minimum one.  Every set a node answers has
    # exactly cap vertices and isolates g[alive], and the memo holds lower
    # bounds only
    asked = set()
    answers = {}
    searches = set()
    solve = families._Search.solve

    def recorded(self, alive, cap, table):
        asked.add((self.g, alive, cap))
        searches.add(self)
        got = solve(self, alive, cap, table)
        if got is not None:
            answers[self.g, alive, cap] = got
        return got

    monkeypatch.setattr(families._Search, "solve", recorded)
    copies = dict.fromkeys(induced_subgraph(g, piece) for g in connected_upto(1, 7)
                           for piece in _pieces(g))
    for h in copies:  # 1,232 distinct copies
        for budget in (None, 1, 2):
            searches.clear()
            exact_iota(h, fam, budget=budget)
            for search in searches:
                assert all(type(bound) is int for bound in search.memo.values())
    least = {}
    for h, alive, cap in asked:
        if (h, alive) not in least:
            least[h, alive] = naive_iota(h, fam, alive)
        assert 1 <= cap <= least[h, alive], (h.adj, alive, cap)
    for (h, alive, cap), got in answers.items():
        assert got.bit_count() == cap, (h.adj, alive, cap, got)
        assert _oracle_clear(h, alive & ~closed_neighborhood(h, got), fam), (h.adj, alive, got)
    assert len(asked) > 1000 and len(answers) > 100


def test_cycle_hood_matches_the_oracle(connected_upto):
    # from every root of every class n <= 7 and of each G - N[v], the hood
    # of the same cycle as the layered search of the oracle in its ranked
    # order, W the whole component when it is a tree, and otherwise a
    # reached set that holds the cycle
    checked = 0
    for g in connected_upto(3, 7):
        search = families._Search(g, CYCLES)
        plain = oracles._RegrowingSearch(g.n, g.adj, "cycles", 0, g.vertex_mask)
        for piece in _pieces(g):
            for comp in iter_components(g, piece):
                for root in bits(comp):
                    w, hood = search.cycle_hood(piece, root)
                    assert hood == plain.cycle_hood(piece, root), (g.adj, piece, root)
                    if hood:
                        assert w & ~comp == 0 and families._comp_contains(g, comp, CYCLES)
                    else:
                        assert w == comp and not families._comp_contains(g, comp, CYCLES)
                    checked += 1
    assert checked > 25000


def test_monotonicity_helper():
    # more edges required means an easier family: iota_3 <= iota_2
    g = cycle_graph(7)
    assert exact_iota(g, E3).value <= exact_iota(g, E2).value


def test_family_spec_validation():
    with pytest.raises(ValueError):
        edge_family(0)
    with pytest.raises(ValueError):
        edge_family(17)


# A tree with n = 38 and iota_2 = 4.  Splitting the alive set of every
# search node into its components and adding their optima gives 5 here: one
# vertex outside the alive set can be adjacent to two of its components and
# isolate both.
SPLIT_TREE = ("e?G????C????????C?????????@?O???????_?CA?????????????g??C???A?A?C???GG"
              "??A?K????????S@G?????G????@?G???`C???COAC???@C?P?")


def test_exact_iota_does_not_split_search_nodes():
    g = graph6_decode(SPLIT_TREE)
    assert g.n == 38 and g.edge_count() == 37
    got = exact_iota(g, E2)
    assert got.value == 4
    assert got.witness.bit_count() == 4 and is_isolating(g, got.witness, E2)
    assert exact_iota(g, E2, budget=3) is None
    assert exact_iota(g, E2, budget=4).value == 4


def test_exact_iota_matches_checker_on_large_sparse_graphs():
    rng = random.Random(2026)
    for n in range(20, 49, 2):
        for p in (0.0, 0.03):
            adj = graphgen.random_connected(rng, n, p)
            g = Graph.from_adj(n, adj)
            got = exact_iota(g, E2)
            assert got.value == checker.iota_e2(adj), (n, p, adj)
            assert got.witness.bit_count() == got.value
            assert is_isolating(g, got.witness, E2)


# ===== witnesses handed down the search ======================================
#
# A search node hands its table root -> (W, hood) to its children, which keep
# the witnesses, trees for E_k and cycles for cycles, whose W lies inside
# their alive set.  The answers must be those of the plain solver in
# tests/oracles.py, which regrows every witness from every root at every
# node.


def test_solve_large_matches_the_regrowing_search():
    for adj in graphgen.solve_large(1):
        g = Graph.from_adj(len(adj), adj)
        for fam in (E1, E2, E3, CYCLES):
            assert exact_iota(g, fam) == _regrown(g, fam), (fam, adj)


def test_large_sparse_graphs_match_the_regrowing_search():
    # random trees with n = 48..64 plus up to n/16 chords; with more chords
    # the plain solver is too slow for the suite
    rng = random.Random(2028)
    for _ in range(30):
        n = rng.randint(48, 64)
        adj = list(graphgen.random_connected(rng, n, 0.0))
        for _ in range(rng.randint(0, n // 16)):
            u, w = rng.sample(range(n), 2)
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        g = Graph.from_adj(n, adj)
        for fam in (E1, E2, E3, CYCLES):
            assert exact_iota(g, fam) == _regrown(g, fam), (fam, adj)


def test_kept_trees_equal_fresh_ones():
    # down random chains alive > alive' > ..., by N[u] as the search drops
    # vertices or by random sets, every entry a node keeps or regrows equals
    # the witness grown afresh in its alive set, and the hood found with the
    # parent's table is 0 exactly when the component edge counts find no
    # F-graph, and holds every vertex u for which alive - N[u] is F-free
    rng = random.Random(2029)
    kept = {"edges": 0, "cycles": 0}
    regrown = dict(kept)
    for _ in range(30):
        n = rng.randrange(6, 33)
        g = Graph.from_adj(n, graphgen.random_connected(rng, n, rng.choice((0.0, 0.05, 0.15))))
        for fam in (E1, E2, E3, edge_family(5), CYCLES):
            search = families._Search(g, fam)
            alive = g.vertex_mask
            table = search.hoods(alive, {})[1]
            while alive:
                if rng.random() < 0.5:
                    alive &= ~search.closed[rng.choice(list(bits(alive)))]
                else:
                    alive &= ~mask_of(v for v in bits(alive) if rng.random() < 0.2)
                hood = search.hood(alive, table)
                assert bool(hood) == families._contains_within(g, alive, fam)
                for u in bits(hood and g.vertex_mask & ~hood):
                    assert families._contains_within(g, alive & ~search.closed[u], fam)
                child = search.hoods(alive, table)[1]
                assert child == {root: search.grow(search, alive, root) for root in bits(alive)}
                same = sum(child[root] is table[root] for root in child)
                kept[fam.kind] += same
                regrown[fam.kind] += len(child) - same
                table = child
    assert min(kept.values()) > 1000 and min(regrown.values()) > 1000, (kept, regrown)


# The solve-large graph with the most search nodes (n = 42, iota_2 = 5).
SOLVE_LARGE_42 = ("i@?A????Gc??@OO?_????????O@AGa?G@??oOC????OIGB@@??KSL_BC@C???C?@?@CO??C?"
                  "??CH?CSC@???OO????GO@?OO?C???a??@A@??OA????_A?O@T???O???`D_c@??EA?G@?b?@O")


def test_search_keeps_most_trees(monkeypatch):
    calls = visits = grown = 0
    cap = None
    solve, hoods, tree_hood = (families._Search.solve, families._Search.hoods,
                               families._Search.tree_hood)

    def counted_solve(self, alive, cap_, table):
        nonlocal calls, cap
        calls += 1
        cap = cap_
        return solve(self, alive, cap_, table)

    def counted_hoods(self, alive, table):
        nonlocal visits
        # a node asks for its table before it calls any child
        assert cap > 1, "a node with cap 1 builds no table"
        visits += alive.bit_count()
        return hoods(self, alive, table)

    def counted_tree_hood(self, alive, root):
        nonlocal grown
        grown += 1
        return tree_hood(self, alive, root)

    monkeypatch.setattr(families._Search, "solve", counted_solve)
    monkeypatch.setattr(families._Search, "hoods", counted_hoods)
    monkeypatch.setattr(families._Search, "tree_hood", counted_tree_hood)
    g = graph6_decode(SOLVE_LARGE_42)
    assert exact_iota(g, E2).value == 5
    # 9,334 calls while every cap-1 node branched over its first hood with
    # cap-0 calls, and 1,282 with the cap-1 rule and one cap per component;
    # deepening repeats the shallow caps.  1,402 while deepening started at
    # cap 0: the one component's cap-0 root call is gone.  A lost cap-1
    # rule or a lost deepening shows here
    assert calls == 1401
    assert grown < visits / 3


def test_deepening_cuts_the_search_on_trees(monkeypatch):
    # three n = 64 random trees: one cap per component, set to the
    # component's size, made 7,134 calls; the caps 0, 1, 2, ... made 1,324,
    # and the caps 1, 2, ... make 1,321, one cap-0 root call fewer per tree
    calls = 0
    solve = families._Search.solve

    def counted_solve(self, alive, cap, table):
        nonlocal calls
        calls += 1
        return solve(self, alive, cap, table)

    monkeypatch.setattr(families._Search, "solve", counted_solve)
    rng = random.Random(1)
    for _ in range(3):
        adj = graphgen.random_connected(rng, 64, 0.0)
        assert exact_iota(Graph.from_adj(64, adj), E2).value == checker.iota_e2(adj)
    assert calls == 1321


def test_handed_down_cycles_cut_the_sharp_families(monkeypatch):
    # the families that make iota(G, cycles) <= floor(n/4) sharp: B(n, K3)
    # for n = 4..64 at a budget of the bound took 24,479 calls and
    # B(7r, C6) with one join for r = 1..9 took 1,092,977 while table nodes
    # kept one shortest cycle per component and handed nothing down; one
    # ranked cycle per root, kept where it lies inside the child, takes 931
    # and 81
    calls = 0
    solve = families._Search.solve

    def counted_solve(self, alive, cap, table):
        nonlocal calls
        calls += 1
        return solve(self, alive, cap, table)

    monkeypatch.setattr(families._Search, "solve", counted_solve)
    for n in range(4, 65):
        assert exact_iota(build_B(n, "K3"), CYCLES, budget=n // 4).value == n // 4
    assert calls <= 1000
    calls = 0
    for r in range(1, 10):
        assert exact_iota(build_B(7 * r, "C6", (0,)), CYCLES).value == r
    assert calls <= 100


# ===== pieces of a host graph ================================================
#
# The prover works on pieces of one graph, passed as ``within``.  On a piece,
# the membership test, the leaf mask and the bad-piece test must answer
# exactly as on the piece relabelled into a graph of its own, and the
# solver's answer on that copy, read back in the host's labels, must be the
# plain solver's answer on the piece in place.


def _host_pieces(rng: random.Random, g: Graph) -> list[int]:
    """Connected pieces of g: the components of G - N[v] for a few v, and
    pieces grown from random roots to random sizes."""
    out = []
    for v in rng.sample(range(g.n), 3):
        out += iter_components(g, g.vertex_mask & ~closed_neighborhood(g, 1 << v))
    for _ in range(6):
        piece, size = 1 << rng.randrange(g.n), rng.randint(2, 14)
        while piece.bit_count() < size:
            frontier = closed_neighborhood(g, piece) & ~piece
            if not frontier:
                break
            piece |= 1 << rng.choice(list(bits(frontier)))
        out.append(piece)
    return out


def _check_piece(rng: random.Random, g: Graph, piece: int, tags: set) -> None:
    h, old = induced_subgraph(g, piece), tuple(bits(piece))

    def host(local: int) -> int:
        return mask_of(old[i] for i in bits(local))

    assert g.edge_count(piece) == h.edge_count()
    for fam in (E1, E2, E3, CYCLES):
        ref = exact_iota(h, fam)
        assert _regrown(g, fam, within=piece) == (ref.value, host(ref.witness))
        for local in (ref.witness, rng.getrandbits(h.n)):
            assert is_isolating(g, host(local), fam, within=piece) == \
                is_isolating(h, local, fam)
    for theorem in THEOREMS:
        assert bad_piece(g, piece, theorem) == classify_exception(h, theorem)
        # the pieces the prover classifies: components of the piece minus
        # N[u], whose potential counts the leaves of the piece
        u = old[rng.randrange(h.n)]
        rest = piece & ~closed_neighborhood(g, 1 << u)
        assert is_connected(g, rest) == is_connected(induced_subgraph(g, rest))
        for comp in iter_components(g, rest):
            tag = bad_piece(g, comp, theorem, leaf_mask=host(leaves(h)))
            assert tag == bad_piece(h, mask_of(old.index(w) for w in bits(comp)), theorem,
                                    leaf_mask=leaves(h))
            tags.add(tag)


def test_within_matches_the_induced_subgraph():
    rng = random.Random(2027)
    tags: set = set()
    # a P8 whose every vertex touches a hub outside it: a search that let the
    # hub into its neighbourhoods would isolate the piece with the hub alone
    hub = Graph(9, [(i, i + 1) for i in range(7)] + [(i, 8) for i in range(8)])
    _check_piece(rng, hub, mask_of(range(8)), tags)
    for fam in (E1, E2, E3):
        got = piece_witness(hub, mask_of(range(8)), fam)
        assert not got >> 8 & 1
        assert got.bit_count() == exact_iota(path_graph(8), fam).value > 0
    for _ in range(12):
        n = rng.randrange(16, 41)
        g = Graph.from_adj(n, graphgen.random_connected(rng, n, rng.choice((0.0, 0.05, 0.1))))
        for piece in _host_pieces(rng, g):
            _check_piece(rng, g, piece, tags)
    # the bad-piece comparison met some exceptions, not only good pieces
    assert {"K2", "P3", "K13"} <= tags


def test_witness_follows_order_preserving_relabelling(connected_upto):
    # every class n <= 7, placed at seeded order-keeping positions of a host
    # on up to 20 vertices, with host edges among the other vertices and
    # across to the piece: the plain solver on the piece in place and
    # piece_witness both give the witness of its own copy read back through
    # the piece's vertex order
    rng = random.Random(31)
    for h in connected_upto(1, 7):
        size = rng.randint(max(h.n, 8), 20)
        old = sorted(rng.sample(range(size), h.n))
        piece = mask_of(old)
        edges = [(old[u], old[w]) for u, w in h.edges()]
        for u in range(size):
            for w in range(u + 1, size):
                if not (piece >> u & 1 and piece >> w & 1) and rng.random() < 0.3:
                    edges.append((u, w))
        host = Graph(size, edges)
        assert induced_subgraph(host, piece) == h
        for fam in (E1, E2, E3, CYCLES):
            ref = exact_iota(h, fam)
            lifted = mask_of(old[i] for i in bits(ref.witness))
            assert _regrown(host, fam, within=piece) == (ref.value, lifted)
            assert piece_witness(host, piece, fam) == lifted

