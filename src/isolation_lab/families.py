"""Forbidden families, isolating sets, and exact isolation numbers.

The families of interest are

* ``edge_family(k)``: all connected graphs with at least k edges,
* ``CYCLES``: all cycles,
* ``clique_family(k)``: the complete graph on k vertices.

A vertex set D is F-isolating for G when G - N[D] contains no subgraph from
F, and iota(G, F) is the minimum size of an F-isolating set.  ``exact_iota``
computes it by branch and bound:

* isolation numbers add up over components, so each component is solved
  independently;
* within a component, iterative deepening on the set size with a branching
  rule driven by witnesses: if the residual graph still contains some
  F-graph W, then any isolating set must contain a vertex of N[V(W)]
  (removing vertices outside N[V(W)] cannot touch W), so only those vertices
  are branched on.  Small witnesses keep the branching factor small.

All searches are deterministic: components in ascending order, candidate
vertices in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, bits, closed_neighborhood, component_masks

EDGE_FAMILY_MAX_K = 16
CLIQUE_FAMILY_MAX_K = 8


@dataclass(frozen=True)
class FamilySpec:
    """One of the supported forbidden families."""

    kind: str  # "edges" | "cycles" | "clique"
    k: int = 0

    def __post_init__(self):
        if self.kind == "edges":
            if not 1 <= self.k <= EDGE_FAMILY_MAX_K:
                raise ValueError(f"edge family k={self.k} outside 1..{EDGE_FAMILY_MAX_K}")
        elif self.kind == "clique":
            if not 1 <= self.k <= CLIQUE_FAMILY_MAX_K:
                raise ValueError(f"clique family k={self.k} outside 1..{CLIQUE_FAMILY_MAX_K}")
        elif self.kind == "cycles":
            if self.k:
                raise ValueError("the cycle family takes no parameter")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == "edges":
            return f"e{self.k}"
        if self.kind == "cycles":
            return "cycles"
        return f"k{self.k}"


def edge_family(k: int) -> FamilySpec:
    """Connected graphs with at least ``k`` edges."""
    return FamilySpec("edges", k)


def clique_family(k: int) -> FamilySpec:
    return FamilySpec("clique", k)


CYCLES = FamilySpec("cycles")


@dataclass(frozen=True)
class IsolationResult:
    value: int
    witness: int  # bitmask of a minimum isolating set


# ===== Membership ============================================================


def _edges_within(g: Graph, mask: int) -> int:
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _find_clique(g: Graph, alive: int, k: int) -> Optional[int]:
    """Lexicographically first k-clique inside ``alive``, or None."""

    def grow(chosen: int, cand: int, need: int) -> Optional[int]:
        if need == 0:
            return chosen
        while cand:
            low = cand & -cand
            cand ^= low
            if cand.bit_count() + 1 < need:
                # not enough candidates left even taking this one
                return None
            v = low.bit_length() - 1
            got = grow(chosen | low, cand & g.adj[v], need - 1)
            if got is not None:
                return got
        return None

    return grow(0, alive, k)


def _contains_within(g: Graph, alive: int, fam: FamilySpec) -> bool:
    """Does g induced on ``alive`` contain an F-graph?"""
    if fam.kind == "edges":
        return any(_edges_within(g, comp) >= fam.k
                   for comp in component_masks(g, alive))
    if fam.kind == "cycles":
        # a connected graph has a cycle iff it has >= |V| edges
        return any(_edges_within(g, comp) >= comp.bit_count()
                   for comp in component_masks(g, alive))
    return _find_clique(g, alive, fam.k) is not None


def is_isolating(g: Graph, d: int, fam: FamilySpec) -> bool:
    """True iff G - N[d] contains no F-graph."""
    if d & ~g.vertex_mask:
        raise ValueError("isolating-set candidate contains out-of-range vertices")
    alive = g.vertex_mask & ~closed_neighborhood(g, d)
    return not _contains_within(g, alive, fam)


# ===== Branching witnesses ===================================================

# The solver wants the *smallest* convenient witness, not a whole component:
# branching is restricted to N[V(W)], so fewer witness vertices means fewer
# branches.  For the edge family a breadth-first prefix of k+1 vertices spans
# a subtree with >= k edges; for cycles we chase a short cycle; for cliques
# the clique itself is already minimal.


def _bfs_prefix(g: Graph, comp: int, size: int) -> int:
    start = comp & -comp
    chosen = start
    frontier = start
    while chosen.bit_count() < size:
        grow = 0
        for v in bits(frontier):
            grow |= g.adj[v]
        grow &= comp & ~chosen
        if not grow:
            break
        for v in bits(grow):
            chosen |= 1 << v
            if chosen.bit_count() == size:
                return chosen
        frontier = grow
    return chosen


def _short_cycle(g: Graph, comp: int) -> int:
    """Vertex set of a short cycle in the component ``comp`` (which has one)."""
    best: Optional[int] = None
    for root in bits(comp):
        parent = {root: -1}
        depth = {root: 0}
        queue = [root]
        edge = None
        while queue and edge is None:
            nxt = []
            for u in queue:
                for w in bits(g.adj[u] & comp):
                    if w == parent[u]:
                        continue
                    if w in depth:
                        edge = (u, w)
                        break
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    nxt.append(w)
                if edge:
                    break
            queue = nxt
        if edge is None:
            continue
        u, w = edge
        # climb to the first common ancestor; the two tree paths plus the
        # edge u-w form a simple cycle
        path_u = []
        x = u
        while x != -1:
            path_u.append(x)
            x = parent[x]
        on_u = set(path_u)
        cyc = 0
        x = w
        while x not in on_u:
            cyc |= 1 << x
            x = parent[x]
        lca = x
        for y in path_u:
            cyc |= 1 << y
            if y == lca:
                break
        if best is None or cyc.bit_count() < best.bit_count():
            best = cyc
        if best.bit_count() == 3:
            break
    assert best is not None, "no cycle found in a component that was said to have one"
    return best


def _branch_witness(g: Graph, alive: int, fam: FamilySpec) -> Optional[int]:
    """A small F-graph's vertex set in g[alive], or None if F-free."""
    if fam.kind == "clique":
        # search components in descending edge count for determinism
        comps = sorted(
            component_masks(g, alive),
            key=lambda c: (-_edges_within(g, c), c & -c),
        )
        for comp in comps:
            got = _find_clique(g, comp, fam.k)
            if got is not None:
                return got
        return None

    offending = []
    for comp in component_masks(g, alive):
        m = _edges_within(g, comp)
        threshold = fam.k if fam.kind == "edges" else comp.bit_count()
        if m >= threshold:
            offending.append((m, comp))
    if not offending:
        return None
    offending.sort(key=lambda t: (-t[0], t[1] & -t[1]))
    comp = offending[0][1]
    if fam.kind == "cycles":
        return _short_cycle(g, comp)
    return _bfs_prefix(g, comp, min(fam.k + 1, comp.bit_count()))


# ===== Exact solver ==========================================================


def _search(g: Graph, alive: int, remaining: int, fam: FamilySpec, fail: dict) -> Optional[int]:
    """Find an isolating mask of size <= remaining for g[alive], else None."""
    witness = _branch_witness(g, alive, fam)
    if witness is None:
        return 0
    if remaining == 0:
        return None
    if fail.get(alive, -1) >= remaining:
        return None
    for u in bits(closed_neighborhood(g, witness)):
        got = _search(g, alive & ~(g.adj[u] | 1 << u), remaining - 1, fam, fail)
        if got is not None:
            return got | (1 << u)
    if remaining > fail.get(alive, -1):
        fail[alive] = remaining
    return None


def _solve_component(g: Graph, comp: int, fam: FamilySpec, cap: Optional[int]) -> Optional[tuple[int, int]]:
    """(value, mask) for one component, or None when the optimum exceeds cap."""
    hi = comp.bit_count()  # taking every vertex always isolates
    limit = hi if cap is None else min(hi, cap)
    fail: dict = {}
    for size in range(limit + 1):
        got = _search(g, comp, size, fam, fail)
        if got is not None:
            assert got.bit_count() == size, "iterative deepening skipped a size"
            return size, got
    return None


def exact_iota(g: Graph, fam: FamilySpec, budget: Optional[int] = None) -> Optional[IsolationResult]:
    """Minimum F-isolating set of g, exactly.

    Components are solved independently and the optima added up.  When
    ``budget`` is given and every isolating set needs more than ``budget``
    vertices, returns None (a distinct "exceeds budget" outcome, not an
    error), so sweeps can skip expensive graphs gracefully.
    """
    value = 0
    mask = 0
    for comp in component_masks(g):
        cap = None if budget is None else budget - value
        if cap is not None and cap < 0:
            return None
        got = _solve_component(g, comp, fam, cap)
        if got is None:
            return None
        value += got[0]
        mask |= got[1]
    if budget is not None and value > budget:
        return None
    return IsolationResult(value, mask)
