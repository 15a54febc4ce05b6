"""Forbidden families, isolating sets, and exact isolation numbers.

The families of interest are

* ``edge_family(k)``: all connected graphs with at least k edges,
* ``CYCLES``: all cycles.

A connected vertex set holds an F-graph iff it spans at least k edges for
E_k, or for cycles at least as many edges as vertices; ``_comp_contains``
is the one test of that rule.

A vertex set D is F-isolating for G when G - N[D] contains no subgraph from
F, and iota(G, F) is the minimum size of an F-isolating set.  ``exact_iota``
computes it by depth-first branch and bound under iterative deepening:

* isolation numbers add up over the components of G, so each component is
  solved on its own, and one that is F-free needs no search (the empty set
  isolates it);
* a search node is the set ``alive`` of vertices not yet covered by N[D].
  If g[alive] still contains an F-graph W, every isolating set contains a
  vertex of N_G[V(W)], because deleting N[u] for u outside it leaves W
  whole.  Small witnesses W supply these hitting sets: for E_k a k-edge
  subtree grown breadth first from each alive vertex (for E_2, a P_3),
  taking neighbours with small closed neighbourhoods first; for cycles a
  short cycle in each cyclic component of g[alive].  A vertex's neighbours
  are ranked the first time a tree grows through it.  The ranking, by
  closed-neighbourhood size and then by index, is a function of g alone,
  so ranking on demand rather than every vertex up front gives every tree
  the same vertices in the same order, and changes no hood or witness;
* the search branches on the vertices of the smallest hitting set, and it
  prunes with a packing bound: hitting sets that are pairwise disjoint each
  need their own vertex, so a greedy packing of them counts vertices that
  any isolating set of the node still needs;
* ``exact_iota`` solves each component that holds an F-graph with the caps
  1, 2, ... in turn, up to the component's size or the budget left, on one
  ``_Search`` whose memo carries over from cap to cap (iterative
  deepening; Korf, "Depth-first iterative-deepening", Artificial
  Intelligence 1985).  ``solve(alive, cap)`` is the mask of a minimum
  isolating set of g[alive] when one has at most ``cap`` vertices, else
  None, and it is only asked when iota(alive) >= cap >= 1: the root at cap
  c only after cap c - 1 returned None, and a child alive - N[u] at
  cap - 1 >= 1, since only nodes with cap >= 2 branch, while
  iota(alive - N[u]) >= iota(alive) - 1 (u and an isolating set of the
  child isolate the node).  So every node's alive set holds an F-graph, a
  set that a node finds is a minimum one, and the node returns the first
  it finds: the first vertex u of its first smallest hood, in ascending
  order, whose child answers, added to that child's set.  The child's set
  has cap - 1 vertices and misses u: each of its vertices lies in a hood
  N_G[V(W)] of a node at or below the child, with W inside alive - N_G[u].
  So a set that a node returns has exactly ``cap`` vertices, and
  ``exact_iota`` adds the cap that answered.  A None at cap c proves
  iota(alive) >= c + 1.  The shallow caps repeat the top of the search,
  but no cap explores branches that only a cap above the optimum lets
  through;
* one memo per search, keyed on ``alive``, holds the best lower bound
  proven for a node, and a bound only ends calls whose answer is None.  A
  set that a node finds returns at once through every ancestor to the
  root, which ends the deepening of its component, so a solved alive set
  is never asked again and the memo holds lower bounds only;
* for E_k a node hands its trees to its children, as a table root ->
  (W, N_G[V(W)]) with W the vertices the breadth-first search chose (the
  whole component of the root when it has fewer than k edges, and the hood
  is 0).  A child, whose alive set is alive' = alive - N[u], keeps every
  entry with W inside alive' and regrows the rest.  This changes nothing:
  the search in alive' meets the same alive vertices in the same ranked
  order until it stops, since each vertex it took lies in W and each one it
  passed over was outside alive or already taken, so it takes the same W
  and returns the same hood; a component with fewer than k edges only
  loses edges.  So every node gets the same hoods, packs the same bound,
  branches in the same order and returns the same value and witness.
  Only the tables on the current path of the search are alive, at most n
  entries per level.
* ``_Search.hood`` finds one witness and returns its hood, or 0 when
  g[alive] is F-free.  For E_k an entry of the parent's table with a hood
  and with W inside alive is one (W still spans k edges); failing that,
  trees are grown from the lowest unvisited roots until one has a hood.
  For cycles it is the cycle that one breadth-first search closes from the
  lowest vertex of the first cyclic component.  Nodes with a table keep the
  shortest cycle over all roots, since their first smallest hood sets the
  branching order.
* a node with cap 1 builds no table: it only asks whether one vertex u is
  enough, that is, whether g[alive - N[u]] is F-free.  Such a u lies in
  every hood of the node, since deleting N[u] for u outside a hood leaves
  its W whole.  So the node takes one hood h and, while h is not empty,
  tries its lowest vertex u: it returns {u} when ``hood`` finds
  nothing in alive - N[u], and otherwise cuts h down to that hood h',
  which misses u because its W avoids N[u].  Every vertex that h loses is
  not enough, so the first u that is enough is the least one, which is the
  witness that branching over the first smallest hood in ascending order
  would return.  When h runs empty, no vertex is enough, and the node
  stores the bound 2 and returns None.

``alive`` is not split into its components below the top level.  A vertex
outside ``alive`` can be adjacent to two of its components and isolate both
with one choice, so the optima of the components do not add up.

All searches are deterministic: components in ascending order, hitting
sets of equal size by root in ascending order, candidate vertices in
ascending index order.  ``piece_witness`` solves a connected piece as its
relabelled copy ``induced_subgraph(g, piece)`` and keeps the witnesses of
the last copies, so a small piece is solved once per shape rather than
once per place where it occurs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .graphs import (Graph, bits, closed_neighborhood, induced_subgraph, iter_components,
                     mask_of)

EDGE_FAMILY_MAX_K = 16

# small pieces whose witnesses are kept: the prover meets about 1,200
# shapes per family in 2,000 graphs, and a fixed bound keeps the memo's
# memory flat
_SHAPE_MEMO = 2048


class FamilySpec(NamedTuple):
    """One of the supported forbidden families; build one with
    ``edge_family`` or take ``CYCLES``."""

    kind: str  # "edges" | "cycles"
    k: int = 0


def edge_family(k: int) -> FamilySpec:
    """Connected graphs with at least ``k`` edges."""
    if not 1 <= k <= EDGE_FAMILY_MAX_K:
        raise ValueError(f"edge family k={k} outside 1..{EDGE_FAMILY_MAX_K}")
    return FamilySpec("edges", k)


CYCLES = FamilySpec("cycles")


class IsolationResult(NamedTuple):
    value: int
    witness: int  # bitmask of a minimum isolating set


# ===== Membership ============================================================


def _comp_contains(g: Graph, comp: int, fam: FamilySpec) -> bool:
    """Does the connected vertex set ``comp`` of g hold an F-graph?"""
    m = comp.bit_count()
    if fam.kind == "edges":
        # it spans between m - 1 and m(m - 1)/2 edges
        return m > fam.k or (m * (m - 1) // 2 >= fam.k and g.edge_count(comp) >= fam.k)
    return g.edge_count(comp) >= m


def _contains_within(g: Graph, alive: int, fam: FamilySpec) -> bool:
    """Does g induced on ``alive`` contain an F-graph?  The components after
    the first that does are never grown."""
    return any(_comp_contains(g, comp, fam) for comp in iter_components(g, alive))


def is_isolating(g: Graph, d: int, fam: FamilySpec, within: Optional[int] = None) -> bool:
    """True iff G - N[d] contains no F-graph, where G is g (or g induced on
    ``within``)."""
    host = g.vertex_mask if within is None else within
    if d & ~host:
        raise ValueError("isolating-set candidate contains out-of-range vertices")
    alive = host & ~closed_neighborhood(g, d)
    return not _contains_within(g, alive, fam)


# ===== Witnesses =============================================================


def _bfs_cycle(g: Graph, comp: int, root: int) -> int:
    """Vertex set of the cycle closed by the first edge outside the
    breadth-first tree of the component ``comp`` from ``root``, or 0 when
    the component is a tree."""
    parent = {root: -1}
    queue = [root]  # read while it grows
    edge = None
    for u in queue:
        for w in bits(g.adj[u] & comp):
            if w not in parent:
                parent[w] = u
                queue.append(w)
            elif w != parent[u]:
                edge = u, w
                break
        if edge:
            break
    if edge is None:
        return 0
    u, w = edge
    # u's path up to the root, then w's up to the first vertex on it:
    # the two paths and the edge u-w form a simple cycle
    up = [u]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    cyc = 0
    while w not in up:
        cyc |= 1 << w
        w = parent[w]
    return cyc | mask_of(up[:up.index(w) + 1])


def _short_cycle(g: Graph, comp: int) -> int:
    """Vertex set of a short cycle in the component ``comp``: the shortest
    ``_bfs_cycle`` over the roots, the first root's on ties, or 0 when the
    component is a tree."""
    best = 0
    for root in bits(comp):
        cyc = _bfs_cycle(g, comp, root)
        if not cyc:
            return 0  # the first root's search closes no cycle: a tree
        if not best or cyc.bit_count() < best.bit_count():
            best = cyc
            if best.bit_count() == 3:
                break
    return best


# ===== Exact solver ==========================================================


class _Search:
    """Branch and bound over the alive sets of g, for one family."""

    def __init__(self, g: Graph, fam: FamilySpec):
        self.g = g
        self.fam = fam
        self.closed = closed = [nbrs | 1 << v for v, nbrs in enumerate(g.adj)]
        if fam.kind == "edges":
            # per vertex, its neighbours in the order trees take them,
            # sorted the first time a tree grows through it (None before)
            self.ranked: list[Optional[list[int]]] = [None] * g.n
        # alive -> the best lower bound on iota(alive) proven so far
        self.memo: dict[int, int] = {}

    def hoods(self, alive: int,
              trees: Optional[dict] = None) -> tuple[list[int], Optional[dict]]:
        """N_G[V(W)] for small F-graphs W in g[alive], smallest first, and
        for E_k the table root -> (W, N_G[V(W)]) of the trees they came from.

        The list is empty exactly when g[alive] is F-free.  ``trees`` is the
        table of a node whose alive set contains ``alive``: an entry whose W
        lies inside ``alive`` is kept, the others are regrown.  A hood found
        twice is not dropped; it changes neither the packing nor the first
        smallest hood.
        """
        if self.fam.kind != "edges":
            g = self.g
            cycles = (_short_cycle(g, comp) for comp in iter_components(g, alive))
            found = [closed_neighborhood(g, cyc) for cyc in cycles if cyc]
            return sorted(found, key=int.bit_count), None
        tree_hood, gone = self.tree_hood, ~alive
        # with no parent table every root regrows: a W of -1 meets ``gone``
        kept = trees or dict.fromkeys(bits(alive), (-1, 0))
        table = {root: tree if not tree[0] & gone else tree_hood(alive, root)
                 for root, tree in kept.items() if alive >> root & 1}
        found = [hood for _, hood in table.values() if hood]
        return sorted(found, key=int.bit_count), table

    def tree_hood(self, alive: int, root: int) -> tuple[int, int]:
        """(W, N_G[V(W)]) for the first k + 1 vertices W of a breadth-first
        search of g[alive] from ``root``, which span a k-edge subtree.  When
        the component of ``root`` has fewer than k edges, W is that whole
        component and the hood is 0."""
        k, closed, ranked = self.fam.k, self.closed, self.ranked
        chosen = 1 << root
        hood = closed[root]
        size = 1
        layer = [root]
        while layer:
            nxt = []
            for v in layer:
                order = ranked[v]
                if order is None:
                    # neighbours with small closed neighbourhoods first:
                    # witnesses grown from them have small hitting sets,
                    # which pack better
                    order = ranked[v] = sorted(
                        bits(self.g.adj[v]), key=lambda w: closed[w].bit_count())
                for w in order:
                    if alive >> w & 1 and not chosen >> w & 1:
                        chosen |= 1 << w
                        hood |= closed[w]
                        size += 1
                        if size > k:
                            return chosen, hood
                        nxt.append(w)
            layer = nxt
        # the root's whole component, on at most k vertices, may be a witness
        if not _comp_contains(self.g, chosen, self.fam):
            return chosen, 0
        return chosen, hood

    def hood(self, alive: int, trees: Optional[dict]) -> int:
        """N_G[V(W)] for one F-graph W in g[alive], or 0 when g[alive] is
        F-free.  For E_k, an entry of ``trees`` (a table of a node whose
        alive set contains ``alive``) with a hood and with W inside
        ``alive`` is still a k-edge witness; failing that, trees are grown
        from the lowest unvisited roots until one has a hood.  For cycles,
        W is the cycle that one breadth-first search closes from the lowest
        vertex of the first cyclic component."""
        if self.fam.kind != "edges":
            g = self.g
            for comp in iter_components(g, alive):
                cyc = _bfs_cycle(g, comp, (comp & -comp).bit_length() - 1)
                if cyc:
                    return closed_neighborhood(g, cyc)
            return 0
        if trees is not None:
            gone = ~alive
            for w, hood in trees.values():
                if hood and not w & gone:
                    return hood
        rest = alive
        while rest:
            w, hood = self.tree_hood(alive, (rest & -rest).bit_length() - 1)
            if hood:
                return hood
            rest &= ~w  # w is the root's whole component, and it is F-free
        return 0

    def solve(self, alive: int, cap: int, trees: Optional[dict] = None) -> Optional[int]:
        """Mask of a minimum isolating set of g[alive] if its size is at
        most ``cap``, else None.  Asked only when iota(alive) >= cap >= 1
        (see the module docstring), so the first set found is minimum and
        has exactly ``cap`` vertices.  A None stores a lower bound in the
        memo; a found set is not stored, since its alive set is never asked
        again.  ``trees`` are the parent node's, as ``hoods`` takes them."""
        if self.memo.get(alive, 0) > cap:
            return None
        if cap == 1:
            # no packing and no table: the least vertex that meets every hood
            hood = self.hood(alive, trees)
            while hood:
                u = (hood & -hood).bit_length() - 1
                other = self.hood(alive & ~self.closed[u], trees)
                if not other:
                    return 1 << u
                hood &= other  # u is not in it: its W avoids N[u]
            self.memo[alive] = 2
            return None
        hoods, trees = self.hoods(alive, trees)
        used = packed = 0
        for hood in hoods:
            if not hood & used:
                used |= hood
                packed += 1
        if packed > cap:
            self.memo[alive] = packed
            return None
        for u in bits(hoods[0]):
            got = self.solve(alive & ~self.closed[u], cap - 1, trees)
            if got is not None:
                return got | 1 << u  # got has cap - 1 vertices, and misses u
        self.memo[alive] = cap + 1
        return None


def exact_iota(g: Graph, fam: FamilySpec,
               budget: Optional[int] = None) -> Optional[IsolationResult]:
    """Minimum F-isolating set of g, exactly.

    Components are solved independently and the optima added up.  When
    ``budget`` is given and every isolating set needs more than ``budget``
    vertices, returns None (a distinct "exceeds budget" outcome, not an
    error), so sweeps can skip expensive graphs gracefully.  The witness is
    a mask in g's labels.
    """
    search = None
    value = 0
    mask = 0
    for comp in iter_components(g):
        # taking every vertex always isolates
        cap = comp.bit_count() if budget is None else budget - value
        if cap < 0:
            return None
        if not _comp_contains(g, comp, fam):
            continue  # F-free: the empty set isolates it, no search needed
        if search is None:
            search = _Search(g, fam)
        # the first of the caps 1, 2, ... that the optimum fits
        for tried in range(1, cap + 1):
            got = search.solve(comp, tried)
            if got is not None:
                break
        else:
            return None
        value += tried
        mask |= got
    return IsolationResult(value, mask)


def piece_witness(g: Graph, piece: int, fam: FamilySpec) -> int:
    """The witness of the copy ``induced_subgraph(g, piece)`` of a connected
    piece, read back in g's labels through the piece's vertex order, and
    solved once per shape.

    An F-free piece gets the empty set from ``_comp_contains`` alone.  Any
    other piece's copy is solved by ``exact_iota``, and its witness is kept
    for the last ``_SHAPE_MEMO`` copies.  Meant for small pieces: a copy
    costs a pass over the piece, which only pays where the search is short
    and shapes repeat.
    """
    if not _comp_contains(g, piece, fam):
        return 0
    order = tuple(bits(piece))
    return mask_of(order[i] for i in bits(_shape_witness(induced_subgraph(g, piece), fam)))


@lru_cache(maxsize=_SHAPE_MEMO)
def _shape_witness(h: Graph, fam: FamilySpec) -> int:
    return exact_iota(h, fam).witness
