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
  whole.  Small witnesses W supply these hitting sets, one from a
  breadth-first search of g[alive] from each alive vertex that takes
  neighbours with small closed neighbourhoods first: for E_k the first
  k + 1 vertices it reaches, which span a k-edge subtree (for E_2, a P_3),
  and for cycles the cycle that the first edge outside its tree closes.
  A vertex's neighbours are ranked the first time a search grows through
  it.  The ranking, by closed-neighbourhood size and then by index, is a
  function of g alone, so ranking on demand rather than every vertex up
  front gives every search the same vertices in the same order, and
  changes no hood or witness;
* the search branches on the vertices of the smallest hitting set, and it
  prunes with a packing bound: hitting sets that are pairwise disjoint each
  need their own vertex, so a greedy packing of them counts vertices that
  any isolating set of the node still needs;
* ``exact_iota`` solves each component that holds an F-graph with the caps
  1, 2, ... in turn, up to the component's size or the budget left, on one
  ``_Search`` whose memo carries over from cap to cap (iterative
  deepening; Korf, "Depth-first iterative-deepening", Artificial
  Intelligence 1985).  ``solve(alive, cap, table)`` is the mask of a
  minimum isolating set of g[alive] when one has at most ``cap`` vertices,
  else None, and it is only asked when iota(alive) >= cap >= 1: the root
  at cap c only after cap c - 1 returned None, and a child alive - N[u] at
  cap - 1 >= 1, since only nodes with cap >= 2 branch, while
  iota(alive - N[u]) >= iota(alive) - 1 (u and an isolating set of the
  child isolate the node).  So every node's alive set holds an F-graph, a
  set that a node finds is a minimum one, and the node returns the first
  it finds: the first vertex u of its first smallest hood, in ascending
  order, whose child answers, added to that child's set.  The child's set
  has cap - 1 vertices and misses u: each of its vertices lies in a hood
  N_G[V(W)] of a node at or below the child, with W inside alive - N_G[u].
  So a set that a node returns has exactly ``cap`` vertices, the cap that
  answered, and it lies inside the component, so iota(g) is the size of the
  union of the components' sets.  A None at cap c proves
  iota(alive) >= c + 1.  The shallow caps repeat the top of the search,
  but no cap explores branches that only a cap above the optimum lets
  through;
* one memo per search, keyed on ``alive``, holds the best lower bound
  proven for a node, and a bound only ends calls whose answer is None.  A
  set that a node finds returns at once through every ancestor to the
  root, which ends the deepening of its component, so a solved alive set
  is never asked again and the memo holds lower bounds only;
* a node hands its witnesses to its children, as a table root ->
  (W, hood) with W the vertices the breadth-first search reached before
  it stopped and the hood that of the F-graph it found inside W (W is
  the whole component of the root when that holds no F-graph, and the
  hood is 0).  Every node gets its parent's table, and a component's root
  gets the empty table {}, from which every witness is grown.  A child,
  whose alive set is alive' = alive - N[u], keeps every entry with W
  inside alive' and regrows the rest.  This changes nothing: the search
  in alive' meets the same alive vertices in the same ranked order until
  it stops, since each vertex it took lies in W and each one it passed
  over was outside alive or already taken, so it takes the same W, meets
  the same closing edge and returns the same hood; a component that holds
  no F-graph only loses edges.  So every node gets the same hoods, packs
  the same bound, branches in the same order and returns the same value
  and witness.
  Only the tables on the current path of the search are alive, at most n
  entries per level.
* ``_Search.hood`` finds one witness and returns its hood, or 0 when
  g[alive] is F-free.  An entry of the parent's table with a hood and with
  W inside alive is one, since the search from its root would find it
  again; failing that, witnesses are grown from the lowest unvisited roots
  until one has a hood.
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


# ===== Exact solver ==========================================================


class _Search:
    """Branch and bound over the alive sets of g, for one family."""

    def __init__(self, g: Graph, fam: FamilySpec):
        self.g = g
        self.fam = fam
        self.closed = closed = [nbrs | 1 << v for v, nbrs in enumerate(g.adj)]
        self.sizes = [hood.bit_count() for hood in closed]
        # per vertex, its neighbours in the order searches take them,
        # sorted the first time a search grows through it (None before)
        self.ranked: list[Optional[list[int]]] = [None] * g.n
        # the family's witness grower, (self, alive, root) -> (W, hood),
        # kept unbound so that the search holds no reference cycle
        self.grow = _Search.tree_hood if fam.kind == "edges" else _Search.cycle_hood
        # alive -> the best lower bound on iota(alive) proven so far
        self.memo: dict[int, int] = {}

    def rank(self, v: int) -> list[int]:
        """v's neighbours with small closed neighbourhoods first, then by
        index: witnesses grown through them have small hitting sets, which
        pack better."""
        order = self.ranked[v] = sorted(bits(self.g.adj[v]), key=self.sizes.__getitem__)
        return order

    def hoods(self, alive: int, table: dict) -> tuple[list[int], dict]:
        """N_G[V(W)] for small F-graphs W in g[alive], smallest first, and
        the table root -> (W, hood) of the searches they came from, one per
        alive root, with W the vertices that search reached.

        The list is empty exactly when g[alive] is F-free.  ``table`` is the
        table of a node whose alive set contains ``alive``, or {} at a
        component's root: an entry whose W lies inside ``alive`` is kept, the
        others are regrown.  A hood found twice is not dropped; it changes
        neither the packing nor the first smallest hood.
        """
        grow, gone = self.grow, ~alive
        # at the root every vertex regrows: a W of -1 meets ``gone``
        kept = table or dict.fromkeys(bits(alive), (-1, 0))
        table = {root: entry if not entry[0] & gone else grow(self, alive, root)
                 for root, entry in kept.items() if alive >> root & 1}
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
                for w in ranked[v] or self.rank(v):
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

    def cycle_hood(self, alive: int, root: int) -> tuple[int, int]:
        """(W, N_G[V(C)]) for the cycle C that the first edge outside the
        breadth-first tree of g[alive] from ``root`` closes, with W the
        vertices the search reached until then.  When the component of
        ``root`` is a tree, W is that whole component and the hood is 0."""
        closed, ranked = self.closed, self.ranked
        parent = {root: -1}  # the vertices reached
        queue = [root]  # read while it grows
        for v in queue:
            for w in ranked[v] or self.rank(v):
                if not alive >> w & 1:
                    continue
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    # C is the edge v-w and the tree paths from v and from w
                    # up to their lowest common ancestor
                    above, x = 1 << v, v
                    while x != root:
                        x = parent[x]
                        above |= 1 << x
                    hood = 0
                    while not above >> w & 1:
                        hood |= closed[w]
                        w = parent[w]
                    while v != w:
                        hood |= closed[v]
                        v = parent[v]
                    return mask_of(parent), hood | closed[w]
        return mask_of(parent), 0

    def hood(self, alive: int, table: dict) -> int:
        """N_G[V(W)] for one F-graph W in g[alive], or 0 when g[alive] is
        F-free.  An entry of ``table`` (a table of a node whose alive set
        contains ``alive``, as ``hoods`` takes it) with a hood and with W
        inside ``alive`` is still a witness; failing that, witnesses are
        grown from the lowest unvisited roots until one has a hood."""
        gone = ~alive
        for w, hood in table.values():
            if hood and not w & gone:
                return hood
        rest = alive
        while rest:
            w, hood = self.grow(self, alive, (rest & -rest).bit_length() - 1)
            if hood:
                return hood
            rest &= ~w  # w is the root's whole component, and it is F-free
        return 0

    def solve(self, alive: int, cap: int, table: dict) -> Optional[int]:
        """Mask of a minimum isolating set of g[alive] if its size is at
        most ``cap``, else None.  Asked only when iota(alive) >= cap >= 1
        (see the module docstring), so the first set found is minimum and
        has exactly ``cap`` vertices.  A None stores a lower bound in the
        memo; a found set is not stored, since its alive set is never asked
        again.  ``table`` is the parent node's, as ``hoods`` takes it."""
        if self.memo.get(alive, 0) > cap:
            return None
        if cap == 1:
            # no packing and no table: the least vertex that meets every hood
            hood = self.hood(alive, table)
            while hood:
                u = (hood & -hood).bit_length() - 1
                other = self.hood(alive & ~self.closed[u], table)
                if not other:
                    return 1 << u
                hood &= other  # u is not in it: its W avoids N[u]
            self.memo[alive] = 2
            return None
        hoods, table = self.hoods(alive, table)
        used = packed = 0
        for hood in hoods:
            if not hood & used:
                used |= hood
                packed += 1
        if packed > cap:
            self.memo[alive] = packed
            return None
        for u in bits(hoods[0]):
            got = self.solve(alive & ~self.closed[u], cap - 1, table)
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
    mask = 0
    for comp in iter_components(g):
        # taking every vertex always isolates
        cap = comp.bit_count() if budget is None else budget - mask.bit_count()
        if cap < 0:
            return None
        if not _comp_contains(g, comp, fam):
            continue  # F-free: the empty set isolates it, no search needed
        if search is None:
            search = _Search(g, fam)
        # the first of the caps 1, 2, ... that the optimum fits
        for tried in range(1, cap + 1):
            got = search.solve(comp, tried, {})
            if got is not None:
                break
        else:
            return None
        mask |= got
    return IsolationResult(mask.bit_count(), mask)


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
