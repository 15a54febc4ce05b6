"""Constructive certification of the E_2 and E_3 isolation bounds.

``isolate_k2`` and ``isolate_k3`` take a connected graph that is not one of
the bound's exception graphs and produce an isolating set whose size provably
fits the bound (floor((4n - leaves)/14) for E_2, floor(n/4) for E_3),
together with a trace of the decision taken at each recursion step.

The construction mirrors the inductive argument that proves the bounds:

* every step works on a piece of the input graph, given as a vertex mask
  in the input's own labels.  G below is the graph induced on the piece:
  the step reads adjacency, degrees, leaves and potentials in G, and its
  isolating set comes back in the input's labels;
* pieces on at most 7 vertices are solved exactly (the bound is known to
  hold for them outright);
* paths and cycles get the periodic pattern sets;
* otherwise pick a maximum-degree vertex v and remove N[v].  A component
  H of the remainder is "bad" when its isolation number exceeds its share
  of the bound, the potential beta_G(H) of ``bounds.Theorem``.  Only the
  bound's exception graphs can be bad, and ``bounds.bad_piece`` names them
  with their ``named_graph`` tags (``P3``, ``K13``, ``C6P``, ...); every
  other component can be solved recursively within its share.  The cases
  then differ in how the bad components hang off N(v):

  - no bad components: take v and recurse on everything else;
  - two bad components share an anchor x in N(v): take v, x, the other bad
    components' anchors, and cheap residual vertices inside each bad piece;
  - anchors are scarce but N(v) has 3+ non-anchor vertices: take v (unless
    those non-anchors are all leaves, when v comes for free) plus anchors
    and residuals;
  - a bad component is linked to just one anchor: carve the anchor plus the
    component out of the graph, recurse on the big remainder, and patch the
    result when the remainder collapses to an exceptional graph;
  - every bad component reaches two anchors: at most two bad components can
    exist, and a finer split on their isomorphism types and on which of
    their vertices are leaves of G picks a carve (or a small dominating
    set) that pays for itself.

Each proof step only names its case, the vertices it takes itself, and the
connected pieces it recurses on (each charged its own potential).  The
dispatcher alone solves those pieces in order, adds their sets to the
step's own, and *verifies* that the assembled set actually isolates the
piece and actually fits the bound; a failure raises
InternalConsistencyError, because the argument guarantees success — any
failure is an implementation bug, not a property of the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import THEOREMS, bad_piece, classify_exception
from .constructions import pattern_isolating_set
from .families import exact_iota, is_isolating
from .graphs import (
    Graph,
    bits,
    component_masks,
    graph6_encode,
    is_connected,
    leaves,
    mask_of,
)

# pieces this small are solved exactly instead of recursively
_SMALL_EXACT = 7


class NotCovered(ValueError):
    """The bound does not cover the graph: it is disconnected (``tag`` is
    None) or it is the exception graph named by ``tag``."""

    def __init__(self, message: str, tag: Optional[str] = None):
        super().__init__(message)
        self.tag = tag


class InternalConsistencyError(RuntimeError):
    """A proof case assembled a set that fails verification.

    The construction is guaranteed to succeed on every admissible input, so
    this always signals a bug in the implementation, never a property of the
    graph.
    """


@dataclass(frozen=True)
class TraceEntry:
    """One dispatch decision: which case fired, on a piece of n vertices."""

    case: str
    n: int
    v: int  # the chosen max-degree vertex's rank in its piece, or -1 for the caseless leaves
    d_size: int

    def line(self) -> str:
        return f"case={self.case} n={self.n} v={self.v} |d|={self.d_size}"


@dataclass(frozen=True)
class Certificate:
    """An isolating set d together with the bound it satisfies.

    The trace records one entry per proof case used, innermost first: a case
    that recursed on a carved-off piece contributes that piece's entries
    before its own, so the top-level case is always ``trace[-1]``.
    """

    d: int  # bitmask
    bound: int
    trace: tuple[TraceEntry, ...]


@dataclass
class InductionContext:
    """The decomposition of a piece around its chosen max-degree vertex."""

    piece: int  # the vertex mask being solved
    v: int
    nbrs: int  # N(v) within the piece
    # the components of G - N[v] as masks, both in component order
    good: list[int]  # those that are not bad
    bad: dict[int, str]  # bad comp mask -> exception tag, as in ``bounds.bad_piece``
    links: dict[int, int]  # comp mask -> mask of neighbours of v it touches


# ===== Bad-component geometry ===============================================


def _cycle_through(g: Graph, within: int, start: int, length: int) -> list[int]:
    """Vertices of a simple cycle of the given length through ``start``."""

    def grow(path: list[int], used: int) -> Optional[list[int]]:
        if len(path) == length:
            return path if g.adj[path[-1]] >> start & 1 else None
        for w in bits(g.adj[path[-1]] & within & ~used):
            got = grow(path + [w], used | 1 << w)
            if got is not None:
                return got
        return None

    got = grow([start], 1 << start)
    if got is None:
        raise InternalConsistencyError(
            f"no {length}-cycle through vertex {start} where one was promised"
        )
    return got


def _far_vertex(g: Graph, within: int, start: int, length: int) -> int:
    """The vertex at cycle-distance 3 from ``start`` on a C_length, as a mask.

    On a 7-cycle two vertices are that far; the smaller one is taken.
    """
    cyc = _cycle_through(g, within, start, length)
    return 1 << (cyc[3] if length == 6 else min(cyc[3], cyc[4]))


def residual_set_for_bad(g: Graph, comp: int, tag: str, y_attach: int) -> int:
    """The cheap leftover-isolating set for a bad component minus its attach.

    For the path/triangle/star classes nothing is needed; for the cycle
    classes, the vertex at cycle-distance 3 from the attachment point mops up
    the rest of the cycle.
    """
    if tag in ("K13", "C6P", "C6PP") and (g.adj[y_attach] & comp).bit_count() == 1:
        raise ValueError("attachment vertex of a leafy bad component must not be its leaf")
    if tag in ("P3", "K3", "K13"):
        return 0
    return _far_vertex(g, comp, y_attach, 7 if tag == "C7" else 6)


# ===== Shared machinery ======================================================


def _build_context(g: Graph, piece: int, v: int, theorem: str) -> InductionContext:
    nbrs = g.adj[v] & piece
    good: list[int] = []
    links: dict[int, int] = {}
    bad: dict[int, str] = {}
    for comp in component_masks(g, piece & ~nbrs & ~(1 << v)):
        lk = 0
        for x in bits(nbrs):
            if g.adj[x] & comp:
                lk |= 1 << x
        if not lk:
            raise InternalConsistencyError("component with no link to N(v) in a connected piece")
        links[comp] = lk
        tag = bad_piece(g, comp, theorem, within=piece)
        if tag is None:
            good.append(comp)
        else:
            bad[comp] = tag
    return InductionContext(piece, v, nbrs, good, bad, links)


def _attach(g: Graph, x: int, comp: int) -> int:
    """y_{x,H}: the smallest neighbour of x inside the component."""
    m = g.adj[x] & comp
    if not m:
        raise InternalConsistencyError(f"vertex {x} is not linked to the component")
    return (m & -m).bit_length() - 1


def _anchor(links: int) -> int:
    return (links & -links).bit_length() - 1


def _second_anchor(links: int, first: int) -> int:
    rest = links & ~(1 << first)
    if not rest:
        raise InternalConsistencyError("second anchor requested for a singly-linked component")
    return (rest & -rest).bit_length() - 1


class _Prover:
    """One certification run; holds the trace and the rules for its bound."""

    def __init__(self, theorem: str):
        self.theorem = theorem  # "k2" or "k3", as in ``THEOREMS``
        self.pair, self.single = _RULES[theorem]
        self.th = THEOREMS[theorem]
        self.fam = self.th.family
        self.trace: list[TraceEntry] = []

    def finish(self, g: Graph, piece: int, d: int, case: str, v: int) -> int:
        """Verify-then-return, once per proof step, from ``_dispatch``."""
        limit = self.th.potential(g, piece, within=piece) // self.th.denominator
        if d & ~piece:
            problem = "set leaves the piece"
        elif not is_isolating(g, d, self.fam, within=piece):
            problem = "assembled set is not isolating"
        elif d.bit_count() > limit:
            problem = f"|d|={d.bit_count()} exceeds bound {limit}"
        else:
            # n and v as on the piece relabelled 0..n-1 in vertex order
            rank = -1 if v < 0 else (piece & ((1 << v) - 1)).bit_count()
            self.trace.append(TraceEntry(case, piece.bit_count(), rank, d.bit_count()))
            return d
        raise InternalConsistencyError(
            f"case {case}: {problem} on piece {piece:#x} of {graph6_encode(g)}")

    def solve_piece(self, g: Graph, piece: int) -> int:
        """Isolating mask for a connected piece of g.

        Small pieces are solved exactly — this is also what keeps the
        exceptional graphs out of the recursion, since they all have at most
        7 vertices.  Larger pieces recurse through the full dispatch.
        """
        if piece.bit_count() <= _SMALL_EXACT:
            return exact_iota(g, self.fam, within=piece).witness
        return _dispatch(self, g, piece)


# A proof step: (case name, the vertices it takes itself, the connected
# pieces it recurses on, in solve order).
_Step = tuple[str, int, list[int]]


def _carve(g: Graph, ctx: InductionContext, removed: int, home: int,
           leftover_ok: int = 0) -> tuple[list[int], list[int]]:
    """Split the piece minus ``removed`` into pieces to recurse on.

    Returns (the stray components in component order followed by the home
    component, the leftover components inside ``leftover_ok``).  Stray
    components must be components of G - N[v] that lost their only anchors;
    anything else is an accounting bug.
    """
    home_mask = 0
    strays: list[int] = []
    leftovers: list[int] = []
    for c in component_masks(g, ctx.piece & ~removed):
        if c >> home & 1:
            home_mask = c
        elif c & leftover_ok and not c & ~leftover_ok:
            leftovers.append(c)
        elif c in ctx.good:
            strays.append(c)
        else:
            raise InternalConsistencyError("unexpected stray component after a carve")
    if not home_mask:
        raise InternalConsistencyError("the carve removed the home vertex")
    return strays + [home_mask], leftovers


def _walk_order(g: Graph, piece: int, start: int) -> list[int]:
    """Vertices of a path or cycle piece in traversal order from ``start``."""
    order = [start]
    seen = 1 << start
    while True:
        nxt = g.adj[order[-1]] & piece & ~seen
        if not nxt:
            return order
        u = (nxt & -nxt).bit_length() - 1
        order.append(u)
        seen |= 1 << u


def _pattern_case(prover: _Prover, g: Graph, piece: int) -> _Step:
    """Max degree 2: lay the periodic pattern along the walk order, from the
    lowest end of a path or the lowest vertex of a cycle."""
    ends = leaves(g, piece)
    kind = "path" if ends else "cycle"
    first = ends or piece
    order = _walk_order(g, piece, (first & -first).bit_length() - 1)
    local = pattern_isolating_set(kind, piece.bit_count(), prover.fam.k)
    return f"{kind}-pattern", mask_of(order[i] for i in bits(local)), []


def _case_shared_anchor(g: Graph, ctx: InductionContext, x: int) -> _Step:
    """Two or more bad components hang off the same anchor x."""
    d = (1 << ctx.v) | (1 << x)
    for c, tag in ctx.bad.items():
        xc = x if ctx.links[c] >> x & 1 else _anchor(ctx.links[c])
        d |= (1 << xc) | residual_set_for_bad(g, c, tag, _attach(g, xc, c))
    return "shared-anchor", d, ctx.good


def _case_wide_frontier(prover: _Prover, g: Graph, ctx: InductionContext, anchors: dict) -> _Step:
    """|W| >= 3 non-anchor neighbours: v plus anchors plus residuals fit."""
    d = 1 << ctx.v
    for c, xc in anchors.items():
        d |= (1 << xc) | residual_set_for_bad(g, c, ctx.bad[c], _attach(g, xc, c))
    if prover.fam.k == 2:
        w_mask = ctx.nbrs & ~mask_of(anchors.values())
        if w_mask.bit_count() == 3 and w_mask & leaves(g, ctx.piece) == w_mask:
            # all three non-anchors are leaves: v is already dominated by
            # the anchors and its removal still leaves an isolating set
            return "wide-frontier-all-leaves", d & ~(1 << ctx.v), ctx.good
    return "wide-frontier", d, ctx.good


def _case_lone_anchor(prover: _Prover, g: Graph, ctx: InductionContext, comp: int) -> _Step:
    """A bad component linked to a single anchor: carve both out, recurse."""
    x1 = _anchor(ctx.links[comp])
    d = (1 << x1) | residual_set_for_bad(g, comp, ctx.bad[comp], _attach(g, x1, comp))
    pieces, _ = _carve(g, ctx, (1 << x1) | comp, ctx.v)
    home = pieces[-1]
    tag = bad_piece(g, home, prover.theorem, within=home)
    if tag in ("P3", "K3", "K13"):
        # the remainder is already dominated through x1's neighbourhood
        return "lone-anchor-small-rescue", d, pieces[:-1]
    if tag in ("C6", "C6P", "C6PP", "C7"):
        # the remainder is a near-cycle through v: v is covered via x1, and
        # the vertex at cycle-distance 3 finishes the job
        d |= _far_vertex(g, home, ctx.v, 7 if tag == "C7" else 6)
        return "lone-anchor-cycle-rescue", d, pieces[:-1]
    return "lone-anchor", d, pieces


def _case_single(prover: _Prover, g: Graph, ctx: InductionContext, comp: int) -> _Step:
    """The one bad component reaches two anchors x1, x1'; w is v's third neighbour."""
    if ctx.nbrs.bit_count() != 3:
        raise InternalConsistencyError("a lone doubly-linked bad component forces degree 3")
    x1 = _anchor(ctx.links[comp])
    x1p = _second_anchor(ctx.links[comp], x1)
    w = _anchor(ctx.nbrs & ~(1 << x1) & ~(1 << x1p))
    y_top = (1 << ctx.v) | ctx.nbrs | comp  # N[v] plus the bad component
    tag = ctx.bad[comp]
    if tag in ("C6", "C7"):
        length = 7 if tag == "C7" else 6
        return _single_cycle(prover, g, ctx, comp, x1, x1p, w, y_top, length)
    return prover.single(prover, g, ctx, comp, x1, x1p, w, y_top)


def _carve_anchor(g: Graph, ctx: InductionContext, y_top: int, x1: int, x1p: int,
                  w: int) -> tuple[int, int]:
    """The anchor to carve with: its partner (or w) must reach outside Y.

    Carving removes one anchor; the surviving neighbourhood of v must keep
    an escape edge into the rest of the graph, so carve the anchor whose
    absence leaves one.
    """
    outside = ctx.piece & ~y_top
    if (g.adj[x1p] | g.adj[w]) & outside:
        return x1, x1p
    return x1p, x1


def _single_cycle(
    prover: _Prover, g: Graph, ctx: InductionContext,
    comp: int, x1: int, x1p: int, w: int, y_top: int, length: int,
) -> _Step:
    """The lone bad component is a C_length: a 6-cycle for E_2, a 7-cycle for E_3."""
    v = ctx.v
    case = f"single-c{length}"

    def around(anchor: int) -> tuple[int, list[int], int]:
        """(attachment, cycle from it, anchor plus the attachment's arc)."""
        y1 = _attach(g, anchor, comp)
        cyc = _cycle_through(g, comp, y1, length)
        return y1, cyc, (1 << anchor) | (1 << cyc[0]) | (1 << cyc[1]) | (1 << cyc[-1])

    if y_top == ctx.piece:
        # the piece is N[v] plus the cycle: a 2-element set built around x1
        y1, cyc, y_carve = around(x1)
        imask = y_top & ~y_carve
        if len(component_masks(g, imask)) != 1:
            d = (1 << x1) | (1 << cyc[3])
            for y in sorted((cyc[1], cyc[-1])):
                if g.adj[y] & ((1 << x1p) | (1 << w)):
                    d = (1 << y1) | (1 << y)
                    break
        elif bad_piece(g, imask, prover.theorem, within=imask) != f"C{length}":
            return f"{case}-whole", 1 << y1, [imask]
        elif length == 6:
            d = (1 << x1) | (1 << cyc[3])
        else:
            # orient the cycle so the partner anchor meets it two steps
            # from the attachment, then take the two far vertices
            if not g.adj[x1p] >> cyc[2] & 1:
                cyc = [cyc[0]] + cyc[1:][::-1]
            d = (1 << cyc[2]) | (1 << cyc[5])
        return f"{case}-whole", d, []

    c, cp = _carve_anchor(g, ctx, y_top, x1, x1p, w)
    y1, _, y_carve = around(c)
    if len(component_masks(g, y_top & ~y_carve)) == 1:
        pieces, _ = _carve(g, ctx, y_carve, v)
        return f"{case}-carve", 1 << y1, pieces
    # the middle of the cycle is attached to nothing but its anchors: keep
    # v and w, carve everything else around the component
    pieces, _ = _carve(g, ctx, y_top & ~((1 << v) | (1 << w)), v)
    return f"{case}-split", (1 << y1) | (1 << _attach(g, cp, comp)), pieces


# ===== E_2-only cases ========================================================


def _p3_parts(g: Graph, comp: int) -> tuple[int, int, int]:
    """(midpoint, endpoint, endpoint) of a 3-path component, ascending ends."""
    mid = next(u for u in bits(comp) if (g.adj[u] & comp).bit_count() == 2)
    ends = [u for u in bits(comp) if u != mid]
    return mid, ends[0], ends[1]


def _centre_parts(g: Graph, comp: int, tag: str) -> tuple[int, int, int]:
    """A dominating vertex of a 3-vertex component, plus the other two."""
    if tag == "K3":
        verts = list(bits(comp))
        return verts[0], verts[1], verts[2]
    return _p3_parts(g, comp)


def _k2_pair_carve(g: Graph, ctx: InductionContext, comp: int) -> _Step:
    """Carve one bad component with its anchor; the rest stays connected."""
    x1 = _anchor(ctx.links[comp])
    y1 = _attach(g, x1, comp)
    d = (1 << y1) | residual_set_for_bad(g, comp, ctx.bad[comp], y1)
    pieces, _ = _carve(g, ctx, (1 << x1) | comp, ctx.v)
    return "pair-carve", d, pieces


def _k2_pair(g: Graph, ctx: InductionContext) -> _Step:
    h1, h2 = ctx.bad
    tags = (ctx.bad[h1], ctx.bad[h2])
    carveable = ("K3", "K13", "C6P", "C6PP")
    if tags[0] in carveable:
        return _k2_pair_carve(g, ctx, h1)
    if tags[1] in carveable:
        return _k2_pair_carve(g, ctx, h2)
    # both components are 3-paths or 6-cycles now
    if tags == ("C6", "C6"):
        return _k2_pair_carve(g, ctx, h1)
    if "C6" in tags:
        hp = h1 if tags[0] == "P3" else h2
        hc = h2 if hp is h1 else h1
        _, e1, e2 = _p3_parts(g, hp)
        lg = leaves(g, ctx.piece)
        n_leaf = (lg >> e1 & 1) + (lg >> e2 & 1)
        if n_leaf == 2:
            # both path ends are true leaves: the anchor attaches at the
            # midpoint and the component carves exactly like a 6-cycle
            return _k2_pair_carve(g, ctx, hp)
        if n_leaf == 0:
            xc = _anchor(ctx.links[hc])
            d = (1 << ctx.v) | (1 << _anchor(ctx.links[hp])) | (1 << xc)
            d |= residual_set_for_bad(g, hc, "C6", _attach(g, xc, hc))
            return "pair-p3-unleafed", d, ctx.good
        # exactly one end is a true leaf: shed the component through the
        # linked end and recurse on the remainder
        yi = e1 if not lg >> e1 & 1 else e2
        x = _anchor(g.adj[yi] & ctx.nbrs)
        pieces, _ = _carve(g, ctx, (1 << x) | hp, ctx.v)
        return "pair-p3-halfleaf", 1 << yi, pieces
    # two 3-paths
    mid1, e11, e12 = _p3_parts(g, h1)
    mid2, e21, e22 = _p3_parts(g, h2)
    lg = leaves(g, ctx.piece)
    h = sum(lg >> e & 1 for e in (e11, e12, e21, e22))
    if h <= 2:
        return "pair-p3p3-dominate", (1 << ctx.v) | (1 << mid1) | (1 << mid2), ctx.good
    # three or more true leaf-ends: shed a leaf end of the less leafy path
    if (lg >> e11 & 1) + (lg >> e12 & 1) == 2 and (lg >> e21 & 1) + (lg >> e22 & 1) < 2:
        h1 = h2
    x1 = _anchor(ctx.links[h1])
    pieces, _ = _carve(g, ctx, (1 << x1) | h1, ctx.v)
    return "pair-p3p3-shedleaf", 1 << _attach(g, x1, h1), pieces


def _k2_single(
    prover: _Prover, g: Graph, ctx: InductionContext,
    comp: int, x1: int, x1p: int, w: int, y_top: int,
) -> _Step:
    """The lone bad component is a star, a pendant 6-cycle, or 3 vertices."""
    v = ctx.v
    tag = ctx.bad[comp]
    if tag in ("K13", "C6P", "C6PP"):
        y1 = _attach(g, x1, comp)
        d = (1 << v) | (1 << y1) | residual_set_for_bad(g, comp, tag, y1)
        return "single-attached", d, ctx.good

    mid, e1, e2 = _centre_parts(g, comp, tag)
    lg = leaves(g, ctx.piece)

    if lg & y_top == 0:
        return "single-small-dominate", (1 << v) | (1 << mid), ctx.good

    c, cp = _carve_anchor(g, ctx, y_top, x1, x1p, w)

    if lg >> w & 1:
        # w is a true leaf: carve v, the anchor, its attachment, and w; the
        # other anchor keeps the remainder connected to the outside
        removed = (1 << v) | (1 << c) | (1 << _attach(g, c, comp)) | (1 << w)
        pieces, _ = _carve(g, ctx, removed, cp, leftover_ok=comp)
        return "single-small-wleaf", 1 << c, pieces

    # some end of the 3-path is a true leaf (triangles cannot reach here)
    if tag != "P3" or not (lg >> e1 & 1 or lg >> e2 & 1):
        raise InternalConsistencyError("leafy single-component case without a leafy path end")
    ystar = _attach(g, c, comp)
    if ystar != _attach(g, cp, comp):
        pieces, _ = _carve(g, ctx, (1 << c) | comp, v)
        return "single-small-splitattach", 1 << ystar, pieces
    pieces, _ = _carve(g, ctx, (1 << c) | (1 << cp) | comp, v)
    return "single-small-sharedattach", 1 << ystar, pieces


# ===== E_3-only cases ========================================================


def _k3_pair(g: Graph, ctx: InductionContext) -> _Step:
    h1 = next(iter(ctx.bad))
    x1 = _anchor(ctx.links[h1])
    y1 = _attach(g, x1, h1)
    removed = (g.adj[y1] | 1 << y1) & ((1 << x1) | h1)
    pieces, leftovers = _carve(g, ctx, removed, ctx.v, leftover_ok=h1)
    d = 1 << y1
    if leftovers:
        # only a 7-cycle leaves anything behind: a 4-path that the vertex at
        # cycle-distance 3 from the attachment finishes off
        d |= residual_set_for_bad(g, h1, ctx.bad[h1], y1)
    return "pair-carve", d, pieces


def _k3_single(
    prover: _Prover, g: Graph, ctx: InductionContext,
    comp: int, x1: int, x1p: int, w: int, y_top: int,
) -> _Step:
    """The lone bad component is a triangle."""
    v = ctx.v
    c, cp = _carve_anchor(g, ctx, y_top, x1, x1p, w)
    pieces, _ = _carve(g, ctx, (1 << c) | comp, v)
    home = pieces[-1]
    if bad_piece(g, home, prover.theorem, within=home) == "C7":
        # the remainder closed into a 7-cycle: v with the other anchor
        # breaks it and reaches the triangle through that anchor's link
        return "single-k3-cyclepatch", (1 << v) | (1 << cp), pieces[:-1]
    return "single-k3-carve", 1 << _attach(g, c, comp), pieces


# ===== The dispatcher ========================================================


# What the induction does differently per bound: the step for two
# doubly-linked bad components, and the one for a lone doubly-linked bad
# component that is not a cycle.
_RULES = {
    "k2": (_k2_pair, _k2_single),
    "k3": (_k3_pair, _k3_single),
}

# steps that split no piece around its pivot: their trace entries carry v=-1
_PIVOTLESS = ("exact-base", "path-pattern", "cycle-pattern")


def _step(prover: _Prover, g: Graph, piece: int, v: int) -> _Step:
    """The proof step for a connected piece with pivot v."""
    if piece.bit_count() <= _SMALL_EXACT:
        return "exact-base", exact_iota(g, prover.fam, within=piece).witness, []
    nbrs = g.adj[v] & piece
    if nbrs.bit_count() <= 2:
        return _pattern_case(prover, g, piece)
    if (nbrs | 1 << v) == piece:
        return "dominated", 1 << v, []
    ctx = _build_context(g, piece, v, prover.theorem)

    if not ctx.bad:
        return "no-bad", 1 << v, ctx.good

    for x in bits(ctx.nbrs):
        if sum(1 for c in ctx.bad if ctx.links[c] >> x & 1) >= 2:
            return _case_shared_anchor(g, ctx, x)

    # every neighbour of v anchors at most one bad component
    anchors = {c: _anchor(ctx.links[c]) for c in ctx.bad}
    if (ctx.nbrs & ~mask_of(anchors.values())).bit_count() >= 3:
        return _case_wide_frontier(prover, g, ctx, anchors)

    for c in ctx.bad:
        if ctx.links[c] == 1 << anchors[c]:
            return _case_lone_anchor(prover, g, ctx, c)

    # two-anchor cases: every bad component reaches a second neighbour of v
    if len(ctx.bad) == 2:
        return prover.pair(g, ctx)
    if len(ctx.bad) == 1:
        return _case_single(prover, g, ctx, next(iter(ctx.bad)))
    raise InternalConsistencyError("more than two doubly-linked bad components survived")


def _dispatch(prover: _Prover, g: Graph, piece: int) -> int:
    """Take one proof step on a connected piece, solve the pieces it recurses
    on in order, and verify the assembled set."""
    # a vertex of maximum degree in the piece, the lowest on ties
    v = max(bits(piece), key=lambda u: (g.adj[u] & piece).bit_count())
    case, d, pieces = _step(prover, g, piece, v)
    for child in pieces:
        d |= prover.solve_piece(g, child)
    return prover.finish(g, piece, d, case, -1 if case in _PIVOTLESS else v)


# ===== Public entry points ===================================================


def _certify(g: Graph, theorem: str) -> Certificate:
    if not is_connected(g):
        raise NotCovered("certification needs a connected graph")
    prover = _Prover(theorem)
    tag = classify_exception(g, theorem)
    if tag is not None:
        raise NotCovered(f"the E_{prover.fam.k} bound does not hold for the "
                         f"exception graph {tag}", tag)
    d = _dispatch(prover, g, g.vertex_mask)
    return Certificate(d, prover.th.bound(g), tuple(prover.trace))


def isolate_k2(g: Graph) -> Certificate:
    """A verified E_2-isolating set within floor((4n - leaves)/14).

    Raises ValueError on the six exception graphs and on disconnected input;
    InternalConsistencyError only on an implementation bug.
    """
    return _certify(g, "k2")


def isolate_k3(g: Graph) -> Certificate:
    """A verified E_3-isolating set within floor(n/4).

    Raises ValueError if the graph is a triangle or a 7-cycle, and on
    disconnected input.
    """
    return _certify(g, "k3")
