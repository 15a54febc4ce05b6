"""Connected-graph enumeration (small n) and graph6 stream ingestion.

The builtin enumerator produces exactly one representative per isomorphism
class of connected n-vertex graphs for n <= 9, by vertex augmentation: each
(n-1)-class P is extended by a new vertex n-1 joined to a nonempty mask of
P's vertices.  A child is kept only when its new vertex passes a
canonical-deletion test, checked before any canonical form is computed:
among the child's non-cut vertices it has minimum degree, and among the
non-cut vertices of that degree it has the largest refined colour.  Of
one parent's children only the least mask of each Aut(P)-orbit is tried,
and a child in which another vertex passes the test as well is kept only
when its new vertex lies in the orbit of its canonical deletion vertex
(below).  Each child is kept or rejected by its parent alone: no child is
compared with another.

The test loses no class.  Every connected graph X has a vertex x that passes
it (non-cut vertices exist, and the rule picks some of them).  X - x is
connected, so it is isomorphic to some parent P under a map phi, and the
child of P with mask phi(N(x)) is isomorphic to X with x as its new vertex.
Degree, being a cut vertex and the refined colour are isomorphism
invariants, so that child passes the test too.

The test is cheap.  Per parent, the components of P - u are computed once
for every u; u is then a non-cut vertex of the child iff the mask meets
every component of P - u.  Colours are compared only when another non-cut
vertex ties with the new one on degree, and most ties are settled by the
first refinement round alone.  A round packs each vertex's old colour into
the most significant digit of its signature, so it never reverses the
order of two vertices that already have different colours: once the new
vertex's colour differs from the largest colour of its ties, the sign of
the difference is that of the stable colouring.  Every tie has the new
vertex's degree, its round-0 colour, so round 1 compares only their
neighbour counts per degree class, without ranking the other vertices.
The child is refined to the stable colouring only when round 1 leaves the
new vertex tied, and those colours are handed on to the canonical search.

Orbit pruning is the within-parent half of McKay's canonical augmentation
("Isomorph-free exhaustive generation", J. Algorithms 1998).  An
automorphism sigma of P, extended by fixing the new vertex, maps the child
with mask m onto the child with mask sigma(m).  So the masks of one orbit
give isomorphic children, and all of them pass the test or none does.

The canonical deletion vertex settles the rest: McKay's other half.  When
another vertex of a child X passes the test, the canonical search of X
(below) returns the ordering beta that gives X's key, and generators of
Aut(X).  Let c be the first passing vertex of beta; X is kept iff its new
vertex x lies in the Aut(X)-orbit of c.  A child in which x alone passes
has c = x and is kept without a search.

The orbit of c is invariant under isomorphism.  Two orderings of X that
give the same string differ by an automorphism, which maps passing
vertices onto passing vertices (passing is an isomorphism invariant), so
their first passing vertices, at one position, share an orbit.  An isomorphism phi: X -> Y maps beta onto an
ordering of Y with the same least string, so phi(c) lies in the orbit of
Y's vertex c.

So exactly one (parent, mask orbit) gives each class.  At least one: X - c
is connected, so it is isomorphic to a parent P under a map psi.  The
child of P with mask psi(N(c)), and so the one with the least mask of its
orbit, is isomorphic to X by a map that takes its new vertex to c.  That
child passes the test, and its new vertex lies in the image of c's orbit,
its own canonical orbit: it is kept.  At most one: if kept children X and Y are isomorphic, some
isomorphism maps the orbit of X's c onto that of Y's, and, composed with
an automorphism of Y, maps x to y.  Then X - x and Y - y are isomorphic, so
X and Y share their parent P (the parents are distinct classes), and the
isomorphism restricted to P is an automorphism of P taking X's mask to
Y's.  The two masks share an orbit, and only one mask of it is tried.

Aut(P) comes from the search behind ``canonical_form`` (below), run by
``_children``, and Aut(X) of a child from the same search: it collects
a transposition (u v) for each twin pair that the search prunes, and, for
each leaf whose string equals the best leaf's, the map from the best
leaf's ordering beta to that leaf's.  These generate Aut(P).  Take sigma in Aut(P): the ordering sigma(beta) gives the same
string as beta.  Walk it position by position; where its vertex v has a
lower twin u not yet placed, swap u and v by their transposition, which
fixes the earlier positions (being twins is an equivalence, so u may be
taken as the lowest unplaced twin).  The result gamma = t(sigma(beta)), t a
product of twin transpositions, is never pruned: not by twins, and not by
prefix, since its string is the minimum.  So gamma is beta, or a leaf
tied with beta whose map beta -> gamma, which is t sigma, was collected.
Either way sigma is in the group generated.  The search collects nothing
when it only computes a canonical form.

A level is generated per parent: ``_children`` decides the children of
one parent, and is mapped over the parents by a caller-supplied ordered
map (the builtin ``map``, or a pool's ``imap``).  The kept children are
concatenated in parent order, then mask order.  So the classes, their
representatives and their order do not depend on the map.

The canonical form is the lexicographically smallest adjacency bit string
(upper triangle, column by column) over vertex orderings, restricted to
orderings compatible with an iterated degree-refinement partition: vertices
are first bucketed by degree, then repeatedly by the multiset of neighbour
buckets until stable.  The refinement is isomorphism-invariant, so the
restricted minimum still is a canonical form.

A refinement round packs each vertex's colour and its neighbour counts per
colour class into one int (``_signatures``, the one packing that both the
rounds and the round-1 tie test read), complemented so that the ints sort
like (colour, sorted neighbour colours) tuples: the colour values are
those the tuples give, which matters because the canonical-deletion test
compares them.  The search for the minimum compares each new column with
the best one at the same position, keeping a flag per level for "prefix
equal to the best so far", and tries only the lowest unused vertex of a
set of twins (u, v with N(u) - v = N(v) - u): swapping two twins is an
automorphism that fixes every chosen vertex, so the minimum is unchanged.
That keeps complete graphs, complete bipartite graphs and stars linear
instead of factorial.

External streams: one graph6 line per graph, optional ">>graph6<<" header,
malformed lines reported with their line number and either skipped or fatal
depending on strictness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .graphs import (ASCII_WHITESPACE, Graph, Graph6Error, bits, graph6_decode,
                     is_connected, iter_components)

BUILTIN_MAX_N = 9

# canonical forms kept: the prover asks for the same few small pieces over
# and over, and a fixed bound keeps the memo's memory flat
_CANONICAL_MEMO = 1024


# ===== Canonical form ========================================================


def _signatures(adj: tuple[int, ...], colors: list[int],
                vertices: Iterable[int]) -> list[int]:
    """Each of ``vertices``'s signature in one refinement round of the graph
    with adjacency ``adj`` under ``colors``: its colour, then per colour
    class, in increasing colour order, n minus its number of neighbours in
    the class, one digit of n.bit_length() bits each.  The colour is the
    most significant digit, so a round never reverses the order of two
    vertices of different colours."""
    n = len(adj)
    width = n.bit_length()  # one digit holds 0..n
    members: dict[int, int] = {}
    for v, c in enumerate(colors):
        members[c] = members.get(c, 0) | 1 << v
    masks = [members[c] for c in sorted(members)]
    sigs = []
    for v in vertices:
        c = colors[v]
        a = adj[v]
        for m in masks:
            c = c << width | n - (a & m).bit_count()
        sigs.append(c)
    return sigs


def _refined_colors(g: Graph) -> list[int]:
    """Stable vertex colouring: degree, iteratively refined by neighbours.

    A round ranks each vertex by (its colour, the sorted colours of its
    neighbours), through its ``_signatures`` int.  Vertices of one colour
    have one degree, and two sorted multisets of one size compare like
    their negated count vectors, so the ranks are those of the tuples.
    """
    n = g.n
    adj = g.adj
    colors = [a.bit_count() for a in adj]
    classes = len(set(colors))
    for _ in range(n):
        sigs = _signatures(adj, colors, range(n))
        palette = {key: i for i, key in enumerate(sorted(set(sigs)))}
        colors = [palette[s] for s in sigs]
        # no class split (or none can split any more): further rounds
        # would return these values unchanged
        if len(palette) == classes or len(palette) == n:
            break
        classes = len(palette)
    return colors


def _search(g: Graph, colors: list[int],
            gens: Optional[list] = None) -> tuple[tuple, list[int]]:
    """The canonical key of ``g`` under the refined ``colors``, and the
    first vertex ordering that gives it.

    When ``gens`` is a list, generators of Aut(g) are appended to it as
    vertex maps (v -> image): a transposition per twin pair the search
    prunes, and a map per leaf that ties with the best leaf.
    """
    n = g.n
    adj = g.adj
    members: dict[int, int] = {}
    for v, c in enumerate(colors):
        members[c] = members.get(c, 0) | 1 << v
    slots: list[int] = []  # per position, the mask of the class it takes
    # twins (N(u) - v == N(v) - u) are swapped by an automorphism that fixes
    # every other vertex, so only the lowest unused one of them is tried
    lower_twins = [0] * n
    for c in sorted(members):
        m = members[c]
        slots += [m] * m.bit_count()
        row = list(bits(m))
        for j, v in enumerate(row):
            for u in row[:j]:
                if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    lower_twins[v] |= 1 << u
    if gens is not None:
        for v, lower in enumerate(lower_twins):
            if lower:
                u = (lower & -lower).bit_length() - 1
                swap = list(range(n))
                swap[u], swap[v] = v, u
                gens.append(swap)

    chosen = [0] * n
    cols = [0] * n  # cols[pos]: the adjacency of chosen[pos] to chosen[:pos]
    best: list[int] = []
    best_order: list[int] = []  # the ordering that gave best

    def rec(pos: int, used: int, tied: bool) -> None:
        # tied: cols[1:pos] equals best[:pos - 1]; otherwise it is smaller,
        # and the first leaf below becomes the new best
        nonlocal best, best_order
        if pos == n:
            if not tied:
                best = cols[1:]
                best_order = chosen[:]
            elif gens is not None:
                # two orderings with one adjacency string: mapping the one
                # onto the other is an automorphism
                image = [0] * n
                for u, v in zip(best_order, chosen):
                    image[u] = v
                gens.append(image)
            return
        free = slots[pos] & ~used
        for v in bits(free):
            if lower_twins[v] & free:
                continue
            av = adj[v]
            col = 0
            for u in chosen[:pos]:
                col = col << 1 | (av >> u & 1)
            if tied:
                top = best[pos - 1]
                if col > top:
                    continue  # prefix pruning
                below = col == top
            else:
                below = False
            cols[pos] = col
            chosen[pos] = v
            rec(pos + 1, used | 1 << v, below)
            tied = True  # best now extends this prefix

    first = slots[0]
    for v in bits(first):
        if not lower_twins[v] & first:
            chosen[0] = v
            rec(1, 1 << v, bool(best))
    return (n, *best), best_order


@lru_cache(maxsize=_CANONICAL_MEMO)
def canonical_form(g: Graph) -> tuple:
    """A canonical key: equal keys iff isomorphic graphs.

    The key is (n, columns...) where columns is the minimal upper-triangle
    encoding over colour-compatible vertex orderings.  Keys are memoised
    per labelled graph (equal adjacency), for the last ``_CANONICAL_MEMO``
    graphs asked for.
    """
    if g.n <= 1:
        return (g.n,)
    return _search(g, _refined_colors(g))[0]


def _orbit(mask: int, gens: list[list[int]]) -> set[int]:
    """The orbit of a vertex mask under the group generated by ``gens``."""
    orbit = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        for image in gens:
            moved = 0
            for v in bits(m):
                moved |= 1 << image[v]
            if moved not in orbit:
                orbit.add(moved)
                todo.append(moved)
    return orbit


# ===== Builtin enumeration ===================================================


def _child(parent: Graph, mask: int) -> Graph:
    """``parent`` plus a new last vertex joined to the vertices of ``mask``."""
    new = parent.n
    adj = [a | (mask >> v & 1) << new for v, a in enumerate(parent.adj)]
    adj.append(mask)
    return Graph.from_adj(new + 1, tuple(adj))


def _children(parent: Graph) -> list[int]:
    """The masks of the kept children of ``parent``, in mask order: the
    least mask of each Aut(parent) orbit whose child's new vertex passes
    the canonical-deletion test and lies in the Aut(child) orbit of the
    first passing vertex of the child's canonical ordering.  Runs inside
    worker processes."""
    new = parent.n
    degree = [a.bit_count() for a in parent.adj]
    # low degrees first: a rejecting vertex is found sooner
    order = sorted(range(new), key=degree.__getitem__)
    # u is a non-cut vertex of the child iff the mask meets every
    # component of parent - u
    splits = [list(iter_components(parent, parent.vertex_mask & ~(1 << u)))
              for u in range(new)]
    gens: list[list[int]] = []  # vertex maps (v -> image) generating Aut(parent)
    _search(parent, _refined_colors(parent), gens)
    tried: set[int] = set()  # the orbits of the passing masks met so far
    out = []
    for mask in range(1, 1 << new):
        d = mask.bit_count()
        ties = []  # the other non-cut vertices of the new vertex's degree
        for u in order:
            du = degree[u] + (mask >> u & 1)
            if du > d:
                continue
            if all(mask & c for c in splits[u]):
                if du < d:
                    break  # a non-cut vertex of smaller degree: reject
                ties.append(u)
        else:
            if gens:
                # the test passes on whole orbits, so the first passing
                # mask of an orbit is its least
                if mask in tried:
                    continue
                tried |= _orbit(mask, gens)
            if ties:
                child = _child(parent, mask)
                adj = child.adj
                # no round reverses an order, so round 1 decides when it
                # tells the new vertex from its ties; they share its degree,
                # and round 1 compares their counts per degree class
                *others, mine = _signatures(adj, [a.bit_count() for a in adj],
                                            ties + [new])
                if max(others) > mine:
                    continue
                if max(others) == mine:  # still tied: the stable colours decide
                    colors = _refined_colors(child)
                    top = max(colors[u] for u in ties)
                    if top > colors[new]:
                        continue
                    if top == colors[new]:  # another vertex passes as well
                        # keep the child iff its new vertex shares an
                        # Aut(child) orbit with the canonical deletion vertex
                        auts: list[list[int]] = []
                        _, best = _search(child, colors, auts)
                        first = next(v for v in best if colors[v] == top
                                     and (v == new or v in ties))
                        if 1 << new not in _orbit(1 << first, auts):
                            continue
            out.append(mask)
    return out


def _next_level(parents: tuple[Graph, ...], imap) -> tuple[Graph, ...]:
    """The classes one vertex above ``parents``: the kept children of each,
    from ``_children`` mapped over them by ``imap`` (an ordered map, such as
    a pool's), in parent order, then mask order."""
    return tuple(_child(parent, mask)
                 for parent, masks in zip(parents, imap(_children, parents))
                 for mask in masks)


# _LEVELS[n] holds the classes on n vertices; levels are added on demand
_LEVELS: list[tuple[Graph, ...]] = [(), (Graph(1),)]


def connected_graphs(n: int, imap=map) -> Iterator[Graph]:
    """All connected n-vertex graphs, one per isomorphism class (n <= 9).

    Levels not yet built are generated through ``imap``; the classes and
    their order do not depend on it.
    """
    if not 0 <= n <= BUILTIN_MAX_N:
        raise ValueError(f"builtin enumeration capped at {BUILTIN_MAX_N} vertices")
    while len(_LEVELS) <= n:
        _LEVELS.append(_next_level(_LEVELS[-1], imap))
    return iter(_LEVELS[n])


# ===== graph6 streams ========================================================


class Graph6StreamError(Graph6Error):
    """A malformed line in a graph6 stream, with its line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_graph6_stream(
    lines: Iterable[str],
    *,
    connected_only: bool = False,
    strict: bool = True,
    issues: Optional[list[tuple[int, str]]] = None,
) -> Iterator[Graph]:
    """Decode a stream of graph6 lines.

    Empty lines are skipped.  A malformed line raises Graph6StreamError when
    ``strict`` and is otherwise recorded in ``issues`` (line number, message)
    and skipped, so a long sweep survives a stray bad line.  With
    ``connected_only``, a disconnected graph is recorded in ``issues`` and
    skipped as well.
    """
    for line_no, raw in enumerate(lines, start=1):
        s = raw.strip(ASCII_WHITESPACE)
        if not s or s == ">>graph6<<":
            continue
        try:
            g = graph6_decode(s)
        except Graph6Error as exc:
            if strict:
                raise Graph6StreamError(line_no, str(exc)) from exc
            if issues is not None:
                issues.append((line_no, str(exc)))
            continue
        if connected_only and not is_connected(g):
            if issues is not None:
                issues.append((line_no, "disconnected graph; the bounds only "
                                        "cover connected graphs"))
            continue
        yield g
