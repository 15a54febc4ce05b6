"""Connected-graph enumeration (small n) and graph6 stream ingestion.

The builtin enumerator produces exactly one representative per isomorphism
class of connected n-vertex graphs for n <= 9, by vertex augmentation: each
(n-1)-class P is extended by a new vertex n-1 joined to a nonempty mask of
P's vertices.  A child is kept only when its new vertex passes a
canonical-deletion test, checked before any canonical form is computed:
among the child's non-cut vertices it has minimum degree, and among the
non-cut vertices of that degree it has the largest refined colour.  The
survivors are deduplicated by canonical form.

The test loses no class.  Every connected graph X has a vertex x that passes
it (non-cut vertices exist, and the rule picks some of them).  X - x is
connected, so it is isomorphic to some parent P under a map phi, and the
child of P with mask phi(N(x)) is isomorphic to X with x as its new vertex.
Degree, being a cut vertex and the refined colour are isomorphism
invariants, so that child passes the test too.

The test is cheap.  Per parent, the components of P - u are computed once
for every u; u is then a non-cut vertex of the child iff the mask meets
every component of P - u.  The refinement runs only when another non-cut
vertex ties with the new one on degree, and its colours are handed on to
``canonical_form``.

The canonical form is the lexicographically smallest adjacency bit string
(upper triangle, column by column) over vertex orderings, restricted to
orderings compatible with an iterated degree-refinement partition: vertices
are first bucketed by degree, then repeatedly by the multiset of neighbour
buckets until stable.  The refinement is isomorphism-invariant, so the
restricted minimum still is a canonical form, and the restriction plus
prefix pruning keeps the search tiny for every graph this cap allows.

External streams: one graph6 line per graph, optional ">>graph6<<" header,
malformed lines reported with their line number and either skipped or fatal
depending on strictness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .graphs import (Graph, Graph6Error, bits, component_masks, graph6_decode,
                     is_connected)

BUILTIN_MAX_N = 9

# connected graphs per isomorphism class, n = 0..9 (reproduced by tests
# against a labelled brute-force oracle for n <= 6)
KNOWN_CONNECTED_COUNTS = (0, 1, 1, 2, 6, 21, 112, 853, 11117, 261080)


# ===== Canonical form ========================================================


def _refined_colors(g: Graph) -> list[int]:
    """Stable vertex colouring: degree, iteratively refined by neighbours."""
    nbrs = [list(bits(a)) for a in g.adj]
    colors = [len(ns) for ns in nbrs]
    for _ in range(g.n):
        sigs = [(c, tuple(sorted([colors[w] for w in ns])))
                for c, ns in zip(colors, nbrs)]
        palette = {key: i for i, key in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(g: Graph, colors: Optional[list[int]] = None) -> tuple:
    """A canonical key: equal keys iff isomorphic graphs.

    The key is (n, columns...) where columns is the minimal upper-triangle
    encoding over colour-compatible vertex orderings.  ``colors``, when
    given, must be ``_refined_colors(g)``, already computed by the caller.
    """
    n = g.n
    if n <= 1:
        return (n,)
    if colors is None:
        colors = _refined_colors(g)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    slot_class = []
    for c in sorted(classes):
        slot_class += [c] * len(classes[c])

    adj = g.adj
    best: Optional[list[int]] = None

    def rec(chosen: list[int], used: int, cols: list[int]):
        nonlocal best
        pos = len(chosen)
        if pos == n:
            if best is None or cols < best:
                best = cols[:]
            return
        for v in classes[slot_class[pos]]:
            if used >> v & 1:
                continue
            if pos == 0:
                rec([v], 1 << v, cols)
                continue
            col = 0
            av = adj[v]
            for i, u in enumerate(chosen):
                col |= (av >> u & 1) << (pos - 1 - i)
            cols.append(col)
            # prefix pruning: abandon orderings already worse than best
            if best is None or cols <= best[:pos]:
                chosen.append(v)
                rec(chosen, used | (1 << v), cols)
                chosen.pop()
            cols.pop()

    rec([], 0, [])
    assert best is not None
    return (n, *best)


# ===== Builtin enumeration ===================================================


@lru_cache(maxsize=None)
def _builtin_classes(n: int) -> tuple[Graph, ...]:
    if n == 0:
        return ()
    if n == 1:
        return (Graph(1),)
    new = n - 1
    out = []
    seen = set()
    for parent in _builtin_classes(new):
        degree = [a.bit_count() for a in parent.adj]
        # low degrees first: a rejecting vertex is found sooner
        order = sorted(range(new), key=degree.__getitem__)
        # u is a non-cut vertex of the child iff the mask meets every
        # component of parent - u
        splits = [component_masks(parent, parent.vertex_mask & ~(1 << u))
                  for u in range(new)]
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
                adj = [parent.adj[v] | ((mask >> v & 1) << new) for v in range(new)]
                adj.append(mask)
                child = Graph.from_adj(n, tuple(adj))
                colors = None
                if ties:
                    colors = _refined_colors(child)
                    if any(colors[u] > colors[new] for u in ties):
                        continue
                key = canonical_form(child, colors)
                if key not in seen:
                    seen.add(key)
                    out.append(child)
    return tuple(out)


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected n-vertex graphs, one per isomorphism class (n <= 9)."""
    if not 0 <= n <= BUILTIN_MAX_N:
        raise ValueError(f"builtin enumeration capped at {BUILTIN_MAX_N} vertices")
    return iter(_builtin_classes(n))


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
        s = raw.strip()
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
