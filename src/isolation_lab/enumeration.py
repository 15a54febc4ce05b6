"""Connected-graph enumeration (small n) and graph6 stream ingestion.

The builtin enumerator produces exactly one representative per isomorphism
class of connected n-vertex graphs for n <= 9, by vertex augmentation: every
connected graph on n >= 2 vertices arises from a connected graph on n - 1
vertices by adding one vertex with a nonempty neighbourhood (remove a leaf of
a spanning tree), so extending every (n-1)-class by every nonempty
neighbourhood mask reaches every class at least once, and duplicates are
discarded by canonical form.

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

from .graphs import Graph, Graph6Error, bits, graph6_decode, is_connected

BUILTIN_MAX_N = 9

# connected graphs per isomorphism class, n = 0..9 (reproduced by tests
# against a labelled brute-force oracle for n <= 6)
KNOWN_CONNECTED_COUNTS = (0, 1, 1, 2, 6, 21, 112, 853, 11117, 261080)


# ===== Canonical form ========================================================


def _refined_colors(g: Graph) -> list[int]:
    """Stable vertex colouring: degree, iteratively refined by neighbours."""
    colors = [g.adj[v].bit_count() for v in range(g.n)]
    for _ in range(g.n):
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        palette = {key: i for i, key in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(g: Graph) -> tuple:
    """A canonical key: equal keys iff isomorphic graphs.

    The key is (n, columns...) where columns is the minimal upper-triangle
    encoding over colour-compatible vertex orderings.
    """
    n = g.n
    if n <= 1:
        return (n,)
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
    out = []
    seen = set()
    for parent in _builtin_classes(n - 1):
        for mask in range(1, 1 << (n - 1)):
            adj = [parent.adj[v] | ((mask >> v & 1) << (n - 1)) for v in range(n - 1)]
            adj.append(mask)
            child = Graph.from_adj(n, tuple(adj))
            key = canonical_form(child)
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
