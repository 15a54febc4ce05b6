"""The spined families that attain the isolation bounds, and pattern sets.

One construction, ``build_B(n, F, joins)`` with |V(F)| = k: a path on
a = floor(n/(k+1)) spine vertices, b - a extra vertices hanging off the last
spine vertex (b = n - k*a, so a <= b <= a + k), and for each spine vertex a
private copy of F whose ``joins`` vertices (by default all of them) are
joined to it.  Any isolating set must spend a vertex near each F-copy.
Which specs attain which bound is data, the ``sharp`` field of each
``bounds.THEOREMS`` record: B(n, K_2) and B(n, K_3) with every copy vertex
joined; B'(n, P_3), P_3 joined at its middle, so the copy's endpoints stay
leaves; and B'(7r, C_6), C_6 joined at one vertex, r pendant 6-cycles whose
pendant vertices form a path.

Vertex labelling is fixed and deterministic (spine first, then extras, then
the copies in order) so encodings are stable across runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, mask_of, named_graph, path_graph


def build_B(n: int, f: str, joins: Optional[Sequence[int]] = None) -> Graph:
    """The spine construction on n vertices over copies of ``named_graph(f)``.

    Labels: spine path 0..a-1, extras a..b-1 (attached to spine vertex a-1),
    then the i-th copy of f occupies b + i*k .. b + (i+1)*k - 1, and its
    vertices listed in ``joins`` (every one by default) are joined to spine
    vertex i.  For n <= k this is the path P_n.
    """
    copy = named_graph(f)
    if n < 1:
        raise ValueError("need at least one vertex")
    k = copy.n
    if k < 1:
        raise ValueError("the copied graph needs at least one vertex")
    if n <= k:
        return path_graph(n)
    a = n // (k + 1)
    b = n - k * a
    edges = [(i, i + 1) for i in range(a - 1)]
    edges += [(a - 1, j) for j in range(a, b)]
    for i in range(a):
        off = b + i * k
        edges += [(off + u, off + v) for u, v in copy.edges()]
        edges += [(i, off + u) for u in (range(k) if joins is None else joins)]
    return Graph(n, edges)


# ===== Pattern isolating sets for paths and cycles ===========================

# On 0-based labels (vertex i here is vertex i+1 of the 1-based formulas),
# with period k + 2 on paths and k + 3 on cycles:
#   paths:  every (k+2)-th vertex, ending each period   {(k+2)i - 1 : i >= 1}
#   cycles: every (k+3)-th vertex from 0                {(k+3)i : i >= 0}
#
# Every set returned below is isolating for each n the function accepts.  The
# E_3 path period places no vertex for n < 5; that is right for n <= 3, where
# P_n has at most 2 edges, but P_4 has 3, so there one vertex is placed
# (any single vertex of P_4 leaves at most one edge).  The E_2 patterns need
# n >= 4: below that the period places no vertex on P_3, which is in E_2.


def pattern_isolating_set(kind: str, n: int, k: int) -> int:
    """The periodic isolating set for P_n / C_n and the family E_k, as a mask.

    ``kind`` is "path" or "cycle"; k is 2 or 3.  The set is isolating for
    every n accepted here; for P_4 and E_3, where the period places no vertex,
    it is the single vertex 1.
    """
    if k not in (2, 3):
        raise ValueError("patterns exist for k = 2 and k = 3 only")
    if kind == "path":
        least, step, first = (4 if k == 2 else 1), k + 2, k + 1
    elif kind == "cycle":
        least, step, first = (4 if k == 2 else 3), k + 3, 0
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    if n < least:
        raise ValueError(f"the E_{k} {kind} pattern needs n >= {least}")
    if kind == "path" and k == 3 and n == 4:
        return 1 << 1
    return mask_of(range(first, n, step))
