"""Extremal families attaining the isolation bounds, and pattern sets.

One construction, ``build_B(n, F, joins)`` with |V(F)| = k: a path on
a = floor(n/(k+1)) spine vertices, b - a extra vertices hanging off the last
spine vertex (b = n - k*a), and for each spine vertex a private copy of F
whose ``joins`` vertices (by default all of them) are joined to it.  Any
isolating set must spend a vertex near each F-copy, so iota comes out to a,
and three specs meet the bounds with equality:

* B(n, F), every copy vertex joined: F = K_2 gives iota(B, E_1) =
  floor(n/3) and F = K_3 gives iota(B, E_3) = floor(n/4).
* ``build_B_prime_P3``: F = P_3 joined at its middle only, so the copy's
  endpoints stay leaves; this makes the leaf-sensitive E_2 bound
  floor((4n - leaves)/14) tight.
* ``build_B_prime_7r_C6``: n = 7r and F = C_6 joined at one vertex, so the
  spine vertices are the pendant vertices of r pendant 6-cycles; it needs 2
  isolating vertices per copy, which shows the E_2 bound's coefficient
  2/7 (= 4/14) cannot be improved for leafless graphs.

Vertex labelling is fixed and deterministic (spine first, then extras, then
the copies in order) so encodings are stable across runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graphs import Graph, mask_of, named_graph, path_graph


def spine_count(n: int, k: int) -> int:
    """a = floor(n/(k+1)): number of spine vertices of build_B."""
    return n // (k + 1)


def base_count(n: int, k: int) -> int:
    """b = n - k*a: spine plus extra vertices (a <= b <= a + k)."""
    return n - k * spine_count(n, k)


def build_B(n: int, f: str, joins: Optional[Sequence[int]] = None) -> Graph:
    """The spine construction on n vertices over copies of ``named_graph(f)``.

    Labels: spine path 0..a-1, extras a..b-1 (attached to spine vertex a-1),
    then the i-th copy of f occupies b + i*k .. b + (i+1)*k - 1, and its
    vertices listed in ``joins`` (every one by default) are joined to spine
    vertex i.
    """
    copy = named_graph(f)
    if n < 1:
        raise ValueError("need at least one vertex")
    k = copy.n
    if k < 1:
        raise ValueError("the copied graph needs at least one vertex")
    if n <= k:
        return path_graph(n)
    a = spine_count(n, k)
    b = base_count(n, k)
    edges = [(i, i + 1) for i in range(a - 1)]
    edges += [(a - 1, j) for j in range(a, b)]
    for i in range(a):
        off = b + i * k
        edges += [(off + u, off + v) for u, v in copy.edges()]
        edges += [(i, off + u) for u in (range(k) if joins is None else joins)]
    return Graph(n, edges)


def build_B_prime_P3(n: int) -> Graph:
    """``build_B(n, "P3")`` with each copy joined by its midpoint only.

    For n <= 3 this is just P_n; n = 4 comes out as the 3-leaf star.  Leaves:
    the b - a extras plus both endpoints of every copy.
    """
    return build_B(n, "P3", joins=(1,))


def build_B_prime_7r_C6(r: int) -> Graph:
    """r pendant 6-cycles whose pendant vertices form a path.

    This is ``build_B(7r, "C6")`` with each copy joined at its vertex 0; there
    a = b = r.  Labels: path vertices 0..r-1 (vertex i doubles as the pendant
    vertex of the i-th copy), then the i-th 6-cycle occupies r + 6i ..
    r + 6i + 5 with the pendant edge from i to r + 6i.  r = 1 is exactly the
    pendant 6-cycle.
    """
    if r < 1:
        raise ValueError("need at least one copy")
    return build_B(7 * r, "C6", joins=(0,))


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
