"""Independent checks of the CLI's JSON-lines rows.

Nothing here imports the package: graph6 decoding, closed-neighbourhood
deletion, per-component edge counts, the bound formulas and an exact E_2
isolation number are re-derived from the definitions, so a defect in the
package cannot hide itself by also breaking the check.

Each ``check_*`` function returns the number of input graphs whose row is
missing or fails a check.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

# connected graphs per isomorphism class, n = 1..8 (OEIS A001349)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def decode(line: str) -> tuple[int, ...]:
    """Adjacency bitmasks of a graph6 line (n <= 258047)."""
    data = [ord(c) - 63 for c in line.strip()]
    if data[0] == 63:
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if body[pos // 6] >> (5 - pos % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return tuple(adj)


def leaves(adj: tuple[int, ...]) -> int:
    return sum(1 for a in adj if a.bit_count() == 1)


def bound(adj: tuple[int, ...], k: int) -> int:
    """The paper's bound on iota_k for a connected graph."""
    n = len(adj)
    return (4 * n - leaves(adj)) // 14 if k == 2 else n // 4


def isolates(adj: tuple[int, ...], d: int, k: int) -> bool:
    """True iff every component of G - N[d] has fewer than k edges."""
    alive = (1 << len(adj)) - 1
    for v in bits(d):
        alive &= ~(adj[v] | 1 << v)
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & alive & ~comp
            comp |= frontier
        alive &= ~comp
        if sum((adj[v] & comp).bit_count() for v in bits(comp)) // 2 >= k:
            return False
    return True


def _coverable(adj, closed, alive: int, budget: int, memo: dict) -> bool:
    """Can at most ``budget`` vertices leave G[alive] with maximum degree <= 1?

    Every vertex c of G[alive] with two neighbours a, b there spans a path
    on three vertices that survives unless the set meets N[a] | N[b] | N[c].
    Pairwise disjoint such sets each need their own vertex, which bounds the
    search from below; the search branches on the smallest set.
    """
    sets = []
    for c in bits(alive):
        near = adj[c] & alive
        if near & (near - 1):
            a, b = sorted(bits(near), key=lambda v: closed[v].bit_count())[:2]
            sets.append(closed[a] | closed[b] | closed[c])
    if not sets:
        return True
    if budget == 0 or memo.get(alive, -1) >= budget:
        return False
    sets.sort(key=int.bit_count)
    used = packed = 0
    for s in sets:
        if not s & used:
            used |= s
            packed += 1
    if packed <= budget:
        for u in bits(sets[0]):
            if _coverable(adj, closed, alive & ~closed[u], budget - 1, memo):
                return True
    memo[alive] = max(memo.get(alive, -1), budget)
    return False


def iota_e2(adj: tuple[int, ...]) -> int:
    """Exact E_2-isolation number: the smallest d with G - N[d] of maximum
    degree at most 1 (no connected subgraph with two edges)."""
    closed = [a | 1 << v for v, a in enumerate(adj)]
    alive = (1 << len(adj)) - 1
    memo: dict = {}
    size = 0
    while not _coverable(adj, closed, alive, size, memo):
        size += 1
    return size


def rows(path: str) -> list[dict]:
    """The JSON-lines rows of a CLI report; none if it is unreadable."""
    try:
        with open(path, encoding="ascii") as f:
            out = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return []
    return [row for row in out if isinstance(row, dict)]


def _mask(vertices, n: int) -> Optional[int]:
    if not isinstance(vertices, list) or len(set(vertices)) != len(vertices):
        return None
    if not all(isinstance(v, int) and 0 <= v < n for v in vertices):
        return None
    return sum(1 << v for v in vertices)


def _row_matches(row: dict, line: str, adj: tuple[int, ...], k: int) -> bool:
    return (row.get("graph6") == line and row.get("n") == len(adj)
            and row.get("leaves") == leaves(adj)
            and row.get("bound") == bound(adj, k))


def check_certify(lines: list[str], out: list[dict], k: int) -> int:
    """Rows of ``certify --k K``: one per input line, in order, each with a
    certificate that isolates E_K and fits the bound."""
    failed = abs(len(lines) - len(out))
    for line, row in zip(lines, out):
        adj = decode(line)
        d = _mask(row.get("certificate"), len(adj))
        ok = (_row_matches(row, line, adj, k) and d is not None
              and row.get("cert_size") == d.bit_count() <= bound(adj, k)
              and isolates(adj, d, k))
        failed += not ok
    return failed


def check_solve(lines: list[str], out: list[dict], reference: list[int]) -> int:
    """Rows of ``solve --family e2``: each witness isolates E_2, has size
    iota, and iota equals the independently computed reference."""
    failed = abs(len(lines) - len(out))
    for line, row, iota in zip(lines, out, reference):
        adj = decode(line)
        w = _mask(row.get("witness"), len(adj))
        ok = (_row_matches(row, line, adj, 2) and w is not None
              and row.get("iota") == w.bit_count() == iota
              and isolates(adj, w, 2))
        failed += not ok
    return failed


def check_sweep_e2(out: list[dict], n_max: int) -> int:
    """Rows of ``sweep --family e2 --source builtin``.

    Per-n row counts must equal the known class counts.  Every row's iota
    must equal the independent one; a row is an exception exactly when iota
    exceeds the bound, and every other row carries a certificate size with
    iota <= cert_size <= bound.
    """
    expected = {n: c for n, c in CONNECTED_COUNTS.items() if n <= n_max}
    per_n: dict[int, int] = {}
    seen: set[str] = set()
    failed = 0
    for row in out:
        line = str(row.get("graph6", ""))
        try:
            adj = decode(line)
        except (IndexError, ValueError):
            failed += 1
            continue
        if len(adj) not in expected:
            failed += 1
            continue
        per_n[len(adj)] = per_n.get(len(adj), 0) + 1
        iota = iota_e2(adj)
        b = bound(adj, 2)
        if iota > b:
            ok = row.get("exception") is not None and "cert_size" not in row
        else:
            ok = (row.get("exception") is None
                  and isinstance(row.get("cert_size"), int)
                  and iota <= row["cert_size"] <= b)
        ok = (ok and line not in seen and _row_matches(row, line, adj, 2)
              and row.get("iota") == iota)
        seen.add(line)
        failed += not ok
    for n, count in expected.items():
        failed += abs(per_n.get(n, 0) - count)
    return failed
