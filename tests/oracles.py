"""Independent brute-force oracles used by the enumeration and acceptance tests.

The brute-force oracles do not go through the package's canonical form,
isomorphism test, or connectivity helper: labeled graphs are edge-pair bitmasks, connectivity is a
fresh BFS, and isomorphism classes are collapsed by a minimum-over-relabelings
canonical key restricted to invariant-preserving permutations (vertex degree
and neighbour-degree multiset are isomorphism invariants, so the restriction
loses nothing).

``refined_colors`` and ``canonical_form`` at the end are the enumerator's
kernel in its plain form (sorted neighbour-colour tuples, a full prefix
comparison at every search node, no twin pruning).  The package's faster
kernel must return the same colour values and the same keys.

``keyed_children`` and ``next_level`` are the builtin enumerator in its
keyed form: every child that passes the canonical-deletion test gets a
canonical key, and one ``seen`` set keeps the first child of each key.
The package's enumerator, which keeps or rejects each child within its
parent, must build the same classes.  ``deletion_candidates`` lists the
vertices that pass that test, straight from its definition, and
``automorphisms`` lists a graph's automorphisms by backtracking.

``graph6_encode`` and ``graph6_decode`` are the graph6 codec in its plain
form: one bit per step, in the order the format lists the pairs, with the
package's validation and error messages.  The package's whole-string codec
must give the same lines, the same adjacency and the same messages.

``exact_iota`` is the exact solver's branch and bound in its plain form: it
grows every witness tree afresh at every search node and drops repeated
hoods.  The package's solver, which hands each node's trees to its
children, must return the same value and the same witness.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from typing import Optional


def _labeled_connected_edge_sets(n: int):
    """Every connected labeled graph on 0..n-1 as a tuple of edges."""
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        adj = [set() for _ in range(n)]
        edges = []
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u].add(v)
                adj[v].add(u)
                edges.append((u, v))
        seen = {0} if n else set()
        frontier = [0] if n else []
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) == n:
            out.append(tuple(edges))
    return out


def labeled_connected_count(n: int) -> int:
    return len(_labeled_connected_edge_sets(n))


def labeled_connected_count_recurrence(n: int) -> int:
    """Labeled connected graph count by the classical subtraction recurrence.

    c_n = 2^C(n,2) - sum_{k<n} C(n-1, k-1) c_k 2^C(n-k, 2): remove the graphs
    where the component of vertex 0 has only k < n vertices.
    """
    c = [0, 1]
    for m in range(2, n + 1):
        total = 1 << comb(m, 2)
        for k in range(1, m):
            total -= comb(m - 1, k - 1) * c[k] * (1 << comb(m - k, 2))
        c.append(total)
    return c[n]


def _invariant_classes(n: int, edges) -> list[list[int]]:
    """Vertices grouped by (degree, neighbour-degree multiset), sorted by it.

    The group keys are isomorphism invariants, so isomorphic graphs produce
    the same sequence of group sizes in the same key order.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    key = {v: (len(adj[v]), tuple(sorted(len(adj[w]) for w in adj[v])))
           for v in range(n)}
    groups: dict = {}
    for v in range(n):
        groups.setdefault(key[v], []).append(v)
    return [groups[k] for k in sorted(groups)]


def _block_relabelings(n: int, edges):
    """Bijections sending the i-th invariant class onto the i-th label block.

    Every isomorphism maps classes onto classes with equal keys, so two
    isomorphic graphs reach exactly the same set of relabeled edge tuples.
    """
    classes = _invariant_classes(n, edges)
    blocks = []
    offset = 0
    for cls in classes:
        blocks.append(range(offset, offset + len(cls)))
        offset += len(cls)
    choices = [list(permutations(block)) for block in blocks]
    idx = [0] * len(classes)
    while True:
        perm = [0] * n
        for ci, cls in enumerate(classes):
            for src, dst in zip(cls, choices[ci][idx[ci]]):
                perm[src] = dst
        yield perm
        for ci in range(len(classes)):
            idx[ci] += 1
            if idx[ci] < len(choices[ci]):
                break
            idx[ci] = 0
        else:
            return


def canonical_edge_key(n: int, edges) -> tuple:
    """Minimum relabeled edge tuple over the block relabelings."""
    best = None
    for perm in _block_relabelings(n, edges):
        cand = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges
        ))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


def connected_class_count(n: int) -> int:
    """Connected isomorphism classes on n vertices, fully by brute force."""
    if n == 0:
        return 0
    keys = {canonical_edge_key(n, edges)
            for edges in _labeled_connected_edge_sets(n)}
    return len(keys)


# ===== the enumerator's kernel, plain form ===================================


def refined_colors(n: int, adj) -> list[int]:
    """Degree colouring refined by sorted neighbour-colour tuples."""
    nbrs = [[w for w in range(n) if adj[v] >> w & 1] for v in range(n)]
    colors = [len(ns) for ns in nbrs]
    for _ in range(n):
        sigs = [(c, tuple(sorted([colors[w] for w in ns])))
                for c, ns in zip(colors, nbrs)]
        palette = {key: i for i, key in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(n: int, adj) -> tuple:
    """Minimal upper-triangle column encoding over colour-compatible orders."""
    if n <= 1:
        return (n,)
    colors = refined_colors(n, adj)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    slot_class = []
    for c in sorted(classes):
        slot_class += [c] * len(classes[c])
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
            for i, u in enumerate(chosen):
                col |= (adj[v] >> u & 1) << (pos - 1 - i)
            cols.append(col)
            if best is None or cols <= best[:pos]:
                chosen.append(v)
                rec(chosen, used | (1 << v), cols)
                chosen.pop()
            cols.pop()

    rec([], 0, [])
    assert best is not None
    return (n, *best)


# ===== the enumerator's levels, keyed form ==================================


def _child_adj(adj, mask: int) -> tuple[int, ...]:
    """The graph ``adj`` plus a new last vertex joined to ``mask``."""
    new = len(adj)
    return tuple([a | (mask >> v & 1) << new for v, a in enumerate(adj)]
                 + [mask])


def keyed_children(adj, colors=refined_colors,
                   key=canonical_form) -> list[tuple[int, tuple]]:
    """(mask, canonical key) of every child of ``adj`` whose new vertex
    passes the canonical-deletion test, in mask order.

    ``colors`` and ``key`` map (n, adj) to the refined colours and the
    canonical key; they default to the plain forms above.
    """
    n = len(adj)
    full = (1 << n) - 1
    splits = [_components(adj, full & ~(1 << u)) for u in range(n)]
    out = []
    for mask in range(1, 1 << n):
        d = mask.bit_count()
        ties = []  # the other non-cut vertices of the new vertex's degree
        for u in range(n):
            du = adj[u].bit_count() + (mask >> u & 1)
            if du <= d and all(mask & c for c in splits[u]):
                if du < d:
                    break
                ties.append(u)
        else:
            child = _child_adj(adj, mask)
            tone = colors(n + 1, child)
            if all(tone[u] <= tone[n] for u in ties):
                out.append((mask, key(n + 1, child)))
    return out


def next_level(parents, colors=refined_colors,
               key=canonical_form) -> list[tuple[int, ...]]:
    """The adjacency of each class one vertex above ``parents`` (adjacency
    tuples): the first child of each canonical key, in parent order, then
    mask order."""
    out = []
    seen = set()
    for adj in parents:
        for mask, k in keyed_children(adj, colors, key):
            if k not in seen:
                seen.add(k)
                out.append(_child_adj(adj, mask))
    return out


def deletion_candidates(n: int, adj) -> list[int]:
    """The vertices that pass the canonical-deletion test: the non-cut
    vertices of least degree, and among them those of the largest refined
    colour."""
    full = (1 << n) - 1
    noncut = [v for v in range(n)
              if len(_components(adj, full & ~(1 << v))) == 1]
    low = min(adj[v].bit_count() for v in noncut)
    noncut = [v for v in noncut if adj[v].bit_count() == low]
    colors = refined_colors(n, adj)
    top = max(colors[v] for v in noncut)
    return [v for v in noncut if colors[v] == top]


def automorphisms(n: int, adj) -> list[list[int]]:
    """Every automorphism of the graph as a vertex map (v -> image), by
    backtracking over the images that keep adjacency to the vertices
    already mapped."""
    out = []
    image: list[int] = []

    def extend(v: int, used: int) -> None:
        if v == n:
            out.append(image[:])
            return
        for w in range(n):
            if (not used >> w & 1
                    and adj[w].bit_count() == adj[v].bit_count()
                    and all((adj[v] >> u & 1) == (adj[w] >> image[u] & 1)
                            for u in range(v))):
                image.append(w)
                extend(v + 1, used | 1 << w)
                image.pop()

    extend(0, 0)
    return out


# ===== the graph6 codec, plain form ==========================================


def graph6_encode(n: int, adj) -> str:
    """graph6 line of the graph on 0..n-1 with adjacency masks ``adj``."""
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    word = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            word = word << 1 | (adj[j] >> i & 1)
            nbits += 1
    pad = (-nbits) % 6
    word <<= pad
    nbits += pad
    return head + "".join(
        chr(63 + (word >> shift & 63)) for shift in range(nbits - 6, -1, -6)
    )


def graph6_decode(line: str) -> tuple[int, tuple[int, ...]]:
    """(n, adjacency masks) of a graph6 line of at most 64 vertices; a
    malformed line raises ValueError with the package's message."""
    s = line.strip(" \t\n\r\v\f")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 line")
    for pos, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"byte {ord(ch)} at position {pos} outside graph6 range")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("vertex count uses the 36-bit form; far over the 64-vertex cap")
        if len(s) < 4:
            raise ValueError("truncated extended vertex-count header")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    if n > 64:
        raise ValueError(f"vertex count {n} over the 64-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"body length {len(body)} does not match {need} bytes for n={n}")
    word = 0
    for ch in body:
        word = word << 6 | (ord(ch) - 63)
    total = 6 * need
    if total > nbits and word & ((1 << (total - nbits)) - 1):
        raise ValueError("nonzero padding bits")
    adj = [0] * n
    shift = total
    for j in range(1, n):
        for i in range(j):
            shift -= 1
            if word >> shift & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return n, tuple(adj)


# ===== the exact solver, plain form ==========================================


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _components(adj, alive: int) -> list[int]:
    """Components of the graph induced on ``alive``, by smallest member."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            grow = 0
            for v in _bits(frontier):
                grow |= adj[v]
            frontier = grow & alive & ~comp
            comp |= frontier
        comps.append(comp)
        alive &= ~comp
    return comps


def _edges_within(adj, mask: int) -> int:
    return sum((adj[v] & mask).bit_count() for v in _bits(mask)) // 2


def _short_cycle(adj, comp: int) -> int:
    """Vertex set of a shortest-found BFS cycle in ``comp``, first root wins ties."""
    best = None
    for root in _bits(comp):
        parent = {root: -1}
        queue = [root]
        edge = None
        while queue and edge is None:
            nxt = []
            for u in queue:
                for w in _bits(adj[u] & comp):
                    if w == parent[u]:
                        continue
                    if w in parent:
                        edge = (u, w)
                        break
                    parent[w] = u
                    nxt.append(w)
                if edge:
                    break
            queue = nxt
        if edge is None:
            continue
        u, w = edge
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
        for y in path_u:
            cyc |= 1 << y
            if y == x:
                break
        if best is None or cyc.bit_count() < best.bit_count():
            best = cyc
        if best.bit_count() == 3:
            break
    return best


class _RegrowingSearch:
    def __init__(self, n: int, adj, kind: str, k: int, within: int):
        self.adj, self.kind, self.k, self.within = adj, kind, k, within
        members = list(_bits(within))
        self.closed = closed = [0] * n
        for v in members:
            closed[v] = (adj[v] | 1 << v) & within
        order = sorted(members, key=lambda w: closed[w].bit_count())
        self.ranked = [[w for w in order if adj[v] >> w & 1] for v in range(n)]
        self.memo: dict = {}

    def hood(self, w: int) -> int:
        m = 0
        for v in _bits(w):
            m |= self.closed[v]
        return m

    def tree_hood(self, alive: int, root: int) -> int:
        chosen, size, layer = 1 << root, 1, [root]
        while layer:
            nxt = []
            for v in layer:
                for w in self.ranked[v]:
                    if alive >> w & 1 and not chosen >> w & 1:
                        chosen |= 1 << w
                        size += 1
                        if size > self.k:
                            return self.hood(chosen)
                        nxt.append(w)
            layer = nxt
        return self.hood(chosen) if _edges_within(self.adj, chosen) >= self.k else 0

    def hoods(self, alive: int) -> list[int]:
        if self.kind == "edges":
            found = [self.tree_hood(alive, root) for root in _bits(alive)]
        else:
            found = [self.hood(_short_cycle(self.adj, comp))
                     for comp in _components(self.adj, alive)
                     if _edges_within(self.adj, comp) >= comp.bit_count()]
        return sorted(dict.fromkeys(h for h in found if h), key=int.bit_count)

    def solve(self, alive: int, cap: int):
        known = self.memo.get(alive, 0)
        if isinstance(known, tuple):
            return known if known[0] <= cap else None
        if known > cap:
            return None
        hoods = self.hoods(alive)
        if not hoods:
            self.memo[alive] = (0, 0)
            return 0, 0
        used = packed = 0
        for hood in hoods:
            if not hood & used:
                used |= hood
                packed += 1
        lower = max(known, packed)
        if lower > cap:
            self.memo[alive] = lower
            return None
        best = None
        for u in _bits(hoods[0]):
            got = self.solve(alive & ~self.closed[u], cap - 1)
            if got is not None:
                best = got[0] + 1, got[1] | 1 << u
                cap = best[0] - 1
                if cap < lower:
                    break
        self.memo[alive] = cap + 1 if best is None else best
        return best


def exact_iota(n: int, adj, kind: str, k: int = 0, budget: Optional[int] = None,
               within: Optional[int] = None) -> Optional[tuple[int, int]]:
    """(value, witness mask) of a minimum isolating set of the graph on
    0..n-1 (or of its piece ``within``) for the family ``kind``/``k``;
    None when it needs more than ``budget`` vertices."""
    host = (1 << n) - 1 if within is None else within
    search = _RegrowingSearch(n, adj, kind, k, host)
    value = mask = 0
    for comp in _components(adj, host):
        cap = comp.bit_count() if budget is None else budget - value
        if cap < 0:
            return None
        edges = _edges_within(adj, comp)
        if edges < (k if kind == "edges" else comp.bit_count()):
            continue
        got = search.solve(comp, cap)
        if got is None:
            return None
        value += got[0]
        mask |= got[1]
    return value, mask
