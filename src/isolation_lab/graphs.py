"""Bitset-backed simple graphs and the small-graph primitives built on them.

Vertices are integers 0..n-1 and every vertex set is a Python int used as a
bitmask, so set algebra is single machine-word arithmetic for the sizes this
package cares about (n <= 64).  A graph is immutable; one decoded from a
graph6 line keeps the line's canonical text, so that it is encoded once,
and its equality, hash and pickle ignore that text.  A piece of a graph is
a vertex mask in the graph's own labels, and the functions that look at a
piece take it as ``within``; ``induced_subgraph`` builds a relabelled copy
only where a piece must become a graph of its own.  ``iter_components``
can hand out each component's closed neighbourhood with it, read off the
one growth that found it.

Conventions used throughout the package:

* N[X] is the closed neighbourhood of X: X together with every neighbour of a
  vertex of X.
* G - X is the subgraph induced on V(G) \\ X; deleting a closed neighbourhood
  is the basic move of isolation arguments (pick D, look at G - N[D]).
* A leaf is a vertex of degree exactly 1.

Isomorphism is not decided here.  Two graphs are isomorphic exactly when
their ``enumeration.canonical_form`` keys are equal, and
``bounds.bad_piece`` recognises the exceptional graphs that way.
"""

from __future__ import annotations

import binascii
import re
from typing import Iterable, Iterator, Optional

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Build a bitmask from an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """An immutable simple graph on vertices ``0..n-1``.

    ``adj[v]`` is the bitmask of neighbours of ``v``.  Invariants: adjacency
    is symmetric, irreflexive, and no bit at index >= n is ever set.
    """

    # ``_g6``: the canonical graph6 text of the line the graph was decoded
    # from, which ``graph6_encode`` returns as it is, or None
    __slots__ = ("n", "adj", "_g6")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._g6 = None

    @staticmethod
    def from_adj(n: int, adj: tuple[int, ...]) -> "Graph":
        """Trusted fast path: wrap a prevalidated adjacency tuple."""
        g = Graph.__new__(Graph)
        g.n = n
        g.adj = adj
        g._g6 = None
        return g

    # --- basic queries ---------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for d in bits(rest):
                yield (u, u + 1 + d)

    def edge_count(self, within: Optional[int] = None) -> int:
        """The number of edges (of the graph induced on ``within``)."""
        adj = self.adj
        mask = rest = self.vertex_mask if within is None else within
        ends = 0
        while rest:  # the lowest-bit loop inline, as in closed_neighborhood
            low = rest & -rest
            ends += (adj[low.bit_length() - 1] & mask).bit_count()
            rest ^= low
        return ends // 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        # Graphs cross process boundaries during parallel sweeps.  Equality,
        # hashing and pickles read n and adj only, never the graph6 text.
        return (Graph.from_adj, (self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"


# ===== Neighbourhoods and induced subgraphs ==================================


def closed_neighborhood(g: Graph, xs: int) -> int:
    """N[xs]: the vertices of ``xs`` plus all their neighbours."""
    # the lowest-bit loop inline: a ``bits`` generator costs more than the
    # loop body here
    adj = g.adj
    m = xs
    while xs:
        low = xs & -xs
        m |= adj[low.bit_length() - 1]
        xs ^= low
    return m


def induced_subgraph(g: Graph, keep: int) -> Graph:
    """Induced subgraph on the bitmask ``keep``, relabelled in vertex order.

    Vertex ``i`` of the result is the ``i``-th lowest vertex of ``keep``, so
    ``tuple(bits(keep))`` maps the new labels back to those of ``g``.
    """
    old = tuple(bits(keep))
    index = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for i, v in enumerate(old):
        for w in bits(g.adj[v] & keep):
            adj[i] |= 1 << index[w]
    return Graph.from_adj(len(old), tuple(adj))


def iter_components(g: Graph, within: Optional[int] = None, *,
                    closed: bool = False) -> Iterator:
    """Yield the vertex masks of the components of ``g`` (or of g induced on
    ``within``) by smallest member, each one as soon as it is grown.

    With ``closed`` each item is (comp, N[comp]): the growth reads every
    neighbour of the component, so its closed neighbourhood in g (not cut
    to ``within``) comes with it at no second walk.
    """
    adj = g.adj
    todo = g.vertex_mask if within is None else within
    while todo:
        start = todo & -todo
        comp = hood = frontier = start
        while frontier:
            while frontier:  # the lowest-bit loop inline, as in closed_neighborhood
                low = frontier & -frontier
                hood |= adj[low.bit_length() - 1]
                frontier ^= low
            # the neighbours of earlier rounds inside todo are in comp already
            frontier = hood & todo & ~comp
            comp |= frontier
        yield (comp, hood) if closed else comp
        todo &= ~comp


def is_connected(g: Graph, within: Optional[int] = None) -> bool:
    """Is ``g`` (or g induced on ``within``) connected?  The empty graph is."""
    todo = g.vertex_mask if within is None else within
    return next(iter_components(g, todo), 0) == todo


def leaves(g: Graph, within: Optional[int] = None) -> int:
    """Bitmask of the degree-1 vertices of ``g`` (or of g induced on ``within``)."""
    adj = g.adj
    todo = rest = g.vertex_mask if within is None else within
    m = 0
    while rest:  # the lowest-bit loop inline, as in closed_neighborhood
        low = rest & -rest
        if (adj[low.bit_length() - 1] & todo).bit_count() == 1:
            m |= low
        rest ^= low
    return m


# ===== graph6 encoding =======================================================

# The de-facto interchange format for small graphs: one printable line per
# graph.  Header encodes n (one byte for n <= 62, '~' + 3 bytes otherwise up
# to 258047); body packs the upper triangle of the adjacency matrix,
# column-major (bit (i, j) for i < j ordered by j then i), 6 bits per byte,
# most significant first, each byte offset by 63.
#
# Both directions go through one LSB-first int ``word`` whose bit
# j(j-1)/2 + i is the pair (i, j), i < j: column j is then the j low bits of
# adj[j] shifted left by j(j-1)/2.  Read from its low end, ``word`` is the
# body's bit string, so one string reversal puts it in graph6 order, and
# base64 (also 6 bits per byte, most significant first) packs it with only
# the alphabet to translate.

_G6_CHARS = bytes(range(63, 127))
_B64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64_CHARS, _G6_CHARS)
_FROM_G6 = bytes.maketrans(_G6_CHARS, _B64_CHARS)
_OUTSIDE_G6 = re.compile("[^?-~]")

# What graph6 readers strip from a line.  str.strip() would also remove
# bytes such as 0x1c and 0xa0, which are malformed input, not layout.
ASCII_WHITESPACE = " \t\n\r\v\f"


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def graph6_encode(g: Graph) -> str:
    """The canonical graph6 text of g: the text of the line g was decoded
    from when it had one, and otherwise the packed adjacency."""
    if g._g6 is not None:
        return g._g6
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        # 18-bit vertex count: '~' then three 6-bit digits, big-endian.
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    adj = g.adj
    word = 0
    for j in range(1, n):
        word |= (adj[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    # graph6 bit order, padded with zeros to whole bytes of base64 input
    order = format(word, f"0{nbits}b")[::-1]
    order += "0" * (-len(order) % 24)
    raw = int(order, 2).to_bytes(len(order) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False).translate(_TO_G6)
    return head + body[:need].decode("ascii")


def graph6_decode(line: str) -> Graph:
    """The graph of one graph6 line, which keeps the line's text (without
    the layout and the ``>>graph6<<`` header) for ``graph6_encode`` when it
    is canonical.  Only the vertex count can be written two ways, and the
    long form is canonical from n = 63 on only, so ``~??Bw`` is re-encoded
    as ``Bw``."""
    s = line.strip(ASCII_WHITESPACE)
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 line")
    bad = _OUTSIDE_G6.search(s)
    if bad:
        pos = bad.start()
        raise Graph6Error(f"byte {ord(s[pos])} at position {pos} outside graph6 range")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    else:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("vertex count uses the 36-bit form; far over the 64-vertex cap")
        if len(s) < 4:
            raise Graph6Error("truncated extended vertex-count header")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} over the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"body length {len(body)} does not match {need} bytes for n={n}"
        )
    data = body.encode("ascii").translate(_FROM_G6)
    raw = binascii.a2b_base64(data + b"A" * (-len(data) % 4))
    # the body's bits, first bit highest, then padding up to whole bytes
    pad = 8 * len(raw) - nbits
    word = int.from_bytes(raw, "big")
    if word & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    word = int(format(word >> pad, f"0{nbits}b")[::-1], 2)
    adj = [0] * n
    for j in range(1, n):
        col = word & ((1 << j) - 1)
        word >>= j
        adj[j] = col
        # the upper half, edge by edge
        bit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    g = Graph.from_adj(n, tuple(adj))
    if s[0] != "~" or n > 62:
        g._g6 = s
    return g


# ===== Named small graphs ====================================================


def path_graph(n: int) -> Graph:
    """P_n: vertices 0..n-1 in a path."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """C_n (n >= 3): vertices 0..n-1 in a cycle."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(nleaves: int) -> Graph:
    """K_{1,nleaves}: centre 0, leaves 1..nleaves."""
    return Graph(nleaves + 1, ((0, i) for i in range(1, nleaves + 1)))


# The pendant 6-cycle C6P: the cycle 0..5 plus a pendant vertex 6 at 0.
# C6PP adds the chord joining the two vertices at distance 2 from 0.
_C6P_EDGES = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)]

_NAMED_BUILDERS = {
    "K13": lambda: star_graph(3),
    "C6P": lambda: Graph(7, _C6P_EDGES),
    "C6PP": lambda: Graph(7, _C6P_EDGES + [(2, 4)]),
}


def named_graph(tag: str) -> Graph:
    """Build a graph from a tag: the fixed names above or P<n>/C<n>/K<n>."""
    if tag in _NAMED_BUILDERS:
        return _NAMED_BUILDERS[tag]()
    if len(tag) >= 2 and tag[0] in "PCK" and tag[1:].isdigit():
        n = int(tag[1:])
        if tag[0] == "P":
            return path_graph(n)
        if tag[0] == "C":
            return cycle_graph(n)
        return complete_graph(n)
    raise ValueError(f"unknown graph tag {tag!r}")
