"""Sharp upper bounds for isolation numbers, and their exception graphs.

Each bound is one ``Theorem`` record in ``THEOREMS``: for every connected
graph G that is not one of its exceptions, iota(G, family) <= bound(G).
With n vertices and r leaves the four bounds are

* ``k1``:     iota(G, E_1) <= floor(n/3)          unless G is K_2 or C_5,
* ``k2``:     iota(G, E_2) <= floor((4n - r)/14)  unless G is one of six small graphs,
* ``k3``:     iota(G, E_3) <= floor(n/4)          unless G is K_3 or C_7,
* ``cycles``: iota(G, cycles) <= floor(n/4)       unless G is a triangle.

The six exceptions for the E_2 bound are P_3, K_3, K_{1,3}, C_6, the 6-cycle
with a pendant vertex (here ``C6P``), and that graph with one extra chord
(``C6PP``).  Every exception of every bound has iota = bound + 1.

A record also names the families that make its bound sharp, as
``constructions.build_B`` specs: B(n, K_2) for E_1, B(n, K_3) for E_3 and
cycles, and for E_2 B'(n, P_3) (leaves count) and B'(7r, C_6) (leafless,
so the coefficient 2/7 cannot be improved there).  Each member has iota =
bound, except B'(7, C_6), which is the exception C6P.

The proofs charge each induced piece H of G a potential beta_G(H) =
(per_vertex |V(H)| - per_leaf ell_G(H)) / denominator, where ell_G(H)
counts the leaves of G in H; the bound is its floor at H = G, and only the
integer numerator is computed, from the mask of G's leaves.  H is *bad*
when iota(H) > beta_G(H), and only an exception can be: a single vertex
needs no isolating vertex, and for |V(H)| >= 2 a leaf of G in H is a leaf
of H, so beta_G(H) >= beta_H(H) >= iota(H) for any other H.  Every
exception exceeds its own potential, so a piece charged in itself is bad
exactly when it is an exception, and ``classify_exception`` is that lookup
on the whole graph.  G itself may be a piece of a larger graph g: the
prover's recursion charges the components of a piece in that piece,
passing the piece's leaf mask, which it builds once per proof step.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .enumeration import canonical_form
from .families import CYCLES, FamilySpec, edge_family, exact_iota
from .graphs import Graph, induced_subgraph, leaves, named_graph


class Theorem(NamedTuple):
    """iota(G, family) <= bound(G) for every connected G that is not one of
    the graphs tagged in ``exceptions`` (tags as in ``named_graph``), with
    bound(G) the floor of the potential at H = G.  Each ``sharp`` spec
    (F, joins, least n, step of n) names the family build_B(n, F, joins)
    over every n >= least that the step divides.
    """

    family: FamilySpec
    per_vertex: int
    per_leaf: int
    denominator: int
    exceptions: tuple[str, ...]
    sharp: tuple[tuple[str, Optional[tuple[int, ...]], int, int], ...]

    def potential(self, piece: int, leaf_mask: int) -> int:
        """The numerator of beta_G(H) for the piece H given as a vertex mask,
        where ``leaf_mask`` holds the leaves of G (those outside H do not
        count)."""
        return (self.per_vertex * piece.bit_count()
                - self.per_leaf * (leaf_mask & piece).bit_count())

    def bound(self, g: Graph, leaf_mask: Optional[int] = None) -> int:
        """The bound for g: ``leaf_mask`` holds g's leaves where the caller
        has them, and otherwise they are scanned only where they count."""
        if leaf_mask is None:
            leaf_mask = self.per_leaf and leaves(g)
        return self.potential(g.vertex_mask, leaf_mask) // self.denominator


# B(n, K3) attains both floor(n/4) bounds
_B_K3 = ("K3", None, 4, 1)

THEOREMS: dict[str, Theorem] = {
    "k1": Theorem(edge_family(1), 1, 0, 3, ("K2", "C5"), (("K2", None, 3, 1),)),
    "k2": Theorem(edge_family(2), 4, 1, 14, ("P3", "K3", "K13", "C6", "C6P", "C6PP"),
                  (("P3", (1,), 5, 1), ("C6", (0,), 7, 7))),
    "k3": Theorem(edge_family(3), 1, 0, 4, ("K3", "C7"), (_B_K3,)),
    "cycles": Theorem(CYCLES, 1, 0, 4, ("K3",), (_B_K3,)),
}


# ===== Exception recognition =================================================


@lru_cache(maxsize=None)
def _exception_keys(theorem: str) -> dict[int, dict[int, dict[tuple, tuple[str, int]]]]:
    """n -> edge count -> canonical form -> (tag, denominator * iota) for the
    bound's exceptions."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    th = THEOREMS[theorem]
    keys: dict[int, dict[int, dict[tuple, tuple[str, int]]]] = {}
    for tag in th.exceptions:
        model = named_graph(tag)
        need = th.denominator * exact_iota(model, th.family).value
        by_edges = keys.setdefault(model.n, {}).setdefault(model.edge_count(), {})
        by_edges[canonical_form(model)] = (tag, need)
    return keys


def bad_piece(g: Graph, piece: int, theorem: str, *,
              leaf_mask: Optional[int] = None) -> Optional[str]:
    """The exception tag of the connected piece H = g[piece] if
    denominator * iota(H) exceeds its potential in G, else None.
    ``leaf_mask`` holds the leaves of G; without it H is charged in itself
    (G = H), and the tag is a lookup: every exception exceeds its own
    potential, since its iota is one above its bound (pinned for every
    bound by ``test_every_exception_exceeds_its_bound_by_one``).

    Only a piece with the vertex count and then the edge count of some
    exception gets an induced subgraph and a canonical form.
    """
    by_edges = _exception_keys(theorem).get(piece.bit_count())
    candidates = by_edges and by_edges.get(g.edge_count(piece))
    if not candidates:
        return None
    h = g if piece == g.vertex_mask else induced_subgraph(g, piece)
    hit = candidates.get(canonical_form(h))
    if hit is None:
        return None
    tag, need = hit
    if leaf_mask is None or need > THEOREMS[theorem].potential(piece, leaf_mask):
        return tag
    return None


def classify_exception(g: Graph, theorem: str) -> Optional[str]:
    """The exception tag of g for the given bound, or None.

    The exception sets differ per bound (C6 is exceptional for the E_2 bound
    but not for E_3), hence the explicit theorem context.  This is
    ``bad_piece`` on all of g.
    """
    return bad_piece(g, g.vertex_mask, theorem)


# ===== Bound checking ========================================================


class VerificationRecord(NamedTuple):
    """One graph checked against one bound.

    ``iota`` and ``witness`` (an optimal isolating set, as a mask) are None
    when a budget cut the solve short; the record then asserts nothing.
    """

    iota: Optional[int]
    witness: Optional[int]
    bound: int
    exception: Optional[str]
    tight: bool
    violated: bool


def check_bound(g: Graph, theorem: str, budget: Optional[int] = None, *,
                leaf_mask: Optional[int] = None) -> VerificationRecord:
    """Solve iota exactly and compare against the bound.

    Exception graphs are recorded as such and the bound is not asserted for
    them.  ``violated`` must come out False for every non-exception connected
    graph; anything else means the implementation (not the mathematics) is
    broken.  ``leaf_mask`` holds g's leaves where the caller has them, as
    ``Theorem.bound`` takes it.
    """
    exception = classify_exception(g, theorem)
    th = THEOREMS[theorem]
    bound = th.bound(g, leaf_mask)
    got = exact_iota(g, th.family, budget=budget)
    if got is None:
        return VerificationRecord(None, None, bound, exception,
                                  tight=False, violated=False)
    value = got.value
    return VerificationRecord(
        value, got.witness, bound, exception,
        tight=(exception is None and value == bound),
        violated=(exception is None and value > bound),
    )
