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
(``C6PP``).  The E_2 bound is the floor of the potential
(4|V(H)| - ell_G(H))/14 at H = G, where ell_G(H) counts the leaves of G
that lie in H; its numerator is an integer, so no bound touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .enumeration import canonical_form
from .families import CYCLES, FamilySpec, edge_family, exact_iota
from .graphs import Graph, leaf_count, named_graph


@dataclass(frozen=True)
class Theorem:
    """iota(G, family) <= bound(G) for every connected G that is not one of
    the graphs tagged in ``exceptions`` (tags as in ``named_graph``)."""

    family: FamilySpec
    bound: Callable[[Graph], int]
    exceptions: tuple[str, ...]


THEOREMS: dict[str, Theorem] = {
    "k1": Theorem(edge_family(1), lambda g: g.n // 3, ("K2", "C5")),
    "k2": Theorem(edge_family(2), lambda g: (4 * g.n - leaf_count(g)) // 14,
                  ("P3", "K3", "K13", "C6", "C6P", "C6PP")),
    "k3": Theorem(edge_family(3), lambda g: g.n // 4, ("K3", "C7")),
    "cycles": Theorem(CYCLES, lambda g: g.n // 4, ("K3",)),
}


def theorem_bound(g: Graph, theorem: str) -> int:
    return THEOREMS[theorem].bound(g)


# ===== Exception recognition =================================================


@lru_cache(maxsize=None)
def _exception_keys(theorem: str) -> dict[tuple[int, int], dict[tuple, str]]:
    """(n, edge count) -> canonical form -> tag, for the bound's exceptions."""
    keys: dict[tuple[int, int], dict[tuple, str]] = {}
    for tag in THEOREMS[theorem].exceptions:
        model = named_graph(tag)
        keys.setdefault((model.n, model.edge_count()), {})[canonical_form(model)] = tag
    return keys


def classify_exception(g: Graph, theorem: str) -> Optional[str]:
    """The exception tag of g for the given bound, or None.

    The exception sets differ per bound (C6 is exceptional for the E_2 bound
    but not for E_3), hence the explicit theorem context.  Only a graph with
    the vertex and edge count of some exception gets a canonical form.
    """
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    candidates = _exception_keys(theorem).get((g.n, g.edge_count()))
    return None if candidates is None else candidates.get(canonical_form(g))


# ===== Bound checking ========================================================


@dataclass(frozen=True)
class VerificationRecord:
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


def check_bound(g: Graph, theorem: str, budget: Optional[int] = None) -> VerificationRecord:
    """Solve iota exactly and compare against the bound.

    Exception graphs are recorded as such and the bound is not asserted for
    them.  ``violated`` must come out False for every non-exception connected
    graph; anything else means the implementation (not the mathematics) is
    broken.
    """
    exception = classify_exception(g, theorem)
    th = THEOREMS[theorem]
    bound = th.bound(g)
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
