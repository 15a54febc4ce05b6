"""Sharp upper bounds for isolation numbers, and their exception graphs.

For a connected n-vertex graph G with r leaves, the bounds handled here are

* iota(G, E_1) <= floor(n/3)          unless G is K_2 or C_5,
* iota(G, cycles) <= floor(n/4)       unless G is a triangle,
* iota(G, E_2) <= floor((4n - r)/14)  unless G is one of six small graphs,
* iota(G, E_3) <= floor(n/4)          unless G is K_3 or C_7.

The six exceptions for the E_2 bound are P_3, K_3, K_{1,3}, C_6, the 6-cycle
with a pendant vertex (here ``C6P``), and that graph with one extra chord
(``C6PP``).

The E_2 analysis runs on the potential function

    beta_G(H) = (4 |V(H)| - ell_G(H)) / 14,

where ell_G(H) counts the leaves of G that lie in H.  Everything about beta
is exact rational arithmetic with the fixed denominator 14, so it is stored
as a bare integer numerator (``Beta14``) and never touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Optional, Union

from .enumeration import canonical_form
from .families import CYCLES, edge_family, exact_iota
from .graphs import Graph, leaf_count, leaves, named_graph


@total_ordering
@dataclass(frozen=True)
class Beta14:
    """An exact rational with denominator 14, stored as its numerator."""

    num: int

    def __add__(self, other: Union["Beta14", int]) -> "Beta14":
        return Beta14(self.num + _num14(other))

    __radd__ = __add__

    def __sub__(self, other: Union["Beta14", int]) -> "Beta14":
        return Beta14(self.num - _num14(other))

    def __rsub__(self, other: Union["Beta14", int]) -> "Beta14":
        return Beta14(_num14(other) - self.num)

    def __lt__(self, other: Union["Beta14", int]) -> bool:
        return self.num < _num14(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Beta14, int)):
            return NotImplemented
        return self.num == _num14(other)

    def __hash__(self) -> int:
        return hash(("Beta14", self.num))

    def floor(self) -> int:
        return self.num // 14

    def __repr__(self) -> str:
        return f"{self.num}/14"


def _num14(x: Union[Beta14, int]) -> int:
    """Numerator over 14 of a Beta14 or a plain integer."""
    return x.num if isinstance(x, Beta14) else 14 * x


def beta(g: Graph) -> Beta14:
    """(4 n - leaf count) / 14 for the whole graph."""
    return Beta14(4 * g.n - leaf_count(g))


def beta_relative(g: Graph, part: int) -> Beta14:
    """(4 |part| - leaves of g inside part) / 14.

    Additive over any partition of V(g); at part = V(g) it equals beta(g).
    """
    if part & ~g.vertex_mask:
        raise ValueError("part contains out-of-range vertices")
    return Beta14(4 * part.bit_count() - (leaves(g) & part).bit_count())


# ===== Bound formulas ========================================================


def bound_k1(n: int) -> int:
    return n // 3


def bound_k2(n: int, r: int) -> int:
    """floor((4n - r)/14) where r is the number of leaves."""
    if not 0 <= r <= n:
        raise ValueError("leaf count outside 0..n")
    return (4 * n - r) // 14


def bound_k3(n: int) -> int:
    return n // 4


def bound_cycles(n: int) -> int:
    return n // 4


# ===== Exception recognition =================================================

THEOREMS = ("k1", "k2", "k3", "cycles")

# Exception tags per bound.
_EXCEPTIONS = {
    "k1": ("K2", "C5"),
    "k2": ("P3", "K3", "K13", "C6", "C6P", "C6PP"),
    "k3": ("K3", "C7"),
    "cycles": ("K3",),
}


@lru_cache(maxsize=None)
def _exception_keys(theorem: str) -> dict[tuple[int, int], dict[tuple, str]]:
    """(n, edge count) -> canonical form -> tag, for the bound's exceptions."""
    keys: dict[tuple[int, int], dict[tuple, str]] = {}
    for tag in _EXCEPTIONS[theorem]:
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

_FAMILY_FOR = {
    "k1": edge_family(1),
    "k2": edge_family(2),
    "k3": edge_family(3),
    "cycles": CYCLES,
}


def theorem_family(theorem: str):
    return _FAMILY_FOR[theorem]


def theorem_bound(g: Graph, theorem: str) -> int:
    if theorem == "k1":
        return bound_k1(g.n)
    if theorem == "k2":
        return bound_k2(g.n, leaf_count(g))
    if theorem == "k3":
        return bound_k3(g.n)
    return bound_cycles(g.n)


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
    bound = theorem_bound(g, theorem)
    exception = classify_exception(g, theorem)
    got = exact_iota(g, _FAMILY_FOR[theorem], budget=budget)
    if got is None:
        return VerificationRecord(None, None, bound, exception,
                                  tight=False, violated=False)
    value = got.value
    return VerificationRecord(
        value, got.witness, bound, exception,
        tight=(exception is None and value == bound),
        violated=(exception is None and value > bound),
    )
