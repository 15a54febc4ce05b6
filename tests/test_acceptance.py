"""Acceptance gate: every release criterion checked at its stated tolerance.

Each test records a PASS/FAIL line through ``conftest.record_result`` so the
terminal summary shows all criteria at a glance, then asserts.  The shared
session fixture runs the exhaustive n <= 8 sweep once (exact isolation
numbers for all four families plus both provers' certificates) and the
criteria read from it; the timed budgets are checked against the single
fixture pass, which is single-threaded.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from conftest import record_result
from isolation_lab.bounds import THEOREMS, classify_exception
from isolation_lab.constructions import build_B, pattern_isolating_set
from isolation_lab.enumeration import canonical_form, connected_graphs
from isolation_lab.families import CYCLES, edge_family, exact_iota, is_isolating
from isolation_lab.graphs import (
    Graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_connected,
    iter_components,
    leaves,
    named_graph,
    path_graph,
)
from isolation_lab.prover import InternalConsistencyError, isolate_k2, isolate_k3

import oracles
from test_families import naive_iota
from test_prover import CASE_FIXTURES

E1, E2, E3 = edge_family(1), edge_family(2), edge_family(3)

EXPECTED_COUNTS = (1, 1, 2, 6, 21, 112, 853, 11117)

K2_CASES = frozenset({
    "exact-base", "path-pattern", "cycle-pattern", "dominated", "no-bad",
    "shared-anchor", "wide-frontier", "wide-frontier-all-leaves",
    "lone-anchor", "lone-anchor-small-rescue", "lone-anchor-cycle-rescue",
    "pair-carve", "pair-p3-unleafed", "pair-p3-halfleaf",
    "pair-p3p3-dominate", "pair-p3p3-shedleaf", "single-attached",
    "single-c6-whole", "single-c6-carve", "single-c6-split",
    "single-small-dominate", "single-small-wleaf", "single-small-splitattach",
    "single-small-sharedattach",
})
K3_CASES = frozenset({
    "exact-base", "path-pattern", "cycle-pattern", "dominated", "no-bad",
    "shared-anchor", "wide-frontier", "lone-anchor",
    "lone-anchor-small-rescue", "lone-anchor-cycle-rescue", "pair-carve",
    "single-c7-whole", "single-c7-carve", "single-c7-split",
    "single-k3-carve", "single-k3-cyclepatch",
})


@dataclass(frozen=True)
class Rec:
    g6: str
    n: int
    i1: int
    i2: int
    i3: int
    ic: int
    exc2: Optional[str]
    exc3: Optional[str]
    bound2: int
    bound3: int
    cert2: Optional[int]
    cert3: Optional[int]
    cases2: tuple[str, ...]
    cases3: tuple[str, ...]


class SweepData(NamedTuple):
    recs: list[Rec]
    timings: dict[str, float]
    errors: list[str]


@pytest.fixture(scope="session")
def sweep(connected_upto) -> SweepData:
    graphs = connected_upto(1, 8)
    timings: dict[str, float] = {}
    errors: list[str] = []

    def timed(name, fn, items):
        t0 = time.perf_counter()
        out = [fn(g) for g in items]
        timings[name] = time.perf_counter() - t0
        return out

    i1 = timed("iota1", lambda g: exact_iota(g, E1).value, graphs)
    i2 = timed("iota2", lambda g: exact_iota(g, E2).value, graphs)
    i3 = timed("iota3", lambda g: exact_iota(g, E3).value, graphs)
    ic = timed("iota_cycles", lambda g: exact_iota(g, CYCLES).value, graphs)

    def certify(g, prove, theorem):
        if classify_exception(g, theorem) is not None:
            return None, ()
        try:
            cert = prove(g)
        except (InternalConsistencyError, ValueError) as exc:
            errors.append(f"{theorem} prover failed on {graph6_encode(g)}: {exc}")
            return None, ()
        return cert.d.bit_count(), tuple(e.case for e in cert.trace)

    c2 = timed("certs2", lambda g: certify(g, isolate_k2, "k2"), graphs)
    c3 = timed("certs3", lambda g: certify(g, isolate_k3, "k3"), graphs)

    recs = [
        Rec(graph6_encode(g), g.n, v1, v2, v3, vc,
            classify_exception(g, "k2"), classify_exception(g, "k3"),
            THEOREMS["k2"].bound(g), THEOREMS["k3"].bound(g),
            s2[0], s3[0], s2[1], s3[1])
        for g, v1, v2, v3, vc, s2, s3 in zip(graphs, i1, i2, i3, ic, c2, c3)
    ]
    return SweepData(recs, timings, errors)


# ===== criterion 1: the six exceptional graphs ===============================


def _beta14(g: Graph, part: int) -> int:
    """14 beta_G(H) for H = g[part]: 4 |V(H)| minus the leaves of g in H.

    The E_2 potential beta_G(H) = (4 |V(H)| - ell_G(H))/14 is kept as this
    integer numerator, so its arithmetic is exact.
    """
    return 4 * part.bit_count() - (leaves(g) & part).bit_count()


def test_criterion_1_exceptional_values():
    t0 = time.perf_counter()
    expected = {              # exact value and 14 x its gap above beta
        "P3": (1, 4),
        "K3": (1, 2),
        "K13": (1, 1),
        "C6": (2, 4),
        "C6P": (2, 1),
        "C6PP": (2, 1),
    }
    problems = []
    for tag, (value, gap) in expected.items():
        g = named_graph(tag)
        got = exact_iota(g, E2).value
        b = _beta14(g, g.vertex_mask)
        if got != value:
            problems.append(f"{tag}: iota_2 = {got}, expected {value}")
        if 14 * value - b != gap:
            problems.append(f"{tag}: gap {14 * value - b}/14, expected {gap}/14")
        if b // 14 != value - 1:
            problems.append(f"{tag}: floor(beta) = {b // 14}, not iota - 1")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    record_result("1", ok,
                  f"six exceptional graphs: exact values and beta gaps "
                  f"[{elapsed:.3f}s]" if ok else "; ".join(problems))
    assert ok, problems


# ===== criteria 2-4: the exhaustive bound sweeps =============================


def test_criterion_2_edge2_bound_sweep(sweep):
    violations = [r.g6 for r in sweep.recs
                  if r.exc2 is None and r.i2 > r.bound2]
    exceptions = sorted(r.exc2 for r in sweep.recs if r.exc2)
    elapsed = sweep.timings["iota2"]
    ok = (not violations
          and exceptions == ["C6", "C6P", "C6PP", "K13", "K3", "P3"]
          and elapsed < 120.0)
    record_result("2", ok,
                  f"{len(sweep.recs)} classes, {len(violations)} violations, "
                  f"exceptions {' '.join(exceptions)} [{elapsed:.1f}s]")
    assert ok, violations


def test_criterion_3_edge3_and_cycle_bounds(sweep):
    viol3 = [r.g6 for r in sweep.recs if r.exc3 is None and r.i3 > r.bound3]
    # the cycle-isolation corollary: iota_C <= iota_3 everywhere, and the
    # full chain down to floor(n/4) away from the two exceptions
    viol_chain = [r.g6 for r in sweep.recs if r.ic > r.i3]
    viol_cyc = [r.g6 for r in sweep.recs
                if classify_exception(graph6_decode(r.g6), "cycles") is None
                and r.ic > r.n // 4]
    exceptions = sorted(r.exc3 for r in sweep.recs if r.exc3)
    elapsed = sweep.timings["iota3"] + sweep.timings["iota_cycles"]
    ok = (not viol3 and not viol_chain and not viol_cyc
          and exceptions == ["C7", "K3"] and elapsed < 120.0)
    record_result("3", ok,
                  f"floor(n/4) bound and cycle corollary, exceptions "
                  f"{' '.join(exceptions)} [{elapsed:.1f}s]")
    assert ok, (viol3, viol_chain, viol_cyc)


def test_criterion_4_edge1_bound_sweep(sweep):
    violations = [r.g6 for r in sweep.recs
                  if classify_exception(graph6_decode(r.g6), "k1") is None
                  and r.i1 > r.n // 3]
    exceptions = sorted(
        tag for r in sweep.recs
        if (tag := classify_exception(graph6_decode(r.g6), "k1")))
    ok = not violations and exceptions == ["C5", "K2"]
    record_result("4", ok,
                  f"floor(n/3) bound, exceptions {' '.join(exceptions)} "
                  f"[{sweep.timings['iota1']:.1f}s]")
    assert ok, violations


# ===== criterion 5: extremal equalities ======================================


def test_criterion_5_extremal_equalities():
    t0 = time.perf_counter()
    rows = []
    for n in range(3, 16):
        rows.append((f"B({n},K2)", build_B(n, "K2"), E1, n // 3))
    for n in range(4, 17):
        rows.append((f"B({n},K3)", build_B(n, "K3"), E3, n // 4))
    for n in range(5, 17):
        g = build_B(n, "P3", (1,))
        expected = THEOREMS["k2"].bound(g)
        assert expected == n // 4  # the leaf count is tuned to make these meet
        rows.append((f"B'({n},P3)", g, E2, expected))
    for r in (1, 2, 3):
        rows.append((f"B'({7 * r},C6)", build_B(7 * r, "C6", (0,)), E2, 2 * r))
    mismatches = []
    for name, g, fam, expected in rows:
        # capping the search at the expected value decides equality exactly:
        # None means every isolating set is larger, a smaller value means
        # the construction is not extremal
        got = exact_iota(g, fam, budget=expected)
        if got is None or got.value != expected:
            mismatches.append(f"{name}: got {got and got.value}, "
                              f"expected {expected}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 300.0
    record_result("5", ok,
                  f"{len(rows)} equality rows up to n=21 [{elapsed:.1f}s]"
                  if ok else "; ".join(mismatches))
    assert ok, mismatches


# ===== criterion 6: the c_{k,n} table ========================================


def test_criterion_6_ckn_closed_forms(sweep):
    def c1(n):
        return {2: Fraction(1, 2), 5: Fraction(2, 5)}.get(n, Fraction(n // 3, n))

    def c2(n):
        return Fraction(1, 3) if n in (3, 6) else Fraction(2 * n // 7, n)

    def c3(n):
        return {3: Fraction(1, 3), 7: Fraction(2, 7)}.get(n, Fraction(n // 4, n))

    maxima: dict[tuple[int, int], Fraction] = {}
    for r in sweep.recs:
        for k, v in ((1, r.i1), (2, r.i2), (3, r.i3)):
            key = (k, r.n)
            c = Fraction(v, r.n)
            if key not in maxima or c > maxima[key]:
                maxima[key] = c
    wrong = []
    for (k, n), got in sorted(maxima.items()):
        want = (c1, c2, c3)[k - 1](n)
        if got != want:
            wrong.append(f"c_{{{k},{n}}} = {got}, closed form says {want}")
    ok = not wrong and len(maxima) == 24
    record_result("6", ok,
                  "24 table cells match the closed forms (k = 1,2,3; n <= 8)"
                  if ok else "; ".join(wrong))
    assert ok, wrong


# ===== criterion 7: prover soundness and case coverage =======================


def test_criterion_7_prover_sandwich_and_coverage(sweep):
    bad_sandwich = []
    seen2: set[str] = set()
    seen3: set[str] = set()
    for r in sweep.recs:
        if r.cert2 is not None:
            seen2.update(r.cases2)
            if not r.i2 <= r.cert2 <= r.bound2:
                bad_sandwich.append(f"k2 {r.g6}: {r.i2} {r.cert2} {r.bound2}")
        if r.cert3 is not None:
            seen3.update(r.cases3)
            if not r.i3 <= r.cert3 <= r.bound3:
                bad_sandwich.append(f"k3 {r.g6}: {r.i3} {r.cert3} {r.bound3}")
    sweep2, sweep3 = set(seen2), set(seen3)

    # branches whose preconditions need more vertices than the sweep range
    # are exercised by the engineered fixtures instead, and reported below
    for k, _case, _d, _b, n, edges in CASE_FIXTURES:
        g = Graph(n, edges)
        cert = isolate_k2(g) if k == 2 else isolate_k3(g)
        (seen2 if k == 2 else seen3).update(e.case for e in cert.trace)

    unknown = (seen2 - K2_CASES) | (seen3 - K3_CASES)
    missing = sorted(K2_CASES - seen2) + sorted(K3_CASES - seen3)
    fixture_only2 = sorted(K2_CASES - sweep2)
    fixture_only3 = sorted(K3_CASES - sweep3)
    ok = (not bad_sandwich and not sweep.errors and not unknown
          and not missing)
    record_result(
        "7", ok,
        f"sandwich holds on all certificates, 0 consistency errors; "
        f"{len(K2_CASES)}+{len(K3_CASES)} cases covered "
        f"({len(fixture_only2)}+{len(fixture_only3)} only via fixtures: "
        f"k2 {', '.join(fixture_only2)}; k3 {', '.join(fixture_only3)})"
        if ok else
        f"sandwich {bad_sandwich[:3]} errors {sweep.errors[:3]} "
        f"unknown {sorted(unknown)} missing {missing}")
    assert ok, (bad_sandwich, sweep.errors, sorted(unknown), missing)


# ===== criterion 8: property suites ==========================================


def _random_connected(rng: random.Random, n: int) -> Graph:
    if n == 1:
        return Graph(1)
    while True:
        p = rng.uniform(0.3, 0.9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        if is_connected(g):
            return g


def test_criterion_8a_deletion_inequality():
    rng = random.Random(0x1507a)
    fams = (E1, E2, E3)
    checked = 0
    for i in range(10_000):
        g = _random_connected(rng, rng.randint(1, 9))
        fam = fams[i % 3]
        keep_p = rng.choice((0.15, 0.35, 0.6))
        x = 0
        for v in range(g.n):
            if rng.random() < keep_p:
                x |= 1 << v
        nx = x
        for v in range(g.n):
            if x >> v & 1:
                nx |= g.adj[v]
        y = 0
        for v in range(g.n):
            if nx >> v & 1 and rng.random() < 0.5:
                y |= 1 << v
        lhs = exact_iota(g, fam).value
        rest = induced_subgraph(g, g.vertex_mask & ~y)
        rhs = x.bit_count() + exact_iota(rest, fam).value
        assert lhs <= rhs, (graph6_encode(g), x, y, lhs, rhs)
        checked += 1
    record_result("8a", True,
                  f"deletion inequality on {checked} random (g, X, Y) triples")


def test_criterion_8b_union_additivity():
    rng = random.Random(0x1507b)
    fams = (E1, E2, E3)
    for i in range(1_000):
        t = rng.randint(2, 3)
        parts = [_random_connected(rng, rng.randint(2, 5 if t == 2 else 4))
                 for _ in range(t)]
        edges, off = [], 0
        for h in parts:
            edges.extend((u + off, v + off) for u, v in h.edges())
            off += h.n
        union = Graph(off, edges)
        fam = fams[i % 3]
        # the union side uses the brute-force oracle, so the check does not
        # lean on the solver's own per-component decomposition
        whole = naive_iota(union, fam)
        split = sum(exact_iota(h, fam).value for h in parts)
        assert whole == split, (graph6_encode(union), whole, split)
    record_result("8b", True,
                  "isolation number is additive on 1000 random disjoint unions")


def test_criterion_8c_potential_partition_and_subgraph():
    rng = random.Random(0x1507c)
    for _ in range(1_000):
        g = _random_connected(rng, rng.randint(2, 9))
        # (a) the potential splits exactly over any vertex partition
        blocks = [0] * rng.randint(1, 4)
        for v in range(g.n):
            blocks[rng.randrange(len(blocks))] |= 1 << v
        total = sum(_beta14(g, b) for b in blocks if b)
        assert total == _beta14(g, g.vertex_mask), (graph6_encode(g), blocks)
        # (b) a connected induced subgraph on >= 2 vertices is worth no more
        # than its share: leaves can only be gained by passing to it
        mask = 0
        keep_p = rng.uniform(0.3, 0.9)
        for v in range(g.n):
            if rng.random() < keep_p:
                mask |= 1 << v
        comps = [c for c in iter_components(g, mask) if c.bit_count() >= 2]
        if not comps:
            u, v = next(g.edges())
            comps = [(1 << u) | (1 << v)]
        piece = max(comps, key=int.bit_count)
        h = induced_subgraph(g, piece)
        assert _beta14(h, h.vertex_mask) <= _beta14(g, piece), (graph6_encode(g), piece)
    record_result("8c", True,
                  "potential partition additivity and subgraph inequality "
                  "on 1000 random graphs")


def test_criterion_8d_family_monotonicity(sweep):
    bad = [r.g6 for r in sweep.recs if not r.i3 <= r.i2 <= r.i1]
    ok = not bad
    record_result("8d", ok,
                  "iota_3 <= iota_2 <= iota_1 on every builtin class n <= 8"
                  if ok else f"monotonicity broken on {bad[:5]}")
    assert ok, bad


def test_criterion_8e_closed_form_patterns():
    failures = []
    for kind, build in (("path", path_graph), ("cycle", cycle_graph)):
        for k in (2, 3):
            for n in range(4, 65):
                d = pattern_isolating_set(kind, n, k)
                if not is_isolating(build(n), d, edge_family(k)):
                    failures.append((kind, k, n))
    if not failures:
        detail = "all pattern sets isolating for 4 <= n <= 64"
    else:
        detail = f"pattern sets fail at {failures[:10]}"
    record_result("8e", not failures, detail)
    assert not failures, detail


# ===== criterion 9: enumeration against the independent oracle ===============


def test_criterion_9_enumeration_counts(connected_upto):
    counts = tuple(len(connected_upto(n, n)) for n in range(1, 9))
    problems = []
    if counts != EXPECTED_COUNTS:
        problems.append(f"counts {counts} != {EXPECTED_COUNTS}")
    for n in range(1, 7):
        got = oracles.connected_class_count(n)
        if got != EXPECTED_COUNTS[n - 1]:
            problems.append(f"oracle disagrees at n={n}: {got}")
    for n in (7, 8):
        classes = connected_upto(n, n)
        forms = {canonical_form(g) for g in classes}
        if len(forms) != len(classes):
            problems.append(f"duplicate classes at n={n}")
        if not all(is_connected(g) for g in classes):
            problems.append(f"disconnected output at n={n}")
    ok = not problems
    record_result("9", ok,
                  f"counts {', '.join(map(str, counts))}; oracle agrees "
                  f"for n <= 6; no duplicates at n = 7, 8"
                  if ok else "; ".join(problems))
    assert ok, problems


# ===== criterion 10: graph6 round-trip =======================================


def test_criterion_10_graph6_round_trip(connected_upto):
    graphs = connected_upto(1, 8)
    bad = [g for g in graphs if graph6_decode(graph6_encode(g)) != g]
    ok = not bad
    record_result("10", ok,
                  f"encode-decode identity on all {len(graphs)} builtin "
                  f"graphs" if ok else f"{len(bad)} round-trip failures")
    assert ok, bad[:3]
