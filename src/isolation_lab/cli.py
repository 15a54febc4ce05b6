"""Command-line harness for sweeps, tables, extremal checks, and certificates.

Subcommands
-----------
* ``sweep``    -- run one bound over every connected graph from a source,
                  solving iota exactly and (for the E_2/E_3 bounds) also
                  producing a certified isolating set and checking the
                  sandwich  iota <= |certificate| <= bound.
* ``ckn``      -- table of c_{k,n} = max iota_k(G)/n over connected n-vertex
                  graphs, as exact rationals with a witness graph each.
* ``extremal`` -- check the equality rows of the bound-attaining families.
* ``emit``     -- print constructions (or the builtin enumeration) as graph6.
* ``solve``    -- exact iota of given graphs for one family, with witness.
* ``certify``  -- certified isolating set with its case trace; refuses the
                  exception graphs by name.

Exit codes: 0 clean, 1 violation (or refused certificate), 2 usage error,
3 malformed graph6 input.  Machine-readable reports go to ``--json``
(JSON-lines) and ``--csv``; the human summary always goes to stdout.
Per-graph rows carry the keys
{graph6, n, leaves, iota, bound, exception, tight, cert_size?, case_trace?}.

``sweep`` and ``solve`` take ``--budget S``, which caps the exact solver
at sets of size S per graph; graphs whose optimum exceeds the cap become
"skipped (budget)" rows instead of aborting the run.  ``--jobs N``
(default 1) starts one pool of min(N, cores) processes for the command; it
generates the builtin levels not built yet and then does the per-graph
work.  Results are merged back in input order, so reports are the same for
every N.

graph6 is the I/O format only: a line is decoded where it is read, a graph
is encoded where its row (``_row``) or an error message is written, and
workers receive ``Graph`` objects.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import multiprocessing
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .bounds import THEOREMS, check_bound, theorem_bound
from .constructions import build_B, build_B_prime_7r_C6, build_B_prime_P3
from .enumeration import BUILTIN_MAX_N, connected_graphs, read_graph6_stream
from .families import CYCLES, EDGE_FAMILY_MAX_K, edge_family, exact_iota
from .graphs import (
    Graph,
    Graph6Error,
    bits,
    graph6_decode,
    graph6_encode,
    is_connected,
    leaf_count,
)
from .prover import InternalConsistencyError, NotCovered, isolate_k2, isolate_k3

ROW_FIELDS = (
    "graph6", "n", "leaves", "iota", "bound", "exception", "tight",
    "cert_size", "case_trace",
)

# How the certify refusals name the exception graphs of the E_2 and E_3 bounds.
EXCEPTION_NAMES = {
    "P3": "3-vertex-path exception",
    "K3": "triangle exception",
    "K13": "3-leaf-star exception",
    "C6": "6-cycle exception",
    "C6P": "pendant-6-cycle exception",
    "C6PP": "chorded-pendant-6-cycle exception",
    "C7": "7-cycle exception",
}


class UsageError(Exception):
    """Bad combination of arguments (exit code 2)."""


# ===== Family / source plumbing =============================================


def parse_family(text: str):
    """Map a --family value to (label, FamilySpec, theorem id or None).

    ``e1``/``e2``/``e3`` and ``cycles`` name the families of the proven
    bounds; ``k:K`` is the generic edge family E_K.  The theorem is the
    bound in ``THEOREMS`` on that family, so ``k:2`` gets the one of ``e2``.
    """
    if text == "cycles":
        fam = CYCLES
    elif text in ("e1", "e2", "e3"):
        fam = edge_family(int(text[1]))
    elif text.startswith("k:"):
        try:
            k = int(text[2:])
        except ValueError:
            raise UsageError(f"bad family {text!r}: k:K needs an integer K")
        if not 1 <= k <= EDGE_FAMILY_MAX_K:
            raise UsageError(f"k:K needs 1 <= K <= {EDGE_FAMILY_MAX_K}")
        fam = edge_family(k)
    else:
        raise UsageError(
            f"unknown family {text!r} (choose e1, e2, e3, cycles, or k:K)"
        )
    theorem = next((t for t, th in THEOREMS.items() if th.family == fam), None)
    return text, fam, theorem


def _resolve_jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise UsageError(f"--jobs must be an integer, got {value!r}")
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def iter_source(
    source: str,
    n_min: int,
    n_max: int,
    strict: bool,
    connected_only: bool = True,
    imap=map,
) -> Iterator[Graph]:
    """Graphs with n_min <= n <= n_max from a --source value.

    ``builtin`` enumerates every isomorphism class of connected graphs up to
    n_max, generating the levels not built yet through ``imap``;
    ``file:PATH`` and ``-`` read graph6 lines.  Out-of-range graphs
    are dropped.  With ``connected_only`` a disconnected line is skipped
    with a warning, since the bounds only speak about connected graphs.
    """
    if source == "builtin":
        if n_max > BUILTIN_MAX_N:
            raise UsageError(
                f"builtin enumeration stops at n = {BUILTIN_MAX_N}; "
                f"use --source file:PATH for larger sweeps"
            )
        for n in range(n_min, n_max + 1):
            yield from connected_graphs(n, imap)
        return

    if source == "-":
        lines: Iterable[str] = sys.stdin
    elif source.startswith("file:"):
        path = source[5:]
        try:
            # latin-1 maps every byte to a character, so graph6_decode names
            # a stray non-ASCII byte like any other one outside its range
            lines = open(path, "r", encoding="latin-1")
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}")
    else:
        raise UsageError(
            f"unknown source {source!r} (choose builtin, file:PATH, or -)"
        )

    issues: list[tuple[int, str]] = []
    try:
        for g in read_graph6_stream(
            lines, connected_only=connected_only, strict=strict, issues=issues
        ):
            if n_min <= g.n <= n_max:
                yield g
    finally:
        if lines is not sys.stdin:
            lines.close()  # type: ignore[union-attr]
        for line_no, message in issues:
            print(f"warning: skipped line {line_no}: {message}", file=sys.stderr)


@contextlib.contextmanager
def _writers(json_path: Optional[str], csv_path: Optional[str],
             fields: tuple[str, ...] = ROW_FIELDS) -> Iterator[Callable[[dict], None]]:
    """Optional JSON-lines and CSV side outputs for per-row reports.

    Yields ``write(row)``.  Both files are opened on one stack, so whatever
    is open is closed when the block ends or the other open fails; a path
    that cannot be opened is a usage error.
    """
    with contextlib.ExitStack() as stack:
        def open_report(path: str, **kwargs):
            try:
                return stack.enter_context(open(path, "w", encoding="ascii", **kwargs))
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc}")

        sinks: list[Callable[[dict], None]] = []
        if json_path:
            out = open_report(json_path)
            sinks.append(lambda row: out.write(json.dumps(row) + "\n"))
        if csv_path:
            table = csv.DictWriter(open_report(csv_path, newline=""),
                                   fieldnames=fields, restval="")
            table.writeheader()
            sinks.append(table.writerow)

        def write(row: dict) -> None:
            for sink in sinks:
                sink(row)

        yield write


def _row(g: Graph, iota: Optional[int] = None, bound: Optional[int] = None,
         exception: Optional[str] = None, tight: bool = False) -> dict:
    """The seven leading ROW_FIELDS of a graph's report row.

    This is where a row's graph6 is encoded, once per row.
    """
    return {"graph6": graph6_encode(g), "n": g.n, "leaves": leaf_count(g),
            "iota": iota, "bound": bound, "exception": exception,
            "tight": tight}


def _cert_fields(cert) -> dict:
    """The certificate columns of a row: its size and its case trace."""
    return {"cert_size": cert.d.bit_count(),
            "case_trace": "; ".join(e.line() for e in cert.trace)}


# ===== sweep =================================================================


def _sweep_one(g: Graph, theorem: str, budget: Optional[int]) -> tuple[dict, list[str]]:
    """Check one graph against one bound; runs inside worker processes.

    Returns the report row plus any problem messages (bound violations or
    prover failures).  The sandwich iota <= |certificate| <= bound is checked
    here for the E_2/E_3 bounds.
    """
    rec = check_bound(g, theorem, budget=budget)
    row = _row(g, rec.iota, rec.bound, rec.exception, rec.tight)
    g6 = row["graph6"]
    problems: list[str] = []
    if rec.violated:
        problems.append(
            f"bound violated: iota={rec.iota} > bound={rec.bound} on {g6}"
        )
    if theorem in ("k2", "k3") and rec.exception is None:
        prove = isolate_k2 if theorem == "k2" else isolate_k3
        try:
            cert = prove(g)
        except (InternalConsistencyError, ValueError) as exc:
            problems.append(f"prover failed on {g6}: {exc}")
        else:
            row.update(_cert_fields(cert))
            size = row["cert_size"]
            if size > rec.bound:
                problems.append(
                    f"certificate too large on {g6}: {size} > {rec.bound}"
                )
            if rec.iota is not None and size < rec.iota:
                problems.append(
                    f"certificate beats the optimum on {g6}: "
                    f"{size} < iota={rec.iota} (solver or prover is wrong)"
                )
    return row, problems


@contextlib.contextmanager
def _ordered_map(jobs: int):
    """The map one command uses for generation and per-graph work.

    With ``jobs`` 1 it is the builtin ``map``; otherwise it is the ordered
    ``imap`` of one pool, started for the whole command with at most one
    process per core, so results still come back in input order.
    """
    if jobs == 1:
        yield map
        return
    processes = min(jobs, os.cpu_count() or 1)
    with multiprocessing.Pool(processes=processes) as pool:
        def imap(worker, tasks: Sequence) -> Iterator:
            chunk = max(1, min(256, len(tasks) // (processes * 4)))
            return pool.imap(worker, tasks, chunksize=chunk)
        yield imap


def cmd_sweep(args) -> int:
    label, _fam, theorem = parse_family(args.family)
    if theorem is None:
        raise UsageError(
            f"family {label!r} has no proven bound to sweep (only e1, e2, "
            f"e3, and cycles do)"
        )
    jobs = _resolve_jobs(args.jobs)
    start = time.monotonic()
    exceptions: dict[str, int] = {}
    per_n: dict[int, list[int]] = {}  # graphs, violations, tight, skipped
    with _writers(args.json, args.csv) as write, _ordered_map(jobs) as imap:
        tasks = list(iter_source(args.source, args.n_min, args.n_max,
                                 args.strict_parse, imap=imap))
        check = functools.partial(_sweep_one, theorem=theorem, budget=args.budget)
        for row, problems in imap(check, tasks):
            write(row)
            stats = per_n.setdefault(row["n"], [0, 0, 0, 0])
            stats[0] += 1
            if row["exception"] is not None:
                exceptions[row["exception"]] = exceptions.get(row["exception"], 0) + 1
            if row["iota"] is None:
                stats[3] += 1
                print(f"skipped (budget): {row['graph6']}")
            if row["tight"]:
                stats[2] += 1
            stats[1] += len(problems)
            for message in problems:
                print(f"VIOLATION {message}")
    elapsed = time.monotonic() - start
    print(f"sweep {label} (bound {theorem}) n={args.n_min}..{args.n_max} "
          f"source={args.source} jobs={jobs}")
    for n in sorted(per_n):
        g, v, t, s = per_n[n]
        print(f"  n={n:<2} {g:>7} graphs  {v} violations  {t} tight  {s} skipped")
    if exceptions:
        listed = ", ".join(f"{tag} x{count}" for tag, count in exceptions.items())
        print(f"exceptions skipped: {listed}")
    checked, violations, tight, skipped = map(sum, zip([0, 0, 0, 0], *per_n.values()))
    print(f"checked {checked} graphs: {violations} violations, "
          f"{tight} tight, {sum(exceptions.values())} exceptions, "
          f"{skipped} skipped  [{elapsed:.2f}s]")
    return 1 if violations else 0


# ===== ckn ===================================================================


def _ckn_one(g: Graph, k: int) -> int:
    got = exact_iota(g, edge_family(k))
    assert got is not None  # no budget on this path
    return got.value


def cmd_ckn(args) -> int:
    label, fam, _theorem = parse_family(args.family)
    if fam.kind != "edges":
        raise UsageError(
            f"c_{{k,n}} is defined for the edge families only, not {label!r}"
        )
    k = fam.k
    jobs = _resolve_jobs(args.jobs)
    with (_writers(args.json, args.csv, fields=("k", "n", "c", "witness")) as write,
          _ordered_map(jobs) as imap):
        # one pass over the source, so each skipped line is reported once
        levels: dict[int, list[Graph]] = {}
        for g in iter_source(args.source, args.n_min, args.n_max,
                             args.strict_parse, imap=imap):
            levels.setdefault(g.n, []).append(g)
        solve = functools.partial(_ckn_one, k=k)
        for n, tasks in sorted(levels.items()):
            best: Optional[Fraction] = None
            witness = None
            for g, value in zip(tasks, imap(solve, tasks)):
                c = Fraction(value, n)
                if best is None or c > best:
                    best, witness = c, g
            row = {"k": k, "n": n,
                   "c": f"{best.numerator}/{best.denominator}",
                   "witness": graph6_encode(witness)}
            write(row)
            print(f"c_{{{k},{n}}} = {row['c']:<6} witness {row['witness']}")
    return 0


# ===== extremal ==============================================================


def _extremal_rows(theorem: str, n_min: int, n_max: int):
    """(name, param, graph, expected iota) rows for one bound's families.

    Each construction meets its bound with equality, except B'(7, C6): that
    graph is the exception C6P, with iota 2 above its bound 1.
    """
    if theorem == "k2":
        for n in range(max(n_min, 5), n_max + 1):
            g = build_B_prime_P3(n)
            yield f"B'({n},P3)", n, g, theorem_bound(g, theorem)
        for r in range(1, n_max // 7 + 1):
            if n_min <= 7 * r <= n_max:
                g = build_B_prime_7r_C6(r)
                expected = 2 if r == 1 else theorem_bound(g, theorem)
                yield f"B'(7r,C6) r={r}", 7 * r, g, expected
        return
    f, n_low = ("K2", 3) if theorem == "k1" else ("K3", 4)
    for n in range(max(n_min, n_low), n_max + 1):
        g = build_B(n, f)
        yield f"B({n},{f})", n, g, theorem_bound(g, theorem)


def cmd_extremal(args) -> int:
    label, fam, theorem = parse_family(args.family)
    if theorem is None:
        raise UsageError(f"family {label!r} has no extremal rows")
    if label.startswith("k:"):
        raise UsageError(
            f"no extremal family rows for {label!r} (choose e1, e2, e3, "
            f"or cycles)"
        )
    failures = 0
    with _writers(args.json, args.csv,
                  fields=("construction", "n", "expected", "iota", "equal")) as write:
        for name, n, g, expected in _extremal_rows(theorem, args.n_min,
                                                   args.n_max):
            # A cap at the expected value decides equality exactly: the solver
            # returns None iff the optimum exceeds the cap.
            got = exact_iota(g, fam, budget=expected)
            value = None if got is None else got.value
            equal = value == expected
            row = {"construction": name, "n": n, "expected": expected,
                   "iota": value, "equal": equal}
            write(row)
            shown = "> cap" if value is None else value
            verdict = "ok" if equal else "MISMATCH"
            print(f"{name:<16} n={n:<3} iota = {shown} expected {expected}  {verdict}")
            if not equal:
                failures += 1
    if failures:
        print(f"{failures} equality rows failed")
        return 1
    return 0


# ===== emit ==================================================================


def cmd_emit(args) -> int:
    kind = args.construction
    if kind == "builtin":
        if args.n_max > BUILTIN_MAX_N:
            raise UsageError(f"builtin enumeration stops at n = {BUILTIN_MAX_N}")
        for n in range(args.n_min, args.n_max + 1):
            for g in connected_graphs(n):
                print(graph6_encode(g))
        return 0
    try:
        if kind == "b":
            if args.n is None or args.f is None:
                raise UsageError("emit b needs --n and --f (a named graph tag)")
            print(graph6_encode(build_B(args.n, args.f)))
        elif kind == "bp-p3":
            if args.n is None:
                raise UsageError("emit bp-p3 needs --n")
            print(graph6_encode(build_B_prime_P3(args.n)))
        else:  # bp-c6; argparse rules out anything else
            if args.r is None:
                raise UsageError("emit bp-c6 needs --r")
            print(graph6_encode(build_B_prime_7r_C6(args.r)))
    except ValueError as exc:  # bad tag or out-of-range parameter
        raise UsageError(str(exc))
    return 0


# ===== solve =================================================================


def _input_graphs(args) -> Iterator[Graph]:
    """Graphs for solve/certify: a positional graph6 line or a --source."""
    if args.graph6 is not None and args.source is not None:
        raise UsageError("give either one graph6 argument or --source, not both")
    if args.graph6 is not None:
        yield graph6_decode(args.graph6)
        return
    if args.source is None:
        raise UsageError("need a graph6 argument or --source")
    yield from iter_source(args.source, 1, 1 << 30, args.strict_parse,
                           connected_only=False)


def _vertex_list(mask: int) -> str:
    return "{" + ", ".join(str(v) for v in bits(mask)) + "}"


def cmd_solve(args) -> int:
    label, fam, theorem = parse_family(args.family)
    with _writers(args.json, args.csv, fields=ROW_FIELDS[:7] + ("witness",)) as write:
        for g in _input_graphs(args):
            # the bounds, and so their exceptions, cover connected graphs only
            if theorem is not None and is_connected(g):
                rec = check_bound(g, theorem, budget=args.budget)
                row = _row(g, rec.iota, rec.bound, rec.exception, rec.tight)
                witness = rec.witness
            else:
                got = exact_iota(g, fam, budget=args.budget)
                row = _row(g, None if got is None else got.value)
                witness = None if got is None else got.witness
            row["witness"] = None if witness is None else sorted(bits(witness))
            write(row)
            if row["iota"] is None:
                print(f"skipped (budget): {row['graph6']}")
                continue
            note = f" (exception {row['exception']})" if row["exception"] else ""
            shown_bound = "-" if row["bound"] is None else row["bound"]
            print(f"{row['graph6']}: iota_{label} = {row['iota']}  bound "
                  f"{shown_bound}{note}  witness {_vertex_list(witness)}")
    return 0


# ===== certify ===============================================================


def cmd_certify(args) -> int:
    k = args.k
    prove = isolate_k2 if k == 2 else isolate_k3
    refused = 0
    with _writers(args.json, args.csv, fields=ROW_FIELDS + ("certificate",)) as write:
        for g in _input_graphs(args):
            try:
                cert = prove(g)
            except NotCovered as exc:
                if exc.tag is None:
                    raise UsageError(f"{graph6_encode(g)} is disconnected; the "
                                     f"bound only covers connected graphs")
                name = EXCEPTION_NAMES[exc.tag]
                print(f"certify refused: {graph6_encode(g)} is the {name}; "
                      f"the E_{k} bound does not hold for it", file=sys.stderr)
                refused += 1
                continue
            row = _row(g, bound=cert.bound)
            row.update(_cert_fields(cert), certificate=sorted(bits(cert.d)))
            write(row)
            print(f"graph: {row['graph6']} (n={g.n}, {row['leaves']} leaves)")
            print(f"bound: {cert.bound}  certificate: {_vertex_list(cert.d)} "
                  f"({cert.d.bit_count()} vertices)")
            print("trace:")
            for entry in cert.trace:
                print(f"  {entry.line()}")
    return 1 if refused else 0


# ===== entry point ===========================================================


def _add_common(sub, *, n_defaults=(1, 8), source=True, budget=True,
                jobs=True):
    """Shared options; ``n_defaults=None`` for commands that read every size,
    ``source=False`` for commands that build their own graphs."""
    if n_defaults is not None:
        sub.add_argument("--n-min", type=int, default=n_defaults[0])
        sub.add_argument("--n-max", type=int, default=n_defaults[1])
    if source:
        sub.add_argument("--source", default="builtin",
                         help="builtin, file:PATH, or - for stdin")
    sub.add_argument("--json", metavar="PATH", help="write JSON-lines rows")
    sub.add_argument("--csv", metavar="PATH", help="write CSV rows")
    if source:
        sub.add_argument("--strict-parse", action="store_true",
                         help="fail on malformed graph6 lines instead of skipping")
    if budget:
        sub.add_argument("--budget", type=int, metavar="S",
                         help="cap the exact solver at sets of size S")
    if jobs:
        sub.add_argument("--jobs", metavar="N", default="1",
                         help="worker processes (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isolation-lab",
        description="Isolation-number bounds: exhaustive sweeps, exact "
                    "tables, extremal families, and certified isolating sets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="verify one bound over a graph source")
    sweep.add_argument("--family", required=True,
                       help="e1, e2, e3, or cycles")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    ckn = subs.add_parser("ckn", help="exact c_{k,n} = max iota_k/n table")
    ckn.add_argument("--family", required=True, help="e1, e2, e3, or k:K")
    _add_common(ckn, budget=False)
    ckn.set_defaults(func=cmd_ckn)

    extremal = subs.add_parser("extremal",
                               help="check bound-attaining equality rows")
    extremal.add_argument("--family", required=True,
                          help="e1, e2, e3, or cycles")
    _add_common(extremal, n_defaults=(1, 16), source=False, budget=False,
                jobs=False)
    extremal.set_defaults(func=cmd_extremal)

    emit = subs.add_parser("emit", help="print constructions as graph6")
    emit.add_argument("construction", choices=("b", "bp-p3", "bp-c6", "builtin"))
    emit.add_argument("--n", type=int, help="vertex count for b / bp-p3")
    emit.add_argument("--f", metavar="TAG",
                      help="copied graph for b (e.g. K2, K3, P3)")
    emit.add_argument("--r", type=int, help="copy count for bp-c6")
    emit.add_argument("--n-min", type=int, default=1)
    emit.add_argument("--n-max", type=int, default=6)
    emit.set_defaults(func=cmd_emit)

    solve = subs.add_parser("solve", help="exact iota with a witness set")
    solve.add_argument("graph6", nargs="?", help="one graph6 line")
    solve.add_argument("--family", required=True,
                       help="e1, e2, e3, cycles, or k:K")
    _add_common(solve, n_defaults=None, jobs=False)
    solve.set_defaults(func=cmd_solve, source=None)

    certify = subs.add_parser(
        "certify", help="certified isolating set within the bound")
    certify.add_argument("graph6", nargs="?", help="one graph6 line")
    certify.add_argument("--k", type=int, choices=(2, 3), required=True)
    _add_common(certify, n_defaults=None, budget=False, jobs=False)
    certify.set_defaults(func=cmd_certify, source=None)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Graph6Error as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
