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
is encoded where its row (``_row``) or an error message is written (a graph
read from a line gives back that line's text), and workers receive
``Graph`` objects.

Each run pays for its imports at start-up, so a CLI process loads only the
standard-library modules its command uses: ``multiprocessing`` only with
``--jobs`` > 1, ``csv`` only with ``--csv``, and ``fractions`` only in
``ckn``.  Every package module is still loaded on import.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from typing import Callable, Iterator, Optional, Sequence

from .bounds import THEOREMS, check_bound, classify_exception
from .constructions import build_B
from .enumeration import BUILTIN_MAX_N, connected_graphs, read_graph6_stream
from .families import CYCLES, EDGE_FAMILY_MAX_K, edge_family, exact_iota
from .graphs import (
    MAX_VERTICES,
    Graph,
    Graph6Error,
    bits,
    graph6_decode,
    graph6_encode,
    is_connected,
    leaves,
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


# The CLI's one size floor: the bounds speak about graphs with at least one
# vertex, so every source and the graph6 argument start at n = 1.
_N_FLOOR = 1


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
            fam = edge_family(int(text[2:]))
        except ValueError:  # K is not an integer, or out of range
            raise UsageError(f"bad family {text!r}: k:K needs an integer "
                             f"1 <= K <= {EDGE_FAMILY_MAX_K}")
    else:
        raise UsageError(
            f"unknown family {text!r} (choose e1, e2, e3, cycles, or k:K)"
        )
    theorem = next((t for t, th in THEOREMS.items() if th.family == fam), None)
    return text, fam, theorem


def _at_least(flag: str, value: Optional[int], least: int) -> Optional[int]:
    """``value`` of an integer option, which must be None or >= ``least``."""
    if value is not None and value < least:
        raise UsageError(f"{flag} must be >= {least}, got {value}")
    return value


def _source_range(source: str, n_min: int = 1,
                  n_max: Optional[int] = None) -> tuple[int, int]:
    """The range of n that a --source value reads, or its usage error.

    This is the CLI's one size rule.  Every source starts at ``_N_FLOOR``.
    ``n_max`` None means every size the source holds, ``BUILTIN_MAX_N`` for
    builtin and ``MAX_VERTICES`` for a file or stdin; a larger one is a
    usage error for builtin.  A ``file:`` must be readable.  The commands that write
    reports call this before opening them, so a bad source leaves an
    existing report as it was.
    """
    if source.startswith("file:"):
        path = source[5:]
        try:
            open(path, "rb").close()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}")
    elif source not in ("builtin", "-"):
        raise UsageError(
            f"unknown source {source!r} (choose builtin, file:PATH, or -)"
        )
    largest = BUILTIN_MAX_N if source == "builtin" else MAX_VERTICES
    if n_max is None:
        n_max = largest
    elif source == "builtin" and n_max > largest:
        raise UsageError(
            f"builtin enumeration stops at n = {BUILTIN_MAX_N}; larger "
            f"graphs must be read from a graph6 file"
        )
    return max(n_min, _N_FLOOR), n_max


def iter_source(
    source: str,
    n_min: int,
    n_max: Optional[int],
    strict: bool,
    connected_only: bool = True,
    imap=map,
) -> Iterator[Graph]:
    """Graphs from a --source value, with n in ``_source_range``.

    ``builtin`` enumerates every isomorphism class of connected graphs in
    that range, generating the levels not built yet through ``imap``; it
    is the CLI's only reader of the enumeration.  ``file:PATH`` and ``-``
    read graph6 lines.  Out-of-range graphs are dropped.  With
    ``connected_only`` a disconnected line is skipped with a warning,
    since the bounds only speak about connected graphs.
    """
    n_min, n_max = _source_range(source, n_min, n_max)
    if source == "builtin":
        for n in range(n_min, n_max + 1):
            yield from connected_graphs(n, imap)
        return

    # latin-1 maps every byte to a character, so graph6_decode names a
    # stray non-ASCII byte like any other one outside its range; stdin is
    # read from its bytes too, whatever the locale's codec
    lines = (io.TextIOWrapper(sys.stdin.buffer, encoding="latin-1") if source == "-"
             else open(source[5:], "r", encoding="latin-1"))
    issues: list[tuple[int, str]] = []
    try:
        for g in read_graph6_stream(
            lines, connected_only=connected_only, strict=strict, issues=issues
        ):
            if n_min <= g.n <= n_max:
                yield g
    finally:
        if source == "-":
            lines.detach()  # sys.stdin stays open
        else:
            lines.close()
        for line_no, message in issues:
            print(f"warning: skipped line {line_no}: {message}", file=sys.stderr)


@contextlib.contextmanager
def _writers(args, fields: tuple[str, ...] = ROW_FIELDS) -> Iterator[Callable[[dict], None]]:
    """Optional JSON-lines and CSV side outputs for per-row reports.

    Yields ``write(row)`` for the reports that ``args.json`` and ``args.csv``
    name.  A path that cannot be opened, or that names the same file as the
    other report or as a ``file:`` source, is a usage error, and leaves
    every report path and the source as they were: each path is first
    opened for appending, which empties nothing, and a file that this check
    created is removed again when the check fails.  Both files are then
    opened on one stack, so whatever is open is closed when the block ends
    or the other open fails.
    """
    def open_report(path: str, mode: str, **kwargs):
        try:
            return open(path, mode, encoding="ascii", **kwargs)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}")

    json_path, csv_path = args.json, args.csv
    source = getattr(args, "source", None) or ""
    taken = [(source[5:], "the --source file")] if source.startswith("file:") else []
    created: list[str] = []
    try:
        for path in filter(None, (json_path, csv_path)):
            new = not os.path.lexists(path)
            open_report(path, "a").close()
            if new:
                created.append(path)
            for other, name in taken:
                if os.path.samefile(path, other):
                    raise UsageError(f"cannot write {path}: it is {name}")
            taken.append((path, "the other report"))
    except UsageError:
        for made in created:
            os.remove(made)
        raise
    with contextlib.ExitStack() as stack:
        sinks: list[Callable[[dict], None]] = []
        if json_path:
            out = stack.enter_context(open_report(json_path, "w"))
            sinks.append(lambda row: out.write(json.dumps(row) + "\n"))
        if csv_path:
            import csv

            table = csv.DictWriter(stack.enter_context(open_report(csv_path, "w", newline="")),
                                   fieldnames=fields, restval="")
            table.writeheader()
            sinks.append(table.writerow)

        def write(row: dict) -> None:
            for sink in sinks:
                sink(row)

        yield write


def _row(g: Graph, iota: Optional[int] = None, bound: Optional[int] = None,
         exception: Optional[str] = None, tight: bool = False,
         leaf_mask: Optional[int] = None) -> dict:
    """The seven leading ROW_FIELDS of a graph's report row; ``leaf_mask``
    holds g's leaves where the caller has them, and is scanned otherwise.

    This is where a row's graph6 is encoded, once per row; a graph decoded
    from a line gives back that line's text.
    """
    if leaf_mask is None:
        leaf_mask = leaves(g)
    return {"graph6": graph6_encode(g), "n": g.n, "leaves": leaf_mask.bit_count(),
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
    leaf_mask = leaves(g)  # one scan for the bound and the row
    rec = check_bound(g, theorem, budget=budget, leaf_mask=leaf_mask)
    row = _row(g, rec.iota, rec.bound, rec.exception, rec.tight,
               leaf_mask=leaf_mask)
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
    import multiprocessing

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
    jobs = _at_least("--jobs", args.jobs, 1)
    budget = _at_least("--budget", args.budget, 0)
    n_min, n_max = _source_range(args.source, args.n_min, args.n_max)
    start = time.monotonic()
    exceptions: dict[str, int] = {}
    per_n: dict[int, list[int]] = {}  # graphs, violations, tight, skipped
    with _writers(args) as write, _ordered_map(jobs) as imap:
        tasks = list(iter_source(args.source, n_min, n_max, args.strict_parse,
                                 imap=imap))
        check = functools.partial(_sweep_one, theorem=theorem, budget=budget)
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
    print(f"sweep {label} (bound {theorem}) n={n_min}..{n_max} "
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
    from fractions import Fraction

    label, fam, _theorem = parse_family(args.family)
    if fam.kind != "edges":
        raise UsageError(
            f"c_{{k,n}} is defined for the edge families only, not {label!r}"
        )
    k = fam.k
    jobs = _at_least("--jobs", args.jobs, 1)
    n_min, n_max = _source_range(args.source, args.n_min, args.n_max)
    with (_writers(args, fields=("k", "n", "c", "witness")) as write,
          _ordered_map(jobs) as imap):
        tasks = list(iter_source(args.source, n_min, n_max, args.strict_parse,
                                 imap=imap))
        best: dict[int, tuple[int, Graph]] = {}  # n -> first (max iota, graph)
        for g, value in zip(tasks, imap(functools.partial(_ckn_one, k=k), tasks)):
            if g.n not in best or value > best[g.n][0]:
                best[g.n] = value, g
        for n, (value, witness) in sorted(best.items()):
            c = Fraction(value, n)
            row = {"k": k, "n": n, "c": f"{c.numerator}/{c.denominator}",
                   "witness": graph6_encode(witness)}
            write(row)
            print(f"c_{{{k},{n}}} = {row['c']:<6} witness {row['witness']}")
    return 0


# ===== extremal ==============================================================


def _extremal_rows(theorem: str, n_min: int, n_max: int):
    """(name, param, graph, expected iota) rows for the bound's sharp specs.

    A member meets its bound with equality unless it is one of the bound's
    exceptions, which exceed it by one: only B'(7, C6), which is C6P.
    """
    th = THEOREMS[theorem]
    for f, joins, least, step in th.sharp:
        stem = "B" if joins is None else "B'"
        low = max(n_min, least)
        for n in range(low + -low % step, n_max + 1, step):
            g = build_B(n, f, joins)
            name = (f"{stem}({n},{f})" if step == 1
                    else f"{stem}({step}r,{f}) r={n // step}")
            yield name, n, g, th.bound(g) + (classify_exception(g, theorem) is not None)


def cmd_extremal(args) -> int:
    label, fam, theorem = parse_family(args.family)
    if label.startswith("k:"):  # this includes every family with no bound
        raise UsageError(
            f"no extremal family rows for {label!r} (choose e1, e2, e3, "
            f"or cycles)"
        )
    if args.n_max > MAX_VERTICES:
        raise UsageError(f"extremal rows stop at n = {MAX_VERTICES}, the largest "
                         f"graph this package holds")
    failures = 0
    with _writers(args, fields=("construction", "n", "expected", "iota", "equal")) as write:
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


# emit's constructions: kind -> (builder, its options in argument order);
# bp-p3 and bp-c6 are the E_2 sharp specs B'(n, P3) and B'(7r, C6)
_P3, _C6 = THEOREMS["k2"].sharp
_EMIT = {"b": (build_B, ("n", "f")),
         "bp-p3": (lambda n: build_B(n, *_P3[:2]), ("n",)),
         "bp-c6": (lambda r: build_B(_C6[3] * r, *_C6[:2]), ("r",))}


def cmd_emit(args) -> int:
    kind = args.construction
    if kind == "builtin":
        for g in iter_source("builtin", args.n_min, args.n_max, strict=True):
            print(graph6_encode(g))
        return 0
    build, options = _EMIT[kind]
    values = [getattr(args, option) for option in options]
    if None in values:
        raise UsageError(f"emit {kind} needs " + " and ".join("--" + o for o in options))
    try:
        print(graph6_encode(build(*values)))
    except ValueError as exc:  # bad tag or out-of-range parameter
        raise UsageError(str(exc))
    return 0


# ===== solve =================================================================


def _given_graph(args) -> Optional[Graph]:
    """Check the input of solve/certify before their reports are opened.

    Returns the decoded graph6 argument, or None when --source, which must
    be readable, gives the graphs.  The argument obeys ``_N_FLOOR``, below
    which a --source line is dropped.
    """
    if args.graph6 is not None and args.source is not None:
        raise UsageError("give either one graph6 argument or --source, not both")
    if args.graph6 is not None:
        g = graph6_decode(args.graph6)
        if g.n < _N_FLOOR:
            raise UsageError(f"the graph6 argument has n = {g.n}; every graph "
                             f"read needs n >= {_N_FLOOR}, as the bounds do")
        return g
    if args.source is None:
        raise UsageError("need a graph6 argument or --source")
    _source_range(args.source)
    return None


def _input_graphs(args, given: Optional[Graph]) -> Iterator[Graph]:
    """Graphs for solve/certify: the graph6 argument that ``_given_graph``
    decoded, or those that --source reads."""
    if given is not None:
        yield given
        return
    yield from iter_source(args.source, 1, None, args.strict_parse, connected_only=False)


def _vertex_list(mask: int) -> str:
    return "{" + ", ".join(str(v) for v in bits(mask)) + "}"


def cmd_solve(args) -> int:
    label, fam, theorem = parse_family(args.family)
    budget = _at_least("--budget", args.budget, 0)
    given = _given_graph(args)
    with _writers(args, fields=ROW_FIELDS[:7] + ("witness",)) as write:
        for g in _input_graphs(args, given):
            # the bounds, and so their exceptions, cover connected graphs only
            if theorem is not None and is_connected(g):
                leaf_mask = leaves(g)
                rec = check_bound(g, theorem, budget=budget, leaf_mask=leaf_mask)
                row = _row(g, rec.iota, rec.bound, rec.exception, rec.tight,
                           leaf_mask=leaf_mask)
                witness = rec.witness
            else:
                got = exact_iota(g, fam, budget=budget)
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
    given = _given_graph(args)
    with _writers(args, fields=ROW_FIELDS + ("certificate",)) as write:
        for g in _input_graphs(args, given):
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
            row = _row(g, bound=cert.bound, leaf_mask=cert.leaves)
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
        sub.add_argument("--jobs", type=int, metavar="N", default=1,
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
    emit.add_argument("construction", choices=(*_EMIT, "builtin"))
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
