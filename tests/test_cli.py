"""Command-line harness: exit codes, row schemas, and parallel determinism.

Everything runs in-process through ``cli.main`` so monkeypatching can reach
the module globals (the serial jobs=1 path calls workers directly).
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from isolation_lab import bounds, cli, graphs
from isolation_lab.bounds import THEOREMS, check_bound
from isolation_lab.enumeration import connected_graphs
from isolation_lab.graphs import Graph, graph6_decode, graph6_encode, named_graph
from isolation_lab.prover import InternalConsistencyError, isolate_k2

# The benchmark's tracer imports the package only when it runs, so its
# table of wrapped functions can be read here.
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)
import graphgen  # noqa: E402
import tracing  # noqa: E402


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ===== sweep =================================================================


def test_sweep_small_range_is_clean(capsys):
    code, out, err = run(["sweep", "--family", "e2", "--n-max", "5"], capsys)
    assert code == 0
    assert "0 violations" in out.replace("  ", " ")
    assert "exceptions skipped:" in out
    for tag in ("P3", "K3", "K13"):
        assert tag in out


def test_sweep_row_schema(tmp_path, capsys):
    jpath, cpath = tmp_path / "rows.json", tmp_path / "rows.csv"
    code, out, _ = run(["sweep", "--family", "e2", "--n-max", "6",
                        "--json", str(jpath), "--csv", str(cpath)], capsys)
    assert code == 0
    rows = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert len(rows) == 1 + 1 + 2 + 6 + 21 + 112
    for row in rows:
        assert tuple(row)[:7] == cli.ROW_FIELDS[:7]
        g = graph6_decode(row["graph6"])
        assert g.n == row["n"]
        if row["exception"] is None:
            # certificate columns are present exactly when the prover ran
            assert tuple(row) == cli.ROW_FIELDS
            assert row["iota"] <= row["bound"]
            assert row["iota"] <= row["cert_size"] <= row["bound"]
            assert "case=" in row["case_trace"]
        else:
            assert "cert_size" not in row and row["tight"] is False
    exceptions = {r["exception"] for r in rows if r["exception"]}
    assert exceptions == {"P3", "K3", "K13", "C6"}
    csv_lines = cpath.read_text().splitlines()
    assert csv_lines[0] == ",".join(cli.ROW_FIELDS)
    assert len(csv_lines) == len(rows) + 1


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    # sweep and ckn both hand Graph objects to their workers
    for command in ("sweep", "ckn"):
        outs = []
        for jobs in ("1", "2"):
            path = tmp_path / f"{command}-{jobs}.json"
            code, _, _ = run([command, "--family", "e3", "--n-max", "6",
                              "--jobs", jobs, "--json", str(path)], capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], command


@pytest.mark.parametrize("command", ["sweep", "ckn"])
def test_builtin_graphs_are_never_decoded(command, monkeypatch, capsys):
    # graph6 is an I/O format: builtin graphs reach the per-graph workers
    # as Graph objects, so nothing between enumeration and report parses it
    def no_decode(line):
        raise AssertionError(f"graph6 round trip on {line!r}")

    monkeypatch.setattr(cli, "graph6_decode", no_decode)
    code, _, _ = run([command, "--family", "e2", "--n-max", "5",
                      "--jobs", "1"], capsys)
    assert code == 0


def test_sweep_reports_violations(monkeypatch, capsys):
    def lying_check(g, theorem, budget=None, *, leaf_mask=None):
        return check_bound(g, theorem, budget=budget,
                           leaf_mask=leaf_mask)._replace(violated=True)

    monkeypatch.setattr(cli, "check_bound", lying_check)
    code, out, _ = run(["sweep", "--family", "e1", "--n-min", "4",
                        "--n-max", "4"], capsys)
    assert code == 1
    assert "VIOLATION" in out


@pytest.mark.parametrize("command", ["sweep", "solve"])
def test_each_row_scans_the_leaves_once(command, tmp_path, monkeypatch, capsys):
    # one scan gives the row's leaf count and the bound: Theorem.bound and
    # _row scan none
    callers = []
    original = graphs.leaves

    def counting(g):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(g)

    for module in (bounds, cli):
        monkeypatch.setattr(module, "leaves", counting)
    inputs = [g for n in range(1, 7) for g in connected_graphs(n)]
    source = tmp_path / "inputs.g6"
    source.write_text("".join(f"{graph6_encode(g)}\n" for g in inputs))
    report = tmp_path / "rows.jsonl"
    code, _, _ = run([command, "--family", "e2", "--source", f"file:{source}",
                      "--json", str(report)], capsys)
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert code == 0 and len(rows) == len(inputs) == 143
    assert "bound" not in callers and "_row" not in callers
    assert [row["leaves"] for row in rows] == [original(g).bit_count() for g in inputs]


def _failing_prover(g):
    raise InternalConsistencyError("case test: not isolating")


def _whole_graph_prover(g):
    return isolate_k2(g)._replace(d=(1 << g.n) - 1)


def _empty_set_prover(g):
    return isolate_k2(g)._replace(d=0)


@pytest.mark.parametrize("prove,message", [
    (_failing_prover, "prover failed on"),
    (_whole_graph_prover, "certificate too large on"),
    (_empty_set_prover, "certificate beats the optimum on"),
])
def test_sweep_reports_prover_problems(prove, message, monkeypatch, capsys):
    # every connected 4-vertex graph but the star is certified, and each has
    # 1 <= iota <= bound < 4
    monkeypatch.setattr(cli, "isolate_k2", prove)
    code, out, _ = run(["sweep", "--family", "e2", "--n-min", "4",
                        "--n-max", "4"], capsys)
    assert code == 1
    problems = [line for line in out.splitlines() if line.startswith("VIOLATION")]
    assert len(problems) == 5
    assert all(line.startswith(f"VIOLATION {message} ") for line in problems)


def test_sweep_budget_skips(capsys):
    code, out, _ = run(["sweep", "--family", "e1", "--n-min", "3",
                        "--n-max", "3", "--budget", "0"], capsys)
    assert code == 0
    assert "skipped (budget)" in out


def test_sweep_rejects_unbounded_family(capsys):
    code, _, err = run(["sweep", "--family", "k:4"], capsys)
    assert code == 2 and "usage error" in err


def test_sweep_rejects_unknown_family(capsys):
    code, _, err = run(["sweep", "--family", "q9"], capsys)
    assert code == 2


@pytest.mark.parametrize("family", ["k:0", "k:17"])
def test_family_k_out_of_range_is_usage_error(family, capsys):
    code, out, err = run(["solve", "BW", "--family", family], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and "1 <= K <= 16" in err


def test_sweep_builtin_range_cap(capsys):
    code, _, err = run(["sweep", "--family", "e2", "--n-max", "12"], capsys)
    assert code == 2 and "builtin enumeration stops" in err


def test_solve_certify_read_the_builtin_source(tmp_path, monkeypatch, capsys):
    # solve and certify read every size the builtin source holds, which is
    # no usage error; a smaller cap keeps the run short
    monkeypatch.setattr(cli, "BUILTIN_MAX_N", 4)
    jpath = tmp_path / "rows.json"
    code, _, err = run(["solve", "--family", "e2", "--source", "builtin",
                        "--json", str(jpath)], capsys)
    assert code == 0 and err == ""
    assert len(jpath.read_text().splitlines()) == 1 + 1 + 2 + 6
    code, _, err = run(["certify", "--k", "3", "--source", "builtin"], capsys)
    assert code == 1
    assert err == ("certify refused: Bw is the triangle exception; "
                   "the E_3 bound does not hold for it\n")


@pytest.mark.parametrize("argv", [["sweep", "--family", "e1"],
                                  ["ckn", "--family", "e2"],
                                  ["emit", "builtin"]], ids=["sweep", "ckn", "emit"])
def test_builtin_range_starts_at_one(argv, tmp_path, capsys):
    # a --n-min below 1 reads the same graphs as --n-min 1
    outputs = []
    for n_min in ("-1", "1"):
        path = tmp_path / f"rows{n_min}.json"
        reports = [] if argv[0] == "emit" else ["--json", str(path)]
        code, out, err = run(argv + ["--n-min", n_min, "--n-max", "3"] + reports,
                             capsys)
        assert code == 0 and err == ""
        outputs.append(out if argv[0] == "emit" else path.read_text())
    assert outputs[0] == outputs[1] != ""


@pytest.mark.parametrize("argv", [["sweep", "--family", "e2"],
                                  ["sweep", "--family", "e3"],
                                  ["ckn", "--family", "e2"]], ids=["sweep-e2", "sweep-e3", "ckn"])
def test_file_range_starts_at_one(argv, tmp_path, capsys):
    # a file's 0-vertex graph lies below every source's range, so a
    # --n-min below 1 reads the same graphs as --n-min 1
    source = tmp_path / "tiny.g6"
    source.write_text("?\n@\nA_\n")
    outputs = []
    for n_min in ("-1", "0", "1"):
        path = tmp_path / f"rows{n_min}.json"
        code, out, err = run(argv + ["--source", f"file:{source}", "--n-min", n_min,
                                     "--json", str(path)], capsys)
        assert code == 0 and err == ""
        outputs.append(path.read_text())
    assert outputs[0] == outputs[1] == outputs[2] != ""
    assert "?" not in outputs[0]


@pytest.mark.parametrize("argv", [["solve", "--family", "e2"],
                                  ["solve", "--family", "k:4"],
                                  ["certify", "--k", "2"],
                                  ["certify", "--k", "3"]],
                         ids=["solve-e2", "solve-k4", "certify-k2", "certify-k3"])
def test_graph6_argument_starts_at_one(argv, tmp_path, capsys):
    # the 0-vertex graph lies below the floor n >= 1 of every source, so as
    # an argument it is a usage error that names the floor and opens no
    # report, where a file: source drops the same line without a word
    path = tmp_path / "rows.json"
    code, out, err = run(argv + ["?", "--json", str(path)], capsys)
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("usage error: ") and "n >= 1" in err
    source = tmp_path / "empty.g6"
    source.write_text("?\n")
    code, out, err = run(argv + ["--source", f"file:{source}", "--json", str(path)],
                         capsys)
    assert (code, out, err, path.read_text()) == (0, "", "", "")
    # the smallest graph it admits is read as before
    code, out, err = run(argv + ["@"], capsys)
    assert code == 0 and out.startswith(("@: iota", "graph: @ (n=1, 0 leaves)"))


def test_sweep_header_prints_the_range_read(capsys):
    code, out, _ = run(["sweep", "--family", "e1", "--n-min", "-1",
                        "--n-max", "3"], capsys)
    assert code == 0 and "sweep e1 (bound k1) n=1..3 source=builtin" in out


# ===== sources and jobs ======================================================


def test_file_source_lenient_warns(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nnot-a-graph\nCr\n")
    code, out, err = run(["sweep", "--family", "e1",
                          "--source", f"file:{path}"], capsys)
    assert code == 0
    assert "warning: skipped line 2" in err
    assert "2 graphs" in out.replace("  ", " ")


def test_file_source_disconnected_line(tmp_path, capsys):
    # line 3 is a disconnected 7-vertex graph: the bound sweeps skip it with
    # a warning, solve and certify take it as if it were given positionally
    path = tmp_path / "graphs.g6"
    path.write_text("GqGOOK\nBW\nFgCGG\n")
    source = f"file:{path}"
    for command in ("sweep", "ckn"):
        code, _, err = run([command, "--family", "e2", "--n-max", "8",
                            "--source", source], capsys)
        assert code == 0
        assert err.startswith("warning: skipped line 3: disconnected")
        assert err.count("\n") == 1, err  # once, not once per n
    jpath = tmp_path / "solve.json"
    code, _, err = run(["solve", "--family", "e2", "--source", source,
                        "--json", str(jpath)], capsys)
    rows = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert code == 0 and err == "" and len(rows) == 3
    assert rows[2]["graph6"] == "FgCGG" and rows[2]["bound"] is None
    code, out, err = run(["certify", "--k", "2", "--source", source], capsys)
    assert code == 2 and out.startswith("graph: GqGOOK")
    assert "3-vertex-path exception" in err
    assert "usage error: FgCGG is disconnected" in err


def test_file_source_strict_fails(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\nnot-a-graph\n")
    code, _, err = run(["sweep", "--family", "e1", "--source",
                        f"file:{path}", "--strict-parse"], capsys)
    assert code == 3 and "parse error" in err and "line 2" in err


def test_file_source_non_ascii_byte(tmp_path, capsys):
    # a stray non-ASCII byte is a malformed line like any other: skipped
    # with a warning, or a parse error under --strict-parse
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"Bw\nB\xc3\xa9\nCr\n")
    argv = ["sweep", "--family", "e1", "--source", f"file:{path}"]
    code, out, err = run(argv, capsys)
    assert code == 0 and "2 graphs" in out.replace("  ", " ")
    assert err.startswith("warning: skipped line 2: byte 195")
    code, _, err = run(argv + ["--strict-parse"], capsys)
    assert code == 3 and err.startswith("parse error: line 2: byte 195")


def test_file_source_strips_only_ascii_whitespace(tmp_path, capsys):
    # 0xa0 and 0x1c are whitespace to str.strip() but bytes outside the
    # graph6 range to the format
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"Bw\xa0\nCr\x1c\n")
    argv = ["solve", "--family", "e2", "--source", f"file:{path}"]
    code, out, err = run(argv + ["--strict-parse"], capsys)
    assert code == 3 and out == ""
    assert err == ("parse error: line 1: byte 160 at position 2 outside "
                   "graph6 range\n")
    code, out, err = run(argv, capsys)
    assert out == "" and err.splitlines() == [
        "warning: skipped line 1: byte 160 at position 2 outside graph6 range",
        "warning: skipped line 2: byte 28 at position 2 outside graph6 range",
    ]


# lines that stdin must read as the `file:` source does: a byte that is not
# UTF-8, a UTF-8 letter, a CRLF and a lone CR
_STDIN_BYTES = b"DhC\nB\xff\nGhCGKC\r\nB\xc3\xa9\nDs_\rCh\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "e1"],
    ["solve", "--family", "e2"],
    ["certify", "--k", "2"],
], ids=["sweep", "solve", "certify"])
def test_stdin_source_reads_bytes_like_a_file(argv, tmp_path, monkeypatch, capsys):
    # stdin under a strict UTF-8 codec, as with PYTHONIOENCODING=utf-8:strict:
    # the locale's codec must not decide what a line holds
    path = tmp_path / "graphs.g6"
    path.write_bytes(_STDIN_BYTES)
    results = []
    for source in (f"file:{path}", "-"):
        jpath = tmp_path / f"rows-{len(results)}.json"
        for extra in (["--json", str(jpath)], ["--strict-parse"]):
            stdin = io.TextIOWrapper(io.BytesIO(_STDIN_BYTES), encoding="utf-8",
                                     errors="strict")
            monkeypatch.setattr(sys, "stdin", stdin)
            code, _, err = run(argv + ["--source", source] + extra, capsys)
            assert not stdin.closed
            results.append((code, err))
        results.append(jpath.read_text())
    assert results[:3] == results[3:]
    (code, err), strict, rows = results[:3]
    assert code == 0 and len(rows.splitlines()) == 4
    assert err.splitlines() == [
        "warning: skipped line 2: byte 255 at position 1 outside graph6 range",
        "warning: skipped line 4: byte 195 at position 1 outside graph6 range",
    ]
    assert strict == (3, "parse error: line 2: byte 255 at position 1 "
                         "outside graph6 range\n")


def test_file_source_missing(capsys):
    code, _, err = run(["sweep", "--family", "e1",
                        "--source", "file:/does/not/exist.g6"], capsys)
    assert code == 2 and "cannot read" in err


def test_unknown_source(capsys):
    code, _, err = run(["sweep", "--family", "e1", "--source", "elsewhere"],
                       capsys)
    assert code == 2 and "unknown source" in err


def test_bad_jobs_flag_rejected(capsys):
    code, _, err = run(["sweep", "--family", "e1", "--jobs", "0"], capsys)
    assert code == 2 and "--jobs" in err


@pytest.mark.parametrize("command", ["sweep", "ckn"])
def test_jobs_capped_at_core_count(command, monkeypatch, capsys):
    # one pool per command, never more processes than cores, and one map of
    # the per-graph worker over every graph; the stand-in pool maps in this
    # process, so the test starts no process at all
    started, workers = [], []

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, tasks, chunksize=1):
            workers.append(getattr(worker, "func", worker))
            return map(worker, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run([command, "--family", "e2", "--n-max", "5",
                        "--jobs", "100000"], capsys)
    assert code == 0 and started == [2]
    per_graph = cli._sweep_one if command == "sweep" else cli._ckn_one
    assert workers.count(per_graph) == 1
    if command == "sweep":
        assert "jobs=100000" in out


def test_sweep_opens_reports_before_enumerating(tmp_path, monkeypatch, capsys):
    # an unwritable report path is a usage error before any graph is built
    def no_enumeration(*args):
        raise AssertionError("enumerated before opening the reports")

    monkeypatch.setattr(cli, "connected_graphs", no_enumeration)
    code, out, err = run(["sweep", "--family", "e2", "--n-max", "8", "--json",
                          str(tmp_path / "missing" / "rows.jsonl")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write")


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--family", "e2", "--n-max", "12"], 2),
    (["ckn", "--family", "e2", "--source", "nope"], 2),
    (["sweep", "--family", "e1", "--source", "file:/does/not/exist.g6"], 2),
    (["solve", "--family", "e2", "--source", "file:/does/not/exist.g6"], 2),
    (["certify", "--k", "2", "--source", "bogus"], 2),
    (["certify", "--k", "3", "--source", "file:/does/not/exist.g6"], 2),
    (["certify", "--k", "2", "Bw", "--source", "-"], 2),
    (["solve", "--family", "e2"], 2),
    (["solve", "B", "--family", "e2"], 3),
    (["extremal", "--family", "e3", "--n-min", "63", "--n-max", "65"], 2),
    (["sweep", "--family", "e2", "--n-max", "3", "--budget", "-1"], 2),
    (["solve", "Bw", "--family", "e2", "--budget", "-1"], 2),
    (["solve", "Bw", "--family", "e2", "--csv", "/does/not/exist/rows.csv"], 2),
    (["extremal", "--family", "k:4"], 2),
    (["sweep", "--family", "k:x"], 2),
    (["solve", "Bw", "--family", "e2", "--json", "{new}", "--csv", "{new}"], 2),
    (["solve", "--family", "e2", "--source", "file:{src}", "--json", "{src}"], 2),
    (["sweep", "--family", "e2", "--source", "file:{src}", "--csv", "{src}"], 2),
], ids=["builtin-cap", "unknown-source", "missing-file", "solve-missing-file",
        "certify-unknown-source", "certify-missing-file", "certify-both-inputs",
        "solve-no-input", "solve-malformed-line", "extremal-past-64",
        "sweep-negative-budget", "solve-negative-budget", "unwritable-csv",
        "extremal-unbounded-family", "sweep-k-not-integer", "one-path-both-reports",
        "solve-report-is-source", "sweep-report-is-source"])
def test_source_error_keeps_existing_reports(argv, code, tmp_path, capsys):
    # the input and every report path are checked before any report is
    # opened for writing; a --json or --csv in argv replaces the one given
    # here, {src} names a graph6 source file and {new} a path not yet made
    reports = [tmp_path / "rows.json", tmp_path / "rows.csv"]
    for path in reports:
        path.write_text("keep")
    source = tmp_path / "in.g6"
    source.write_text("Bw\nCF\n")
    before = sorted(tmp_path.iterdir())
    argv = [arg.format(src=source, new=tmp_path / "new.out") for arg in argv]
    got, out, err = run(argv[:1] + ["--json", str(reports[0]), "--csv", str(reports[1])]
                        + argv[1:], capsys)
    error = "usage error:" if code == 2 else "parse error:"
    assert got == code and out == "" and err.startswith(error)
    assert [path.read_text() for path in reports] == ["keep", "keep"]
    assert source.read_text() == "Bw\nCF\n" and sorted(tmp_path.iterdir()) == before


def test_unwritable_report_creates_no_other(tmp_path, capsys):
    # the JSON path is tried first; when the CSV path then fails, the JSON
    # file that the try created is removed again
    jpath = tmp_path / "new.jsonl"
    code, out, err = run(["solve", "Bw", "--family", "e2", "--json", str(jpath),
                          "--csv", str(tmp_path / "missing" / "rows.csv")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write")
    assert not jpath.exists()


# ===== ckn ===================================================================


def test_ckn_known_values(tmp_path, capsys):
    jpath = tmp_path / "ckn.json"
    code, out, _ = run(["ckn", "--family", "e2", "--n-min", "2",
                        "--n-max", "6", "--json", str(jpath)], capsys)
    assert code == 0
    assert "c_{2,3} = 1/3" in out
    assert "c_{2,6} = 1/3" in out
    rows = {r["n"]: r for r in map(json.loads, jpath.read_text().splitlines())}
    witness = graph6_decode(rows[3]["witness"])
    assert rows[3]["c"] == "1/3" and witness.n == 3
    assert rows[4]["c"] == "1/4" and rows[2]["c"] == "0/1"
    assert all(r["k"] == 2 for r in rows.values())


def test_ckn_rejects_cycles(capsys):
    code, _, err = run(["ckn", "--family", "cycles"], capsys)
    assert code == 2 and "edge families" in err


def test_ckn_generic_k(capsys):
    code, out, _ = run(["ckn", "--family", "k:4", "--n-min", "3",
                        "--n-max", "4"], capsys)
    assert code == 0 and "c_{4,3} = 0/1" in out


# ===== extremal ==============================================================


def test_extremal_rows_hold(tmp_path, capsys):
    for family, names in [
        ("e1", [f"B({n},K2)" for n in range(3, 16)]),
        ("e2", [f"B'({n},P3)" for n in range(5, 16)]
         + ["B'(7r,C6) r=1", "B'(7r,C6) r=2"]),
        ("e3", [f"B({n},K3)" for n in range(4, 16)]),
        ("cycles", [f"B({n},K3)" for n in range(4, 16)]),
    ]:
        jpath = tmp_path / f"{family}.json"
        code, out, _ = run(["extremal", "--family", family, "--n-max", "15",
                            "--json", str(jpath)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert [line[:16].rstrip() for line in lines] == names
        assert all(line.endswith("  ok") for line in lines)
        rows = [json.loads(line) for line in jpath.read_text().splitlines()]
        assert [row["construction"] for row in rows] == names
        assert all(list(row) == ["construction", "n", "expected", "iota", "equal"]
                   and row["equal"] for row in rows)


def test_extremal_detects_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "exact_iota", lambda g, fam, budget=None: None)
    code, out, _ = run(["extremal", "--family", "e1", "--n-min", "3",
                        "--n-max", "5"], capsys)
    assert code == 1
    assert "MISMATCH" in out and "> cap" in out


def test_extremal_takes_no_budget(capsys):
    # extremal caps the solver at each row's expected value, which decides
    # equality exactly; a lower cap could only fail rows that hold
    with pytest.raises(SystemExit) as exc:
        cli.main(["extremal", "--family", "e2", "--budget", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


def test_extremal_rejects_k_family(capsys):
    code, _, err = run(["extremal", "--family", "k:2"], capsys)
    assert code == 2


# ===== emit ==================================================================


def test_emit_b_construction(capsys):
    code, out, _ = run(["emit", "b", "--n", "9", "--f", "K2"], capsys)
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 9


def test_emit_builtin(capsys):
    code, out, _ = run(["emit", "builtin", "--n-min", "1", "--n-max", "4"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 1 + 2 + 6
    assert all(graph6_decode(line).n <= 4 for line in lines)


def test_emit_builtin_range_cap(capsys):
    # emit takes no --source, so the message does not point to one
    code, out, err = run(["emit", "builtin", "--n-max", "12"], capsys)
    assert code == 2 and out == ""
    assert "builtin enumeration stops at n = 9" in err and "--source" not in err


def test_emit_missing_args(capsys):
    code, _, err = run(["emit", "b", "--n", "9"], capsys)
    assert code == 2 and "--f" in err


def test_emit_bad_params(capsys):
    code, _, err = run(["emit", "bp-c6", "--r", "0"], capsys)
    assert code == 2
    code, _, err = run(["emit", "b", "--n", "5", "--f", "K0"], capsys)
    assert code == 2 and "the copied graph needs at least one vertex" in err


@pytest.mark.parametrize("argv, label", [
    (["b", "--n", "12", "--f", "K3"], "KkeYADBG@?cB"),
    (["b", "--n", "13", "--f", "C6P"], "LsaCCE@_K?oP__"),
    (["b", "--n", "15", "--f", "C6PP"], "NsaCCA?_K?o@_B_GoC?"),
    (["bp-c6", "--r", "4"],
     "[h_GGC@AI??@?@??_?G?PG????G??G??C??@??AG_?????@???@????_???G???P"),
    (["bp-p3", "--n", "11"], "JiOCGC?OG?_"),
], ids=["b-K3", "b-C6P", "b-C6PP", "bp-c6", "bp-p3"])
def test_emit_bp_p3(argv, label, capsys):
    # the vertex labels of each construction, and so its graph6 line, are fixed
    code, out, _ = run(["emit"] + argv, capsys)
    assert code == 0 and out == label + "\n"


@pytest.mark.parametrize("argv, option", [
    (["emit", "bp-p3"], "--n"),
    (["emit", "bp-c6"], "--r"),
    (["sweep", "--family", "e1", "--jobs", "x"], "--jobs"),
], ids=["bp-p3-without-n", "bp-c6-without-r", "jobs-not-integer"])
def test_missing_or_malformed_option(argv, option, capsys):
    # a usage error of the command or of argparse: exit 2, naming the option
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and option in err


# ===== solve =================================================================


def test_solve_exception_graph(tmp_path, capsys):
    jpath = tmp_path / "solve.json"
    code, out, _ = run(["solve", "Bw", "--family", "e2",
                        "--json", str(jpath)], capsys)
    assert code == 0
    assert "iota_e2 = 1" in out and "exception K3" in out
    row = json.loads(jpath.read_text())
    assert row["iota"] == 1 and row["exception"] == "K3"
    assert row["tight"] is False and len(row["witness"]) == 1


def test_solve_cycles_family(capsys):
    c7 = graph6_encode(named_graph("C7"))
    code, out, _ = run(["solve", c7, "--family", "cycles"], capsys)
    assert code == 0 and "iota_cycles = 1" in out


def _solve_row(argv, tmp_path, capsys):
    jpath = tmp_path / "solve.json"
    code, _, _ = run(["solve", *argv, "--json", str(jpath)], capsys)
    assert code == 0
    return json.loads(jpath.read_text())


def test_solve_disconnected_has_no_bound(tmp_path, capsys):
    # the bounds speak about connected graphs only, and no exception graph
    # is disconnected
    g6 = graph6_encode(Graph(4, [(0, 1), (1, 2)]))  # P3 plus an isolated vertex
    row = _solve_row([g6, "--family", "e2"], tmp_path, capsys)
    assert row["bound"] is None and row["exception"] is None
    assert row["tight"] is False
    assert row["iota"] == 1 and len(row["witness"]) == 1


def test_solve_unbounded_family(tmp_path, capsys):
    c8 = graph6_encode(named_graph("C8"))
    row = _solve_row([c8, "--family", "k:4"], tmp_path, capsys)
    assert row["bound"] is None and row["exception"] is None
    assert row["tight"] is False and row["iota"] == 2


def test_solve_tight_row(tmp_path, capsys):
    c8 = graph6_encode(named_graph("C8"))
    row = _solve_row([c8, "--family", "e3"], tmp_path, capsys)
    assert row["iota"] == row["bound"] == 2 and row["exception"] is None
    assert row["tight"] is True and len(row["witness"]) == 2


def test_solve_budget_skip(capsys):
    code, out, _ = run(["solve", "Bw", "--family", "e2", "--budget", "0"],
                       capsys)
    assert code == 0 and "skipped (budget)" in out


def test_solve_source_conflict(capsys):
    code, _, err = run(["solve", "Bw", "--family", "e2", "--source", "-"],
                       capsys)
    assert code == 2 and "not both" in err


def test_solve_needs_input(capsys):
    code, _, err = run(["solve", "--family", "e2"], capsys)
    assert code == 2


def test_solve_malformed_graph6(capsys):
    code, _, err = run(["solve", "B", "--family", "e2"], capsys)
    assert code == 3 and "parse error" in err


# ===== certify ===============================================================


def test_certify_produces_certificate(tmp_path, capsys):
    jpath = tmp_path / "cert.json"
    c8 = graph6_encode(named_graph("C8"))
    code, out, _ = run(["certify", c8, "--k", "3", "--json", str(jpath)],
                       capsys)
    assert code == 0
    assert "trace:" in out and "bound: 2" in out
    row = json.loads(jpath.read_text())
    assert row["cert_size"] == len(row["certificate"]) <= row["bound"] == 2
    assert "case=" in row["case_trace"]


def test_certify_refuses_exception(capsys):
    c7 = graph6_encode(named_graph("C7"))
    code, out, err = run(["certify", c7, "--k", "3"], capsys)
    assert code == 1
    assert "certify refused" in err and "7-cycle exception" in err


def test_exception_names_match_certified_bounds():
    # certify refuses exactly the exceptions of the E_2 and E_3 bounds, and
    # names each one through this table; a missing key would crash a refusal
    assert set(cli.EXCEPTION_NAMES) == (set(THEOREMS["k2"].exceptions)
                                        | set(THEOREMS["k3"].exceptions))


def test_certify_refuses_disconnected(capsys):
    g6 = graph6_encode(Graph(4, [(0, 1), (2, 3)]))
    code, _, err = run(["certify", g6, "--k", "2"], capsys)
    assert code == 2 and "disconnected" in err


def test_unwritable_report_closes_the_other(tmp_path, monkeypatch, capsys):
    # the JSON report opens first; when the CSV path cannot be opened the
    # JSON file is closed again and the command ends in a usage error
    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", tracked_open, raising=False)
    jpath = tmp_path / "rows.jsonl"
    code, out, err = run(["certify", "Bg", "--k", "2", "--json", str(jpath),
                          "--csv", str(tmp_path / "missing" / "rows.csv")],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write")
    assert [f.name for f in opened] == [str(jpath)] and opened[0].closed


def test_certify_stream_mixes_refusals(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(graph6_encode(named_graph("C8")) + "\n"
                    + graph6_encode(named_graph("C7")) + "\n")
    code, out, err = run(["certify", "--k", "3",
                          "--source", f"file:{path}"], capsys)
    assert code == 1  # one refusal poisons the exit code
    assert "trace:" in out and "7-cycle exception" in err


def test_solve_certify_take_no_size_range(capsys):
    # solve and certify read every graph they are given, so a size range
    # would be ignored; extremal builds its own graphs, so a source would
    # be; the parser refuses such options instead
    c8 = graph6_encode(named_graph("C8"))
    for argv in (["certify", c8, "--k", "2", "--n-max", "5"],
                 ["solve", c8, "--family", "e2", "--n-min", "9"],
                 ["extremal", "--family", "e2", "--source", "-"],
                 ["extremal", "--family", "e2", "--strict-parse"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_trace_hooks_exist():
    # perfbench's tracer wraps these functions by name; a renamed one would
    # only show as an AttributeError in a traced benchmark run
    for module, name in tracing.LAYERS:
        fn = getattr(importlib.import_module(f"isolation_lab.{module}"), name, None)
        assert callable(fn), (module, name)
    assert tracing.GRAPH_ENTRY <= {f"{m}.{name}" for m, name in tracing.LAYERS}
    # the tracer times each resume of these, and starts a new graph on each
    # resume of _input_graphs
    assert inspect.isgeneratorfunction(cli.iter_source)
    assert inspect.isgeneratorfunction(cli._input_graphs)


def test_traced_benchmark_counts_every_layer(tmp_path):
    # the tracer rebinds each layer's name in every package module, so a
    # layer reached through a reference bound at import (a dict of
    # functions, say) would silently read 0 calls in the benchmark's
    # per-layer metrics; a small traced run of the three workloads' commands
    # must count a call of each layer
    solve_in, certify_in = tmp_path / "solve.g6", tmp_path / "certify.g6"
    graphgen.write(str(solve_in), graphgen.solve_large(1)[:3])
    graphgen.write(str(certify_in), graphgen.certify_stream(1, 0)[:5])
    argvs = [["sweep", "--family", "e2", "--n-max", "5"],
             ["solve", "--family", "e2", "--source", f"file:{solve_in}"],
             ["certify", "--k", "2", "--source", f"file:{certify_in}"],
             ["certify", "--k", "3", "--source", f"file:{certify_in}"]]
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    report = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "tracing.py"), "--trace", "1",
         "--stdout", str(tmp_path / "stdout.txt"), "--spans", str(tmp_path / "spans.jsonl"),
         "--report", str(report), "--", *map(json.dumps, argvs)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(report.read_text())
    assert got["exit_codes"] == [0] * len(argvs)
    for layer in ("families.exact_iota", "families.is_isolating", "bounds.classify_exception",
                  "prover.isolate_k2", "prover.isolate_k3", "graphs.graph6_decode",
                  "graphs.graph6_encode"):
        assert got["metrics"][f"{layer}.calls"][0] > 0, layer


# Standard-library modules that only some commands use: records are
# NamedTuples, the pool starts only with --jobs > 1, the CSV writer only
# with --csv, and Fraction only in ckn.
UNUSED_AT_START = {"dataclasses", "inspect", "multiprocessing", "csv", "fractions"}


def _loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv", [None, ["solve", "--family", "e2", "Bw"],
                                  ["certify", "--k", "2", "Bw"]],
                         ids=["import", "solve", "certify"])
def test_cli_loads_only_the_stdlib_it_uses(argv):
    # each CLI process starts a fresh interpreter, so every module it
    # imports and does not use is start-up time spent for nothing
    code = "import isolation_lab.cli as cli"
    if argv is not None:
        code += f"\ncli.main({argv!r})"
    loaded = _loaded_after(code)
    assert (UNUSED_AT_START & loaded) - _loaded_after("pass") == set()
    # the tracer rebinds its layer functions only in modules already loaded
    assert {f"isolation_lab.{module}" for module, _ in tracing.LAYERS} <= loaded


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep"])  # --family is required
    assert exc.value.code == 2
