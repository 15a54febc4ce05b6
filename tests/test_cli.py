"""Command-line harness: exit codes, row schemas, and parallel determinism.

Everything runs in-process through ``cli.main`` so monkeypatching can reach
the module globals (the serial jobs=1 path calls workers directly).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from isolation_lab import cli
from isolation_lab.bounds import THEOREMS, check_bound
from isolation_lab.graphs import Graph, graph6_decode, graph6_encode, named_graph


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
    def lying_check(g, theorem, budget=None):
        return dataclasses.replace(check_bound(g, theorem, budget=budget),
                                   violated=True)

    monkeypatch.setattr(cli, "check_bound", lying_check)
    code, out, _ = run(["sweep", "--family", "e1", "--n-min", "4",
                        "--n-max", "4"], capsys)
    assert code == 1
    assert "VIOLATION" in out


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
    # one pool per command, never more processes than cores; the stand-in
    # pool maps in this process, so the test starts no process at all
    started = []

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, tasks, chunksize=1):
            return map(worker, tasks)

    monkeypatch.setattr(cli.multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out, _ = run([command, "--family", "e2", "--n-max", "5",
                        "--jobs", "100000"], capsys)
    assert code == 0 and started == [2]
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


def test_extremal_rows_hold(capsys):
    code, out, _ = run(["extremal", "--family", "e2", "--n-max", "8"], capsys)
    assert code == 0
    assert "B'(5,P3)" in out and "B'(7r,C6) r=1" in out
    assert "MISMATCH" not in out


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


def test_emit_missing_args(capsys):
    code, _, err = run(["emit", "b", "--n", "9"], capsys)
    assert code == 2 and "--f" in err


def test_emit_bad_params(capsys):
    code, _, err = run(["emit", "bp-c6", "--r", "0"], capsys)
    assert code == 2


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


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep"])  # --family is required
    assert exc.value.code == 2
