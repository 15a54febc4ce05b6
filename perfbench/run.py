"""Benchmark of the isolation-lab CLI, end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sweep-n8``: ``sweep --family e2 --source builtin --n-max 8 --jobs 2``,
  all 12,113 classes; enumeration does most of the work, serially.
* ``solve-large``: ``solve --family e2`` over a file of 60 sparse random
  connected graphs with n = 30..42, in seeded order; the exact solver does
  the work.
* ``certify-stream``: ``certify --k 2`` then ``--k 3`` over seeded files of
  2,000 random connected graphs with n = 16..64; the provers and the graph6
  codec do the work.

The load is closed: one CLI process at a time, at most two workers.  With
``--trace 0`` the run repeats the workload's CLI calls in subprocesses until
``--seconds`` have passed and reports medians over the repeats.  A repeat of
``certify-stream`` reads the next seeded chunk of its stream, so a run
covers several chunks.
With ``--trace 1`` it makes one untraced and one traced in-process run of
the first chunk (``perfbench/tracing.py``; the sweep at ``--jobs 1`` so no
span is lost in a worker) and reports the per-layer metrics.  Every output
row is checked by ``perfbench/checker.py``, which does not use the package.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (input graphs checked and failing)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checker
import graphgen

# A run that has not finished by then is cut short and reported as failed.
DEADLINE_S = 170.0

# setup_s: one cold start is an interpreter start, ``import
# isolation_lab.cli`` and ``build_parser()`` in a fresh process.  A single
# sample swings by half its size with the host's load, so every run takes
# SETUP_BURSTS x SETUP_SAMPLES cold starts and reports their median.  The
# bursts are spread between the workload's repeats so that one busy moment
# of the host cannot shift every sample.  One unmeasured start beforehand
# writes the bytecode caches, which every later user call finds in place.
SETUP_BURSTS = 4
SETUP_SAMPLES = 6
SETUP_CODE = "import isolation_lab.cli as c; c.build_parser()"

SWEEP_GRAPHS = sum(checker.CONNECTED_COUNTS.values())


@dataclass
class Proc:
    """A finished child process: its exit code and its own resource use,
    including that of the children it reaped (the sweep's workers)."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Iteration:
    """One repeat of a workload: CLI calls made one after another."""

    calls: list[list[str]]
    graphs: int  # input graphs, the base of graphs_per_s
    check: Callable[[list[int]], tuple[int, int]]  # exit codes -> (attempted, failed)


class Runner:
    """One benchmark run of one workload, with its scratch directory."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join("perfbench", ".work",
                                 f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.env.pop("ISOLATION_LAB_JOBS", None)
        self.checked: dict[str, int] = {}  # sweep output digest -> failed rows
        self.reference = None  # independent iota of the solve-large graphs
        self.sweep_jobs = 2

    def spawn(self, argv: list[str], stdout: str) -> Proc:
        """Run one child to completion; kill it if the run's deadline passes."""
        with open(stdout, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)

    def cli(self, args: list[str], stdout: str) -> Proc:
        code = "import sys; from isolation_lab.cli import main; sys.exit(main())"
        return self.spawn([sys.executable, "-c", code, *args], stdout)

    def cold_start(self) -> float:
        return self.spawn([sys.executable, "-c", SETUP_CODE],
                          os.path.join(self.work, "setup.out")).wall_s

    # --- workloads ------------------------------------------------------

    def iteration(self, chunk: int) -> Iteration:
        return {"sweep-n8": self._sweep, "solve-large": self._solve,
                "certify-stream": self._certify}[self.workload](chunk)

    def _out(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _sweep(self, chunk: int) -> Iteration:
        out = self._out(f"sweep-{chunk}.jsonl")
        argv = ["sweep", "--family", "e2", "--source", "builtin",
                "--n-max", "8", "--jobs", str(self.sweep_jobs), "--json", out]

        def check(codes: list[int]) -> tuple[int, int]:
            if codes != [0]:
                return SWEEP_GRAPHS, SWEEP_GRAPHS
            with open(out, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            if digest not in self.checked:
                self.checked[digest] = checker.check_sweep_e2(
                    checker.rows(out), 8)
            return SWEEP_GRAPHS, self.checked[digest]

        return Iteration([argv], SWEEP_GRAPHS, check)

    def _write(self, name: str, graphs: list[tuple[int, ...]]) -> tuple[list[str], str]:
        path = self._out(name)
        return graphgen.write(path, graphs), path

    def _solve(self, chunk: int) -> Iteration:
        graphs = graphgen.solve_large(self.seed)
        lines, path = self._write("input.g6", graphs)
        out = self._out(f"solve-{chunk}.jsonl")
        argv = ["solve", "--family", "e2", "--source", f"file:{path}",
                "--json", out]

        def check(codes: list[int]) -> tuple[int, int]:
            if codes != [0]:
                return len(lines), len(lines)
            if self.reference is None:
                self.reference = [checker.iota_e2(adj) for adj in graphs]
            return len(lines), checker.check_solve(lines, checker.rows(out),
                                                   self.reference)

        return Iteration([argv], len(lines), check)

    def _certify(self, chunk: int) -> Iteration:
        lines, path = self._write(f"input-{chunk}.g6",
                                  graphgen.certify_stream(self.seed, chunk))
        outs = [self._out(f"certify-{chunk}-k{k}.jsonl") for k in (2, 3)]
        calls = [["certify", "--k", str(k), "--source", f"file:{path}",
                  "--json", out] for k, out in zip((2, 3), outs)]

        def check(codes: list[int]) -> tuple[int, int]:
            failed = 0
            for k, code, out in zip((2, 3), codes, outs):
                failed += (len(lines) if code != 0 else
                           checker.check_certify(lines, checker.rows(out), k))
            return 2 * len(lines), failed

        return Iteration(calls, len(lines), check)

    # --- the two kinds of run --------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, int, int]:
        self.cold_start()
        setup: list[float] = []
        wall, cpu, rss, rate = [], [], [], []
        checks = []
        start = time.monotonic()
        chunk = 0
        while chunk == 0 or time.monotonic() - start < seconds:
            if chunk < SETUP_BURSTS - 1:
                setup += [self.cold_start() for _ in range(SETUP_SAMPLES)]
            it = self.iteration(chunk)
            procs = [self.cli(argv, self._out(f"stdout-{chunk}-{i}"))
                     for i, argv in enumerate(it.calls)]
            wall.append(sum(p.wall_s for p in procs))
            cpu.append(sum(p.cpu_s for p in procs))
            rss.append(max(p.rss_mb for p in procs))
            rate.append(it.graphs / wall[-1])
            checks.append((it, [p.code for p in procs]))
            chunk += 1
        while len(setup) < SETUP_BURSTS * SETUP_SAMPLES:
            setup += [self.cold_start() for _ in range(SETUP_SAMPLES)]
        attempted = failed = 0
        for it, codes in checks:
            a, f = it.check(codes)
            attempted += a
            failed += f
        med = statistics.median
        metrics = {
            "wall_s": (med(wall), "s"),
            "graphs_per_s": (med(rate), "1/s"),
            "cpu_s": (med(cpu), "s"),
            "peak_rss_mb": (med(rss), "MB"),
            "setup_s": (med(setup), "s"),
        }
        print(f"{self.workload}: medians of {len(wall)} repeats; "
              f"wall_s per repeat: {' '.join(f'{w:.3f}' for w in wall)}")
        print(f"setup_s: median of {len(setup)} cold starts")
        return metrics, attempted, failed

    def traced(self) -> tuple[dict, int, int]:
        self.sweep_jobs = 1  # every span stays in the traced process
        it = self.iteration(0)
        walls = {}
        for trace in (0, 1):
            report = self._out(f"trace{trace}.json")
            argv = [sys.executable, os.path.join("perfbench", "tracing.py"),
                    "--trace", str(trace),
                    "--stdout", self._out(f"trace{trace}.stdout"),
                    "--spans", os.path.join("perfbench", ".work",
                                            f"spans-{self.workload}.jsonl"),
                    "--report", report, "--",
                    *(json.dumps(c) for c in it.calls)]
            proc = self.spawn(argv, self._out(f"trace{trace}.log"))
            if proc.code != 0:
                return {}, it.graphs, it.graphs
            with open(report, encoding="ascii") as f:
                got = json.load(f)
            walls[trace] = got["wall_s"]
        attempted, failed = it.check(got["exit_codes"])
        metrics = {name: tuple(pair) for name, pair in got["metrics"].items()}
        metrics["trace.overhead_frac"] = (walls[1] / walls[0] - 1, "ratio")
        return metrics, attempted, failed

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="isolation-lab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep-n8", "solve-large", "certify-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "isolation_lab", "cli.py")):
        print("run from the root of an isolation-lab checkout "
              "(src/isolation_lab/cli.py not found)", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics, attempted, failed = runner.traced()
        else:
            metrics, attempted, failed = runner.measure(args.seconds)
    finally:
        runner.close()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} input graphs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
