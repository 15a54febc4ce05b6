"""Run CLI commands in one process, optionally with layer spans.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracing.py --trace 1 --stdout OUT --spans SPANS \\
        --report REPORT -- '["sweep", "--family", "e2", ...]' ...

Each trailing argument is one JSON-encoded argv for ``cli.main``; they run
in order in this process.  With ``--trace 0`` nothing is wrapped and the
report holds only the wall time, which is the baseline for the tracing
overhead.  With ``--trace 1`` the layer entry points listed in ``LAYERS``
are wrapped from outside the package, in every module that binds them, so a
call through ``prover``'s own ``exact_iota`` name is caught as well.  Spans
are kept in memory and written to ``--spans`` at the end, one JSON array per
line: name, start, end, parent index, trace id (the graph being handled) and
the call's size argument (the n of an enumeration level).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import json
import operator
import sys
import time
from array import array

# (module, function) pairs that get a span.  Only layer entry points are
# wrapped: a span on per-bit helpers such as ``graphs.bits`` would cost more
# than the work it measures.
LAYERS = (
    ("cli", "cmd_sweep"), ("cli", "cmd_solve"), ("cli", "cmd_certify"),
    ("cli", "iter_source"), ("cli", "_input_graphs"), ("cli", "_sweep_one"),
    ("enumeration", "connected_graphs"), ("enumeration", "canonical_form"),
    ("enumeration", "read_graph6_stream"),
    ("graphs", "graph6_encode"), ("graphs", "graph6_decode"),
    ("families", "exact_iota"), ("families", "is_isolating"),
    ("bounds", "classify_exception"), ("bounds", "check_bound"),
    ("prover", "isolate_k2"), ("prover", "isolate_k3"),
)
# Where the CLI takes up its next graph, which starts a new trace id: each
# call of the sweep's per-graph step, each resume of solve/certify's input.
GRAPH_ENTRY = {"cli._sweep_one", "cli._input_graphs"}


class Tracer:
    """In-memory spans plus the prover facts read off returned certificates."""

    def __init__(self) -> None:
        # Span fields live in parallel arrays: a list of small lists would
        # be rescanned by every garbage collection and slow the traced run.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.graph_ids: list = []
        self.sizes: list = []
        self.stack: list[int] = []
        self.graph_id = None
        self.graphs = 0
        self.certs: list[tuple[str, int, tuple[str, ...]]] = []
        self.classes = 0

    def _open(self, name: str, size=None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.graph_ids.append(self.graph_id)
        self.sizes.append(size)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def spans(self):
        """(name, start, end, parent, trace id, size) per span."""
        return zip(self.names, self.starts, self.ends, self.parents,
                   self.graph_ids, self.sizes)

    def _next_graph(self) -> None:
        self.graph_id = self.graphs
        self.graphs += 1

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if name in GRAPH_ENTRY:
                        self._next_graph()
                    index = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    yield item
            return generator

        def call(*args, **kwargs):
            if name in GRAPH_ENTRY:
                self._next_graph()
            size = args[0] if name == "enumeration.connected_graphs" else None
            index = self._open(name, size)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "enumeration.connected_graphs":
                self.classes += operator.length_hint(result)
            elif name.startswith("prover.isolate_"):
                self.certs.append((name[-2:], result.d.bit_count(),
                                   tuple(e.case for e in result.trace)))
            return result
        return call

    def install(self) -> None:
        """Rebind every layer function in every package module binding it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "isolation_lab"]
        for mod_name, fn_name in LAYERS:
            original = getattr(importlib.import_module(f"isolation_lab.{mod_name}"),
                               fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in parents]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for start, end, kids in zip(starts, ends, children):
        covered = 0.0
        reach = start
        for lo, hi in sorted((starts[k], ends[k]) for k in kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced process, as (value, unit)."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    levels: dict[int, float] = {}
    for (name, start, end, _, _, size), mine in zip(tracer.spans(), own):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + mine
        durations.setdefault(name, []).append(dur)
        if size is not None:
            levels[size] = levels.get(size, 0.0) + dur
    canon = calls.get("enumeration.canonical_form", 0)
    iota_ms = [1000 * d for d in durations.get("families.exact_iota", [])]
    m = {
        "cli.iter_source.s": (total.get("cli.iter_source", 0.0), "s"),
        "enumeration.level_s.n7": (levels.get(7, 0.0), "s"),
        "enumeration.level_s.n8": (levels.get(8, 0.0), "s"),
        "enumeration.canonical_form.calls": (canon, "count"),
        "enumeration.canonical_form.s":
            (total.get("enumeration.canonical_form", 0.0), "s"),
        "enumeration.kept_ratio":
            (tracer.classes / canon if canon else 0.0, "ratio"),
    }
    for name in ("graphs.graph6_encode", "graphs.graph6_decode",
                 "families.is_isolating", "bounds.classify_exception"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.s"] = (total.get(name, 0.0), "s")
    m.update({
        "families.exact_iota.calls": (calls.get("families.exact_iota", 0), "count"),
        "families.exact_iota.self_s": (self_s.get("families.exact_iota", 0.0), "s"),
        "families.exact_iota.p50_ms": (_percentile(iota_ms, 0.5), "ms"),
        "families.exact_iota.p90_ms": (_percentile(iota_ms, 0.9), "ms"),
        "bounds.check_bound.self_s": (self_s.get("bounds.check_bound", 0.0), "s"),
    })
    for k in ("k2", "k3"):
        name = f"prover.isolate_{k}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        cases = {case for kk, _, trace in tracer.certs if kk == k for case in trace}
        m[f"prover.cases_reached.{k}"] = (len(cases), "count")
    m["prover.trace_entries"] = (sum(len(c[2]) for c in tracer.certs), "count")
    m["prover.cert_size_sum"] = (sum(c[1] for c in tracer.certs), "count")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stdout", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--report", required=True)
    parser.add_argument("commands", nargs="+")
    args = parser.parse_args()
    argvs = [json.loads(c) for c in args.commands]

    from isolation_lab import cli

    tracer = Tracer()
    if args.trace:
        tracer.install()
    codes = []
    with open(args.stdout, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        start = time.perf_counter()
        for argv in argvs:
            codes.append(cli.main(argv))
        wall = time.perf_counter() - start
    report = {"wall_s": wall, "exit_codes": codes}
    if args.trace:
        report["metrics"] = layer_metrics(tracer)
        with open(args.spans, "w", encoding="ascii") as f:
            f.writelines(json.dumps(span, separators=(",", ":")) + "\n"
                         for span in tracer.spans())
    with open(args.report, "w", encoding="ascii") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
