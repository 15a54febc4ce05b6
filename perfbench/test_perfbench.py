"""Tests of the benchmark's own parts: inputs, checks and span arithmetic.

They import nothing from the package, except where a test compares the
benchmark's graph6 writer against the package codec.
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import graphgen  # noqa: E402
import tracing  # noqa: E402

# C6 plus a pendant vertex 6 on vertex 0: iota_2 = 2, and it is an exception
C6P = (0b1100010, 0b101, 0b1010, 0b10100, 0b101000, 0b10001, 0b1)
# path 0-1-2-3-4-5-6: iota_2 = 1 ({3} leaves 0-1 and 5-6)
P7 = (0b10, 0b101, 0b1010, 0b10100, 0b101000, 0b1010000, 0b100000)


def test_generator_is_deterministic_per_seed():
    a = graphgen.certify_stream(7)
    assert a == graphgen.certify_stream(7)
    assert a != graphgen.certify_stream(8)
    assert a != graphgen.certify_stream(7, chunk=1)
    b = graphgen.solve_large(7)
    assert b == graphgen.solve_large(7)
    assert b != graphgen.solve_large(8)
    assert sorted(b) == sorted(graphgen.solve_large(8))


def test_generator_makes_connected_graphs_in_range(tmp_path):
    sizes, _, count = graphgen.SOLVE_LARGE
    graphs = graphgen.solve_large(3)
    assert len(graphs) == count
    for adj in graphs:
        assert len(adj) in sizes
        reach = seen = 1
        while reach:
            grow = 0
            for v in checker.bits(reach):
                grow |= adj[v]
            reach = grow & ~seen
            seen |= reach
        assert seen == (1 << len(adj)) - 1
    path = tmp_path / "in.g6"
    lines = graphgen.write(str(path), graphs)
    assert path.read_text().split() == lines
    assert [checker.decode(line) for line in lines] == graphs


def test_graph6_writer_handles_the_long_header():
    adj = graphgen.random_connected(random.Random(1), 64, 0.1)
    line = graphgen.graph6(adj)
    assert line.startswith("~")
    assert checker.decode(line) == adj


def test_graph6_writer_matches_the_package_codec():
    from isolation_lab.graphs import graph6_decode, graph6_encode

    for adj in graphgen.certify_stream(1)[:200]:
        line = graphgen.graph6(adj)
        assert graph6_decode(line).adj == adj
        assert graph6_encode(graph6_decode(line)) == line


def test_independent_iota():
    assert checker.iota_e2(P7) == 1
    assert checker.iota_e2(C6P) == 2
    assert checker.iota_e2((0,)) == 0
    assert checker.iota_e2((0b10, 0b1)) == 0


def _certify_row(adj, cert, k=2):
    return {"graph6": graphgen.graph6(adj), "n": len(adj),
            "leaves": checker.leaves(adj), "bound": checker.bound(adj, k),
            "cert_size": len(cert), "certificate": cert}


def test_checker_flags_a_corrupted_certificate():
    lines = [graphgen.graph6(P7)]
    good = _certify_row(P7, [3])
    assert checker.check_certify(lines, [good], 2) == 0
    not_isolating = _certify_row(P7, [0])  # leaves the path 2-3-4-5-6
    assert checker.check_certify(lines, [not_isolating], 2) == 1
    wrong_size = dict(good, cert_size=0)
    assert checker.check_certify(lines, [wrong_size], 2) == 1
    over_bound = _certify_row(P7, [1, 3, 5])  # bound is (28 - 2) // 14 = 1
    assert checker.check_certify(lines, [over_bound], 2) == 1
    missing = [graphgen.graph6(C6P)] + lines
    assert checker.check_certify(missing, [good], 2) == 2


def _solve_row(adj, iota, witness):
    return {"graph6": graphgen.graph6(adj), "n": len(adj),
            "leaves": checker.leaves(adj), "bound": checker.bound(adj, 2),
            "iota": iota, "witness": witness}


def test_checker_flags_a_non_isolating_witness_and_a_wrong_iota():
    lines = [graphgen.graph6(P7)]
    assert checker.check_solve(lines, [_solve_row(P7, 1, [3])], [1]) == 0
    assert checker.check_solve(lines, [_solve_row(P7, 1, [1])], [1]) == 1
    assert checker.check_solve(lines, [_solve_row(P7, 2, [1, 5])], [1]) == 1
    assert checker.check_solve(lines, [_solve_row(P7, 1, [3])], [2]) == 1
    assert checker.check_solve(lines, [], [1]) == 1


def test_checker_flags_a_sweep_with_a_wrong_row():
    row = _solve_row(C6P, 2, None)
    del row["witness"]
    row["exception"] = None
    row["cert_size"] = 2  # C6P breaks the bound, so it must be an exception
    assert checker.check_sweep_e2([row], 7) > 0
    fixed = dict(row, exception="C6P")
    del fixed["cert_size"]
    missing = sum(checker.CONNECTED_COUNTS[n] for n in range(1, 8)) - 1
    assert checker.check_sweep_e2([fixed], 7) == missing


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 with children 1..4 and 3..6 (overlapping) and 8..9;
    # the child 1..4 has its own child 2..3
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 9.0]
    parents = [-1, 0, 1, 0, 0]
    got = tracing.self_times(starts, ends, parents)
    assert got == [10 - 6, 3 - 1, 1, 3, 1]
