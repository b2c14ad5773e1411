"""Smoke test of the benchmark's workloads, in-process.

Each workload runs as the benchmark's traced pass runs it (set-up with its
warm-up op, the fixed op set with every op's band checked, one tail call
and the run-level gates) at workload seed 1, without the speed monitor or
the tracer.  An exception anywhere, also outside the benchmark's per-op
guard, fails the test here rather than ending a benchmark run.
"""

import pytest

from bench_program import NAMES, run_pass


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_gates(name, tmp_path):
    results, gates = run_pass(name, tmp_path)
    assert [k for k, r in results.items() if not r.ok] == []
    assert gates.failed == 0
    assert not gates.failed_ops
