"""Smoke test of the benchmark's workloads, in-process.

Each workload runs as the benchmark's traced pass runs it (set-up with its
warm-up op, the fixed op set with every op's band checked, one tail call
and the run-level gates) at workload seed 1, without the speed monitor or
the tracer.  An exception anywhere, also outside the benchmark's per-op
guard, fails the test here rather than ending a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_MODULES = ("cli", "config", "engine", "track_hold", "comparator", "capdac", "timing",
            "analysis")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["tone_long", "record_batch", "design_study"])
def test_workload_passes_its_gates(name, tmp_path):
    prog = SimpleNamespace(**{m: importlib.import_module(f"saradc.{m}") for m in _MODULES})
    wl = _workloads().WORKLOADS[name](prog, tmp_path, 1)
    wl.prepare()
    results = {k: wl.check(k, wl.op(k)) for k in range(wl.trace_ops)}
    gates = wl.finish(results, [wl.tail()])
    assert [k for k, r in results.items() if not r.ok] == []
    assert gates.failed == 0
    assert not gates.failed_ops
