"""The benchmark's workloads, run in-process as its traced pass runs them.

``perfbench/workloads.py`` is loaded from this checkout by its path, since
``perfbench`` is not a package, and handed saradc's modules as the
benchmark's harness hands them.  It imports nothing of saradc until a pass
runs, so a profiler installed first sees the package's import too.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
MODULES = ("cli", "config", "engine", "track_hold", "comparator", "capdac", "timing",
           "analysis")
NAMES = ("tone_long", "record_batch", "design_study")


def workloads():
    """``perfbench/workloads.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pass(name, outdir, ops=None):
    """One pass of workload ``name`` at workload seed 1: set-up with its
    warm-up op, ``ops`` ops (by default the workload's traced op count),
    each with its band checked, one tail call and the run-level gates.
    Returns (results, gates)."""
    prog = SimpleNamespace(**{m: importlib.import_module(f"saradc.{m}") for m in MODULES})
    wl = workloads().WORKLOADS[name](prog, Path(outdir), 1)
    wl.prepare()
    results = {k: wl.check(k, wl.op(k)) for k in range(wl.trace_ops if ops is None else ops)}
    return results, wl.finish(results, [wl.tail()])
