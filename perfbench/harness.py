"""Layered benchmark for saradc: set-up, timed ops, traced ops and gates.

Run it through ``run.py``, which pins the BLAS thread variables first.
See ``README.md`` in this directory for the metrics and workloads.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from speed import REFERENCE_S, SpeedMonitor
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("tone_long", "record_batch", "design_study")
SETUP_SAMPLES = 5      # this process plus four children
BURST_PROBES = 5       # speed probes before and after each measured stretch
CHILD_TIMEOUT_S = 120
MODULES = ("cli", "config", "engine", "track_hold", "comparator", "capdac",
           "timing", "analysis")
LAYERS = (
    "cli.main",
    "config.load_config",
    "engine.convert_waveform",
    "engine.measure_distortion_power",
    "track_hold.sample",
    "comparator.decide",
    "capdac.switch_bit",
    "capdac.ron_schedule",
    "capdac.build_cap_array",
    "capdac.compare_topologies",
    "capdac.conversion_energy",
    "capdac.conventional_energy",
    "capdac.splitcap_energy",
    "capdac.inl_from_steps",
    "timing.metastability_mc",
    "timing.build_budget",
    "analysis.gen_coherent_tone",
    "analysis.spectrum",
    "analysis.metrics",
)

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program() -> SimpleNamespace:
    """Import saradc from this checkout's src/, never from elsewhere."""
    if not (SRC / "saradc" / "__init__.py").is_file():
        raise BenchError(f"no saradc package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"saradc.{m}") for m in MODULES}
    except ImportError as err:
        raise BenchError(f"cannot import saradc: {err}") from err
    origin = Path(sys.modules["saradc"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"saradc imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(name, seed, outdir, tracer=None):
    """Import, config load, input generation and warm-up; returns the workload."""
    prog = import_program()
    if tracer is not None:
        tracer.install()
    try:
        wl = WORKLOADS[name](prog, outdir, seed)
        wl.prepare()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl


def scaled_set_up(monitor, args, outdir):
    """set_up between two probe bursts; returns (workload, scaled seconds)."""
    monitor.burst(BURST_PROBES)
    t0 = clock()
    wl = set_up(args.workload, args.seed, outdir)
    t1 = clock()
    monitor.burst(BURST_PROBES)
    return wl, monitor.scaled(t0, t1)


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve().with_name("run.py")),
           "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-child"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Runner:
    """Runs ops, times each alone, and keeps each op's checked result."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer = None      # set to tag the spans of each op with its index
        self.results = {}       # execution index -> OpResult of a checked op
        self.failed = set()     # execution indices of ops that raised
        self.spans = []         # (start, end) per op, execution order
        self.errors = 0
        self.tails = []

    def _report(self, what):
        self.errors += 1
        if self.errors <= 3:
            print(f"perfbench: {self.wl.name} {what} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def op(self, k: int) -> None:
        i = len(self.spans)
        if self.tracer is not None:
            self.tracer.op = k
        t0 = clock()
        try:
            raw = self.wl.op(k)
        except (Exception, SystemExit):
            self.spans.append((t0, clock()))
            self._report(f"op {k}")
            self.failed.add(i)
        else:
            self.spans.append((t0, clock()))
            try:
                self.results[i] = self.wl.check(k, raw)
            except Exception:
                self._report(f"check of op {k}")
                self.failed.add(i)

    def tail(self) -> float:
        if self.tracer is not None:
            self.tracer.op = self.wl.trace_ops
        t0 = clock()
        try:
            self.tails.append(self.wl.tail())
        except Exception:
            self._report("tail call")
            self.tails.append(None)
        return clock() - t0

    def timed(self, seconds: float) -> None:
        """Whole rounds of ops until `seconds` have passed."""
        start, k = clock(), 0
        while k == 0 or clock() - start < seconds:
            for _ in range(self.wl.round_ops):
                self.op(k)
                k += 1

    def fixed_pass(self) -> None:
        """The workload's fixed op set plus its tail."""
        for k in range(self.wl.trace_ops):
            self.op(k)
        self.tail()


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated within the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> dict:
    cores = os.cpu_count()
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "threads": "single process, BLAS threads pinned to 1",
        "note": f"{cores}-core machine; single-threaded runs support no "
                f"parallel-scaling claim",
    }


def ratio_hook(acc):
    def hook(res):
        acc["samples"] += res.n_samples
        acc["metastable_bits"] += res.n_metastable_bits
        acc["violations"] += res.n_violations
    return hook


def main(argv=None) -> int:
    args = parse_args(argv)

    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_child:
            _, setup = scaled_set_up(SpeedMonitor(), args, outdir)
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            return traced_run(args, outdir)
        return timed_run(args, outdir)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def timed_run(args, outdir) -> int:
    monitor = SpeedMonitor()
    wl, first = scaled_set_up(monitor, args, outdir)
    setups = [first] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    run = Runner(wl)
    monitor.burst(BURST_PROBES)
    monitor.start()
    try:
        run.timed(args.seconds)
    finally:
        monitor.stop()
    monitor.burst(BURST_PROBES)
    tail_s = run.tail()
    gates = wl.finish(run.results, run.tails)

    ms = [monitor.scaled(t0, t1) * 1e3 for t0, t1 in run.spans]
    raw_ms = [(t1 - t0) * 1e3 for t0, t1 in run.spans]
    work = sum(r.work for r in run.results.values() if r.ok)
    metrics = {
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "work_per_s": {"value": work / (sum(ms) / 1e3), "unit": "1/s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    extra = {"ops": len(ms), "work_per_op": f"{work / len(ms):g} {wl.work_unit}",
             "host_slowdown_p10_p50_p90": [
                 percentile(monitor.readings, q) / REFERENCE_S for q in (10, 50, 90)],
             "op_ms_p90": percentile(ms, 90),
             "unscaled": {"op_ms_p50": statistics.median(raw_ms),
                          "op_ms_p90": percentile(raw_ms, 90),
                          "work_per_s": work / (sum(raw_ms) / 1e3)},
             "setup_samples_s": setups, "tail_s": tail_s}
    return emit(args, wl, run, gates, metrics, extra)


def traced_run(args, outdir) -> int:
    acc = {"samples": 0, "metastable_bits": 0, "violations": 0}
    monitor = SpeedMonitor()
    tracer = Tracer(LAYERS, hooks={"engine.convert_waveform": ratio_hook(acc)},
                    clock=monitor.probe_free_clock)
    wl = set_up(args.workload, args.seed, outdir, tracer)
    run = Runner(wl)

    def measured_pass():
        monitor.burst(BURST_PROBES)
        monitor.start()
        t0 = clock()
        try:
            run.fixed_pass()
        finally:
            monitor.stop()
        return t0, clock()

    passes = [measured_pass()]
    for key in acc:
        acc[key] = 0
    run.tracer = tracer
    tracer.install()
    try:
        passes.append(measured_pass())
    finally:
        tracer.uninstall()
    monitor.burst(BURST_PROBES)
    gates = wl.finish(run.results, run.tails)

    t0, t1 = passes[1]
    traced_s = t1 - t0 - sum(c for s, c in zip(monitor.starts, monitor.costs) if t0 <= s < t1)
    slots = acc["samples"] * wl.cfg.bits
    metrics = {}
    for layer, s in tracer.summary().items():
        metrics[f"{layer}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{layer}.self_ms"] = {"value": s["self_ms"], "unit": "ms"}
        metrics[f"{layer}.total_ms"] = {"value": s["total_ms"], "unit": "ms"}
    metrics.update({
        "comparator.metastable_ratio": {
            "value": acc["metastable_bits"] / slots if slots else 0.0, "unit": "ratio"},
        "comparator.decision_slots": {"value": slots, "unit": "count"},
        "engine.violation_ratio": {
            "value": acc["violations"] / acc["samples"] if acc["samples"] else 0.0,
            "unit": "ratio"},
        "engine.samples": {"value": acc["samples"], "unit": "count"},
        "trace.overhead_s": {
            "value": monitor.scaled(*passes[1]) - monitor.scaled(*passes[0]), "unit": "s"},
        "trace.wall_s": {"value": traced_s, "unit": "s"},
    })
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.write_spans(spans)
    extra = {"ops_per_pass": wl.trace_ops, "spans": str(spans),
             "self_share": {k: v["self_ms"] / 1e3 / traced_s
                            for k, v in tracer.summary().items() if v["calls"]}}
    return emit(args, wl, run, gates, metrics, extra)


def emit(args, wl, run, gates, metrics, extra) -> int:
    failed_ops = ({i for i, r in run.results.items() if not r.ok}
                  | run.failed | gates.failed_ops)
    attempted = len(run.spans) + gates.attempted
    failed = len(failed_ops) + gates.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts(), "stats": gates.stats,
            **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0
