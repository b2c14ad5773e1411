"""The benchmark's three workloads and their correctness gates.

Each workload drives saradc only through module attributes
(``prog.cli.main``, ``prog.engine.convert_waveform``...), so the tracer's
wraps see every call.  A workload has

* ``prepare()``: config load, input generation and a small warm-up op;
  the harness times it as part of set-up;
* ``op(k)``: the k-th timed op, its simulation seed derived from the
  workload seed and k alone;
* ``check(k, raw)``: the op's own band, evaluated untimed;
* ``tail()``: one call per pass, timed apart from the ops
  (record_batch's noise budget);
* ``finish(results, tails)``: run-level gates and the simulated statistics
  recorded beside the timings.

The bands are the acceptance suite's.  Only interfaces that a batch engine
and a precomputed ladder keep are used: no worker counts, kept records,
printed-form resistances, scalar latency helpers or sharded Monte Carlo.
"""

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SEED_STRIDE = 2 ** 32   # simulation seed of op k = workload seed * stride + k
AMPLITUDE = 0.75        # differential tone amplitude [V], the CLI default
POWER_TARGET_W = 860e-6
POWER_TOL = 0.15


@dataclass
class OpResult:
    ok: bool
    work: float                     # units of work the op completed
    stats: dict = field(default_factory=dict)


@dataclass
class Gates:
    attempted: int = 0              # extra gate operations beyond the ops
    failed: int = 0                 # of those, how many failed
    failed_ops: set = field(default_factory=set)   # op indices failed by a run-level band
    stats: dict = field(default_factory=dict)


def quiet_cli(prog, argv) -> int:
    """Run one CLI command in-process, its console report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return prog.cli.main(argv)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else math.nan


def in_band(value, centre, tol) -> bool:
    return math.isfinite(value) and abs(value - centre) <= tol


class Workload:
    name = ""
    work_unit = ""
    round_ops = 1      # timed ops run in whole rounds of this many
    trace_ops = 1      # ops in one traced (or untraced reference) pass

    def __init__(self, prog, outdir: Path, seed: int):
        self.prog = prog
        self.out = outdir
        self.base = seed * SEED_STRIDE
        self.cfg = None

    def seed(self, k: int) -> int:
        return self.base + k

    def prepare(self) -> None:
        self.cfg = self.prog.config.reference_defaults()

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, raw) -> OpResult:
        raise NotImplementedError

    def tail(self):
        return None

    def finish(self, results: dict, tails: list) -> Gates:
        return Gates()


class ToneLong(Workload):
    """`saradc simulate` on one long coherent record at bin 189, --check on."""

    name = "tone_long"
    work_unit = "ADC samples"
    N = 4096
    BIN = 189

    def argv(self, command: str, seed: int, out: Path) -> list:
        return [command, "--n", str(self.N), "--bin", str(self.BIN),
                "--amplitude", str(AMPLITUDE), "--seed", str(seed), "--out", str(out)]

    def prepare(self) -> None:
        super().prepare()
        rc = quiet_cli(self.prog, ["simulate", "--n", "64", "--bin", "3", "--check",
                                   "--seed", str(self.seed(0)), "--out", str(self.out / "warm")])
        if rc != 0:
            raise RuntimeError(f"tone_long warm-up exited {rc}")

    def op(self, k: int):
        return quiet_cli(self.prog, self.argv("simulate", self.seed(k), self.out) + ["--check"])

    def check(self, k: int, rc) -> OpResult:
        m = read_json(self.out / "metrics.json")
        sndr = float(m["sndr_dB"])
        power = float(m["mean_power_W"])
        ok = (rc == 0 and math.isfinite(sndr)
              and in_band(power, POWER_TARGET_W, POWER_TOL * POWER_TARGET_W))
        return OpResult(ok, self.N, {"sndr_dB": sndr, "power_W": power,
                                     "metastable_conversions": m["metastable_conversions"],
                                     "timing_violations": m["timing_violations"]})

    def finish(self, results: dict, tails: list) -> Gates:
        g = Gates(attempted=2)
        prog, cfg = self.prog, self.cfg

        # Per-block power of op 0's record: blocks sum exactly to the total,
        # which lies in the band and equals what `simulate` reported.
        pdir = self.out / "power"
        rc = quiet_cli(prog, self.argv("power", self.seed(0), pdir))
        rep = read_json(pdir / "power.json")
        total = float(rep["total_W"])
        ok = (rc == 0
              and math.isclose(sum(rep["blocks_W"].values()), total, rel_tol=1e-12)
              and in_band(total, POWER_TARGET_W, POWER_TOL * POWER_TARGET_W))
        if 0 in results:
            ok = ok and math.isclose(results[0].stats["power_W"], total, rel_tol=1e-12)
        g.failed += not ok
        g.stats["power_total_W"] = total
        g.stats["power_fractions"] = rep["fractions"]

        # Ideal-mode exhaustive ramp against the analytic quantizer.
        ideal = prog.config.ideal_config(cfg)
        d = prog.config.derived_constants(ideal)
        n = 4096
        v = (np.arange(n) + 0.5) / n * d.v_fs_net - d.v_fs_net / 2
        codes = prog.engine.convert_waveform(v, ideal, seed=self.seed(0)).codes
        oracle = np.array([prog.engine.ideal_quantizer_code(x, ideal) for x in v])
        deviations = int(np.sum(codes != oracle))
        g.failed += deviations != 0
        g.stats["ideal_ramp_deviations"] = deviations

        ops = list(results.values())
        samples = max(len(ops) * self.N, 1)
        g.stats["sndr_dB"] = {str(self.BIN): mean(r.stats["sndr_dB"] for r in ops)}
        g.stats["metastable_conversion_ratio"] = {
            "value": sum(r.stats["metastable_conversions"] for r in ops) / samples,
            "base_samples": samples}
        g.stats["violation_ratio"] = {
            "value": sum(r.stats["timing_violations"] for r in ops) / samples,
            "base_samples": samples}
        return g


class RecordBatch(Workload):
    """64-point records over consecutive seeds at bins 3 and 31, plus one
    noise budget per pass: the acceptance suite's tone_runs pattern."""

    name = "record_batch"
    work_unit = "ADC samples"
    N = 64
    BINS = (3, 31)
    TARGETS = {3: 56.4, 31: 55.2}
    round_ops = 2
    trace_ops = 128    # 64 seeds per bin, as in the acceptance suite

    def prepare(self) -> None:
        super().prepare()
        self.op(0)

    def op(self, k: int):
        prog, cfg = self.prog, self.cfg
        tone_bin = self.BINS[k % 2]
        tone = prog.analysis.gen_coherent_tone(self.N, tone_bin, AMPLITUDE, cfg.v_cm, cfg.f_s)
        res = prog.engine.convert_waveform(tone.v_diff, cfg, seed=self.seed(k // 2))
        m = prog.analysis.metrics(prog.analysis.spectrum(res.codes, cfg.bits),
                                  tone_bin, 1.0, cfg.f_s)
        return tone_bin, m.sndr, res

    def check(self, k: int, raw) -> OpResult:
        tone_bin, sndr, res = raw
        return OpResult(math.isfinite(sndr), res.n_samples, {
            "bin": tone_bin, "sndr_dB": sndr, "samples": res.n_samples,
            "metastable_bits": res.n_metastable_bits, "violations": res.n_violations})

    def tail(self):
        return self.prog.engine.noise_budget(self.cfg, self.TARGETS[3], AMPLITUDE ** 2 / 2)

    def finish(self, results: dict, tails: list) -> Gates:
        g = Gates()
        by_bin = {b: [k for k, r in results.items() if r.stats["bin"] == b] for b in self.BINS}
        mean_sndr = {b: mean(results[k].stats["sndr_dB"] for k in ks) for b, ks in by_bin.items()}
        if not in_band(mean_sndr[3], self.TARGETS[3], 2.0):
            g.failed_ops.update(by_bin[3])
        if not (in_band(mean_sndr[31], self.TARGETS[31], 2.0) and mean_sndr[31] <= mean_sndr[3]):
            g.failed_ops.update(by_bin[31])
        g.stats["sndr_dB"] = {str(b): v for b, v in mean_sndr.items()}
        g.stats["records_per_bin"] = len(by_bin[3])

        g.attempted = len(tails)
        gaps = []
        for nb in tails:
            gap = abs(mean_sndr[3] - nb.predicted_sndr) if nb is not None else math.nan
            g.failed += not gap < 1.0
            gaps.append(gap)
        if tails and tails[0] is not None:
            g.stats["budget_predicted_sndr_dB"] = tails[0].predicted_sndr
        g.stats["budget_gap_dB"] = gaps

        ops = list(results.values())
        samples = max(sum(r.stats["samples"] for r in ops), 1)
        slots = samples * self.cfg.bits
        g.stats["metastable_ratio"] = {
            "value": sum(r.stats["metastable_bits"] for r in ops) / slots,
            "base_decision_slots": slots}
        g.stats["violation_ratio"] = {
            "value": sum(r.stats["violations"] for r in ops) / samples,
            "base_samples": samples}
        return g


class DesignStudy(Workload):
    """`dac-compare`, `timing` and `metastability` in-process; one pass of
    the three is one op.  Every pass uses the same seed, so every pass must
    write the same artifacts."""

    name = "design_study"
    work_unit = "study passes"
    TRIALS = 1_000_000
    P_META = 1e-3
    ARTIFACTS = ("dac_compare.json", "timing.json", "metastability.json")

    def prepare(self) -> None:
        super().prepare()
        self.first = None
        rc = quiet_cli(self.prog, ["timing", "--out", str(self.out / "warm")])
        if rc != 0:
            raise RuntimeError(f"design_study warm-up exited {rc}")

    def op(self, k: int):
        seed, out = str(self.seed(0)), str(self.out)
        return (quiet_cli(self.prog, ["dac-compare", "--seed", seed, "--out", out]),
                quiet_cli(self.prog, ["timing", "--out", out]),
                quiet_cli(self.prog, ["metastability", "--pmeta", repr(self.P_META),
                                      "--trials", str(self.TRIALS), "--seed", seed,
                                      "--out", out]))

    def check(self, k: int, rcs) -> OpResult:
        texts = tuple((self.out / name).read_text() for name in self.ARTIFACTS)
        if self.first is None:
            self.first = texts
        dac, tim, meta = (json.loads(t) for t in texts)
        sigma = math.sqrt(self.P_META * (1 - self.P_META) / meta["trials"])
        stats = {"energy_saving": dac["energy_saving_ideal_accounting"],
                 "f_s_max_Hz": tim["f_s_max_Hz"], "async_boost": tim["async_boost"],
                 "metastability_rate": meta["rate"]}
        ok = (all(rc == 0 for rc in rcs)
              and texts == self.first
              and meta["trials"] == self.TRIALS
              and in_band(stats["energy_saving"], 0.375, 0.05)
              and tim["f_s_max_Hz"] >= 130e6
              and in_band(stats["async_boost"], 0.30, 0.15)
              and in_band(stats["metastability_rate"], self.P_META, 3 * sigma))
        return OpResult(ok, 1, stats)

    def finish(self, results: dict, tails: list) -> Gates:
        g = Gates()
        if results:
            g.stats = dict(next(iter(results.values())).stats)
        return g


WORKLOADS = {w.name: w for w in (ToneLong, RecordBatch, DesignStudy)}
