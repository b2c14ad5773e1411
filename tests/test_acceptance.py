"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with the measured value and its tolerance.  Run with `pytest -s` to see
the lines as they complete."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc.capdac import build_cap_array
from saradc.cli import main as cli_main
from saradc.engine import convert_waveform, ideal_quantizer_code, noise_budget
from textbook import conventional_energy, conversion_energy, monotonic_energy_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def frozen_cfg():
    return sa.reference_defaults()


@pytest.fixture(scope="module")
def tone_runs(frozen_cfg):
    """Mean SNDR of the frozen config at the two standard tone bins,
    averaged over 64 independent seeds (64-point records)."""
    out = {}
    t0 = time.perf_counter()
    for b in (3, 31):
        vals = []
        for s in range(64):
            tone = sa.gen_coherent_tone(64, b, 0.75, frozen_cfg.v_cm, frozen_cfg.f_s)
            res = convert_waveform(tone.v_diff, frozen_cfg, seed=s)
            m = sa.metrics(sa.spectrum(res.codes, 10), b, 1.0, frozen_cfg.f_s)
            vals.append(m.sndr)
        out[b] = float(np.mean(vals))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_ideal_quantizer_oracle():
    cfg = sa.ideal_config(sa.reference_defaults())
    d = sa.derived_constants(cfg)
    t0 = time.perf_counter()
    n = 4096
    v = (np.arange(n) + 0.5) / n * d.v_fs_net - d.v_fs_net / 2
    codes = convert_waveform(v, cfg, seed=0).codes
    oracle = np.array([ideal_quantizer_code(x, cfg) for x in v])
    elapsed = time.perf_counter() - t0
    deviations = int(np.sum(codes != oracle))
    missing = 1024 - np.unique(codes).size
    monotone = bool(np.all(np.diff(codes) >= 0))
    ok = deviations == 0 and missing == 0 and monotone and elapsed < 5.0
    _report(1, ok, f"exhaustive ramp: {deviations} deviations, {missing} missing "
                   f"codes, monotone={monotone}, {elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_02_quantization_limit_sndr():
    cfg = sa.ideal_config(sa.reference_defaults())
    d = sa.derived_constants(cfg)
    t0 = time.perf_counter()
    tone = sa.gen_coherent_tone(4096, 101, d.v_fs_net / 2, cfg.v_cm, cfg.f_s)
    res = convert_waveform(tone.v_diff, cfg, seed=0)
    m = sa.metrics(sa.spectrum(res.codes, 10), 101, 1.0, cfg.f_s)
    elapsed = time.perf_counter() - t0
    ok = abs(m.sndr - 61.96) < 0.5 and elapsed < 5.0
    _report(2, ok, f"ideal-mode SNDR = {m.sndr:.2f} dB vs 61.96 +/- 0.5, "
                   f"{elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_03_low_frequency_sndr(tone_runs):
    mean3 = tone_runs[3]
    ok = abs(mean3 - 56.4) < 2.0 and tone_runs["elapsed"] < 30.0
    _report(3, ok, f"bin-3 mean SNDR over 64 seeds = {mean3:.2f} dB vs "
                   f"56.4 +/- 2.0, {tone_runs['elapsed']:.1f} s (< 30 s)")
    assert ok


def test_criterion_04_noise_budget_self_consistency(frozen_cfg, tone_runs):
    nb = noise_budget(frozen_cfg, 56.4, 0.75 ** 2 / 2)
    gap = abs(tone_runs[3] - nb.predicted_sndr)
    ok = gap < 1.0
    _report(4, ok, f"simulated {tone_runs[3]:.2f} dB vs budget "
                   f"{nb.predicted_sndr:.2f} dB, gap {gap:.2f} dB (< 1 dB)")
    assert ok


def test_criterion_05_nyquist_degradation(tone_runs):
    mean31, mean3 = tone_runs[31], tone_runs[3]
    ok = mean31 <= mean3 and abs(mean31 - 55.2) < 2.0
    _report(5, ok, f"bin-31 mean SNDR = {mean31:.2f} dB vs 55.2 +/- 2.0, "
                   f"degradation {mean3 - mean31:.2f} dB (must be >= 0)")
    assert ok


def test_criterion_06_enob_identity(frozen_cfg):
    p = np.zeros(33)
    p[3] = 1.0
    p[7] = 10 ** (-55.2 / 10)
    m = sa.metrics(p, 3, 860e-6, frozen_cfg.f_s)
    exact = m.enob == (m.sndr - 1.76) / 6.02
    value = (55.2 - 1.76) / 6.02
    ok = exact and abs(value - 8.88) < 0.005
    _report(6, ok, f"ENOB identity exact; 55.2 dB -> {value:.3f} bits (8.88)")
    assert ok


def test_criterion_07_net_full_scale(frozen_cfg):
    half = sa.derived_constants(frozen_cfg).v_fs_net / 2
    err = abs(half - 0.785) / 0.785
    ok = abs(half - 0.7879) < 5e-4 and err < 0.005
    _report(7, ok, f"half range = {half * 1e3:.1f} mV (787.9 mV), "
                   f"{err * 100:.2f} % from 785 mV (< 0.5 %)")
    assert ok


def test_criterion_08_metastability_monte_carlo(frozen_cfg):
    t0 = time.perf_counter()
    res = sa.metastability_mc(frozen_cfg, 10 ** 6, 1e-3, seed=11)
    elapsed = time.perf_counter() - t0
    sigma = math.sqrt(1e-3 * (1 - 1e-3) / 10 ** 6)
    ok = abs(res["rate"] - 1e-3) < 3 * sigma and elapsed < 10.0
    _report(8, ok, f"rate = {res['rate']:.3e} vs 1e-3 +/- {3 * sigma:.1e} "
                   f"(3 sigma), {elapsed:.2f} s (< 10 s)")
    assert ok


def test_criterion_09_timing_budget(frozen_cfg):
    b = sa.build_budget(frozen_cfg)
    boost = b.boost
    ok = b.f_s_max >= 130e6 and b.margin > 0 and boost > 0 \
        and abs(boost - 0.30) < 0.15
    _report(9, ok, f"f_s_max = {b.f_s_max / 1e6:.1f} MHz (>= 130), margin "
                   f"{b.margin * 1e12:.0f} ps, async boost {boost:.3f} "
                   f"(0.30 +/- 0.15)")
    assert ok


def test_criterion_10_dac_energy_properties(frozen_cfg):
    t0 = time.perf_counter()
    ideal = sa.ideal_config(frozen_cfg)
    arr = build_cap_array(ideal, np.random.default_rng(0))
    u = ideal.c_dac / 1024 * ideal.v_ref ** 2
    e_mono = conversion_energy(arr)
    oracle_exact = True
    for code in range(1024):
        decisions = [1 if (code >> (9 - k)) & 1 else -1 for k in range(10)]
        if not math.isclose(e_mono[code], monotonic_energy_oracle(decisions, arr),
                            rel_tol=1e-12):
            oracle_exact = False
    # the far side converts the complementary code 1023 - code
    e_conv = conventional_energy(10)
    cheaper = bool(np.all(e_mono < (e_conv + e_conv[::-1]) * u))
    trade = sa.compare_topologies(frozen_cfg, np.random.default_rng(5))
    saving_ok = abs(trade.energy_saving - 0.375) < 0.05
    elapsed = time.perf_counter() - t0
    ok = cheaper and oracle_exact and saving_ok and elapsed < 30.0
    _report(10, ok, f"monotonic<conventional all 1024 codes: {cheaper}; oracle "
                    f"exact: {oracle_exact}; split saving "
                    f"{trade.energy_saving * 100:.1f} % (37.5 +/- 5 pp); "
                    f"{elapsed:.1f} s (< 30 s)")
    assert ok


def test_criterion_11_power_bookkeeping(frozen_cfg):
    tone = sa.gen_coherent_tone(4096, 189, 0.75, frozen_cfg.v_cm, frozen_cfg.f_s)
    rep = sa.power_report(convert_waveform(tone.v_diff, frozen_cfg, seed=0))
    sums_exact = math.isclose(sum(rep.blocks.values()), rep.total, rel_tol=1e-12)
    in_window = abs(rep.total - 860e-6) / 860e-6 < 0.15
    ok = sums_exact and in_window
    _report(11, ok, f"blocks sum exactly: {sums_exact}; total = "
                    f"{rep.total * 1e6:.1f} uW vs 860 +/- 15 %")
    assert ok


def test_criterion_12_determinism(tmp_path):
    a, b = tmp_path / "run1", tmp_path / "run2"
    cli_main(["simulate", "--n", "64", "--bin", "3", "--seed", "42", "--out", str(a)])
    cli_main(["simulate", "--n", "64", "--bin", "3", "--seed", "42", "--out", str(b)])
    names = ("spectrum.csv", "metrics.json", "codes.csv")
    same = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    _report(12, same, "spectrum.csv, metrics.json, codes.csv byte-identical "
                      "for two runs at a fixed seed")
    assert same
