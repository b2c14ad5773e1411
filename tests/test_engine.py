import math
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc.engine import (convert, convert_waveform, ideal_quantizer_code,
                           measure_distortion_power, noise_budget, power_report)


def test_ideal_ramp_subset_matches_oracle(ideal_cfg, ideal_array, rng):
    # grid points sit an eighth of an LSB away from every decision threshold
    d = sa.derived_constants(ideal_cfg)
    n = 4096
    v = (np.arange(n) + 0.5) / n * d.v_fs_net - d.v_fs_net / 2
    for vv in v[::57]:
        rec = convert(ideal_cfg.v_cm + vv / 2, ideal_cfg.v_cm - vv / 2,
                      ideal_cfg, ideal_array, rng)
        assert rec.code == ideal_quantizer_code(vv, ideal_cfg)
        assert not rec.timing_violation


def test_positive_full_scale_saturates(ideal_cfg, ideal_array, rng):
    d = sa.derived_constants(ideal_cfg)
    rec = convert(ideal_cfg.v_cm + d.v_fs_net / 4, ideal_cfg.v_cm - d.v_fs_net / 4,
                  ideal_cfg, ideal_array, rng)
    assert rec.code == 1023


def test_zero_input_flags_metastable(ideal_cfg, ideal_array, rng):
    rec = convert(ideal_cfg.v_cm, ideal_cfg.v_cm, ideal_cfg, ideal_array, rng)
    assert rec.metastable_bits == (1,)
    assert rec.timing_violation
    assert rec.code == 512           # mid-scale completion from the first bit


def test_out_of_rail_input_rejected(ideal_cfg, ideal_array, rng):
    with pytest.raises(ValueError):
        convert(ideal_cfg.v_dd + 0.1, 0.5, ideal_cfg, ideal_array, rng)


def test_code_reproduces_decisions(ref_cfg, rng):
    arr = sa.build_cap_array(ref_cfg, np.random.default_rng(0))
    rec = convert(ref_cfg.v_cm + 0.1, ref_cfg.v_cm - 0.1, ref_cfg, arr, rng)
    if not rec.metastable_bits:
        code = 0
        for dec in rec.decisions:
            code = (code << 1) | (dec.bit > 0)
        assert code == rec.code


def test_energy_conservation_identity(ref_cfg, rng):
    arr = sa.build_cap_array(ref_cfg, np.random.default_rng(0))
    rec = convert(ref_cfg.v_cm + 0.2, ref_cfg.v_cm - 0.2, ref_cfg, arr, rng)
    assert math.isclose(rec.e_dac, sum(rec.dac_energies), rel_tol=1e-12)
    assert math.isclose(rec.e_total,
                        rec.e_comparator + rec.e_dac + rec.e_logic + rec.e_track,
                        rel_tol=1e-15)
    # one comparator firing per executed bit at the dynamic energy law
    e_fire = (2 * ref_cfg.c_pq + ref_cfg.c_xy) * ref_cfg.v_dd ** 2
    assert math.isclose(rec.e_comparator, len(rec.decisions) * e_fire, rel_tol=1e-12)


def test_window_accounting(ref_cfg, rng):
    arr = sa.build_cap_array(ref_cfg, np.random.default_rng(0))
    for v in (0.31, -0.02, 0.6):
        rec = convert(ref_cfg.v_cm + v / 2, ref_cfg.v_cm - v / 2,
                      ref_cfg, arr, rng)
        if not rec.timing_violation:
            assert rec.t_total <= 1.0 / ref_cfg.f_s + 1e-18


def test_starved_schedule_flags_violation(ref_cfg, rng):
    # window smaller than the fixed overheads: conversion must give up
    cfg = replace(ref_cfg, f_s=500e6, t_track=1.5e-9)
    arr = sa.build_cap_array(cfg, np.random.default_rng(0))
    rec = convert(cfg.v_cm + 1e-4, cfg.v_cm - 1e-4, cfg, arr, rng)
    assert rec.timing_violation
    assert rec.t_total <= 1.0 / cfg.f_s


def test_waveform_determinism_across_workers(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    a = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    b = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    assert np.array_equal(a.codes, b.codes)
    assert a.e_blocks == b.e_blocks


def test_waveform_seed_changes_results(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    a = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    b = convert_waveform(tone.v_diff, ref_cfg, seed=6)
    assert not np.array_equal(a.codes, b.codes)


def test_constant_midscale_input(ideal_cfg):
    d = sa.derived_constants(ideal_cfg)
    res = convert_waveform(np.full(32, d.delta / 2), ideal_cfg, seed=0)
    assert np.all(res.codes == 512)


def test_empty_waveform_rejected(ref_cfg):
    with pytest.raises(ValueError):
        convert_waveform([], ref_cfg)


def test_waveform_energy_bookkeeping(ref_cfg):
    tone = sa.gen_coherent_tone(128, 11, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    res = convert_waveform(tone.v_diff, ref_cfg, seed=2, keep_records=True)
    total = sum(r.e_total for r in res.records)
    assert math.isclose(res.e_total, total, rel_tol=1e-12)
    assert math.isclose(res.mean_power, total / 128 * ref_cfg.f_s, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# noise budget

def test_budget_terms_hand_values(ref_cfg):
    nb = noise_budget(ref_cfg, 56.4, 0.75 ** 2 / 2, seeds=4)
    assert math.isclose(math.sqrt(nb.quantization), 444.3e-6, rel_tol=1e-3)
    assert math.isclose(math.sqrt(nb.sampling), 79.8e-6, rel_tol=1e-3)
    assert nb.comparator == 312e-6 ** 2
    rss = math.sqrt(nb.comparator + nb.sampling + nb.quantization)
    assert math.isclose(rss, 548e-6, rel_tol=2e-3)


def test_budget_zeroed_noise_is_quantization_limit(ideal_cfg):
    nb = noise_budget(ideal_cfg, 40.0, 0.75 ** 2 / 2, seeds=2)
    assert nb.comparator == 0.0 and nb.sampling == 0.0
    assert nb.distortion < 0.05 * nb.quantization
    d = sa.derived_constants(ideal_cfg)
    bound = 10 * math.log10((d.v_fs_net / 2) ** 2 / 2 / (d.delta ** 2 / 12))
    assert math.isclose(bound, 6.02 * 10 + 1.76, abs_tol=0.02)


def test_budget_slack_sign(ref_cfg):
    lo = noise_budget(ref_cfg, 40.0, 0.75 ** 2 / 2, seeds=4)
    assert lo.slack > 0
    hi = noise_budget(ref_cfg, 70.0, 0.75 ** 2 / 2, seeds=4)
    assert hi.slack < 0   # reported, not fatal


def test_budget_rejects_bad_target(ref_cfg):
    with pytest.raises(ValueError):
        noise_budget(ref_cfg, -3.0, 0.1)


def test_distortion_power_grows_with_curvature(ref_cfg):
    flat = replace(ref_cfg, ron_beta=0.0, sigma_u=0.0, n_settle=30.0)
    bent = replace(ref_cfg, ron_beta=0.9, sigma_u=0.0, n_settle=30.0)
    p0 = measure_distortion_power(flat, 0.75, n=256, tone_bin=19, seeds=1)
    p1 = measure_distortion_power(bent, 0.75, n=256, tone_bin=19, seeds=1)
    assert p1 > 4 * p0


# ---------------------------------------------------------------------------
# power report

def test_power_blocks_sum_exactly(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    rep = power_report(convert_waveform(tone.v_diff, ref_cfg, seed=0))
    assert math.isclose(sum(rep.blocks.values()), rep.total, rel_tol=1e-15)
    assert abs(sum(rep.fractions.values()) - 1.0) < 1e-9


def test_power_scales_linearly_with_rate(ref_cfg):
    # doubling the rate doubles every dynamic block (ideal scaling: the
    # schedule must still close, so tracking is shortened with the period)
    tone = sa.gen_coherent_tone(128, 11, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    fast = replace(ref_cfg, f_s=2 * ref_cfg.f_s, t_track=ref_cfg.t_track / 2,
                   t_fix=75e-12, t_delay=50e-12)
    a = power_report(convert_waveform(tone.v_diff, ref_cfg, seed=1))
    b = power_report(convert_waveform(tone.v_diff, fast, seed=1))
    for k in a.blocks:
        assert math.isclose(b.blocks[k], 2 * a.blocks[k], rel_tol=1e-6)


def test_power_csv_layout(ref_cfg):
    tone = sa.gen_coherent_tone(64, 3, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    rep = power_report(convert_waveform(tone.v_diff, ref_cfg, seed=0))
    lines = rep.to_csv().splitlines()
    assert lines[0] == "block,power_W,fraction"
    assert lines[-1].startswith("total,")
