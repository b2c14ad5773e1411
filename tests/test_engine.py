import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import saradc as sa
from saradc import engine
from saradc.capdac import conversion_energy
from saradc.comparator import comparator_power
from saradc.config import _SCHEMA, ConfigError, validate
from saradc.engine import (_Preseeded, _stream_states, convert_waveform, ideal_quantizer_code,
                           measure_distortion_power, noise_budget, power_report)


def test_ideal_ramp_subset_matches_oracle(ideal_cfg):
    # grid points sit an eighth of an LSB away from every decision threshold
    d = sa.derived_constants(ideal_cfg)
    n = 4096
    v = ((np.arange(n) + 0.5) / n * d.v_fs_net - d.v_fs_net / 2)[::57]
    res = convert_waveform(v, ideal_cfg, seed=0)
    assert res.codes.tolist() == [ideal_quantizer_code(vv, ideal_cfg) for vv in v]
    assert not res.violation.any()


def test_positive_full_scale_saturates(ideal_cfg):
    d = sa.derived_constants(ideal_cfg)
    assert convert_waveform([d.v_fs_net / 2], ideal_cfg).codes[0] == 1023


def test_zero_input_flags_metastable(ideal_cfg):
    res = convert_waveform([0.0], ideal_cfg)
    assert res.metastable[0] == 1 and res.n_metastable_bits == 1
    assert res.violation[0] and res.n_violations == 1
    assert res.codes[0] == 512       # mid-scale completion from the first bit


def test_out_of_rail_input_rejected(ideal_cfg):
    v = 2.0 * (ideal_cfg.v_dd - ideal_cfg.v_cm) + 0.2
    with pytest.raises(ValueError, match="sample 1 leaves"):
        convert_waveform([0.1, v], ideal_cfg)


def test_code_reproduces_decisions(ref_cfg, comparator_calls):
    res = convert_waveform([0.2], ref_cfg, seed=3)
    assert res.metastable[0] == 0 and len(comparator_calls) == ref_cfg.bits
    code = 0
    for _, bit in comparator_calls:
        code = (code << 1) | (bit > 0)
    assert code == res.codes[0]


def test_energy_conservation_identity(ref_cfg):
    # without a violation every code pays one table event per switched bit,
    # and every bit fires the comparator and the logic once
    tone = sa.gen_coherent_tone(256, 19, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    res = convert_waveform(tone.v_diff, ref_cfg, seed=4)
    assert res.n_violations == 0
    ladder = sa.build_cap_array(ref_cfg, np.random.default_rng(np.random.SeedSequence((4, 1))))
    e_dac = float(np.sum(conversion_energy(ladder)[res.codes]))
    assert math.isclose(res.e_blocks["dac"], e_dac, rel_tol=1e-12)
    # the simulated comparator power is the analytic model at bits * f_s
    p_comp = comparator_power(ref_cfg.bits * ref_cfg.f_s, ref_cfg.c_pq, ref_cfg.c_xy,
                              ref_cfg.v_dd)
    assert math.isclose(power_report(res).blocks["comparator"], p_comp, rel_tol=1e-12)
    slots = res.n_samples * ref_cfg.bits
    assert math.isclose(res.e_blocks["logic"], slots * ref_cfg.e_logic, rel_tol=1e-12)


def test_window_accounting(ref_cfg):
    res = convert_waveform([0.31, -0.02, 0.6], ref_cfg, seed=1)
    assert not res.violation.any()
    assert np.all(res.t_total <= 1.0 / ref_cfg.f_s + 1e-18)
    # at least the fixed overheads: tracking, logic delay per bit, t_fix per switch
    floor = ref_cfg.t_track + ref_cfg.bits * ref_cfg.t_delay + (ref_cfg.bits - 1) * ref_cfg.t_fix
    assert np.all(res.t_total >= floor)


def test_starved_schedule_flags_violation(ref_cfg):
    # window smaller than the fixed overheads: conversion must give up
    cfg = replace(ref_cfg, f_s=500e6, t_track=1.5e-9)
    res = convert_waveform([2e-4], cfg)
    assert res.violation[0]
    assert res.t_total[0] <= 1.0 / cfg.f_s


def test_waveform_determinism_across_workers(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    a = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    b = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.t_total, b.t_total)
    assert a.e_blocks == b.e_blocks


def test_stream_states_match_seed_sequence():
    # the bulk hash gives exactly the words SeedSequence((seed, 0, k)) hands
    # PCG64, for one- and two-word indices and for seeds of up to three words
    draw = np.random.default_rng(12)
    ks = [0, 1, 2, 2**32 - 1, 2**32, 2**40,
          *draw.integers(0, 2**32, 100).tolist(),
          *draw.integers(2**32, 2**64, 100, dtype=np.uint64).tolist()]
    for seed in (0, 1, 42, 2**32, 2**32 + 3, 2**64 + 5):
        rows = _stream_states(seed, np.array(ks, dtype=np.uint64))
        for k, row in zip(ks, rows):
            ref = np.random.SeedSequence((seed, 0, k))
            assert row.tolist() == ref.generate_state(4, np.uint64).tolist()
            assert (np.random.Generator(np.random.PCG64(_Preseeded(row))).bit_generator.state
                    == np.random.default_rng(ref).bit_generator.state)


def test_sample_streams_continue_across_blocks(monkeypatch):
    monkeypatch.setattr(engine, "_STREAM_BLOCK", 3)
    streams = list(engine._sample_streams(7, 8))
    assert [g.bit_generator.state for g in streams] == [
        np.random.default_rng(np.random.SeedSequence((7, 0, k))).bit_generator.state
        for k in range(8)]


def test_negative_seed_rejected(ref_cfg):
    with pytest.raises(ValueError):
        _stream_states(-1, np.arange(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        convert_waveform([0.1], ref_cfg, seed=-1)


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
    res = convert_waveform(tone.v_diff, ref_cfg, seed=2)
    assert res.n_samples == 128
    assert list(res.e_blocks) == ["comparator", "dac", "logic", "track_hold"]
    assert math.isclose(res.e_blocks["track_hold"], 128 * ref_cfg.e_track, rel_tol=1e-12)
    total = sum(res.e_blocks.values())
    assert math.isclose(power_report(res).total, total / 128 * ref_cfg.f_s, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# noise budget

def test_budget_terms_hand_values(ref_cfg):
    nb = noise_budget(ref_cfg, 56.4, 0.75 ** 2 / 2, seeds=4)
    assert math.isclose(math.sqrt(nb.quantization), 444.3e-6, rel_tol=1e-3)
    # 2kT over the sampled capacitance c_dac + c_p
    assert math.isclose(math.sqrt(nb.sampling), 79.2e-6, rel_tol=1e-3)
    assert nb.comparator == 312e-6 ** 2
    rss = math.sqrt(nb.comparator + nb.sampling + nb.quantization)
    assert math.isclose(rss, 548e-6, rel_tol=2e-3)


def test_budget_sampling_term_is_the_sampler_noise(ref_cfg):
    # the sampler puts kT/(c_dac + c_p) on each side; a parasitic as large
    # as the array makes the difference a factor of two
    cfg = validate(replace(ref_cfg, c_p=ref_cfg.c_dac))
    nb = noise_budget(cfg, 50.0, 0.3 ** 2 / 2, seeds=1)
    assert nb.sampling == 2 * sa.ktc_sigma(cfg) ** 2


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


def test_budget_rejects_signal_outside_full_scale(ref_cfg):
    # a tone that clips would book the clipping as front-end distortion
    half = sa.derived_constants(ref_cfg).v_fs_net / 2
    small = validate(replace(ref_cfg, c_p=ref_cfg.c_dac))
    for cfg, power in [(ref_cfg, 0.0), (ref_cfg, -0.1), (ref_cfg, math.nan),
                       (ref_cfg, (half * 1.001) ** 2 / 2), (small, 0.75 ** 2 / 2)]:
        with pytest.raises(ValueError, match="signal_power"):
            noise_budget(cfg, 56.4, power, seeds=1)


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
    fast = validate(replace(ref_cfg, f_s=2 * ref_cfg.f_s, t_track=ref_cfg.t_track / 2,
                            t_fix=75e-12, t_phic_low=75e-12, t_delay=50e-12))
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


# ---------------------------------------------------------------------------
# properties over schema-bounded configs

_KEYS = [f.name for f in fields(sa.AdcConfig)]
# keys the ideal converter keeps: static quantities, plus the nonidealities
# ideal_config zeroes; timing stays at the reference operating point
_IDEAL_KEYS = ["bits", "v_dd", "v_ref", "v_cm", "c_unit", "c_dac", "c_p", "sigma_u",
               "sigma_n_comp", "ron_alpha", "ron_beta", "v_pedestal", "t_kelvin"]


def _in_bounds(key):
    kind, _, lo, hi, _ = _SCHEMA[key]
    if key == "bits":
        return st.integers(lo, min(hi, 12))   # keeps the per-unit mismatch draw small
    if kind is str:
        return st.sampled_from(["binary", "split"])
    if kind is tuple:
        return st.one_of(st.just("auto"), st.lists(st.floats(lo, hi), min_size=9, max_size=9))
    return st.floats(lo, hi)


def _configs(keys):
    """Reference config with up to four keys at in-bounds values, loaded."""
    changes = st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True).flatmap(
        lambda ks: st.fixed_dictionaries({k: _in_bounds(k) for k in ks}))
    return changes.map(lambda c: json.dumps({**asdict(sa.reference_defaults()), **c}))


def _load(doc):
    try:
        return sa.load_config(doc)
    except ConfigError:
        assume(False)


_FRACTIONS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(doc=_configs(_KEYS), fractions=_FRACTIONS, seed=st.integers(0, 2 ** 32))
def test_engine_invariants_hold_for_any_config(doc, fractions, seed):
    cfg = _load(doc)
    d = sa.derived_constants(cfg)
    v = np.array(fractions) * d.v_fs_net / 2
    try:
        res = convert_waveform(v, cfg, seed=seed)
    except ConfigError as err:      # an on-resistance polynomial that turns negative
        assert "nonphysical" in str(err)
        assume(False)
    assert np.all((res.codes >= 0) & (res.codes < 2 ** cfg.bits))
    assert np.all(res.metastable <= cfg.bits) and np.all(res.t_total > 0)
    for topology in ("binary", "split"):
        ladder = sa.build_cap_array(replace(cfg, topology=topology), np.random.default_rng(seed))
        assert np.all(ladder.e_event >= 0)
    rep = power_report(res)
    assert all(p >= 0 for p in rep.blocks.values())
    assert rep.total == sum(rep.blocks.values())
    assert math.isclose(rep.total, sum(res.e_blocks.values()) / res.n_samples * cfg.f_s,
                        rel_tol=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(doc=_configs(_IDEAL_KEYS), offsets=st.lists(st.floats(0.125, 0.875), min_size=1,
                                                   max_size=8), data=st.data())
def test_ideal_mode_matches_quantizer_for_any_config(doc, offsets, data):
    # inputs sit at least an eighth of an LSB away from every threshold
    cfg = replace(sa.ideal_config(_load(doc)), topology="binary")
    d = sa.derived_constants(cfg)
    half = 2 ** (cfg.bits - 1)
    steps = data.draw(st.lists(st.integers(-half, half - 1), min_size=len(offsets),
                               max_size=len(offsets)))
    v = (np.array(steps) + np.array(offsets)) * d.delta
    res = convert_waveform(v, cfg)
    clean = res.metastable == 0
    oracle = np.array([ideal_quantizer_code(x, cfg) for x in v])
    assert np.array_equal(res.codes[clean], oracle[clean])
