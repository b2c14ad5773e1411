import math
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc.cli import main
from saradc.comparator import decision_latencies
from saradc.timing import (MC_BLOCK, build_budget, max_sampling_rate, metastability_mc,
                           t_hard)


def test_t_hard_reference_point(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    t = t_hard(d.tau_reg, 1.2, 5.0, 1e-7, d.delta)
    assert math.isclose(t, 284.2e-12, rel_tol=1e-3)


def test_t_hard_log_one_limit():
    # the target is trivially met when the log argument reaches one
    delta = 1e-3
    p_edge = 2 * 1.2 / (5.0 * delta)
    with pytest.raises(ValueError):
        t_hard(13e-12, 1.2, 5.0, p_edge, delta)
    t = t_hard(13e-12, 1.2, 5.0, p_edge * (1 - 1e-9), delta)
    assert t < 1e-19


def test_t_hard_halving_rate_adds_tau_ln2(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    t1 = t_hard(d.tau_reg, 1.2, 5.0, 1e-7, d.delta)
    t2 = t_hard(d.tau_reg, 1.2, 5.0, 0.5e-7, d.delta)
    assert math.isclose(t2 - t1, d.tau_reg * math.log(2.0), rel_tol=1e-9)
    assert math.isclose(t2 - t1, 9.01e-12, rel_tol=1e-3)


def test_t_hard_monotonicities(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    base = t_hard(d.tau_reg, 1.2, 5.0, 1e-7, d.delta)
    assert t_hard(2 * d.tau_reg, 1.2, 5.0, 1e-7, d.delta) > base
    assert t_hard(d.tau_reg, 1.2, 5.0, 1e-6, d.delta) < base
    assert t_hard(d.tau_reg, 1.2, 5.0, 1e-7, 2 * d.delta) < base
    assert t_hard(d.tau_reg, 1.2, 10.0, 1e-7, d.delta) < base


def test_max_sampling_rate_reference_budget():
    # 507 + 284.2 + 9*150 + 10*100 + 2000 ps = 5141.2 ps
    f = max_sampling_rate(507e-12, 284.2e-12, 10, 150e-12, 100e-12, 2e-9)
    assert math.isclose(1.0 / f, 5.1412e-9, rel_tol=1e-4)
    assert math.isclose(f, 194.5e6, rel_tol=1e-3)


def test_max_sampling_rate_degenerate_budgets():
    assert math.isclose(max_sampling_rate(0, 0, 10, 0, 0, 1e-8), 1e8, rel_tol=1e-12)
    # a single-bit converter has no fixed-overhead term
    f = max_sampling_rate(1e-9, 1e-9, 1, 123e-12, 1e-9, 1e-9)
    assert math.isclose(1.0 / f, 4e-9, rel_tol=1e-12)


def test_max_rate_decreases_in_every_component():
    args = dict(t_easy=5e-10, t_hard_=3e-10, bits=10, t_fix=1.5e-10,
                t_delay=1e-10, t_track=2e-9)
    base = max_sampling_rate(**args)
    for key in ("t_easy", "t_hard_", "t_fix", "t_delay", "t_track"):
        bumped = dict(args)
        bumped[key] = args[key] * 1.5
        assert max_sampling_rate(**bumped) < base


def test_budget_margin_positive_at_operating_point(ref_cfg):
    b = build_budget(ref_cfg)
    assert b.f_s_max > 130e6
    assert b.margin > 0
    assert not b.timing_violation
    assert b.f_s_max_sync < b.f_s_max


def test_async_boost_vanishes_for_uniform_slots(ref_cfg):
    # with no fixed overhead and every easy comparison given the hard
    # comparison's time, the asynchronous period is the synchronous one
    cfg = replace(ref_cfg, t_fix=0.0)
    d = sa.derived_constants(cfg)
    th = t_hard(d.tau_reg, cfg.v_dd, cfg.a_v, cfg.p_meta, d.delta)
    f = max_sampling_rate((cfg.bits - 1) * th, th, cfg.bits, cfg.t_fix,
                          cfg.t_delay, cfg.t_track)
    f_sync = 1.0 / (cfg.bits * (th + cfg.t_delay) + cfg.t_track)
    assert abs(f / f_sync - 1.0) < 1e-12


def test_metastability_rate_matches_target(ref_cfg):
    for p in (1e-2, 1e-3, 1e-4):
        res = metastability_mc(ref_cfg, 10 ** 6, p, seed=3)
        sigma = math.sqrt(p * (1 - p) / 10 ** 6)
        assert abs(res["rate"] - p) < 3 * sigma


def test_metastability_rate_saturates_at_loose_target(ref_cfg):
    # at a target near one the comparison gets essentially no time
    res = metastability_mc(ref_cfg, 10 ** 5, 0.999, seed=1)
    assert res["rate"] > 0.99


def _one_shot_count(cfg, trials, p_meta, seed):
    """Every trial drawn at once and put through the latency law."""
    d = sa.derived_constants(cfg)
    limit = t_hard(d.tau_reg, cfg.v_dd, cfg.a_v, p_meta, d.delta)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    v = rng.uniform(-d.delta / 2.0, d.delta / 2.0, size=trials)
    t = decision_latencies(np.abs(v), d.tau_reg, cfg.v_dd, cfg.a_v)
    return int(np.sum(t > limit))


def test_metastability_sharding_deterministic(ref_cfg):
    # block-streamed candidates give the count of the one-shot draw, also
    # for partial last blocks, when nearly every trial is a candidate, and
    # at a small target, where the candidate bound is tiny next to one LSB
    cases = [(trials, p) for trials in (10 ** 5 + 7, 3 * MC_BLOCK + 5)
             for p in (1e-2, 0.999)] + [(10 ** 6 + 7, 1e-5)]
    for seed in (9, 2 ** 32):
        for trials, p in cases:
            res = metastability_mc(ref_cfg, trials, p, seed=seed)
            assert res["count"] == _one_shot_count(ref_cfg, trials, p, seed)


@pytest.mark.parametrize("p_meta", [0.0, -1.0, 1.5, math.nan, math.inf])
def test_metastability_target_outside_unit_interval(ref_cfg, tmp_path, p_meta):
    with pytest.raises(ValueError, match="target rate"):
        metastability_mc(ref_cfg, 10 ** 6, p_meta)
    assert main(["metastability", f"--pmeta={p_meta!r}", "--trials", "1000000",
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "metastability.json").exists()


def test_metastability_insufficient_trials(ref_cfg):
    with pytest.raises(ValueError, match="trials"):
        metastability_mc(ref_cfg, 100, 1e-3)
