import math
import time
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc import timing
from saradc.cli import main
from saradc.comparator import decision_latencies
from saradc.config import validate
from saradc.timing import MC_BLOCK, _window, build_budget, metastability_mc, t_hard
from reference_engine import decision_latency


def test_t_hard_reference_point(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    t = t_hard(ref_cfg.tau_reg, 1.2, 5.0, 1e-7, d.delta)
    assert math.isclose(t, 284.2e-12, rel_tol=1e-3)


def test_t_hard_log_one_limit():
    # the target is trivially met when the log argument reaches one: a
    # target met at once needs no time, at the edge and past it
    delta = 1e-3
    p_edge = 2 * 1.2 / (5.0 * delta)
    assert t_hard(13e-12, 1.2, 5.0, p_edge, delta) == 0.0
    assert t_hard(13e-12, 1.2, 5.0, 10 * p_edge, delta) == 0.0
    t = t_hard(13e-12, 1.2, 5.0, p_edge * (1 - 1e-9), delta)
    assert 0.0 < t < 1e-19


def test_t_hard_halving_rate_adds_tau_ln2(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    t1 = t_hard(ref_cfg.tau_reg, 1.2, 5.0, 1e-7, d.delta)
    t2 = t_hard(ref_cfg.tau_reg, 1.2, 5.0, 0.5e-7, d.delta)
    assert math.isclose(t2 - t1, ref_cfg.tau_reg * math.log(2.0), rel_tol=1e-9)
    assert math.isclose(t2 - t1, 9.01e-12, rel_tol=1e-3)


def test_t_hard_monotonicities(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    base = t_hard(ref_cfg.tau_reg, 1.2, 5.0, 1e-7, d.delta)
    assert t_hard(2 * ref_cfg.tau_reg, 1.2, 5.0, 1e-7, d.delta) > base
    assert t_hard(ref_cfg.tau_reg, 1.2, 5.0, 1e-6, d.delta) < base
    assert t_hard(ref_cfg.tau_reg, 1.2, 5.0, 1e-7, 2 * d.delta) < base
    assert t_hard(ref_cfg.tau_reg, 1.2, 10.0, 1e-7, d.delta) < base


def test_max_sampling_rate_reference_budget(ref_cfg):
    # 507 + 284.2 + 9*150 + 10*100 + 2000 ps = 5141.2 ps
    f = build_budget(ref_cfg).f_s_max
    assert math.isclose(1.0 / f, 5.1412e-9, rel_tol=1e-4)
    assert math.isclose(f, 194.5e6, rel_tol=1e-3)


def test_max_sampling_rate_degenerate_budgets(ref_cfg):
    # with no per-bit overheads the period is the comparisons and tracking
    b = build_budget(validate(replace(ref_cfg, t_fix=0.0, t_delay=0.0)))
    assert math.isclose(1.0 / b.f_s_max, b.t_easy + b.t_hard + ref_cfg.t_track, rel_tol=1e-12)
    # a target met at once leaves the hardest comparison no time
    cfg = validate(replace(ref_cfg, bits=3, p_meta=0.999, a_v=1e3))
    b = build_budget(cfg)
    assert b.t_hard == 0.0
    assert math.isclose(1.0 / b.f_s_max, b.t_easy + 2 * cfg.t_fix + 3 * cfg.t_delay
                        + cfg.t_track, rel_tol=1e-12)


def test_max_rate_decreases_in_every_component(ref_cfg):
    # t_easy and t_hard grow with tau_reg, t_hard also with a lower rate
    # target or gain
    base = build_budget(ref_cfg).f_s_max
    for key, value in (("tau_reg", 1.5 * ref_cfg.tau_reg), ("p_meta", ref_cfg.p_meta / 1.5),
                       ("a_v", ref_cfg.a_v / 1.5), ("t_fix", 1.5 * ref_cfg.t_fix),
                       ("t_delay", 1.5 * ref_cfg.t_delay), ("t_track", 1.5 * ref_cfg.t_track)):
        assert build_budget(validate(replace(ref_cfg, **{key: value}))).f_s_max < base, key


def test_budget_margin_positive_at_operating_point(ref_cfg):
    b = build_budget(ref_cfg)
    assert b.f_s_max > 130e6
    assert b.margin > 0
    assert not b.timing_violation
    assert b.f_s_max_sync < b.f_s_max


def test_async_boost_vanishes_for_uniform_slots(ref_cfg):
    # with no fixed overhead the synchronous period spends the hard
    # comparison's time on every easy one: the asynchronous period is
    # shorter by exactly what the easy comparisons save, so the boost
    # vanishes when they take the hard comparison's time
    cfg = validate(replace(ref_cfg, t_fix=0.0))
    b = build_budget(cfg)
    saved = (cfg.bits - 1) * b.t_hard - b.t_easy
    assert saved > 0
    assert math.isclose(1.0 / b.f_s_max_sync - 1.0 / b.f_s_max, saved, rel_tol=1e-9)


def test_metastability_rate_matches_target(ref_cfg):
    for p in (1e-2, 1e-3, 1e-4):
        res = metastability_mc(ref_cfg, 10 ** 6, p, seed=3)
        sigma = math.sqrt(p * (1 - p) / 10 ** 6)
        assert abs(res["rate"] - p) < 3 * sigma


def test_metastability_rate_saturates_at_loose_target(ref_cfg):
    # at a target near one the comparison gets essentially no time
    res = metastability_mc(ref_cfg, 10 ** 5, 0.999, seed=1)
    assert res["rate"] > 0.99


def test_metastability_count_is_binomial_per_seed(ref_cfg):
    # the count is Binomial(trials, p) over seeds, also for partial last
    # candidate blocks, when nearly every trial is a candidate, and at a
    # small target, where the candidate window is tiny next to one LSB; one
    # seed gives one count
    seeds = range(300)
    for trials, p in [(10 ** 5 + 7, 1e-2), (3 * MC_BLOCK + 5, 0.999),
                      (10 ** 6 + 7, 1e-5)]:
        counts = np.array([metastability_mc(ref_cfg, trials, p, seed=s)["count"]
                           for s in seeds])
        mean, var = trials * p, trials * p * (1 - p)
        # 4 standard errors of the sample mean and of the sample variance
        assert abs(counts.mean() - mean) < 4 * math.sqrt(var / len(seeds))
        assert abs(counts.var(ddof=1) / var - 1) < 4 * math.sqrt(2 / (len(seeds) - 1))
        assert metastability_mc(ref_cfg, trials, p, seed=2 ** 32)["count"] == \
            metastability_mc(ref_cfg, trials, p, seed=2 ** 32)["count"]


@pytest.mark.parametrize("p_meta", [1 - 1e-7, 0.999, 1e-2, 1e-3, 1e-5, 1e-6, 1e-12])
def test_metastability_window_holds_every_metastable_input(ref_cfg, p_meta):
    # the window edge resolves strictly before the limit under the scalar
    # and the vector law, so no metastable input lies outside the candidates
    limit, bound = _window(ref_cfg, p_meta)
    assert decision_latency(bound, ref_cfg.tau_reg, ref_cfg.v_dd, ref_cfg.a_v) < limit
    assert decision_latencies(np.array([bound]), ref_cfg.tau_reg, ref_cfg.v_dd,
                              ref_cfg.a_v)[0] < limit


def test_metastability_cost_follows_candidates(ref_cfg, monkeypatch):
    # 10^10 trials at p = 1e-6 draw about 10^4 candidates, not 10^10 uniforms
    seen = []

    def latencies(v, *args):
        seen.append(len(v))
        return decision_latencies(v, *args)

    monkeypatch.setattr(timing, "decision_latencies", latencies)
    t0 = time.process_time()
    res = metastability_mc(ref_cfg, 10 ** 10, 1e-6, seed=5)
    assert time.process_time() - t0 < 2.0
    assert abs(sum(seen) - 10 ** 4) < 5 * math.sqrt(10 ** 4)
    assert abs(res["rate"] - 1e-6) < 5 * math.sqrt(1e-6 / 10 ** 10)


def test_metastability_rejects_huge_trial_counts(ref_cfg, tmp_path):
    with pytest.raises(ValueError, match="trials"):
        metastability_mc(ref_cfg, 2 ** 63, 1e-3)
    assert main(["metastability", "--trials", "10000000000000000000000",
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "metastability.json").exists()


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
