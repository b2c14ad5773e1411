import math
from dataclasses import replace

import numpy as np

import saradc as sa
from saradc.comparator import comparator_power, decide, decision_latency


def test_power_hand_value():
    # 1.3 GHz, 66 fF total, 1.44 V^2
    p = comparator_power(1.3e9, 20e-15, 26e-15, 1.2)
    assert math.isclose(p, 123.552e-6, rel_tol=1e-6)


def test_power_zero_clock():
    assert comparator_power(0.0, 20e-15, 26e-15, 1.2) == 0.0


def test_power_quadratic_in_supply():
    p1 = comparator_power(1e9, 20e-15, 26e-15, 0.6)
    p2 = comparator_power(1e9, 20e-15, 26e-15, 1.2)
    assert math.isclose(p2, 4.0 * p1, rel_tol=1e-12)


def test_latency_log_law_values(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    # input at half an LSB: 13 ps * ln(1.2 / (5 * 0.7694 mV)) = 74.6 ps
    t = decision_latency(d.delta / 2, d.tau_reg, ref_cfg.v_dd, ref_cfg.a_v)
    assert math.isclose(t, 74.6e-12, rel_tol=2e-3)
    # input large enough that the latch starts at the rail: zero latency
    assert decision_latency(ref_cfg.v_dd / ref_cfg.a_v, d.tau_reg,
                            ref_cfg.v_dd, ref_cfg.a_v) == 0.0
    assert decision_latency(0.0, d.tau_reg, ref_cfg.v_dd, ref_cfg.a_v) == math.inf


def test_decide_noise_off_sign_correct(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    for v in (-0.3, -1e-4, 1e-6, 0.2):
        dec = decide(v, 1e-9, cfg, rng)
        assert not dec.metastable
        assert dec.bit == (1 if v > 0 else -1)
        assert dec.v_effective == v


def test_decide_rail_input_instant(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    dec = decide(cfg.v_dd / cfg.a_v, 0.0, cfg, rng)
    assert dec.t_decide == 0.0 and not dec.metastable and dec.bit == 1


def test_decide_latency_ordering(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    vs = np.logspace(-6, -1, 30)
    ts = [decide(v, 1.0, cfg, rng).t_decide for v in vs]
    assert all(a >= b for a, b in zip(ts, ts[1:]))


def test_decide_zero_input_metastable(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    dec = decide(0.0, 1e-6, cfg, rng)
    assert dec.metastable
    assert dec.t_decide == math.inf
    assert dec.bit in (-1, 1)


def test_decide_timeout_metastable_randomizes(ref_cfg):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    rng = np.random.default_rng(3)
    bits = [decide(1e-9, 1e-12, cfg, rng).bit for _ in range(400)]
    frac = np.mean([b > 0 for b in bits])
    assert all(decide(1e-9, 1e-12, cfg, rng).metastable for _ in range(5))
    assert 0.4 < frac < 0.6


def test_decide_noise_statistics(ref_cfg):
    # with the input at one noise sigma, the positive fraction is Phi(1)
    rng = np.random.default_rng(7)
    n = 200_000
    pos = 0
    for _ in range(n):
        dec = decide(ref_cfg.sigma_n_comp, 1e-6, ref_cfg, rng)
        pos += dec.bit > 0
    phi1 = 0.841344746
    tol = 3 * math.sqrt(phi1 * (1 - phi1) / n)
    assert abs(pos / n - phi1) < tol
