import math
from dataclasses import replace

import numpy as np

import saradc as sa
from saradc.comparator import compare, decision_latencies
from reference_engine import decide, decision_latency


def test_latency_log_law_values(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    # input at half an LSB: 13 ps * ln(1.2 / (5 * 0.7694 mV)) = 74.6 ps
    t = decision_latency(d.delta / 2, ref_cfg.tau_reg, ref_cfg.v_dd, ref_cfg.a_v)
    assert math.isclose(t, 74.6e-12, rel_tol=2e-3)
    # input large enough that the latch starts at the rail: zero latency
    assert decision_latency(ref_cfg.v_dd / ref_cfg.a_v, ref_cfg.tau_reg,
                            ref_cfg.v_dd, ref_cfg.a_v) == 0.0
    assert decision_latency(0.0, ref_cfg.tau_reg, ref_cfg.v_dd, ref_cfg.a_v) == math.inf


def test_vector_latency_law_matches_scalar(ref_cfg):
    # one law, two forms, equal everywhere: at the dead zero (inf), at and
    # above the rail (0) and in between, where both take numpy's log
    args = (ref_cfg.tau_reg, ref_cfg.v_dd, ref_cfg.a_v)
    rail = ref_cfg.v_dd / ref_cfg.a_v
    v = np.concatenate(([0.0, rail, 2 * rail], np.logspace(-12, 0, 20_001)))
    vec = decision_latencies(v, *args)
    ref = np.array([decision_latency(x, *args) for x in v])
    assert vec[0] == ref[0] == math.inf
    assert vec[1] == ref[1] == 0.0 and vec[2] == ref[2] == 0.0
    assert np.array_equal(vec == 0.0, ref == 0.0)
    assert np.array_equal(vec, ref)


def test_decide_noise_off_sign_correct(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    for v in (-0.3, -1e-4, 1e-6, 0.2):
        bit, t_decide, metastable = decide(v, 1e-9, cfg, rng.standard_normal(),
                                           rng.standard_normal())
        assert not metastable
        assert bit == (1 if v > 0 else -1)
        # no noise added: the latency is the law's at |v| itself
        assert t_decide == decision_latency(abs(v), cfg.tau_reg, cfg.v_dd, cfg.a_v)


def test_decide_rail_input_instant(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    bit, t_decide, metastable = decide(cfg.v_dd / cfg.a_v, 0.0, cfg, rng.standard_normal(),
                                       rng.standard_normal())
    assert t_decide == 0.0 and not metastable and bit == 1


def test_decide_latency_ordering(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    vs = np.logspace(-6, -1, 30)
    ts = [decide(v, 1.0, cfg, rng.standard_normal(), rng.standard_normal())[1] for v in vs]
    assert all(a >= b for a, b in zip(ts, ts[1:]))


def test_decide_zero_input_metastable(ref_cfg, rng):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    bit, t_decide, metastable = decide(0.0, 1e-6, cfg, rng.standard_normal(),
                                       rng.standard_normal())
    assert metastable
    assert t_decide == math.inf
    assert bit in (-1, 1)


def test_decide_timeout_metastable_randomizes(ref_cfg):
    cfg = replace(ref_cfg, sigma_n_comp=0.0)
    rng = np.random.default_rng(3)
    # the latched bit is the sign of the latch normal passed in
    bits = [decide(1e-9, 1e-12, cfg, 0.0, rng.standard_normal())[0] for _ in range(400)]
    frac = np.mean([b > 0 for b in bits])
    assert all(decide(1e-9, 1e-12, cfg, 0.0, rng.standard_normal())[2] for _ in range(5))
    assert 0.4 < frac < 0.6


def test_decide_noise_statistics(ref_cfg):
    # with the input at one noise sigma, the positive fraction is Phi(1)
    rng = np.random.default_rng(7)
    n = 200_000
    pos = 0
    for _ in range(n):
        bit, _, _ = decide(ref_cfg.sigma_n_comp, 1e-6, ref_cfg, rng.standard_normal(), 0.0)
        pos += bit > 0
    phi1 = 0.841344746
    tol = 3 * math.sqrt(phi1 * (1 - phi1) / n)
    assert abs(pos / n - phi1) < tol


def test_compare_gives_the_sign_even_when_metastable(ref_cfg):
    # the logic's latch for a metastable comparison is the engine's to draw:
    # offered no time, +-1 uV and an exact zero overrun it, a rail input does
    # not, and each keeps the sign compare found, +-1 as a double; an exact
    # zero has sign 0, so it is not positive, and it never resolves
    v = np.array([1e-6, -1e-6, 0.0, 0.3])
    v_eff, sign = compare(v, 0.0)
    t_decide = decision_latencies(np.abs(v_eff), ref_cfg.tau_reg, ref_cfg.v_dd, ref_cfg.a_v)
    assert (t_decide > 0.0).tolist() == [True, True, True, False]
    assert sign.dtype == np.float64 and sign.tolist() == [1.0, -1.0, 0.0, 1.0]
    assert (sign > 0).tolist() == [True, False, False, True]
    assert t_decide[2] == math.inf and t_decide[3] == 0.0
