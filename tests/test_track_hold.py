import math
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc.config import ConfigError
from saradc.track_hold import hold, ktc_sigma, ron_of_input
from reference_engine import sample


def test_ron_ideal_bootstrap_is_flat(ref_cfg):
    cfg = replace(ref_cfg, r_on0=200.0, ron_alpha=0.0, ron_beta=0.0)
    for v in (-1.0, -0.3, 0.0, 0.5, 1.1):
        assert ron_of_input(v, cfg) == 200.0


def test_ron_polynomial_values(ref_cfg):
    cfg = replace(ref_cfg, r_on0=200.0, ron_alpha=0.05, ron_beta=0.0)
    assert math.isclose(ron_of_input(0.5, cfg), 205.0, rel_tol=1e-12)
    cfg = replace(ref_cfg, r_on0=200.0, ron_alpha=0.0, ron_beta=0.2)
    assert math.isclose(ron_of_input(0.5, cfg), 210.0, rel_tol=1e-12)


def test_ron_nonphysical_raises(ref_cfg):
    cfg = replace(ref_cfg, r_on0=200.0, ron_alpha=-2.0, ron_beta=0.0)
    with pytest.raises(ConfigError, match="on-resistance"):
        ron_of_input(0.6, cfg)


def test_ron_names_first_nonphysical_input(ref_cfg):
    # the polynomial crosses zero at 0.5 V; inputs are met row by row
    cfg = replace(ref_cfg, r_on0=200.0, ron_alpha=-2.0, ron_beta=0.0)
    assert ron_of_input(np.array([0.1, 0.2, 0.3]), cfg).shape == (3,)
    with pytest.raises(ConfigError, match=r"on-resistance -40 Ohm at v = 0\.6 V"):
        ron_of_input(np.array([[0.1, 0.2], [0.3, 0.6], [0.7, 0.8]]), cfg)
    # the held pairs are side-first, yet sample 0's negative side comes
    # before sample 1's positive side
    with pytest.raises(ConfigError, match=r"on-resistance -40 Ohm at v = 0\.6 V"):
        hold(np.array([[0.1, 0.7], [0.6, 0.2]]), cfg, 0.0, np.array([0.4, 0.4]),
             np.empty((2, 2)))


@pytest.mark.parametrize("r_on0", [None, 1e5])
def test_hold_matches_sequential_sampler(ref_cfg, r_on0):
    # the Jacobi sweeps reach the sequential values exactly, also when each
    # conversion keeps most of the previous one (g near 0.985 at 100 kOhm),
    # and at a 1 ms track, where every settle factor underflows to 0 and the
    # first sweep already confirms the fixed point.  hold adds the noise it
    # is given, here the kT/C draws
    base = ref_cfg if r_on0 is None else replace(ref_cfg, r_on0=r_on0)
    v = 0.7 * np.sin(0.9 * np.arange(50))
    v_in = np.stack([base.v_cm + 0.5 * v, base.v_cm - 0.5 * v])
    normals = np.random.default_rng(3).standard_normal((50, 2))
    for cfg in (base, replace(base, t_track=1e-3)):
        def walk(n, prev):
            rng, pairs = np.random.default_rng(3), []
            for p, m in zip(*v_in[:, :n].tolist()):
                prev = sample(p, m, cfg, rng, prev=prev)
                pairs.append(prev)
            return np.array(pairs).T

        noise = ktc_sigma(cfg) * normals.T
        out = np.empty((2, 50))
        assert hold(v_in, cfg, noise, np.array([cfg.v_cm, cfg.v_cm]), out) is out
        assert np.array_equal(out, walk(50, None))
        c_side = cfg.c_dac + cfg.c_p
        settled = np.exp(-cfg.t_track / (ron_of_input(v_in, cfg) * c_side)) == 0.0
        assert settled.all() == (cfg is not base)
        # also from runs too short for a sweep to confirm the fixed point,
        # which end through the sweep loop's copy: one, two and three pairs
        # settling from another start
        for k in (1, 2, 3):
            out = np.empty((2, k))
            assert hold(v_in[:, :k], cfg, noise[:, :k], np.array([0.3, 0.6]), out) is out
            assert np.array_equal(out, walk(k, (0.3, 0.6))), k
    with pytest.raises(ValueError, match="C-contiguous"):
        hold(v_in, cfg, noise, np.array([0.3, 0.6]), np.empty((50, 2)).T)


def test_full_settling_reproduces_input(ref_cfg, rng):
    cfg = replace(sa.ideal_config(ref_cfg), t_track=1e-3)
    v_p, v_n = sample(cfg.v_cm + 0.123, cfg.v_cm - 0.123, cfg, rng)
    assert math.isclose(v_p - v_n, 0.246, rel_tol=1e-12)
    assert math.isclose(0.5 * (v_p + v_n), cfg.v_cm, rel_tol=1e-12)


def test_settling_factor_value(ref_cfg, rng):
    # 200 ohm into 1.32 pF over 2 ns leaves exp(-7.576) of the step
    cfg = replace(ref_cfg, r_on0=200.0, ron_alpha=0.0, ron_beta=0.0,
                  t_kelvin=0.0)
    c_side = cfg.c_dac + cfg.c_p
    g_expect = math.exp(-cfg.t_track / (200.0 * c_side))
    assert math.isclose(g_expect, 5.12e-4, rel_tol=2e-3)
    v_p, _ = sample(cfg.v_cm + 0.2, cfg.v_cm - 0.2, cfg, rng)
    # positive-side target sits v_diff/2 = 0.2 V above the quiescent v_cm
    assert math.isclose(cfg.v_cm + 0.2 - v_p, 0.2 * g_expect, rel_tol=1e-9)


def test_ktc_sigma_value(ref_cfg):
    # sqrt(kT/1.32 pF) at 300 K is close to 56 uV per side
    assert math.isclose(ktc_sigma(ref_cfg), 56.0e-6, rel_tol=0.01)


def test_sampled_noise_variance_matches_ktc(ref_cfg):
    cfg = replace(ref_cfg, ron_alpha=0.0, ron_beta=0.0, r_on0=1e-3)
    rng = np.random.default_rng(42)
    n = 120_000
    sigma = ktc_sigma(cfg)
    draws = np.empty(n)
    for k in range(n):
        v_p, v_n = sample(cfg.v_cm, cfg.v_cm, cfg, rng)
        draws[k] = v_p - v_n
    sig_diff = draws.std()
    expect = sigma * math.sqrt(2.0)
    assert math.isclose(expect, 79.2e-6, rel_tol=0.01)
    # variance estimator 3-sigma band: rel sd of std is 1/sqrt(2n)
    assert abs(sig_diff - expect) / expect < 3.0 / math.sqrt(2 * n)


def test_linearity_affine_map(ref_cfg):
    # flat on-resistance, noise off: held is exactly affine in the input
    cfg = replace(ref_cfg, ron_alpha=0.0, ron_beta=0.0, t_kelvin=0.0)
    rng = np.random.default_rng(0)
    vs = np.linspace(-0.75, 0.75, 41)
    held = np.array([np.subtract(*sample(cfg.v_cm + v / 2, cfg.v_cm - v / 2, cfg, rng))
                     for v in vs])
    gain = (held[-1] - held[0]) / (vs[-1] - vs[0])
    fit = held[0] + gain * (vs - vs[0])
    assert np.max(np.abs(held - fit)) < 1e-12 * 1.6


def _th_tone_spectrum(cfg, n=256, tone_bin=5, amp=0.75):
    """Differential held values of a coherent tone, warmup period discarded."""
    rng = np.random.default_rng(0)
    k = np.arange(2 * n)
    v = amp * np.sin(2 * np.pi * tone_bin * k / n)
    prev = None
    held = []
    for vv in v:
        prev = sample(cfg.v_cm + vv / 2, cfg.v_cm - vv / 2, cfg, rng, prev=prev)
        held.append(prev[0] - prev[1])
    x = np.array(held[n:])
    spec = np.abs(np.fft.rfft(x) / n) ** 2
    return spec / spec[tone_bin]


def test_harmonic_generation_with_curvature(ref_cfg):
    tone_bin = 5
    flat = replace(ref_cfg, ron_alpha=0.0, ron_beta=0.0, t_kelvin=0.0)
    bent = replace(ref_cfg, ron_alpha=0.0, ron_beta=0.45, t_kelvin=0.0)
    p_flat = _th_tone_spectrum(flat, tone_bin=tone_bin)
    p_bent = _th_tone_spectrum(bent, tone_bin=tone_bin)
    h3 = 3 * tone_bin
    assert p_flat[h3] < 1e-20          # numerical floor, no distortion
    assert p_bent[h3] > 1e-12          # visible third-harmonic spur
    assert p_bent[h3] > 1e4 * p_flat[h3]
