"""Sequential reference walk of the conversion engine, one sample at a time.

The program converts a block of samples per array pass
(``engine.convert_waveform``); this walk is what the tests check it
against, field by field and bit for bit.  It keeps the scalar forms of the
sampler (``sample``), the comparison (``decide``) and the latency law
(``decision_latency``), evaluated one Python float at a time; their exp and
log are numpy's, which the engine applies to whole arrays and which give an
element the same value on any call shape (``test_numpy_exp_log_shape_free``).
It takes every sample's row of normals from the record stream,
``SeedSequence((seed, 0))``, one scalar ``standard_normal()`` call at a
time: the track-and-hold pair, every comparison's normal and last the latch
normal, whose sign a metastable comparison latches.
"""

import math

import numpy as np

from saradc.capdac import build_cap_array
from saradc.config import AdcConfig, ConfigError
from saradc.engine import WaveformResult
from saradc.track_hold import ktc_sigma


def _ron(v: float, cfg: AdcConfig) -> float:
    r = cfg.r_on0 * (1.0 + cfg.ron_alpha * v + cfg.ron_beta * v * v)
    if r <= 0.0:
        raise ConfigError(
            f"ron_alpha/ron_beta: nonphysical on-resistance {r:g} Ohm at v = {v:g} V"
        )
    return r


def sample(v_in_p: float, v_in_n: float, cfg: AdcConfig, rng: np.random.Generator,
           prev: tuple[float, float] | None = None) -> tuple[float, float]:
    """Held pair (v_p, v_n) of one differential input [V].

    prev is the pair left from the previous conversion (settling start
    point); it defaults to the quiescent common mode.  Each side settles
    with its own time constant r_on(v_in_side) * c_side and then receives
    an independent Gaussian draw of rms ``ktc_sigma``, the positive side
    first.
    """
    c_side = cfg.c_dac + cfg.c_p
    v_diff = v_in_p - v_in_n
    target_p = cfg.v_cm + 0.5 * v_diff
    target_n = cfg.v_cm - 0.5 * v_diff
    if prev is None:
        prev = (cfg.v_cm, cfg.v_cm)

    g_p = float(np.exp(-cfg.t_track / (_ron(v_in_p, cfg) * c_side)))
    g_n = float(np.exp(-cfg.t_track / (_ron(v_in_n, cfg) * c_side)))
    err_p = (target_p - prev[0]) * g_p
    err_n = (target_n - prev[1]) * g_n

    sigma = ktc_sigma(cfg)
    noise_p = sigma * rng.standard_normal() if sigma > 0 else 0.0
    noise_n = sigma * rng.standard_normal() if sigma > 0 else 0.0
    return target_p - err_p + noise_p, target_n - err_n + noise_n


def decision_latency(v_abs: float, tau_reg: float, v_dd: float, a_v: float) -> float:
    """Latency of the regeneration log law for |input| = v_abs [s]."""
    if v_abs <= 0.0:
        return math.inf
    return max(tau_reg * float(np.log(v_dd / (a_v * v_abs))), 0.0)


def decide(v_diff: float, t_available: float, cfg: AdcConfig, normal: float,
           latch: float) -> tuple[int, float, bool]:
    """One comparison: (bit, t_decide, metastable).  ``normal`` is the
    comparison's standard normal draw, read when the comparator noise is
    on; a metastable comparison latches the sign of ``latch``."""
    if t_available < 0.0:
        raise ValueError("decide: t_available must be nonnegative")
    noise = cfg.sigma_n_comp * normal if cfg.sigma_n_comp > 0 else 0.0
    v_eff = v_diff + noise
    t_dec = decision_latency(abs(v_eff), cfg.tau_reg, cfg.v_dd, cfg.a_v)
    metastable = t_dec > t_available
    if metastable:
        bit = 1 if latch > 0 else -1
    else:
        bit = 1 if v_eff > 0 else -1
    return bit, t_dec, metastable


def convert_waveform(samples, cfg: AdcConfig, seed: int = 0) -> WaveformResult:
    """The engine's result for the same record, one sample at a time."""
    diff = np.asarray(samples, dtype=float)
    n = diff.size
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((seed, 1))))
    dp, dn = ladder.step[0].tolist(), ladder.step[1].tolist()
    settle_p, settle_n = ladder.settle[0].tolist(), ladder.settle[1].tolist()
    e_event = ladder.e_event.tolist()
    bits_n = cfg.bits
    slack0 = (1.0 / cfg.f_s - cfg.t_track) - (bits_n * cfg.t_delay + (bits_n - 1) * cfg.t_fix)
    e_comp_of = [c * cfg.c_comp * cfg.v_dd ** 2 for c in range(bits_n + 1)]

    codes = np.empty(n, dtype=int)
    metastable = np.empty(n, dtype=int)
    violation = np.empty(n, dtype=bool)
    e_comp = e_dac = e_logic = e_track = 0.0
    held = None
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    for k, v in enumerate(diff.tolist()):
        v_in_p, v_in_n = cfg.v_cm + 0.5 * v, cfg.v_cm - 0.5 * v
        if not (0.0 <= v_in_p <= cfg.v_dd and 0.0 <= v_in_n <= cfg.v_dd):
            raise ValueError(f"convert_waveform: sample {k} leaves [0, v_dd]")
        held = sample(v_in_p, v_in_n, cfg, rng, prev=held)
        normals = [rng.standard_normal() if cfg.sigma_n_comp > 0 else 0.0
                   for _ in range(bits_n)]
        latch = rng.standard_normal()
        v_p, v_n = target_p, target_n = held

        slack = slack0
        energy = 0.0
        code = n_meta = 0
        exhausted = False
        for i in range(bits_n):
            avail = max(slack, 0.0)
            bit, t_decide, meta = decide(v_p - v_n, avail, cfg, normals[i], latch)
            if meta:
                n_meta += 1
                slack = 0.0
                if math.isinf(t_decide) or avail <= 0.0:
                    code = ((code << 1) | 1) << (bits_n - 1 - i)
                    exhausted = True
                    break
            else:
                slack -= t_decide
            code = (code << 1) | (bit > 0)
            if i < bits_n - 1:
                target_p -= bit * dp[i] / 2.0
                target_n += bit * dn[i] / 2.0
                v_p = target_p - (target_p - v_p) * settle_p[i]
                v_n = target_n - (target_n - v_n) * settle_n[i]
                energy += e_event[i][(bit + 1) // 2]

        n_cycles = i + 1
        codes[k] = code
        metastable[k] = n_meta
        violation[k] = exhausted
        e_comp += e_comp_of[n_cycles]
        e_dac += energy
        e_logic += n_cycles * cfg.e_logic
        e_track += cfg.e_track

    return WaveformResult(
        codes=codes, metastable=metastable, violation=violation,
        e_blocks={"comparator": e_comp, "dac": e_dac, "logic": e_logic,
                  "track_hold": e_track},
        f_s=cfg.f_s,
    )
