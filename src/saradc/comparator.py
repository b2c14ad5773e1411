"""Regenerative latch comparator: noisy decision, latency, metastability.

The decision latency follows the regeneration log law
t = tau_reg * ln(v_dd / (a_v * |v|)), clamped at zero: the latch output must
grow from the pre-amplified input to the supply with exponential time
constant tau_reg.  A comparison whose latency exceeds the time it was given
is metastable; the logic then latches an arbitrary value, modeled as a fair
random bit (worst-case-honest; the engine counts it per sample).

The operative noise is the configured input-referred sigma
(``sigma_n_comp``); it is one Gaussian draw per comparison.
"""

import math

import numpy as np

from .config import AdcConfig

__all__ = ["comparator_power", "decision_latency", "decision_latencies", "decide"]


def comparator_power(f_ck: float, c_pq: float, c_xy: float, v_dd: float) -> float:
    """Dynamic power f_ck * (2*c_pq + c_xy) * v_dd^2 [W].

    For the full converter the comparator fires once per bit, so
    f_ck = bits * f_s.  Given a firing count instead of a rate it returns
    the energy of that many firings [J], which is how the engine books it.
    """
    if min(c_pq, c_xy, v_dd) <= 0 or f_ck < 0:
        raise ValueError("comparator_power: operands must be positive")
    return f_ck * (2.0 * c_pq + c_xy) * v_dd ** 2


def decision_latency(v_abs: float, tau_reg: float, v_dd: float, a_v: float) -> float:
    """Latency of the regeneration log law for |input| = v_abs [s]."""
    if v_abs <= 0.0:
        return math.inf
    return max(tau_reg * math.log(v_dd / (a_v * v_abs)), 0.0)


def decision_latencies(v_abs: np.ndarray, tau_reg: float, v_dd: float,
                       a_v: float) -> np.ndarray:
    """Vectorized decision_latency; zeros map to +inf."""
    v = np.asarray(v_abs, dtype=float)
    with np.errstate(divide="ignore"):
        t = tau_reg * np.log(v_dd / (a_v * np.where(v > 0, v, np.nan)))
    t = np.where(v > 0, np.maximum(t, 0.0), np.inf)
    return t


def decide(v_diff: float, t_available: float, cfg: AdcConfig,
           rng: np.random.Generator) -> tuple[int, float, bool]:
    """One comparison of a differential input given t_available seconds.

    Returns (bit, t_decide, metastable): the +/-1 decision, the latency
    [s] and whether it exceeded t_available.  The effective input is v_diff
    plus one Gaussian noise draw; an exactly zero effective input never
    resolves (infinite latency) and is reported metastable rather than
    raising.  A metastable comparison draws one more integer, its bit.
    """
    if t_available < 0.0:
        raise ValueError("decide: t_available must be nonnegative")
    noise = cfg.sigma_n_comp * rng.standard_normal() if cfg.sigma_n_comp > 0 else 0.0
    v_eff = v_diff + noise
    tau_reg = cfg.c_xy / cfg.g_m5
    t_dec = decision_latency(abs(v_eff), tau_reg, cfg.v_dd, cfg.a_v)
    metastable = t_dec > t_available
    if metastable:
        bit = 1 if rng.integers(0, 2) else -1
    else:
        bit = 1 if v_eff > 0 else -1
    return bit, t_dec, metastable
