"""Regenerative latch comparator: noisy decision, latency, metastability.

The latch is two calibrated numbers of the config: its regeneration time
constant ``tau_reg`` and the capacitance ``c_comp`` it switches per firing.
The decision latency follows the regeneration log law
t = tau_reg * ln(v_dd / (a_v * |v|)), clamped at zero: the latch output must
grow from the pre-amplified input to the supply with exponential time
constant tau_reg.  A comparison whose latency exceeds the time it was given
is metastable; the logic then latches an arbitrary value, modeled as a fair
random bit (worst-case-honest; the engine takes it from the sign of the
sample's latch normal and counts it per sample).

The operative noise is the configured input-referred sigma
(``sigma_n_comp``); it is one Gaussian draw per comparison.
"""

import numpy as np

from .config import AdcConfig

__all__ = ["comparator_power", "decision_latencies", "decisions"]


def comparator_power(f_ck: float, c_comp: float, v_dd: float) -> float:
    """Dynamic power f_ck * c_comp * v_dd^2 [W].

    For the full converter the comparator fires once per bit, so
    f_ck = bits * f_s.  Given a firing count instead of a rate it returns
    the energy of that many firings [J], which is how the engine books it;
    an array of counts gives the energy of each.
    """
    if min(c_comp, v_dd) <= 0 or np.min(f_ck) < 0:
        raise ValueError("comparator_power: operands must be positive")
    return f_ck * c_comp * v_dd ** 2


def decision_latencies(v_abs: np.ndarray, tau_reg: float, v_dd: float,
                       a_v: float) -> np.ndarray:
    """Latency of the regeneration log law for each |input| in v_abs [s];
    zeros map to +inf."""
    v = a_v * np.asarray(v_abs, dtype=float)
    # v_dd / 0 is +inf, and so is its log; the error state is entered only
    # for a zero, because entering it costs more than looking for one
    if np.count_nonzero(v) == v.size:
        ratio = v_dd / v
    else:
        with np.errstate(divide="ignore"):
            ratio = v_dd / v
    return np.maximum(tau_reg * np.log(ratio), 0.0)


def decisions(v_diff: np.ndarray, t_available: np.ndarray, noise,
              cfg: AdcConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One comparison per entry of v_diff, given t_available seconds each.

    Returns (bit, t_decide, metastable) arrays: the sign of each effective
    input as +/-1, the latencies [s] and whether each exceeded its
    allowance.  The effective input is v_diff plus ``noise`` (the
    input-referred draws, or 0.0); an exactly zero effective input never
    resolves (infinite latency) and is reported metastable.  The bit of a
    metastable entry is the logic's arbitrary latch, which the engine
    supplies in place of the sign.
    """
    v_eff = v_diff + noise
    t_dec = decision_latencies(np.abs(v_eff), cfg.tau_reg, cfg.v_dd, cfg.a_v)
    return np.where(v_eff > 0, 1, -1), t_dec, t_dec > t_available
