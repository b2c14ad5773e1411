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

__all__ = ["comparator_power", "compare", "decision_latencies"]


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
                       a_v: float, out: np.ndarray | None = None) -> np.ndarray:
    """Latency of the regeneration log law for each |input| in v_abs [s];
    zeros map to +inf.  As a ufunc does, it writes into ``out`` if given."""
    v = np.multiply(a_v, v_abs, out=out)
    with np.errstate(divide="ignore"):       # v_dd / 0 is +inf, and so is its log
        np.divide(v_dd, v, out=v)
    return np.maximum(np.multiply(tau_reg, np.log(v, out=v), out=v), 0.0, out=v)


def compare(v_diff: np.ndarray, noise, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """The effective input v_diff + ``noise`` (the input-referred draws, or
    0.0) of each comparison and whether it is positive, written into
    ``out`` if given."""
    v_eff, up = out
    v_eff = np.add(v_diff, noise, out=v_eff)
    return v_eff, np.greater(v_eff, 0.0, out=up)

