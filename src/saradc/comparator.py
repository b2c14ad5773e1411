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

__all__ = ["compare", "decision_latencies"]


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
    0.0) of each comparison and its sign as a double, +1 or -1, and 0 only
    for an exact zero, which never resolves; written into ``out`` if
    given."""
    v_eff, sign = out
    v_eff = np.add(v_diff, noise, out=v_eff)
    return v_eff, np.sign(v_eff, out=sign)
