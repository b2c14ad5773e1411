"""Asynchronous timing engine.

Builds the conversion-period budget from the regeneration-bounded worst-case
comparison, the aggregate easy-comparison settling, per-bit fixed overheads,
logic delays and the tracking phase; derives the maximum sampling rate, a
synchronous worst-slot baseline, and a Monte Carlo check that the
metastability bound inverts correctly.
"""

import math
from typing import NamedTuple

import numpy as np

from .comparator import decision_latencies
from .config import AdcConfig, derived_constants

__all__ = ["MC_BLOCK", "TimingBudget", "t_hard", "t_easy_of", "build_budget",
           "metastability_mc"]

MC_BLOCK = 2 ** 16   # candidates drawn per block by metastability_mc


class TimingBudget(NamedTuple):
    t_hard: float         # hardest comparison, bounded at p_meta [s]
    t_easy: float         # settling of the other comparisons [s]
    f_s_max: float        # asynchronous limit [Hz]
    f_s_max_sync: float   # worst-slot synchronous baseline [Hz]
    f_s: float            # configured operating rate [Hz]

    @property
    def period(self) -> float:
        return 1.0 / self.f_s_max

    @property
    def margin(self) -> float:
        """Slack of the configured rate against the asynchronous limit [s]."""
        return 1.0 / self.f_s - self.period

    @property
    def timing_violation(self) -> bool:
        return self.f_s > self.f_s_max

    @property
    def boost(self) -> float:
        """Fractional sampling-rate gain of asynchronous over synchronous."""
        return self.f_s_max / self.f_s_max_sync - 1.0


def t_hard(tau: float, v_dd: float, a_v: float, p_meta: float, delta: float) -> float:
    """Comparison time that bounds the metastability rate at p_meta [s].

    t = tau * ln(2*v_dd / (a_v * p_meta * delta)); the residue left for the
    hardest comparison is uniform over one LSB, so the fraction of inputs
    still unresolved after t is exactly p_meta.  Like the latency law it
    comes from, it is clamped at zero: a target met at once needs no time.
    """
    return tau * max(math.log(2.0 * v_dd / (a_v * p_meta * delta)), 0.0)


def t_easy_of(bits: int, tau_reg: float) -> float:
    """Total settling time of the non-worst-case comparisons [s].

    Anchored at 39 regeneration time constants for a 10-bit converter; other
    resolutions extrapolate with the sum-of-per-bit-latencies quadratic
    (bits*(bits-1)/2 terms), which reproduces the anchor at bits = 10.
    """
    return 39.0 * tau_reg * (bits * (bits - 1) / 2.0) / 45.0


def build_budget(cfg: AdcConfig) -> TimingBudget:
    th = t_hard(cfg.tau_reg, cfg.v_dd, cfg.a_v, cfg.p_meta, derived_constants(cfg).delta)
    te = t_easy_of(cfg.bits, cfg.tau_reg)
    # the asynchronous limit: the budget terms fill one period
    f_async = 1.0 / (te + th + (cfg.bits - 1) * cfg.t_fix + cfg.bits * cfg.t_delay
                     + cfg.t_track)
    slot = th + cfg.t_fix + cfg.t_delay
    f_sync = 1.0 / (cfg.bits * slot + cfg.t_track)
    return TimingBudget(t_hard=th, t_easy=te, f_s_max=f_async, f_s_max_sync=f_sync,
                        f_s=cfg.f_s)


def _window(cfg: AdcConfig, p_meta_test: float) -> tuple[float, float]:
    """(limit, bound): the settling time budgeted for rate p_meta_test, and
    an input magnitude just above the one that resolves exactly at limit.

    bound = v_dd/a_v * exp(-limit/tau_reg) * (1 + 1e-6): an input at or
    above it resolves about 1e-6 * tau_reg before the limit, far beyond
    rounding error, so every metastable input lies below it.
    """
    limit = t_hard(cfg.tau_reg, cfg.v_dd, cfg.a_v, p_meta_test, derived_constants(cfg).delta)
    bound = cfg.v_dd / cfg.a_v * math.exp(-limit / cfg.tau_reg) * (1.0 + 1e-6)
    return limit, bound


def metastability_mc(cfg: AdcConfig, trials: int, p_meta_test: float,
                     seed: int = 0) -> dict:
    """Empirical metastability rate at an inflated test target.

    Each trial is a comparator input uniform over one LSB centered on the
    decision threshold; it counts when the regeneration latency exceeds the
    settling time budgeted for rate p_meta_test.  Only an input with
    |v| < bound (see ``_window``) can count, and one uniform over the LSB
    lands there with probability p = min(2*bound/delta, 1), uniform on
    [0, min(bound, delta/2)) once it does.  So the Monte Carlo draws the
    candidate count K ~ Binomial(trials, p), then the K candidate
    magnitudes, and puts those through the latency law: the count has the
    distribution of the per-trial draw, and time follows p*trials, not
    trials.  The candidates are drawn in blocks of ``MC_BLOCK`` into one
    reused buffer, so memory stays flat however large p*trials is.
    Everything comes from one stream seeded by ``SeedSequence((seed, 0))``,
    so a fixed seed gives a fixed count.
    """
    if not 0.0 < p_meta_test < 1.0:
        raise ValueError(
            f"metastability_mc: target rate {p_meta_test:g} must lie in (0, 1)")
    if trials < 10.0 / p_meta_test:
        raise ValueError(
            f"metastability_mc: need at least {10.0 / p_meta_test:.0f} trials "
            f"to resolve a rate of {p_meta_test:g}"
        )
    if trials > 2 ** 63 - 1:
        raise ValueError(
            f"metastability_mc: trials {trials} exceeds 2**63 - 1, the largest "
            f"count one binomial draw takes")
    d = derived_constants(cfg)
    limit, bound = _window(cfg, p_meta_test)
    edge = min(bound, d.delta / 2.0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    k = int(rng.binomial(trials, edge / (d.delta / 2.0)))
    buf = np.empty(min(MC_BLOCK, k))
    counts = 0
    for start in range(0, k, MC_BLOCK):
        v = buf[:min(MC_BLOCK, k - start)]
        rng.random(out=v)
        v *= edge
        t = decision_latencies(v, cfg.tau_reg, cfg.v_dd, cfg.a_v)
        counts += int(np.count_nonzero(t > limit))
    rate = counts / trials
    sigma = math.sqrt(max(rate * (1.0 - rate), p_meta_test) / trials)
    return {
        "trials": trials,
        "count": counts,
        "rate": rate,
        "target": p_meta_test,
        "ci95": (rate - 1.96 * sigma, rate + 1.96 * sigma),
        "t_limit": limit,
    }
