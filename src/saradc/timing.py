"""Asynchronous timing engine.

Builds the conversion-period budget from the regeneration-bounded worst-case
comparison, the aggregate easy-comparison settling, per-bit fixed overheads,
logic delays and the tracking phase; derives the maximum sampling rate, a
synchronous worst-slot baseline, and a Monte Carlo check that the
metastability bound inverts correctly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .comparator import decision_latencies
from .config import AdcConfig, derived_constants, t_easy_of

MC_BLOCK = 2 ** 16   # uniforms drawn per block by metastability_mc


@dataclass(frozen=True)
class TimingBudget:
    tau_reg: float
    t_hard: float
    t_easy: float
    t_fix: float
    t_delay: float
    t_track: float
    bits: int
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
    still unresolved after t is exactly p_meta.
    """
    arg = 2.0 * v_dd / (a_v * p_meta * delta)
    if arg <= 1.0:
        raise ValueError(f"t_hard: log argument {arg:g} <= 1; target trivially met")
    return tau * math.log(arg)


def max_sampling_rate(t_easy: float, t_hard_: float, bits: int, t_fix: float,
                      t_delay: float, t_track: float) -> float:
    """Asynchronous rate limit: the budget terms fill one period [Hz]."""
    if min(t_easy, t_hard_, t_fix, t_delay, t_track) < 0:
        raise ValueError("max_sampling_rate: time components must be nonnegative")
    period = t_easy + t_hard_ + (bits - 1) * t_fix + bits * t_delay + t_track
    return 1.0 / period


def build_budget(cfg: AdcConfig) -> TimingBudget:
    d = derived_constants(cfg)
    th = t_hard(d.tau_reg, cfg.v_dd, cfg.a_v, cfg.p_meta, d.delta)
    te = t_easy_of(cfg.bits, d.tau_reg)
    f_async = max_sampling_rate(te, th, cfg.bits, cfg.t_fix, cfg.t_delay, cfg.t_track)
    slot = th + cfg.t_fix + cfg.t_delay
    f_sync = 1.0 / (cfg.bits * slot + cfg.t_track)
    return TimingBudget(
        tau_reg=d.tau_reg, t_hard=th, t_easy=te, t_fix=cfg.t_fix,
        t_delay=cfg.t_delay, t_track=cfg.t_track, bits=cfg.bits,
        f_s_max=f_async, f_s_max_sync=f_sync, f_s=cfg.f_s,
    )


def metastability_mc(cfg: AdcConfig, trials: int, p_meta_test: float,
                     seed: int = 0) -> dict:
    """Empirical metastability rate at an inflated test target.

    Comparator inputs are drawn uniformly over one LSB centered on the
    decision threshold; a trial counts when the regeneration latency exceeds
    the settling time budgeted for rate p_meta_test.  All trials come from
    one random stream, so a fixed seed gives a fixed count.

    The trials are drawn in blocks of ``MC_BLOCK`` into one preallocated
    buffer that every block reuses.  ``rng.random(out=...)`` fills it with u
    in [0, 1), one 64-bit output each: the outputs that
    ``uniform(-delta/2, delta/2)`` scales to v = -delta/2 + delta*u, so the
    count is that of a single draw of ``trials``, and memory does not grow
    with ``trials``.  The computed |v| lies within delta * 2^-53 of
    delta * |u - 0.5|, so only a trial with 0.5 - w <= u <= 0.5 + w, where
    w = bound/delta * (1 + 1e-12) + 1e-15, can pass the test below; the
    additive term covers a bound far below delta.  On those candidates v is
    rebuilt bit for bit, and the exact test |v| <= bound picks the inputs
    that go through the latency law, where
    bound = v_dd/a_v * exp(-limit/tau_reg) * (1 + 1e-6) lies just above the
    input that resolves exactly at the limit.  An input above it resolves
    about 1e-6 * tau_reg before the limit, far beyond rounding error, so the
    count equals the count over every trial.
    """
    if not 0.0 < p_meta_test < 1.0:
        raise ValueError(
            f"metastability_mc: target rate {p_meta_test:g} must lie in (0, 1)")
    if trials < 10.0 / p_meta_test:
        raise ValueError(
            f"metastability_mc: need at least {10.0 / p_meta_test:.0f} trials "
            f"to resolve a rate of {p_meta_test:g}"
        )
    d = derived_constants(cfg)
    limit = t_hard(d.tau_reg, cfg.v_dd, cfg.a_v, p_meta_test, d.delta)
    bound = cfg.v_dd / cfg.a_v * math.exp(-limit / d.tau_reg) * (1.0 + 1e-6)
    w = bound / d.delta * (1.0 + 1e-12) + 1e-15
    low = -d.delta / 2.0
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    buf = np.empty(min(MC_BLOCK, trials))
    counts = 0
    for start in range(0, trials, MC_BLOCK):
        u = buf[:min(MC_BLOCK, trials - start)]
        rng.random(out=u)
        u = u[(u >= 0.5 - w) & (u <= 0.5 + w)]
        v = np.abs(low + d.delta * u)
        t = decision_latencies(v[v <= bound], d.tau_reg, cfg.v_dd, cfg.a_v)
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
