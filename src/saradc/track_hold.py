"""Bootstrapped sampling switch model.

The switch drives the full per-side sampling capacitance through an
input-dependent on-resistance; the held value settles exponentially from the
previous held value toward the target and then picks up one sampled thermal
noise draw per side.  A perfectly bootstrapped switch has a flat
on-resistance (alpha = beta = 0) and contributes no distortion; residual
curvature of the on-resistance modulates the settling and shows up as
harmonics of a sampled sine.

The sampler re-references the differential input to the configured
comparator common mode, so the held pair is v_cm +/- v_diff/2 plus settling
error, pedestal and noise.  Charge injection and clock feedthrough are
lumped into the constant pedestal (applied to both sides).
"""

import math

import numpy as np

from .config import AdcConfig, ConfigError, kt_over_c

__all__ = ["ron_of_input", "sample", "ktc_sigma"]


def ron_of_input(v: float, cfg: AdcConfig) -> float:
    """Switch on-resistance at input voltage v [Ohm].

    r(v) = r_on0 * (1 + alpha*v + beta*v^2); a nonpositive result means the
    configured polynomial is nonphysical at this input.
    """
    r = cfg.r_on0 * (1.0 + cfg.ron_alpha * v + cfg.ron_beta * v * v)
    if r <= 0.0:
        raise ConfigError(
            f"ron_alpha/ron_beta: nonphysical on-resistance {r:g} Ohm at v = {v:g} V"
        )
    return r


def sample(v_in_p: float, v_in_n: float, cfg: AdcConfig, rng: np.random.Generator,
           prev: tuple[float, float] | None = None) -> tuple[float, float]:
    """Sample a differential input onto the DAC capacitance.

    Returns the held pair (v_p, v_n) [V].  prev is the held pair left from
    the previous conversion (settling start point); it defaults to the
    quiescent common mode.  Each side settles with its own time constant
    r_on(v_in_side) * c_side and then receives an independent Gaussian draw
    of rms ``ktc_sigma``, the positive side first.
    """
    c_side = cfg.c_dac + cfg.c_p
    v_diff = v_in_p - v_in_n
    target_p = cfg.v_cm + 0.5 * v_diff + cfg.v_pedestal
    target_n = cfg.v_cm - 0.5 * v_diff + cfg.v_pedestal
    if prev is None:
        prev = (cfg.v_cm, cfg.v_cm)

    g_p = math.exp(-cfg.t_track / (ron_of_input(v_in_p, cfg) * c_side))
    g_n = math.exp(-cfg.t_track / (ron_of_input(v_in_n, cfg) * c_side))
    err_p = (target_p - prev[0]) * g_p
    err_n = (target_n - prev[1]) * g_n

    sigma = ktc_sigma(cfg)
    noise_p = sigma * rng.standard_normal() if sigma > 0 else 0.0
    noise_n = sigma * rng.standard_normal() if sigma > 0 else 0.0
    return target_p - err_p + noise_p, target_n - err_n + noise_n


def ktc_sigma(cfg: AdcConfig) -> float:
    """Per-side sampled-noise rms sqrt(kT/c_side) [V]."""
    return math.sqrt(kt_over_c(cfg.c_dac + cfg.c_p, cfg.t_kelvin))
