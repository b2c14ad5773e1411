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
error and noise.  Charge injection and clock feedthrough are not modeled: a
constant pedestal would shift both sides alike, and the comparator reads only
their difference.
"""

import math

import numpy as np

from .config import AdcConfig, ConfigError, kt_over_c

__all__ = ["ron_of_input", "hold", "ktc_sigma"]

_SIDES = np.array([[0.5], [-0.5]])     # each side's share of a differential quantity


def ron_of_input(v, cfg: AdcConfig) -> np.ndarray:
    """Switch on-resistance at each input voltage in v [Ohm].

    r(v) = r_on0 * (1 + alpha*v + beta*v^2); a nonpositive result means the
    configured polynomial is nonphysical there, and the first such input
    (in flat order) is named in the error.
    """
    v = np.asarray(v, dtype=float)
    r = cfg.r_on0 * (1.0 + cfg.ron_alpha * v + cfg.ron_beta * v * v)
    bad = r <= 0.0
    if bad.any():
        first = int(np.argmax(bad.ravel()))
        raise ConfigError(
            f"ron_alpha/ron_beta: nonphysical on-resistance {r.flat[first]:g} Ohm "
            f"at v = {v.flat[first]:g} V"
        )
    return r


def hold(v_in: np.ndarray, cfg: AdcConfig, noise, prev: np.ndarray,
         out: np.ndarray) -> np.ndarray:
    """Held pairs of consecutive conversions of a differential input.

    ``v_in`` holds the two sides' inputs side-first, shape (2, n) with the
    positive side in row 0; the held pairs [V] are written in the same
    layout into ``out``, a C-contiguous array that is required and returned.
    ``prev`` is the pair held before the first of them (the settling start).
    Each side settles with its own time constant r_on(v_in_side) * c_side
    and then adds the noise it is given: ``noise`` holds each side's
    sampled kT/C draw per conversion [V], also (2, n), or is 0.0.

    Conversion k holds h_k = target_k - (target_k - h_{k-1}) * g_k + noise_k.
    Jacobi sweeps over the whole run solve it: after j sweeps the first j
    pairs are final, and a sweep that changes nothing has reached the one
    fixed point, the sequential values, so the result is exact.  With
    g_k < 1e-2, as at the shipped config, a handful of sweeps suffice.
    """
    # sample-major: a nonphysical input is named as the sequential walk meets it;
    # g comes first, so that its temporaries are gone before the sweeps' buffers
    g = ron_of_input(v_in.T, cfg).T
    g *= cfg.c_dac + cfg.c_p
    target = cfg.v_cm + _SIDES * (v_in[0] - v_in[1])
    if not out.flags.c_contiguous:
        raise ValueError("hold: out must be C-contiguous")
    # a side that settles below the smallest double has settled: no error
    with np.errstate(under="ignore"):
        np.exp(np.divide(-cfg.t_track, g, out=g), out=g)
        held = np.add(target, noise, out=out)
        # each pair settles from the one before it: prev, then the held pairs.
        # One flat pass reads each row's predecessor, also across the row edge,
        # and the first column is then set from prev; the sweeps alternate
        # between two buffers, each sliced once
        t_first, t_rest = target[:, 0], target.reshape(-1)[1:]
        pair = []
        for buf in (held, np.empty_like(target)):
            flat = buf.reshape(-1)
            pair.append((buf, buf[:, 0], flat[1:], flat[:-1]))
        for _ in range(target.shape[1]):
            (held, _, _, before), (swept, first, rest, _) = pair
            np.subtract(t_rest, before, out=rest)
            np.subtract(t_first, prev, out=first)
            swept *= g
            np.subtract(target, swept, out=swept)
            swept += noise
            if not np.count_nonzero(np.not_equal(swept, held)):
                # both buffers hold the fixed point, bit for bit: only -0.0
                # equals a double of other bits, and no held value is -0.0
                break
            pair.reverse()
        else:
            np.copyto(out, pair[0][0])
    return out


def ktc_sigma(cfg: AdcConfig) -> float:
    """Per-side sampled-noise rms sqrt(kT/c_side) [V]."""
    return math.sqrt(kt_over_c(cfg.c_dac + cfg.c_p, cfg.t_kelvin))
