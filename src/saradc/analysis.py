"""Dynamic and static metrology: coherent tones, rectangular-window spectra,
SNDR/SFDR/THD/ENOB, figure-of-merit variants, code-density INL/DNL.

Coherent sampling is enforced (the tone bin must be coprime to the record
length) so the rectangular-window DFT is leakage-free; windowed estimation
is deliberately out of scope.  Noise accounting excludes the DC bin and the
signal bin; harmonics count toward SNDR, and the single largest non-signal
bin defines SFDR.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Tone", "gen_coherent_tone", "spectrum", "SpectrumMetrics", "metrics", "spectrum_csv",
           "InsufficientDataError", "inl_dnl"]


@dataclass(frozen=True)
class Tone:
    """Coherent differential test tone."""
    v_diff: np.ndarray     # differential samples [V]
    v_cm: float            # common mode both sides ride on [V]
    bin: int
    n: int
    f_in: float            # tone frequency [Hz]


def gen_coherent_tone(n: int, tone_bin: int, amplitude: float, v_cm: float,
                      f_s: float) -> Tone:
    """Sine at bin/n of the sampling rate, leakage-free by construction."""
    if n < 3:
        raise ValueError(f"gen_coherent_tone: record length n = {n} is below 3, "
                         f"which leaves no tone bin between DC and Nyquist")
    if not 1 <= tone_bin < n / 2:
        raise ValueError(f"gen_coherent_tone: bin {tone_bin} outside 1..{n // 2 - 1}")
    if math.gcd(tone_bin, n) != 1:
        raise ValueError(
            f"gen_coherent_tone: bin {tone_bin} shares a factor with n = {n}; "
            f"the record would not be coherent"
        )
    k = np.arange(n)
    return Tone(
        v_diff=amplitude * np.sin(2.0 * np.pi * tone_bin * k / n),
        v_cm=v_cm, bin=tone_bin, n=n, f_in=tone_bin / n * f_s,
    )


def spectrum(codes, bits: int) -> np.ndarray:
    """One-sided normalized power spectrum of a code record.

    Codes are mapped to cell centers on [-0.5, 0.5) (full scale = 1) and
    transformed with a rectangular window; the returned bins satisfy
    sum(power) == mean(x^2) (one-sided convention, DC in bin 0).
    """
    c = np.asarray(codes)
    if c.ndim != 1 or c.size < 2:
        raise ValueError("spectrum: need a one-dimensional record")
    if c.min() < 0 or c.max() > 2 ** bits - 1:
        raise ValueError(f"spectrum: codes outside [0, {2 ** bits - 1}]")
    x = (c + 0.5) / 2.0 ** bits - 0.5
    n = x.size
    spec = np.fft.rfft(x) / n
    p = np.abs(spec) ** 2
    p[1:] *= 2.0
    if n % 2 == 0:
        p[-1] /= 2.0
    return p


@dataclass(frozen=True)
class SpectrumMetrics:
    n: int
    signal_bin: int
    sndr: float                # [dB]
    sfdr: float                # [dB]
    thd: float                 # harmonic-to-signal ratio [dB], negative
    enob: float                # (sndr - 1.76) / 6.02 exactly [bits]
    fom_walden: float          # p_total / (2^enob * f_s) [J/conversion-step]; NaN unless ENOB is finite
    fom_literal: float         # p_total / f_s^2, reported verbatim
    fom_literal_unit: str

    def to_json_dict(self) -> dict:
        def num(x):
            return x if math.isfinite(x) else repr(x)
        return {
            "n": self.n,
            "signal_bin": self.signal_bin,
            "sndr_dB": num(self.sndr),
            "sfdr_dB": num(self.sfdr),
            "thd_dB": num(self.thd),
            "enob_bits": num(self.enob),
            "fom_walden_J_per_step": num(self.fom_walden),
            "fom_literal": num(self.fom_literal),
            "fom_literal_unit": self.fom_literal_unit,
        }


def _harmonic_bins(signal_bin: int, n: int, count: int = 5):
    """Aliased harmonic bin locations (2nd..(count+1)th)."""
    out = []
    for m in range(2, count + 2):
        b = (m * signal_bin) % n
        if b > n // 2:
            b = n - b
        if b not in (0, signal_bin):
            out.append(b)
    return sorted(set(out))


def metrics(power: np.ndarray, signal_bin: int, power_total: float,
            f_s: float) -> SpectrumMetrics:
    """Extract dynamic metrics from a one-sided power spectrum.

    A record with no measurable non-signal power reports SNDR (and SFDR)
    as +inf sentinels rather than failing; its Walden FOM, which needs a
    finite ENOB, is then NaN rather than a best-possible zero.  A record
    with no power in the signal bin (a silent input) has no ratio to the
    signal to measure: SNDR, SFDR, THD, ENOB and the Walden FOM are NaN.
    """
    n_half = power.size - 1
    if not 1 <= signal_bin <= n_half:
        raise ValueError(f"metrics: signal bin {signal_bin} outside spectrum")
    p_sig = float(power[signal_bin])
    rest = float(np.sum(power[1:]) - p_sig)
    others = np.delete(power[1:], signal_bin - 1)
    p_spur = float(np.max(others)) if others.size else 0.0
    n = 2 * n_half
    harm = _harmonic_bins(signal_bin, n)
    p_harm = float(np.sum(power[harm])) if harm else 0.0
    if p_sig > 0.0:
        sndr = 10.0 * math.log10(p_sig / rest) if rest > 0.0 else math.inf
        sfdr = 10.0 * math.log10(p_sig / p_spur) if p_spur > 0.0 else math.inf
        thd = 10.0 * math.log10(p_harm / p_sig) if p_harm > 0.0 else -math.inf
    else:
        sndr = sfdr = thd = math.nan
    enob = (sndr - 1.76) / 6.02
    fom_w = power_total / (2.0 ** enob * f_s) if math.isfinite(enob) else math.nan
    return SpectrumMetrics(
        n=n, signal_bin=signal_bin,
        sndr=sndr, sfdr=sfdr, thd=thd, enob=enob,
        fom_walden=fom_w,
        fom_literal=power_total / f_s ** 2,
        fom_literal_unit="W/Hz^2 (J*s); not a conversion-step figure",
    )


def spectrum_csv(power: np.ndarray, f_s: float) -> str:
    """Plot-ready spectrum table: bin, frequency, power in dB full scale.

    0 dBFS is a full-scale sine (power 1/8 in the normalized convention).
    """
    n = 2 * (power.size - 1)
    p_fs = 1.0 / 8.0
    lines = ["bin,frequency_Hz,power_dBFS"]
    for k, p in enumerate(power.tolist()):
        db = 10.0 * math.log10(p / p_fs) if p > 0.0 else -math.inf
        lines.append(f"{k},{k * f_s / n:.12g},{db:.6f}" if math.isfinite(db)
                     else f"{k},{k * f_s / n:.12g},-inf")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# static metrology

class InsufficientDataError(ValueError):
    """A code-density record left codes unvisited."""

    def __init__(self, missing):
        self.missing = list(missing)
        head = ", ".join(str(m) for m in self.missing[:12])
        more = "..." if len(self.missing) > 12 else ""
        super().__init__(f"codes visited fewer than the required count: {head}{more}")


def inl_dnl(codes, bits: int, min_hits: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Code-density DNL and INL from a linear-ramp record [LSB].

    The two end codes absorb clipping and are excluded from the density
    estimate; INL is the running sum of DNL with the endpoints fitted to
    zero.  Every interior code must be visited at least min_hits times.
    """
    c = np.asarray(codes)
    n_codes = 2 ** bits
    hist = np.bincount(c, minlength=n_codes).astype(float)
    interior = hist[1:-1]
    short = np.nonzero(interior < min_hits)[0] + 1
    if short.size:
        raise InsufficientDataError(short)
    expected = interior.mean()
    dnl = interior / expected - 1.0
    inl = np.cumsum(dnl)
    x = np.linspace(0.0, 1.0, inl.size)
    inl = inl - (inl[0] + (inl[-1] - inl[0]) * x)
    return dnl, inl
