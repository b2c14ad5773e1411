"""Dynamic metrology: coherent tones, rectangular-window spectra,
SNDR/SFDR/THD/ENOB and figure-of-merit variants.

Coherent sampling is enforced (the tone bin must be coprime to the record
length) so the rectangular-window DFT is leakage-free; windowed estimation
is deliberately out of scope.  Noise accounting excludes the DC bin and the
signal bin; harmonics count toward SNDR, and the single largest non-signal
bin defines SFDR.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = ["Tone", "gen_coherent_tone", "spectrum", "SpectrumMetrics", "non_signal_bins",
           "metrics", "spectrum_csv"]


class Tone(NamedTuple):
    """Coherent differential test tone."""
    v_diff: np.ndarray     # differential samples [V]
    v_cm: float            # common mode both sides ride on [V]
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
    if not math.isfinite(amplitude):
        raise ValueError(f"gen_coherent_tone: amplitude {amplitude} V is not finite")
    k = np.arange(n)
    return Tone(v_diff=amplitude * np.sin(2.0 * np.pi * tone_bin * k / n), v_cm=v_cm,
                f_in=tone_bin / n * f_s)


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


class SpectrumMetrics(NamedTuple):
    n: int
    signal_bin: int
    sndr: float                # [dB]
    sfdr: float                # [dB]
    thd: float                 # harmonic-to-signal ratio [dB], negative
    enob: float                # (sndr - 1.76) / 6.02 exactly [bits]
    fom_walden: float          # p_total / (2^enob * f_s) [J/conversion-step]; NaN unless ENOB is finite
    fom_literal: float         # p_total / f_s^2, reported verbatim
    fom_literal_unit: str


def _harmonic_bins(signal_bin: int, n: int):
    """Aliased harmonic bin locations (2nd..6th)."""
    out = []
    for m in range(2, 7):
        b = (m * signal_bin) % n
        if b > n // 2:
            b = n - b
        if b not in (0, signal_bin):
            out.append(b)
    return sorted(set(out))


def _record_length(power: np.ndarray, n) -> int:
    """Length of the record a one-sided spectrum came from: n as given,
    which must fit the spectrum, or by default the even length."""
    if n is None:
        return 2 * (power.size - 1)
    if n // 2 != power.size - 1:
        raise ValueError(f"record length {n} does not give a {power.size}-bin spectrum")
    return n


def non_signal_bins(power: np.ndarray, signal_bin: int) -> np.ndarray:
    """The bins of a one-sided power spectrum that count as noise and
    distortion: every bin but DC and the signal bin, in bin order."""
    return np.concatenate((power[1:signal_bin], power[signal_bin + 1:]))


def metrics(power: np.ndarray, signal_bin: int, power_total: float,
            f_s: float, n: int | None = None) -> SpectrumMetrics:
    """Extract dynamic metrics from a one-sided power spectrum.

    n is the length of the record; a spectrum alone cannot tell an odd
    length from the even one below it, so the default is the even one.

    A record with no measurable non-signal power reports SNDR (and SFDR)
    as +inf sentinels rather than failing, and its Walden FOM as NaN (not a
    best-possible zero); ``metrics.json`` writes these and ENOB as null.  A record
    with no power in the signal bin (a silent input) has no ratio to the
    signal to measure: SNDR, SFDR, THD, ENOB and the Walden FOM are NaN.
    """
    n_half = power.size - 1
    if not 1 <= signal_bin <= n_half:
        raise ValueError(f"metrics: signal bin {signal_bin} outside spectrum")
    p_sig = float(power[signal_bin])
    others = non_signal_bins(power, signal_bin)
    rest = float(np.add.reduce(others))     # never below the largest: SFDR >= SNDR
    p_spur = float(np.maximum.reduce(others)) if others.size else 0.0
    n = _record_length(power, n)
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


def spectrum_csv(power: np.ndarray, f_s: float, n: int | None = None) -> str:
    """Plot-ready spectrum table: bin, frequency, power in dB full scale.

    0 dBFS is a full-scale sine (power 1/8 in the normalized convention).
    n is the record length, as for ``metrics``.

    The text is byte for byte what ``"%d,%.12g,%.6f\n"`` rows print, built
    from the columns by ``table_text``.  Each frequency is rounded to 12
    significant digits, and each level to 6 decimals, as its exact binary
    value rounds, half to even (``_round_scaled``).  A frequency drops its
    trailing fraction zeros; a level takes its sign apart, so one just below
    zero prints "-0.000000".  A row the columns cannot place is formatted by
    % alone: a level of -inf (an empty bin), or a frequency other than 0
    outside [1e-4, 1e12), where %.12g writes an exponent.
    """
    n = _record_length(power, n)
    rows = power.size
    freq = np.arange(rows) * f_s / n
    with np.errstate(divide="ignore"):
        level = 10.0 * np.log10(power / (1.0 / 8.0))

    # a frequency at or above _DECADES[i - 1] and below _DECADES[i] has
    # 16 - i decimals of its 12 significant digits; 0 prints as "0"
    decade = np.searchsorted(_DECADES, freq, side="right")
    zero = (freq == 0.0) & ~np.signbit(freq)
    placed = (decade > 0) & (decade < _DECADES.size) | zero
    decimals = 16 - np.where(placed & ~zero, decade, 16)
    digits = _round_scaled(np.where(placed, freq, 0.0), decimals)
    # one that rounds up into the next decade has a decimal fewer, and at
    # 1e12 none is left: %.12g turns to exponent form there
    up = digits == 1e12
    digits = np.where(up, 1e11, digits)
    decimals -= up
    placed &= decimals >= 0
    np.maximum(decimals, 0, out=decimals)
    whole = np.floor(digits / _POW10[decimals])
    fraction = digits - whole * _POW10[decimals]
    places = int(decimals.max())
    fraction *= _POW10[places - decimals]         # as ``places`` decimals

    # a finite level lies within about 3,300 dB of full scale
    finite = np.isfinite(level)
    micro = _round_scaled(np.where(finite, np.abs(level), 0.0), 6)
    units = np.floor(micro / 1e6)

    blocks = [np.arange(rows), ",", whole, (ord(".") * (fraction > 0.0))[:, None],
              _digit_slots(fraction, places, "trailing"), ",",
              (ord("-") * np.signbit(level))[:, None], units, ".",
              _digit_slots(micro - units * 1e6, 6), "\n"]
    lines = {k: "%d,%.12g,%.6f\n" % (k, freq[k], level[k])
             for k in np.flatnonzero(~(placed & finite)).tolist()}
    return "bin,frequency_Hz,power_dBFS\n" + table_text(blocks, rows, lines)


# ---------------------------------------------------------------------------
# table text from arrays

_POW10 = 10.0 ** np.arange(17)                       # exact in float64
# Dekker's split of each power into two halves of at most 26 bits, whose
# products with the halves of another split are exact
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# 1e-4 .. 1e12 as parsed: each is the double nearest its power of ten and
# lies above it, so x >= _DECADES[i] holds exactly when x is at least that power
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 13)])


def _round_scaled(x: np.ndarray, decimals) -> np.ndarray:
    """x * 10**decimals rounded to an integer as the exact product rounds,
    half to even, for x >= 0 and products below 2**52 [float].

    ``np.rint`` of the float product is right except where that product
    is a tie, an integer and a half, which the exact product may miss by
    its rounding error; Dekker's error-free product gives that error, and
    its sign decides those ties.
    """
    p = x * _POW10[decimals]
    q = np.rint(p)
    half = p - q
    tie = np.flatnonzero(np.abs(half) == 0.5)
    if tie.size:
        x, p, half = x[tie], p[tie], half[tie]
        decimals = decimals if np.ndim(decimals) == 0 else decimals[tie]
        c = x * 134217729.0
        x_hi = c - (c - x)
        x_lo = x - x_hi
        s_hi, s_lo = _POW10_HI[decimals], _POW10_LO[decimals]
        err = ((x_hi * s_hi - p) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
        # an exact product past the tie rounds away from q
        q[tie] += (half + half) * (err * half > 0.0)
    return q


_FULL, _LEAD, _LEAD0, _TRAIL = 0.0, 1e4, 2e4, 3e4   # region offsets in _chunk_words()


@functools.cache
def _chunk_words() -> np.ndarray:
    """The digit bytes of each chunk 0..9999 as one 4-byte word, in four
    regions: every digit shown (_FULL), leading zeros left out (_LEAD), the
    same but for the last digit (_LEAD0), trailing zeros left out (_TRAIL).

    The table is a constant, built on first use, so that importing the
    package does not pay for it.  Words are little-endian, so a word's
    first byte is its first digit; numpy gathers words from a flat table
    much faster than rows of bytes.
    """
    chunk = np.arange(10_000, dtype=np.uint32)
    powers = (1000, 100, 10, 1)
    digits = [chunk // p % 10 + ord("0") for p in powers]
    shown = ([True] * 4,
             [chunk >= p for p in powers],                  # from the first nonzero digit
             [chunk >= p for p in powers[:-1]] + [True],
             [chunk % (10 * p) > 0 for p in powers])        # up to the last nonzero one
    words = np.zeros((len(shown), chunk.size), dtype="<u4")
    for row, mask in zip(words, shown):
        for j, (digit, show) in enumerate(zip(digits, mask)):
            row |= (digit * show) << (8 * j)
    return words.ravel()


def _digit_slots(x: np.ndarray, width: int, blank: str | None = None) -> np.ndarray:
    """The bytes of the ``width`` decimal digits of integers 0 <= x < 10**width,
    below 2**53, as a (len(x), width) array, most significant first.

    ``blank`` names the zeros that become 0 bytes: "leading" (but the last
    digit, as %d prints) or "trailing" (as %g drops them after a point); by
    default every digit shows.  The digits come four at a time from
    ``_chunk_words()``.  The quotients by powers of ten are exact: below 2**53
    one that is not an integer does not round to one.  A "leading" column of
    at most four digits is its own chunk, so its word is one gather from the
    _LEAD0 region.
    """
    words = -(-width // 4)
    if words == 0:
        return np.empty((x.size, 0), dtype=np.uint8)
    if blank == "leading" and words == 1:
        chunk = x.astype(np.intp)
        chunk += int(_LEAD0)
        return _chunk_words()[chunk].view(np.uint8).reshape(x.size, 4)[:, 4 - width:]
    quotient = x / _POW10[4 * words - 4::-4, None]  # x / 10**4k, k = words-1 .. 0
    prefix = np.floor(quotient)                     # the chunks down to each word
    chunk = prefix.copy()
    chunk[1:] -= 1e4 * prefix[:-1]
    if blank == "leading":
        # a word leaves out its leading zeros while every chunk before it is
        # zero, and the last word keeps its last digit
        chunk[0] += _LEAD
        chunk[1:] += _LEAD * (prefix[:-1] == 0.0)
        chunk[-1] += (_LEAD0 - _LEAD) * (chunk[-1] >= _LEAD)
    elif blank == "trailing":
        # a word leaves out its trailing zeros once every chunk after it is
        # zero, that is once its quotient is whole
        chunk[:-1] += _TRAIL * (quotient[:-1] == prefix[:-1])
        chunk[-1] += _TRAIL
    digits = _chunk_words()[chunk.T.astype(np.intp, order="C")].view(np.uint8)
    # the first word is padded with leading zeros up to four digits
    return digits.reshape(x.size, 4 * words)[:, 4 * words - width:]


def table_text(blocks, rows: int, lines=None) -> str:
    """The text of a table, assembled from blocks of columns.

    A block is a one-character string, that byte in every row; a (rows,)
    array of integers 0 <= x < 2**53, each printed as %d prints it; or a
    (rows, k) array of bytes, where a 0 byte is left out.  ``lines`` maps
    row indices to text that replaces those rows.
    """
    blocks = [_digit_slots(b, len("%d" % b.max()), "leading") if np.ndim(b) == 1 else b
              for b in blocks]
    width = sum(1 if isinstance(b, str) else b.shape[1] for b in blocks)
    table = np.empty((rows, width), dtype=np.uint8)
    left = 0
    for b in blocks:
        right = left + (1 if isinstance(b, str) else b.shape[1])
        table[:, left:right] = ord(b) if isinstance(b, str) else b
        left = right
    if lines:
        table[list(lines)] = 0
    text = table.tobytes().translate(None, b"\0").decode("ascii")
    if not lines:
        return text
    ends = np.cumsum(np.count_nonzero(table, axis=1)).tolist()
    pieces, start = [], 0
    for k in sorted(lines):
        pieces += [text[start:ends[k]], lines[k]]
        start = ends[k]
    pieces.append(text[start:])
    return "".join(pieces)
