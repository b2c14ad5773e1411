"""Conversion engine: sampling, asynchronous bit cycling, DAC switching,
slack scheduling and energy accounting over blocks of samples with array
operations, looping in Python only over the bits; the results are
per-sample arrays and per-block energy totals.  Every block's record-sized
float scratch comes from one workspace, allocated once per call and carved
into rows for each block.

Each block is converted in two passes.  A comparison's regeneration time
matters only when it overruns the slack left in the sample period, which
the shipped timing budget sizes to happen at a rate of p_meta = 1e-7.  So
the lean pass compares and switches every conversion as if none did: per
bit it forms the side difference, the effective input and its sign, and
switches the DAC by the bit's half swing times that sign, keeping each
bit's effective input and its sign (+-1 as a double, 0 only for an exact
zero) in workspace rows.  After the loop it takes the latencies of all of
the effective inputs in one call and sums each conversion's latencies in
another.
A conversion whose latencies add up to at most ``slack0 * (1 - 1e-9)`` had
no metastable comparison, since every comparison's allowance is the window
less the latencies before it; the margin is far above what the roundings
of a sum of up to 24 latencies, in any order, can move it (a few 1e-15 of
it).  A conversion flagged with no metastable comparison gets the same
decisions from either pass, so the summation order changes no result.  The
careful pass decides the conversions the screen flags (never too
few) again from their held pairs, with the latch and stop bookkeeping, and
their decisions replace their sign rows; both passes switch through
``_switch``.  An exact zero never resolves (its latency is +inf), so the
screen always flags it, and no 0 outlives the careful pass.  Then the
block's codes come from one product of its sign rows with the code
weights, and each conversion's switch energy from one gather of the
events its signs select, added in bit order.

The per-bit constants that the bit loop reads off a seed's capacitor ladder
(half swings, event energies) and the settle fractions of its switches are
kept in one engine-private memo, ``_plan``, with the code weights, keyed
by the (frozen, hashable) config and the seed and bounded at
``_PLAN_MEMO`` entries, so a seed ensemble converted again at another
tone condition draws and compiles no ladder.  Its arrays are read-only,
because every call that hits an entry shares them.

Scheduling model: the conversion window is one sample period minus the
tracking phase.  Logic delay (every bit) and the fixed DAC-settle overhead
(every bit but the last) are reserved up front; the comparators share the
remaining slack greedily, each getting everything still unspent.  A
comparison whose regeneration latency exceeds its allowance is metastable:
the logic latches an arbitrary bit (random, counted per sample) and the
slack is gone.  Once a comparison both has zero slack and needs nonzero
time, the converter gives up and completes the code at the middle of the
unresolved range (first open bit one, the rest zero), raising the
timing-violation flag; that bounds the error at half the unresolved span.

So a conversion latches at most one bit and goes on: that leaves no
slack, and any later comparison that needs time is offered none and stops
the conversion.  Its metastable count exceeds its violation flag by at
most one, and each sample draws one latch normal up front, whose sign is
the bit it latches.
"""

import functools
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import analysis
from .capdac import build_cap_array, settle_fractions
from .comparator import compare, decision_latencies
from .config import AdcConfig, derived_constants
from .track_hold import _SIDES, hold, ktc_sigma


class WaveformResult(NamedTuple):
    """Per-sample results of one record, plus energy per block."""
    codes: np.ndarray       # output code, int32
    metastable: np.ndarray  # number of metastable comparisons, uint8
    violation: np.ndarray   # window-exhaustion flag, bool
    e_blocks: dict          # block name -> total energy [J]
    f_s: float

    @property
    def n_samples(self) -> int:
        return int(self.codes.size)

    @property
    def n_metastable_bits(self) -> int:
        return int(self.metastable.sum())

    @property
    def n_metastable_conversions(self) -> int:
        return int(np.count_nonzero(self.metastable))

    @property
    def n_violations(self) -> int:
        return int(np.count_nonzero(self.violation))


_STREAM_BLOCK = 4096        # samples per block pass; bounds each block's workspace
# plans kept: the largest seed ensemble the repository runs (64 seeds, as the
# acceptance tone runs and the noise budget use), so that an ensemble run
# again at another tone condition builds no ladder; a full memo holds well
# under 256 KiB
_PLAN_MEMO = 64


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _plan(cfg: AdcConfig, seed: int) -> tuple:
    """The bit loop's constants from the ladder drawn from SeedSequence((seed, 1)).

    Returns (h_up, settle, e_flat, fall_at, weights).  Row i-1 of ``h_up``
    and of ``settle`` belongs to switched bit i: the half swing of a rising
    decision (it lowers the positive side) and the unsettled fraction, each
    a (2, 1) side column.  The fractions are ``capdac.settle_fractions`` of
    the ladder, which sizes each switch against the topology's nominal
    network: the bit loop is their one reader, so the plan, not the
    ladder, holds them.  ``e_flat`` holds a zero and then bit i's event
    energies, the falling decision's first, at 2i - 1 and 2i; row i-1 of
    the column ``fall_at`` is 2i - 1.  ``weights`` are half the code
    weights, MSB first, so that w . s + (2^bits - 1) / 2 is the code of the
    +-1 decisions s.  Each is one contiguous read-only array, shared by
    every call the memo serves.
    """
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((seed, 1))))
    plan = (np.array((ladder.step * _SIDES).T[:, :, None], order="C"),
            np.array(settle_fractions(cfg, ladder).T[:, :, None], order="C"),
            np.concatenate(([0.0], ladder.e_event.ravel())),
            np.arange(1, 2 * cfg.bits - 2, 2)[:, None],
            np.ldexp(1.0, np.arange(cfg.bits - 2, -2, -1)))
    for a in plan:
        a.flags.writeable = False
    return plan


def convert_waveform(samples, cfg: AdcConfig, seed: int = 0) -> WaveformResult:
    """Convert a sequence of differential inputs (volts, centered on v_cm).

    The capacitor array is drawn from SeedSequence((seed, 1)); the bit
    loop's constants compiled from it come from the memo ``_plan``, keyed by
    (cfg, seed) and bounded at ``_PLAN_MEMO`` entries, so a record whose
    config and seed were seen recently builds no ladder.  The memo's arrays
    are read-only, and a hit gives the same results as a miss.

    The noise comes from one record stream, the generator that
    SeedSequence((seed, 0)) seeds: sample k takes one row of standard
    normals from it, in sample order, holding the two track-and-hold
    normals (positive side first) if kT/C is on, one normal per comparison
    if the comparator noise is on (all ``bits`` of them, even when the
    conversion stops early), and last the latch normal.  A fixed seed
    therefore gives bit-identical results, however the record is split.

    The record is converted in blocks of up to ``_STREAM_BLOCK`` samples,
    all carved from one workspace; a call keeps nothing record-wide but its
    input and its three outputs.  A block forms its two sides in its first
    two sign rows, refused if one leaves the rails, and takes its rows in
    one call, which one multiply regroups into one contiguous row per
    normal and scales to its source's rms: ``ktc_sigma``, ``sigma_n_comp``,
    and 1.0 for the latch row.  ``track_hold.hold`` adds the kT/C rows to
    the held pairs it solves from the pair the previous block left.  Then
    two passes convert the block.

    The block's workspace holds, in order, one row per normal, the held
    pairs, each conversion's latency sum, one sign row per bit, and the
    lean pass's rows (``_lean_pass``): its targets, plates, side difference
    and switch step, seven rows, and one effective-input row per bit, which
    in turn hold the latencies and then the switch events' indices.  The
    careful pass (``_careful_pass``) reads the flagged columns of the
    block's held pairs and noise rows, works on arrays of those columns
    alone, and writes their decisions into the sign rows.

    Bit i's switch moves each side's target by a quarter of the bit's
    ladder weight, equal and opposite, so the differential correction is
    the ladder's ``corrections[i-1]``; each plate settles toward its
    target, leaving the plan's ``settle`` fraction of the step.  Row 0
    of every (2, .) array is the positive side.  Only the screen reads the
    latency sums.  Switch energies add per sample in bit order until a
    conversion stops, and the block totals add in sample order, as a
    sequential walk would.
    """
    diff = np.asarray(samples, dtype=float)
    if diff.ndim != 1:
        raise ValueError("convert_waveform: samples must be a one-dimensional sequence")
    if diff.size == 0:
        raise ValueError("convert_waveform: empty sample sequence")
    n, bits_n, sigma_ktc, sigma = diff.size, cfg.bits, ktc_sigma(cfg), cfg.sigma_n_comp
    h_up, settle, e_flat, fall_at, weights = _plan(cfg, seed)
    switch = tuple(zip(h_up, settle))
    n_hold, n_noise = (2 if sigma_ktc > 0 else 0), (bits_n if sigma > 0 else 0)
    # each normal row's rms; the latch normal's sign alone is read
    scale = np.array([sigma_ktc] * n_hold + [sigma] * n_noise + [1.0])[:, None]
    # an overbooked window offers every comparison no time, as an empty one does
    slack0 = max((1.0 / cfg.f_s - cfg.t_track)
                 - (bits_n * cfg.t_delay + (bits_n - 1) * cfg.t_fix), 0.0)

    # the narrowest dtypes that hold a result (bits <= 24): at 0 K an int64
    # pair left a 65,536-sample call near glibc's heap-trim point, where the
    # interpreter's start-up layout decided whether every call faulted its
    # heap top in again
    codes = np.zeros(n, dtype=np.int32)
    metastable = np.zeros(n, dtype=np.uint8)
    violation = np.zeros(n, dtype=bool)
    totals = [0.0] * 4          # comparator, dac, logic, track_hold [J]
    prev = np.array([cfg.v_cm, cfg.v_cm])
    stream = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    # one workspace, carved anew for each block: the normal rows, the held
    # pairs, each conversion's latency sum, one sign row per bit, then the
    # lean pass's rows (seven and one per bit); the sign rows first hold the
    # input sides and the lean rows the stream's sample-major draw.  A block's
    # peak transient must stay well under twice the workspace: glibc sets its
    # heap-trim point at twice the largest block it has freed, returns the
    # heap top once the free space exceeds it, and each returned page then
    # costs a fault on the next record (a 4,096-sample call peaks at 1.17x
    # its 1,376 KiB workspace at 130 MHz and 1.44x at 225 MHz, traced).  So
    # the blocks share it: one per block would live beside its predecessor's
    # while it is made
    n_rows = n_hold + n_noise + 1
    n_work = n_rows + 3 + bits_n + 7 + bits_n
    block_n = min(n, _STREAM_BLOCK)
    workspace = np.empty(n_work * block_n)
    for start in range(0, n, _STREAM_BLOCK):
        block = slice(start, min(start + _STREAM_BLOCK, n))
        size = block.stop - start
        work = workspace[:n_work * size].reshape(n_work, size)
        rows, held, consumed = work[:n_rows], work[n_rows:n_rows + 2], work[n_rows + 2]
        signs = work[n_rows + 3:n_rows + 3 + bits_n]
        v_in = np.add(cfg.v_cm, _SIDES * diff[block], out=signs[:2])
        inside = (0.0 <= v_in) & (v_in <= cfg.v_dd)
        if np.count_nonzero(inside) != inside.size:
            first = start + np.argmin(inside.all(axis=0))
            raise ValueError(f"convert_waveform: sample {first} leaves [0, v_dd]")
        passes = work[n_rows + 3 + bits_n:]
        stage = passes.reshape(-1)[:size * n_rows].reshape(size, n_rows)
        stream.standard_normal(out=stage)
        # one contiguous row per normal, scaled to its source's rms: hold's
        # sweeps and each bit read rows, not strided columns
        np.multiply(stage.T, scale, out=rows)
        hold(v_in, cfg, rows[:n_hold] if n_hold else 0.0, prev, held)
        prev = held[:, -1].copy()
        noise = rows[n_hold:-1] if n_noise else None
        _lean_pass(held, noise, passes, signs, switch, cfg, consumed)

        n_cycles = bits_n       # comparisons each conversion made
        flagged = np.flatnonzero(consumed > slack0 * (1.0 - 1e-9))
        if flagged.size:
            n_cycles = np.full(size, bits_n)
            coin = np.where(rows[-1, flagged] > 0.0, 1.0, -1.0)
            careful = _careful_pass(held, noise, flagged, coin, signs, switch, cfg, slack0)
            for out, values in zip((metastable[block], violation[block], n_cycles), careful):
                out[flagged] = values

        # every conversion's code, from its +-1 sign rows in one product:
        # exact, since every partial sum is a multiple of 1/2 far below 2^53
        spent, code_f = passes[:4], passes[4]
        np.matmul(weights, signs, out=code_f)
        np.add(code_f, (2 ** bits_n - 1) / 2, out=codes[block], casting="unsafe")
        # and its switch energy: the events its signs select, a stopped
        # conversion's read as e_flat's zero from its stop bit on, gathered
        # into the sign rows, which the codes no longer need
        at = passes[7:6 + bits_n].view(np.intp)
        np.add(signs[:-1] > 0.0, fall_at, out=at)
        if flagged.size:
            at *= fall_at < 2 * n_cycles - 1
        events = np.take(e_flat, at, out=signs[:-1], mode="clip")
        # they add into the tally's DAC row in bit order, a row at a time:
        # np.add.reduce would sum a one-sample block's rows pairwise, and a
        # cumsum down the rows runs ten times slower
        spent[1] = events[0]
        for row in events[1:]:
            spent[1] += row

        # running totals in sample order, carried across blocks: the carried
        # total joins each row's first term, in rows the passes no longer read;
        # each comparison fires the latch once
        spent[0] = n_cycles * cfg.c_comp * cfg.v_dd ** 2
        spent[2], spent[3] = n_cycles * cfg.e_logic, cfg.e_track
        spent[:, 0] += totals
        totals = np.cumsum(spent, axis=1, out=spent)[:, -1].tolist()

    e_comp, e_dac, e_logic, e_track = totals
    return WaveformResult(
        codes=codes, metastable=metastable, violation=violation,
        e_blocks={"comparator": e_comp, "dac": e_dac, "logic": e_logic,
                  "track_hold": e_track},
        f_s=cfg.f_s,
    )


def _lean_pass(held, noise, work, signs, switch, cfg, consumed) -> None:
    """Compare and switch every conversion at every bit, none metastable.

    Bit i's effective input goes into row 7 + i of ``work`` and its sign,
    +-1 (0 for an exact zero), into ``signs[i]``; rows 0-6 hold the
    targets, the plates, the side difference and the switch step, and the
    first bit reads the held pairs.  ``noise`` is the comparator noise
    rows, or None.  Then the effective-input rows become latencies, which
    sum per conversion into ``consumed``.
    """
    bits_n = cfg.bits
    target, v, v_diff, step = work[:2], work[2:4], work[4], work[5:7]
    v_eff = work[7:7 + bits_n]
    side = base = held
    for i in range(bits_n):
        np.subtract(side[0], side[1], out=v_diff)
        compare(v_diff, 0.0 if noise is None else noise[i], out=(v_eff[i], signs[i]))
        if i == bits_n - 1:
            break
        _switch(base, side, signs[i], switch[i], target, v, step)
        side, base = v, target

    latencies = decision_latencies(np.abs(v_eff, out=v_eff), cfg.tau_reg, cfg.v_dd,
                                   cfg.a_v, out=v_eff)
    np.add.reduce(latencies, axis=0, out=consumed)


def _switch(base, side, sign, bit, target, v, step) -> None:
    """One bit's DAC switch for decisions ``sign`` (+-1): each side's
    ``target`` moves from ``base`` by the bit's half swing times the sign,
    held in ``step``, and each plate ``v`` settles from ``side`` toward it,
    v = t - (t - side) * settle.  ``bit`` is the bit's (half swing,
    settle) from ``_plan``."""
    h_up, settle = bit
    np.multiply(h_up, sign, out=step)
    np.subtract(base, step, out=target)
    np.subtract(target, side, out=v)
    v *= settle
    np.subtract(target, v, out=v)


def _careful_pass(held, noise, flagged, coin, signs, switch, cfg: AdcConfig,
                  slack0: float) -> tuple:
    """Decide the flagged conversions with the latch and stop bookkeeping.

    It converts columns ``flagged`` of the block's held pairs ``held``
    again, reading bit i's noise from row i of the block's ``noise`` rows
    (or None), and latches ``coin`` (+-1) for a metastable comparison, one
    whose latency exceeds the slack left.  Each bit's decisions, its sign
    or latched coin, +-1, replace the flagged columns of its row of
    ``signs``; a stopped conversion gets +1 at its stop bit and -1 after
    it, the middle of its open range.  Returns (metastable count,
    violation flag, comparisons made).  Every bit takes the same steps; on
    a bit where none is metastable and none has stopped they change
    nothing.  The loop ends once every conversion has stopped, since the
    rest of a stopped code is fixed.
    """
    bits_n, k = cfg.bits, flagged.size
    target = held[:, flagged]
    v = target.copy()
    step = np.empty((2, k))
    v_diff, t_decide, up = np.zeros((3, k))
    slack = np.full(k, slack0)
    meta, exhausted = np.zeros((2, k), dtype=bool)
    n_meta = np.zeros(k, dtype=int)
    n_cycles = np.full(k, bits_n)
    for i in range(bits_n):
        np.subtract(v[0], v[1], out=v_diff)
        compare(v_diff, 0.0 if noise is None else noise[i, flagged], out=(t_decide, up))
        np.greater(decision_latencies(np.abs(t_decide, out=t_decide), cfg.tau_reg, cfg.v_dd,
                                      cfg.a_v, out=t_decide), slack, out=meta)
        latched = meta & ~exhausted
        # a comparison that can never resolve, or one offered no time at
        # all, exhausts the window: the code is completed at the middle of
        # the open range (this bit one, the rest zero; the DAC moves after
        # it are never read).  The other latched ones take their coin and
        # go on with no slack left, so any later metastable comparison
        # stops them
        stop = latched & (np.isinf(t_decide) | (slack <= 0.0))
        np.copyto(up, coin, where=latched)
        np.copyto(up, -1.0, where=exhausted)
        np.copyto(up, 1.0, where=stop)
        n_meta += latched
        # a metastable comparison spends all the slack it had (an exhausted
        # conversion has none left, so it spends zero)
        np.copyto(t_decide, slack, where=meta)
        slack -= t_decide
        n_cycles[stop] = i + 1
        exhausted |= stop
        signs[i, flagged] = up
        if exhausted.all():
            signs[i + 1:, flagged] = -1.0
            break
        if i < bits_n - 1:
            _switch(target, v, up, switch[i], target, v, step)
    return n_meta, exhausted, n_cycles


def ideal_quantizer_code(v_diff: float, cfg: AdcConfig) -> int:
    """Analytic mid-rise transfer the ideal-mode converter must reproduce."""
    d = derived_constants(cfg)
    k = math.floor(v_diff / d.delta) + 2 ** (cfg.bits - 1)
    return min(max(k, 0), 2 ** cfg.bits - 1)


# ---------------------------------------------------------------------------
# noise budget

class NoiseBudget(NamedTuple):
    """Input-referred error powers against an SNDR target [V^2]."""
    comparator: float
    sampling: float        # 2kT / (c_dac + c_p), both sides' sampled noise
    quantization: float    # delta^2 / 12
    distortion: float      # measured from a noiseless distortion run
    signal_power: float
    target_sndr: float

    @property
    def total(self) -> float:
        return self.comparator + self.sampling + self.quantization + self.distortion

    @property
    def predicted_sndr(self) -> float:
        return 10.0 * math.log10(self.signal_power / self.total)


# the budget's one tone condition, 64 seeds of 64-sample records at bin 3:
# that of the runs whose mean SNDR acceptance criterion 4 checks it against
_BUDGET_N, _BUDGET_BIN, _BUDGET_SEEDS = 64, 3, 64


def measure_distortion_power(cfg: AdcConfig, amplitude: float) -> float:
    """Deterministic front-end distortion power at the budget's tone
    condition [V^2].

    Runs the full chain with every random noise source disabled but all
    static imperfections kept (tracking nonlinearity, finite DAC settling,
    the drawn capacitor mismatch), averaged over the condition's seeds,
    then subtracts the ideal quantization power from the non-signal power,
    the sum of ``analysis.non_signal_bins`` that SNDR's noise also is.
    Clamped at zero.
    """
    quiet = replace(cfg, sigma_n_comp=0.0, t_kelvin=0.0)
    d = derived_constants(cfg)
    tone = analysis.gen_coherent_tone(_BUDGET_N, _BUDGET_BIN, amplitude, cfg.v_cm, cfg.f_s)
    acc = 0.0
    for s in range(_BUDGET_SEEDS):
        res = convert_waveform(tone.v_diff, quiet, seed=s)
        power = analysis.spectrum(res.codes, cfg.bits)
        acc += float(np.add.reduce(analysis.non_signal_bins(power, _BUDGET_BIN)))
    non_signal = acc / _BUDGET_SEEDS * d.v_fs_net ** 2
    return max(non_signal - d.delta ** 2 / 12.0, 0.0)


def noise_budget(cfg: AdcConfig, target_sndr: float, signal_power: float) -> NoiseBudget:
    """Term-by-term error budget against an SNDR target.

    The first three terms are analytic; the distortion term is measured by
    a dedicated noiseless simulation at the budget's tone condition (the
    record length, bin and seed set of the runs it is checked against), so
    the budget checks that the random noise terms add orthogonally on top
    of the deterministic error floor.  The tone amplitude
    sqrt(2*signal_power) must lie within the net half scale, so that
    clipping is never booked as distortion.
    """
    if target_sndr <= 0:
        raise ValueError("noise_budget: target_sndr must be positive")
    if not signal_power > 0:
        raise ValueError(
            f"noise_budget: signal_power {signal_power:g} must be positive")
    d = derived_constants(cfg)
    amplitude = math.sqrt(2.0 * signal_power)
    if not amplitude <= d.v_fs_net / 2.0:
        raise ValueError(
            f"noise_budget: signal_power {signal_power:g} implies an amplitude of "
            f"{amplitude:g} V, beyond the net half scale {d.v_fs_net / 2.0:g} V")
    return NoiseBudget(
        comparator=cfg.sigma_n_comp ** 2,
        sampling=2.0 * ktc_sigma(cfg) ** 2,
        quantization=d.delta ** 2 / 12.0,
        distortion=measure_distortion_power(cfg, amplitude),
        signal_power=signal_power,
        target_sndr=target_sndr,
    )


# ---------------------------------------------------------------------------
# power bookkeeping

class PowerReport(NamedTuple):
    blocks: dict           # block name -> power [W]
    total: float

    @property
    def fractions(self) -> dict:
        return {k: v / self.total for k, v in self.blocks.items()}


def power_report(result: WaveformResult) -> PowerReport:
    """Per-block mean power of a batch; blocks sum exactly to the total."""
    blocks = {k: v / result.n_samples * result.f_s
              for k, v in result.e_blocks.items()}
    return PowerReport(blocks=blocks, total=sum(blocks.values()))


__all__ = [
    "WaveformResult", "NoiseBudget", "PowerReport", "convert_waveform",
    "ideal_quantizer_code", "noise_budget", "measure_distortion_power", "power_report",
]
