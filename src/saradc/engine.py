"""Conversion engine: sampling, asynchronous bit cycling, DAC switching,
timing bookkeeping and energy accounting over blocks of samples with array
operations, looping in Python only over the bits; the results are
per-sample arrays and per-block energy totals.  Every block's record-sized
float scratch comes from one workspace, allocated once per call and carved
into rows for each block.

Each block is converted in two passes.  A comparison's regeneration time
matters only when it overruns the slack left in the sample period, which
the shipped timing budget sizes to happen at a rate of p_meta = 1e-7.  So
the lean pass compares and switches every conversion as if none did: per
bit it forms the side difference, the effective input and its sign, and
switches the DAC, keeping each bit's effective input in a workspace row and
its sign in a bool row.  After the loop it takes the latencies of all of
those rows in one call and adds each conversion's latencies in bit order.
A conversion whose latencies add up to at most ``slack0 * (1 - 1e-9)`` had
no metastable comparison, since every comparison's allowance is the window
less the latencies before it; the margin is far above what the few dozen
sequential roundings of up to 24 bits can move such a sum (a few 1e-15 of
it).  The careful pass decides the conversions the screen flags (never too
few) again from their held pairs, with the latch and stop bookkeeping, and
their decisions replace their sign rows; both passes switch through
``_switch``.  Then every conversion's code and switch energy are formed
once, from the sign rows.

The per-bit constants that the bit loop reads off a seed's capacitor ladder
(half swings, settle fractions, event energies) are kept in one
engine-private memo, ``_plan``, keyed by the (frozen, hashable) config and
the seed and bounded at ``_PLAN_MEMO`` entries, so a seed ensemble
converted again at another tone condition draws and compiles no ladder.
Its arrays are read-only, because every call that hits an entry shares
them.

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
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .capdac import build_cap_array
from .comparator import comparator_power, compare, decision_latencies
from .config import AdcConfig, derived_constants
from .track_hold import _SIDES, hold, ktc_sigma


@dataclass
class WaveformResult:
    """Per-sample results of one record, plus energy per block."""
    codes: np.ndarray       # output code
    metastable: np.ndarray  # number of metastable comparisons
    violation: np.ndarray   # window-exhaustion flag
    t_total: np.ndarray     # conversion time, tracking included [s]
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

    Row i-1 of each belongs to switched bit i: the half swings of a rising
    decision (it lowers the positive side) and of a falling one and the
    unsettled fraction, each a (2, 1) side column; then the event energies
    of a rising and of a falling decision, rows 0 and 1 of a (2, bits-1)
    table.  Each is one contiguous read-only array, shared by every call
    the memo serves.  A ladder that cannot be drawn raises on every call,
    since the memo keeps no error.
    """
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((seed, 1))))
    h_up = np.array((ladder.step * _SIDES).T[:, :, None], order="C")
    plan = (h_up, -h_up, np.array(ladder.settle.T[:, :, None], order="C"),
            np.array(ladder.e_event.T[::-1], order="C"))
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
    input and its four outputs.  A block forms its two sides, refused if
    one leaves the rails, and takes its rows in one call, regrouped in the
    workspace into one contiguous row per normal; ``track_hold.hold``
    solves its held pairs into the workspace from the pair the previous
    block left.  Then two passes convert the block.

    The block's workspace holds, in order, one row per normal, the held
    pairs, each conversion's consumed time, and the lean pass's rows
    (``_lean_pass``): its targets, plates and side difference, five rows,
    and one effective-input row per bit, which in turn hold the latencies
    and the switch events' energies.  Its signs go to a bool row per bit,
    allocated once per call beside the workspace.  The careful pass
    (``_careful_pass``) reads the flagged columns of the block's held pairs
    and noise rows, and works on arrays of those columns alone.

    Bit i's switch moves each side's target by a quarter of the bit's
    ladder weight, equal and opposite, so the differential correction is
    the ladder's ``corrections[i-1]``; each plate settles toward its
    target, leaving the ladder's ``settle`` fraction of the step.  Row 0
    of every (2, .) array is the positive side.  Latencies and energies add
    per sample in bit order until a conversion stops, and the block totals
    add in sample order, as a sequential walk would.
    """
    diff = np.asarray(samples, dtype=float)
    if diff.ndim != 1:
        raise ValueError("convert_waveform: samples must be a one-dimensional sequence")
    if diff.size == 0:
        raise ValueError("convert_waveform: empty sample sequence")
    n, bits_n, sigma = diff.size, cfg.bits, cfg.sigma_n_comp
    plan = _plan(cfg, seed)
    switch = list(zip(*plan[:3]))
    n_hold = 2 if ktc_sigma(cfg) > 0 else 0
    n_noise = bits_n if sigma > 0 else 0
    # an overbooked window offers every comparison no time, as an empty one does
    slack0 = max((1.0 / cfg.f_s - cfg.t_track)
                 - (bits_n * cfg.t_delay + (bits_n - 1) * cfg.t_fix), 0.0)
    weights = np.left_shift(1, np.arange(bits_n - 1, -1, -1))
    # a select on the doubles' bits, exact and branch-free (np.where over the
    # event rows runs several times slower): the falling event's bits, with
    # their difference from the rising event's flipped where the sign is set
    rising, falling = plan[3].view(np.int64)[:, :, None]
    flip = np.bitwise_xor(rising, falling)

    codes, metastable = np.zeros((2, n), dtype=int)
    violation = np.zeros(n, dtype=bool)
    t_total = np.empty(n)
    totals = [0.0] * 4          # comparator, dac, logic, track_hold [J]
    prev = np.array([cfg.v_cm, cfg.v_cm])
    stream = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    # one workspace, carved anew for each block: the normal rows, the held
    # pairs, each conversion's consumed time, then the lean pass's rows (five
    # and one per bit), which first stage the stream's sample-major draw.  A
    # block's peak transient must stay well under twice the workspace: glibc
    # sets its heap-trim point at twice the largest block it has freed,
    # returns the heap top once the free space exceeds it, and each returned
    # page then costs a fault on the next record (a 4,096-sample call peaks
    # at 1.5x its 992 KiB workspace at 130 MHz and 1.8x at 225 MHz, traced).
    # So the blocks share it: one per block would live beside its
    # predecessor's while it is made
    n_rows = n_hold + n_noise + 1
    n_work = n_rows + 3 + max(5 + bits_n, n_rows)
    block_n = min(n, _STREAM_BLOCK)
    workspace = np.empty(n_work * block_n)
    sign_rows = np.empty(bits_n * block_n, dtype=bool)
    for start in range(0, n, _STREAM_BLOCK):
        block = slice(start, min(start + _STREAM_BLOCK, n))
        size = block.stop - start
        v_in = cfg.v_cm + _SIDES * diff[block]
        inside = (0.0 <= v_in) & (v_in <= cfg.v_dd)
        if np.count_nonzero(inside) != inside.size:
            first = start + np.argmin(inside.all(axis=0))
            raise ValueError(f"convert_waveform: sample {first} leaves [0, v_dd]")
        work = workspace[:n_work * size].reshape(n_work, size)
        rows, held, consumed = work[:n_rows], work[n_rows:n_rows + 2], work[n_rows + 2]
        passes = work[n_rows + 3:]
        stage = passes.reshape(-1)[:size * n_rows].reshape(size, n_rows)
        stream.standard_normal(out=stage)
        # one contiguous row per normal: hold's sweeps and each bit read rows,
        # not strided columns
        np.copyto(rows, stage.T)
        hold(v_in, cfg, rows[:n_hold], prev, held)
        prev = held[:, -1].copy()
        rows[n_hold:-1] *= sigma    # the comparator's normals, scaled in place
        noise = rows[n_hold:-1] if n_noise else None
        signs = sign_rows[:bits_n * size].reshape(bits_n, size)
        _lean_pass(held, noise, passes, signs, switch, cfg, consumed)

        n_cycles = bits_n       # comparisons each conversion made
        flagged = np.flatnonzero(consumed > slack0 * (1.0 - 1e-9))
        if flagged.size:
            n_cycles = np.full(size, bits_n)
            careful = _careful_pass(held, noise, flagged, rows[-1, flagged] > 0.0,
                                    switch, cfg, slack0)
            signs[:, flagged] = careful[0]
            for out, values in zip((metastable[block], violation[block], n_cycles, consumed),
                                   careful[1:]):
                out[flagged] = values

        # every conversion's code and switch energy, from its sign rows; the
        # switched bits' latency rows, summed already, take the event energies
        np.matmul(weights, signs, out=codes[block])
        events = passes[5:4 + bits_n]
        as_bits = events.view(np.int64)
        np.multiply(signs[:-1], flip, out=as_bits)
        np.bitwise_xor(as_bits, falling, out=as_bits)
        if flagged.size:
            # a stopped conversion switches nothing from its stop bit on: one
            # scatter per stop bit, into the stopped columns alone
            stopped = flagged[violation[block][flagged]]
            stop_bit = n_cycles[stopped] - 1
            for bit in np.unique(stop_bit):
                events[bit:, stopped[stop_bit == bit]] = 0.0
        # the events add into the tally's DAC row in bit order, a row at a
        # time: np.add.reduce would sum a one-sample block's rows pairwise
        spent = passes[:4]
        spent[1].fill(0.0)
        for row in events:
            spent[1] += row

        # every comparison but the last switches the DAC
        t_total[block] = (cfg.t_track + n_cycles * cfg.t_delay + (n_cycles - 1) * cfg.t_fix
                          + consumed)
        # running totals in sample order, carried across blocks: the carried
        # total joins each row's first term, in rows the passes no longer read
        spent[0] = comparator_power(n_cycles, cfg.c_comp, cfg.v_dd)
        spent[2], spent[3] = n_cycles * cfg.e_logic, cfg.e_track
        spent[:, 0] += totals
        totals = np.cumsum(spent, axis=1, out=spent)[:, -1].tolist()

    e_comp, e_dac, e_logic, e_track = totals
    return WaveformResult(
        codes=codes, metastable=metastable, violation=violation, t_total=t_total,
        e_blocks={"comparator": e_comp, "dac": e_dac, "logic": e_logic,
                  "track_hold": e_track},
        f_s=cfg.f_s,
    )


def _lean_pass(held, noise, work, signs, switch, cfg, consumed) -> None:
    """Compare and switch every conversion at every bit, none metastable.

    Bit i's effective input goes into row 5 + i of ``work`` and its sign
    into ``signs[i]``; rows 0-4 hold the targets, the plates and the side
    difference, and the first bit reads the held pairs.  ``noise`` is the
    comparator noise rows, or None.  Then the effective-input rows become
    latencies, which add per conversion in bit order into ``consumed``.
    """
    bits_n = cfg.bits
    target, v, v_diff = work[:2], work[2:4], work[4]
    v_eff = work[5:5 + bits_n]
    side = base = held
    for i in range(bits_n):
        np.subtract(side[0], side[1], out=v_diff)
        compare(v_diff, 0.0 if noise is None else noise[i], out=(v_eff[i], signs[i]))
        if i == bits_n - 1:
            break
        _switch(base, side, signs[i], switch[i], target, v)
        side, base = v, target

    latencies = decision_latencies(np.abs(v_eff, out=v_eff), cfg.tau_reg, cfg.v_dd,
                                   cfg.a_v, out=v_eff)
    consumed.fill(0.0)
    for row in latencies:
        consumed += row


def _switch(base, side, up, bit, target, v) -> None:
    """One bit's DAC switch for decisions ``up``: each side's ``target``
    moves from ``base`` by the bit's half swing, and each plate ``v``
    settles from ``side`` toward it, v = t - (t - side) * settle.  ``bit``
    is the bit's (h_up, h_down, settle) from ``_plan``."""
    h_up, h_down, settle = bit
    np.subtract(base, np.where(up, h_up, h_down), out=target)
    np.subtract(target, side, out=v)
    v *= settle
    np.subtract(target, v, out=v)


def _careful_pass(held, noise, flagged, coin, switch, cfg: AdcConfig,
                  slack0: float) -> tuple:
    """Decide the flagged conversions with the latch and stop bookkeeping.

    It converts columns ``flagged`` of the block's held pairs ``held``
    again, reading bit i's noise from row i of the block's ``noise`` rows
    (or None), and latches ``coin`` for a metastable comparison, one whose
    latency exceeds the slack left.  Returns (decisions, metastable
    count, violation flag, comparisons made, consumed time): a
    (bits, conversions) bool array of each bit's sign or latched coin, with
    a one at a stopped conversion's stop bit and zeros after it.  The loop
    ends once every conversion has stopped, since the rest of a stopped
    code is zeros and spends no slack.
    """
    bits_n, k = cfg.bits, flagged.size
    target = held[:, flagged]
    v = target.copy()
    v_diff, t_decide, consumed = np.zeros((3, k))
    slack = np.full(k, slack0)
    ups = np.zeros((bits_n, k), dtype=bool)
    meta, exhausted = np.zeros((2, k), dtype=bool)
    n_meta = np.zeros(k, dtype=int)
    n_cycles = np.full(k, bits_n)
    n_stopped = 0
    for i, up in enumerate(ups):
        np.subtract(v[0], v[1], out=v_diff)
        compare(v_diff, 0.0 if noise is None else noise[i, flagged], out=(t_decide, up))
        np.greater(decision_latencies(np.abs(t_decide, out=t_decide), cfg.tau_reg, cfg.v_dd,
                                      cfg.a_v, out=t_decide), slack, out=meta)
        if n_stopped or np.count_nonzero(meta):
            latched = meta & ~exhausted
            # a comparison that can never resolve, or one offered no time
            # at all, exhausts the window: the code is completed at the
            # middle of the open range (this bit one, the rest zero; the
            # DAC moves after it are never read)
            stop = latched & (np.isinf(t_decide) | (slack <= 0.0))
            np.copyto(up, stop, where=exhausted | stop)
            # the rest latch their coin and go on with no slack left, so
            # any later metastable comparison stops them
            np.copyto(up, coin, where=latched & ~stop)
            n_meta += latched
            # a metastable comparison spends all the slack it had (an
            # exhausted conversion has none left, so it adds zero)
            np.copyto(t_decide, slack, where=meta)
            n_cycles[stop] = i + 1
            exhausted |= stop
            n_stopped = np.count_nonzero(exhausted)
        consumed += t_decide
        slack -= t_decide
        if n_stopped == k:
            break
        if i < bits_n - 1:
            _switch(target, v, up, switch[i], target, v)
    return ups, n_meta, exhausted, n_cycles, consumed


def ideal_quantizer_code(v_diff: float, cfg: AdcConfig) -> int:
    """Analytic mid-rise transfer the ideal-mode converter must reproduce."""
    d = derived_constants(cfg)
    k = math.floor(v_diff / d.delta) + 2 ** (cfg.bits - 1)
    return min(max(k, 0), 2 ** cfg.bits - 1)


# ---------------------------------------------------------------------------
# noise budget

@dataclass(frozen=True)
class NoiseBudget:
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
    def allowed(self) -> float:
        return self.signal_power / 10.0 ** (self.target_sndr / 10.0)

    @property
    def slack(self) -> float:
        """Unused error power; negative means the target is missed [V^2]."""
        return self.allowed - self.total

    @property
    def predicted_sndr(self) -> float:
        return 10.0 * math.log10(self.signal_power / self.total)


def measure_distortion_power(cfg: AdcConfig, amplitude: float,
                             n: int = 64, tone_bin: int = 3,
                             seeds: int = 64) -> float:
    """Deterministic front-end distortion power at a tone condition [V^2].

    Runs the full chain with every random noise source disabled but all
    static imperfections kept (tracking nonlinearity, finite DAC settling,
    the drawn capacitor mismatch), averaged over the given seed count, then
    subtracts the ideal quantization power from the non-signal power, the
    sum of ``analysis.non_signal_bins`` that SNDR's noise also is.  Clamped
    at zero.
    """
    quiet = replace(cfg, sigma_n_comp=0.0, t_kelvin=0.0)
    d = derived_constants(cfg)
    tone = analysis.gen_coherent_tone(n, tone_bin, amplitude, cfg.v_cm, cfg.f_s)
    acc = 0.0
    for s in range(seeds):
        res = convert_waveform(tone.v_diff, quiet, seed=s)
        power = analysis.spectrum(res.codes, cfg.bits)
        acc += float(np.add.reduce(analysis.non_signal_bins(power, tone_bin)))
    non_signal = acc / seeds * d.v_fs_net ** 2
    return max(non_signal - d.delta ** 2 / 12.0, 0.0)


def noise_budget(cfg: AdcConfig, target_sndr: float, signal_power: float,
                 n: int = 64, tone_bin: int = 3, seeds: int = 64) -> NoiseBudget:
    """Term-by-term error budget against an SNDR target.

    The first three terms are analytic; the distortion term is measured by
    a dedicated noiseless simulation at the stated tone condition (same
    record length, bin and seed set as the run being budgeted), so the
    budget checks that the random noise terms add orthogonally on top of
    the deterministic error floor.  The tone amplitude sqrt(2*signal_power)
    must lie within the net half scale, so that clipping is never booked as
    distortion.
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
        distortion=measure_distortion_power(cfg, amplitude, n=n,
                                            tone_bin=tone_bin, seeds=seeds),
        signal_power=signal_power,
        target_sndr=target_sndr,
    )


# ---------------------------------------------------------------------------
# power bookkeeping

@dataclass(frozen=True)
class PowerReport:
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
