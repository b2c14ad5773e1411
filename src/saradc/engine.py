"""Conversion engine: sampling, asynchronous bit cycling, DAC switching,
timing bookkeeping and energy accounting in one pass per sample, on plain
floats; the results are per-sample arrays and per-block energy totals.

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
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .capdac import build_cap_array
from .comparator import comparator_power, decide
from .config import AdcConfig, derived_constants
from .track_hold import ktc_sigma, sample


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


def convert_waveform(samples, cfg: AdcConfig, seed: int = 0) -> WaveformResult:
    """Convert a sequence of differential inputs (volts, centered on v_cm).

    The capacitor array is drawn from SeedSequence((seed, 1)) and compiled
    once per run.  Each sample k is one pass: open its random stream
    SeedSequence((seed, 0, k)), sample the input (the previous held pair is
    the settling start point), then cycle the bits.  The stream is drawn in
    that order: the two track-and-hold noise normals, then per comparison
    one noise normal and, if metastable, one integer for the latched bit
    (noise draws only where the noise is on).  A fixed seed therefore gives
    bit-identical results.

    Bit i's switch moves each side's target by a quarter of the bit's
    ladder weight, equal and opposite, so the differential correction is
    the ladder's ``corrections[i-1]``; each plate settles toward its
    target, leaving the ladder's ``settle_p``/``settle_n`` fraction of the
    step after t_phic_low.
    """
    diff = np.asarray(samples, dtype=float)
    if diff.size == 0:
        raise ValueError("convert_waveform: empty sample sequence")
    n = diff.size
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((seed, 1))))
    dp, dn = ladder.dp.tolist(), ladder.dn.tolist()
    settle_p, settle_n = ladder.settle_p.tolist(), ladder.settle_n.tolist()
    e_event = ladder.e_event.tolist()
    bits_n = cfg.bits
    slack0 = (1.0 / cfg.f_s - cfg.t_track) - (bits_n * cfg.t_delay + (bits_n - 1) * cfg.t_fix)
    # comparator energy of a conversion that fired the latch c times
    e_comp_of = [comparator_power(c, cfg.c_pq, cfg.c_xy, cfg.v_dd) for c in range(bits_n + 1)]

    codes = np.empty(n, dtype=int)
    metastable = np.empty(n, dtype=int)
    violation = np.empty(n, dtype=bool)
    t_total = np.empty(n)
    e_comp = e_dac = e_logic = e_track = 0.0
    held = None
    for k, v in enumerate(diff.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, k)))
        v_in_p, v_in_n = cfg.v_cm + 0.5 * v, cfg.v_cm - 0.5 * v
        if not (0.0 <= v_in_p <= cfg.v_dd and 0.0 <= v_in_n <= cfg.v_dd):
            raise ValueError(f"convert_waveform: sample {k} leaves [0, v_dd]")
        held = sample(v_in_p, v_in_n, cfg, rng, prev=held)
        v_p, v_n = target_p, target_n = held

        slack = slack0
        consumed = energy = 0.0
        code = n_meta = 0
        exhausted = False
        for i in range(bits_n):
            avail = max(slack, 0.0)
            bit, t_decide, meta = decide(v_p - v_n, avail, cfg, rng)
            if meta:
                n_meta += 1
                consumed += avail
                slack = 0.0
                if math.isinf(t_decide) or avail <= 0.0:
                    # A comparison that can never resolve, or one offered no
                    # time at all, exhausts the window: complete the code at
                    # the middle of the open range.
                    code = ((code << 1) | 1) << (bits_n - 1 - i)
                    exhausted = True
                    break
            else:
                consumed += t_decide
                slack -= t_decide
            code = (code << 1) | (bit > 0)
            if i < bits_n - 1:
                target_p -= bit * dp[i] / 2.0
                target_n += bit * dn[i] / 2.0
                v_p = target_p - (target_p - v_p) * settle_p[i]
                v_n = target_n - (target_n - v_n) * settle_n[i]
                energy += e_event[i][(bit + 1) // 2]

        n_cycles = i + 1
        n_switched = i if exhausted else bits_n - 1
        codes[k] = code
        metastable[k] = n_meta
        violation[k] = exhausted
        t_total[k] = cfg.t_track + n_cycles * cfg.t_delay + n_switched * cfg.t_fix + consumed
        e_comp += e_comp_of[n_cycles]
        e_dac += energy
        e_logic += n_cycles * cfg.e_logic
        e_track += cfg.e_track

    return WaveformResult(
        codes=codes, metastable=metastable, violation=violation, t_total=t_total,
        e_blocks={"comparator": e_comp, "dac": e_dac, "logic": e_logic,
                  "track_hold": e_track},
        f_s=cfg.f_s,
    )


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

    def to_json_dict(self) -> dict:
        return {
            "comparator_V2": self.comparator,
            "sampling_V2": self.sampling,
            "quantization_V2": self.quantization,
            "distortion_V2": self.distortion,
            "total_V2": self.total,
            "signal_power_V2": self.signal_power,
            "target_sndr_dB": self.target_sndr,
            "allowed_V2": self.allowed,
            "slack_V2": self.slack,
            "predicted_sndr_dB": self.predicted_sndr,
        }


def measure_distortion_power(cfg: AdcConfig, amplitude: float,
                             n: int = 64, tone_bin: int = 3,
                             seeds: int = 64) -> float:
    """Deterministic front-end distortion power at a tone condition [V^2].

    Runs the full chain with every random noise source disabled but all
    static imperfections kept (tracking nonlinearity, pedestal, finite DAC
    settling, the drawn capacitor mismatch), averaged over the given seed
    count, then subtracts the ideal quantization power from the non-signal
    spectrum.  Clamped at zero.
    """
    quiet = replace(cfg, sigma_n_comp=0.0, t_kelvin=0.0)
    d = derived_constants(cfg)
    tone = analysis.gen_coherent_tone(n, tone_bin, amplitude, cfg.v_cm, cfg.f_s)
    acc = 0.0
    for s in range(seeds):
        res = convert_waveform(tone.v_diff, quiet, seed=s)
        power = analysis.spectrum(res.codes, cfg.bits)
        acc += float(np.sum(power[1:]) - power[tone_bin])
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

    def to_csv(self) -> str:
        lines = ["block,power_W,fraction"]
        for k, v in self.blocks.items():
            lines.append(f"{k},{v:.12g},{v / self.total:.12g}")
        lines.append(f"total,{self.total:.12g},1")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"blocks_W": dict(self.blocks), "total_W": self.total,
                "fractions": self.fractions}


def power_report(result: WaveformResult) -> PowerReport:
    """Per-block mean power of a batch; blocks sum exactly to the total."""
    blocks = {k: v / result.n_samples * result.f_s
              for k, v in result.e_blocks.items()}
    return PowerReport(blocks=blocks, total=sum(blocks.values()))


__all__ = [
    "WaveformResult", "NoiseBudget", "PowerReport", "convert_waveform",
    "ideal_quantizer_code", "noise_budget", "measure_distortion_power", "power_report",
]
