"""Conversion engine: orchestrates sampling, asynchronous bit cycling,
DAC switching, timing bookkeeping and energy accounting.

Scheduling model: the conversion window is one sample period minus the
tracking phase.  Logic delay (every bit) and the fixed DAC-settle overhead
(every bit but the last) are reserved up front; the comparators share the
remaining slack greedily, each getting everything still unspent.  A
comparison whose regeneration latency exceeds its allowance is metastable:
the logic latches an arbitrary bit (random, flagged) and the slack is gone.
Once a comparison both has zero slack and needs nonzero time, the converter
gives up and completes the code at the middle of the unresolved range
(first open bit one, the rest zero), raising the timing-violation flag;
that bounds the error at half the unresolved span.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .capdac import build_cap_array, initial_state, switch_bit
from .comparator import Decision, decide
from .config import AdcConfig, K_BOLTZMANN, derived_constants, ideal_config
from .track_hold import HeldSample, sample


@dataclass(frozen=True)
class ConversionRecord:
    """Full trace of one conversion."""
    v_diff_in: float                  # differential input [V]
    held: HeldSample
    bits: tuple                       # per-bit decisions, +/-1, MSB first
    decisions: tuple                  # Decision objects for executed comparisons
    t_alloc: tuple                    # slack offered to each executed comparison [s]
    dac_residuals: tuple              # differential settle residual per switch [V]
    dac_energies: tuple               # per-switch event energy [J]
    code: int
    t_total: float                    # [s]
    metastable_bits: tuple            # indices (1-based) of metastable comparisons
    timing_violation: bool
    e_comparator: float               # [J]
    e_dac: float
    e_logic: float
    e_track: float

    @property
    def e_total(self) -> float:
        return self.e_comparator + self.e_dac + self.e_logic + self.e_track


def _code_from_bits(bits) -> int:
    code = 0
    for b in bits:
        code = (code << 1) | (1 if b > 0 else 0)
    return code


def convert(v_in_p: float, v_in_n: float, cfg: AdcConfig, ladder,
            rng: np.random.Generator,
            prev_held: tuple[float, float] | None = None) -> ConversionRecord:
    """One full conversion; all anomalies are flags in the record."""
    if not (0.0 <= v_in_p <= cfg.v_dd and 0.0 <= v_in_n <= cfg.v_dd):
        raise ValueError("convert: inputs must lie within [0, v_dd]")
    held = sample(v_in_p, v_in_n, cfg, rng, prev=prev_held)
    return _convert_held(held, v_in_p - v_in_n, cfg, ladder, rng)


@dataclass
class WaveformResult:
    codes: np.ndarray
    metastable: np.ndarray  # per sample: number of metastable comparisons
    violation: np.ndarray   # per sample: window-exhaustion flag
    n_samples: int
    n_metastable_bits: int
    n_metastable_conversions: int
    n_violations: int
    e_blocks: dict          # block name -> total energy [J]
    f_s: float
    records: list = field(default_factory=list)

    @property
    def e_total(self) -> float:
        return sum(self.e_blocks.values())

    @property
    def mean_power(self) -> float:
        """Average conversion energy times the sampling rate [W]."""
        return self.e_total / self.n_samples * self.f_s


def convert_waveform(samples, cfg: AdcConfig, seed: int = 0,
                     keep_records: bool = False) -> WaveformResult:
    """Convert a sequence of differential inputs (volts, centered on v_cm).

    The capacitor array is drawn and compiled once per run; each sample
    owns an independent random stream derived from (seed, index), so a
    fixed seed gives bit-identical results.  The held value of each sample
    is the settling start point of the next, so the track-and-hold pass
    runs sequentially before the bit-cycling pass.
    """
    diff = np.asarray(samples, dtype=float)
    if diff.size == 0:
        raise ValueError("convert_waveform: empty sample sequence")
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((seed, 1))))
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, 0, k)))
            for k in range(diff.size)]

    # Sequential pass: sampling (carries held state between conversions).
    helds = []
    prev = None
    for k in range(diff.size):
        v_p = cfg.v_cm + 0.5 * diff[k]
        v_n = cfg.v_cm - 0.5 * diff[k]
        if not (0.0 <= v_p <= cfg.v_dd and 0.0 <= v_n <= cfg.v_dd):
            raise ValueError(f"convert_waveform: sample {k} leaves [0, v_dd]")
        h = sample(v_p, v_n, cfg, rngs[k], prev=prev)
        helds.append(h)
        prev = (h.v_p, h.v_n)

    records = [_convert_held(helds[k], diff[k], cfg, ladder, rngs[k])
               for k in range(diff.size)]

    blocks = {
        "comparator": sum(r.e_comparator for r in records),
        "dac": sum(r.e_dac for r in records),
        "logic": sum(r.e_logic for r in records),
        "track_hold": sum(r.e_track for r in records),
    }
    return WaveformResult(
        codes=np.array([r.code for r in records], dtype=int),
        metastable=np.array([len(r.metastable_bits) for r in records], dtype=int),
        violation=np.array([r.timing_violation for r in records], dtype=bool),
        n_samples=diff.size,
        n_metastable_bits=sum(len(r.metastable_bits) for r in records),
        n_metastable_conversions=sum(bool(r.metastable_bits) for r in records),
        n_violations=sum(r.timing_violation for r in records),
        e_blocks=blocks,
        f_s=cfg.f_s,
        records=records if keep_records else [],
    )


def _convert_held(held: HeldSample, v_diff_in: float, cfg: AdcConfig, ladder,
                  rng: np.random.Generator) -> ConversionRecord:
    """Bit-cycling for an already-held sample (split out for batch runs)."""
    bits_n = cfg.bits
    window = 1.0 / cfg.f_s - cfg.t_track
    fixed = bits_n * cfg.t_delay + (bits_n - 1) * cfg.t_fix
    slack = window - fixed

    state = initial_state(held.v_p, held.v_n)
    bits, decisions, t_alloc = [], [], []
    residuals, energies = [], []
    meta, violation = [], False
    consumed = 0.0
    n_cycles = 0
    for i in range(1, bits_n + 1):
        avail = max(slack, 0.0)
        dec = decide(state.v_diff, avail, cfg, rng)
        n_cycles += 1
        decisions.append(dec)
        t_alloc.append(avail)
        if dec.metastable:
            meta.append(i)
            consumed += avail
            slack = 0.0
            if math.isinf(dec.t_decide) or avail <= 0.0:
                # A comparison that can never resolve, or one offered no
                # time at all, exhausts the window: complete the remaining
                # bits at the middle of the open range.
                bits.extend([1] + [-1] * (bits_n - i))
                violation = True
                break
            bits.append(dec.bit)
        else:
            consumed += dec.t_decide
            slack -= dec.t_decide
            bits.append(dec.bit)
        if i < bits_n:
            before = state
            state = switch_bit(state, i, dec.bit, cfg.t_phic_low, ladder)
            residuals.append((state.target_p - state.v_p) - (state.target_n - state.v_n))
            energies.append(state.energy - before.energy)

    e_comp = n_cycles * (2.0 * cfg.c_pq + cfg.c_xy) * cfg.v_dd ** 2
    t_total = cfg.t_track + n_cycles * cfg.t_delay \
        + len(residuals) * cfg.t_fix + consumed
    return ConversionRecord(
        v_diff_in=v_diff_in, held=held, bits=tuple(bits),
        decisions=tuple(decisions), t_alloc=tuple(t_alloc),
        dac_residuals=tuple(residuals), dac_energies=tuple(energies),
        code=_code_from_bits(bits), t_total=t_total,
        metastable_bits=tuple(meta), timing_violation=violation,
        e_comparator=e_comp, e_dac=state.energy,
        e_logic=n_cycles * cfg.e_logic, e_track=cfg.e_track,
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
    sampling: float        # 2kT / c_dac
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
    the deterministic error floor.
    """
    if target_sndr <= 0:
        raise ValueError("noise_budget: target_sndr must be positive")
    d = derived_constants(cfg)
    amplitude = math.sqrt(2.0 * signal_power)
    return NoiseBudget(
        comparator=cfg.sigma_n_comp ** 2,
        sampling=2.0 * K_BOLTZMANN * cfg.t_kelvin / cfg.c_dac,
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
    "ConversionRecord", "WaveformResult", "NoiseBudget", "PowerReport",
    "convert", "convert_waveform", "ideal_quantizer_code", "ideal_config",
    "noise_budget", "measure_distortion_power", "power_report",
]
