"""Differential binary-weighted capacitive DAC with common-mode-preserving
switching, unit-capacitor mismatch, parasitic attenuation, per-bit settling
and switching-energy accounting, plus a split-array variant and a topology
trade study.

Switching scheme (the converter's discipline)
---------------------------------------------
The first comparison acts on the raw held sample.  The bit-i event
(i = 1..B-1) then applies an equal-and-opposite correction: the side that
must fall swings its bit capacitor's bottom plate from v_ref down to the
midpoint rail v_ref/2, the side that must rise swings its bit capacitor
from ground up to the midpoint rail.  Each capacitor therefore moves once,
in one direction, and the common mode is untouched by construction.

The bit's ladder weight is

    s_i = v_ref * (C_i_p / N_p + C_i_n / N_n),   N_side = C_total_side + c_p

(the net full scale over 2^i for a mismatch-free array); the half-reference
swings apply half of it, so the correction after decision i is s_i / 2 =
net full scale / 2^(i+1), which is exactly the binary-search ladder that
reproduces the ideal mid-rise transfer.

Energy convention (normative for this model)
--------------------------------------------
Event energy is the charge *delivered* by the reference rails (v_ref and
the v_ref/2 midpoint), priced at the rail voltage and evaluated at the
settled voltage targets; charge returned to a rail is not recovered.
Capacitors that have already fired sit on the midpoint rail and take part
as bystanders; unfired capacitors are uncounted (their armed rail is fixed
only by the decision that fires them).  Per event the positive deliveries
are the rising capacitor's charge from the midpoint rail and the
falling side's fired bystanders, giving

    E_i = (v_ref^2 / 4) * [C_r * (N_r - C_r) / N_r + M_f * C_f / N_f]

with M_f the fired capacitance on the falling side.  This is nonnegative
for every event.  Bits fire MSB first and each fires on both sides, so M_f
is the prefix sum of the falling side's bit capacitances whatever the
earlier decisions were: E_i depends on decision i alone, and the ladder
holds it as a (B-1) x 2 table.  The independent per-event oracle used in
tests walks the same closed form without reading the table.

Ladder
------
A realized array of either topology is compiled once into a ``Ladder``:
per-side steps, equivalent single-node bit capacitances, node
capacitances, the mismatch-free nominal caps, switch resistances, per-bit
settling fractions and the event-energy table.  The engine's bit cycle,
energy accounting, the static transfer and the trade study all read it.

Topology trade study
--------------------
``compare_topologies`` reports, per topology, the physical capacitance and
sampling noise of the realized arrays, the converter-discipline energy, and
a textbook-discipline energy evaluated at matched total capacitance with no
parasitics ("ideal accounting"): the binary-weighted array runs the
classic trial/keep/reject charge-redistribution sequence, the split array
runs the recycling discipline in which every rejected trial is a single
small down-switch instead of a discharge-recharge pair.  The headline
energy-saving ratio compares those two matched-capacitance numbers; the
area, noise and nonlinearity rows use the attenuation-capacitor split array
at its physical size.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import AdcConfig, ConfigError, K_BOLTZMANN, net_full_scale

__all__ = [
    "Ladder", "TradeReport", "TopologyRow",
    "build_cap_array", "build_split_array", "step_voltage",
    "ron_schedule", "net_full_scale", "monotonic_energy_oracle",
    "conversion_energy", "conventional_energy", "splitcap_energy",
    "transfer_thresholds", "inl_from_steps", "compare_topologies",
]


# ---------------------------------------------------------------------------
# the compiled ladder

@dataclass(frozen=True)
class Ladder:
    """A realized differential array, compiled once (both sides).

    Bits are indexed 1..bits-1 MSB-first (array index i-1).  The bit
    capacitances are the single-node equivalents that reproduce the
    realized comparator-node steps; for the binary array they are the
    physical bit capacitors.
    """
    bits: int
    v_ref: float
    c_bits_p: np.ndarray         # equivalent bit caps, positive side [F]
    c_bits_n: np.ndarray
    node_p: float                # grounded capacitance at the comparator node [F]
    node_n: float
    dp: np.ndarray               # per-side step when bit i swings by v_ref [V]
    dn: np.ndarray
    c_total_p: float             # physical capacitor total [F]
    c_total_n: float
    c_nom: np.ndarray            # mismatch-free equivalent bit caps [F]
    r: np.ndarray                # switch on-resistances [Ohm]
    settle_p: np.ndarray         # unsettled fraction of bit i's step after t_phic_low
    settle_n: np.ndarray
    e_event: np.ndarray          # [i-1, (d+1)//2]: bit-i event energy for decision d [J]


def _draw_units(n_units: int, sigma_u: float, rng: np.random.Generator,
                max_retries: int = 100) -> np.ndarray:
    """Relative unit deviations, redrawing any that would kill a capacitor."""
    if sigma_u == 0.0:
        return np.zeros(n_units)
    dev = rng.normal(0.0, sigma_u, size=n_units)
    for _ in range(max_retries):
        bad = dev <= -1.0
        if not bad.any():
            return dev
        dev[bad] = rng.normal(0.0, sigma_u, size=int(bad.sum()))
    raise ConfigError("sigma_u: could not draw positive unit capacitors")


def _segment(counts: list, u: float, sigma_u: float,
             rng: np.random.Generator) -> np.ndarray:
    """Capacitors built from the given unit counts, from per-unit draws.

    Each capacitor is the sum of its constituent units, so its relative
    spread shrinks with the square root of the unit count.
    """
    dev = _draw_units(int(sum(counts)), sigma_u, rng)
    caps = np.empty(len(counts))
    pos = 0
    for k, n in enumerate(counts):
        caps[k] = u * (n + float(np.sum(dev[pos:pos + n])))
        pos += n
    return caps


def ron_schedule(c_nom: np.ndarray, cfg: AdcConfig) -> np.ndarray:
    """Per-bit DAC switch on-resistances [Ohm] for nominal bit caps c_nom.

    The constant-tau rule r_i * C_i = t_phic_low / n_settle gives every bit
    the same fractional settling error exp(-n_settle) inside the
    comparator-off window.  An explicit ``ron_dac`` list overrides it.
    """
    if isinstance(cfg.ron_dac, tuple):
        return np.asarray(cfg.ron_dac, dtype=float)
    return cfg.t_phic_low / (cfg.n_settle * c_nom)


def _compile(cfg: AdcConfig, side_p: tuple, side_n: tuple,
             c_nom: np.ndarray) -> Ladder:
    """Ladder from per-side (bit caps, node cap, steps, physical total)."""
    c_p, node_p, dp, total_p = side_p
    c_n, node_n, dn, total_n = side_n
    mid_p = np.concatenate(([0.0], np.cumsum(c_p)[:-1]))
    mid_n = np.concatenate(([0.0], np.cumsum(c_n)[:-1]))
    q = 0.25 * cfg.v_ref ** 2
    e_down = q * (c_p * (node_p - c_p) / node_p + mid_n * c_n / node_n)
    e_up = q * (c_n * (node_n - c_n) / node_n + mid_p * c_p / node_p)
    r = ron_schedule(c_nom, cfg)
    # scalar math.exp: numpy's vectorised exp may differ in the last bit
    settle_p = np.array([math.exp(-cfg.t_phic_low / (ri * ci)) for ri, ci in zip(r, c_p)])
    settle_n = np.array([math.exp(-cfg.t_phic_low / (ri * ci)) for ri, ci in zip(r, c_n)])
    return Ladder(
        bits=cfg.bits, v_ref=cfg.v_ref, c_bits_p=c_p, c_bits_n=c_n,
        node_p=node_p, node_n=node_n, dp=dp, dn=dn,
        c_total_p=total_p, c_total_n=total_n, c_nom=c_nom, r=r,
        settle_p=settle_p, settle_n=settle_n,
        e_event=np.stack([e_down, e_up], axis=1),
    )


def _binary_side(caps: np.ndarray, cfg: AdcConfig) -> tuple:
    """Bit caps followed by the terminator -> one side of a binary ladder."""
    c = caps[:-1]
    total = float(np.sum(c)) + float(caps[-1])
    node = total + cfg.c_p
    return c, node, cfg.v_ref * c / node, total


def build_cap_array(cfg: AdcConfig, rng: np.random.Generator) -> Ladder:
    """Draw and compile a realized array for the configured topology.

    The binary array's bit i holds 2^(bits-1-i) construction quanta and
    each side ends in a one-quantum terminator.  The quantum is
    c_dac / 2^(bits-1), which makes the mismatch-free step ladder exactly
    binary in the net full scale; the configured physical c_unit only
    bounds realizability.
    """
    if cfg.topology == "split":
        return build_split_array(cfg, rng)
    u_eff = cfg.c_dac / 2 ** (cfg.bits - 1)
    counts = [2 ** (cfg.bits - 1 - i) for i in range(1, cfg.bits)] + [1]
    side_p = _binary_side(_segment(counts, u_eff, cfg.sigma_u, rng), cfg)
    side_n = _binary_side(_segment(counts, u_eff, cfg.sigma_u, rng), cfg)
    return _compile(cfg, side_p, side_n, u_eff * np.asarray(counts[:-1], dtype=float))


def step_voltage(i: int, ladder: Ladder) -> float:
    """Differential correction magnitude for bit i [V], both sides combined."""
    if not 1 <= i <= ladder.bits - 1:
        raise ValueError(f"step_voltage: bit index {i} outside 1..{ladder.bits - 1}")
    return ladder.dp[i - 1] + ladder.dn[i - 1]


# ---------------------------------------------------------------------------
# split (attenuation-capacitor) array

def _split_side(main: np.ndarray, sub: np.ndarray, c_att: float,
                cfg: AdcConfig) -> tuple:
    """Main caps, sub caps and sub terminator -> one side of a split ladder.

    The comparator parasitic loads the main node and an equal parasitic
    loads the attenuation node, which is where this topology's
    nonlinearity comes from.  Each bit's main-node step is mapped to the
    equivalent single-node capacitance at the main node, on which the
    common-mode-preserving discipline and its energy accounting run
    (documented behavioral equivalence; the trade study's textbook numbers
    use exact networks).
    """
    sub, sub_term = sub[:-1], float(sub[-1])
    a = float(np.sum(main)) + cfg.c_p                  # grounded at the main node
    b = float(np.sum(sub)) + sub_term + cfg.c_p        # grounded at the sub node
    k = c_att
    node = a + k * b / (k + b)
    step = np.concatenate([cfg.v_ref * main / node,
                           cfg.v_ref * sub / (b + k * a / (k + a)) * k / (a + k)])
    total = float(np.sum(main) + np.sum(sub)) + sub_term + c_att
    return step * node / cfg.v_ref, node, step, total


def build_split_array(cfg: AdcConfig, rng: np.random.Generator) -> Ladder:
    """Draw and compile a realized split array in the physical unit.

    Per side the switched ladder is divided into a main segment (bits
    1..m_bits, binary-weighted in the physical unit) and a sub segment
    coupled through c_att, sized so the series branch presents exactly one
    unit at the main node; the sub terminator completes the sub segment.
    """
    l_bits = (cfg.bits - 1) // 2
    m_bits = cfg.bits - 1 - l_bits
    u = cfg.c_unit
    main_counts = [2 ** (m_bits - i) for i in range(1, m_bits + 1)]
    sub_counts = [2 ** (l_bits - j) for j in range(1, l_bits + 1)] + [1]
    main_p = _segment(main_counts, u, cfg.sigma_u, rng)
    main_n = _segment(main_counts, u, cfg.sigma_u, rng)
    sub_p = _segment(sub_counts, u, cfg.sigma_u, rng)
    sub_n = _segment(sub_counts, u, cfg.sigma_u, rng)
    c_att = u * 2 ** l_bits / (2 ** l_bits - 1)
    nominal = [u * np.asarray(c, dtype=float) for c in (main_counts, sub_counts)]
    return _compile(cfg, _split_side(main_p, sub_p, c_att, cfg),
                    _split_side(main_n, sub_n, c_att, cfg),
                    _split_side(*nominal, c_att, cfg)[0])


# ---------------------------------------------------------------------------
# energy of a decision sequence

def monotonic_energy_oracle(decisions, array) -> float:
    """Independent per-event CV accounting for a full decision sequence [J].

    Walks the closed form
      E_i = (v_ref^2 / 4) * (C_r*(N_r - C_r)/N_r + M_f*C_f/N_f)
    tracking the fired capacitance per side; cross-checks the ladder's
    event-energy table without reading it.
    """
    q = 0.25 * array.v_ref ** 2
    mid_p = mid_n = 0.0
    total = 0.0
    for k, d in enumerate(decisions[: array.bits - 1]):
        cp = array.c_bits_p[k]
        cn = array.c_bits_n[k]
        np_, nn_ = array.node_p, array.node_n
        if d > 0:
            total += q * (cn * (nn_ - cn) / nn_ + mid_p * cp / np_)
        else:
            total += q * (cp * (np_ - cp) / np_ + mid_n * cn / nn_)
        mid_p += cp
        mid_n += cn
    return total


def conversion_energy(code: int, ladder: Ladder) -> float:
    """Converter-discipline switching energy for one output code [J].

    The decision sequence of a SAR conversion is the code's bit pattern,
    so sweeping codes sweeps every possible switching trajectory.
    """
    decisions = (code >> np.arange(ladder.bits - 1, 0, -1)) & 1
    return float(np.sum(ladder.e_event[np.arange(ladder.bits - 1), decisions]))


# ---------------------------------------------------------------------------
# static transfer from a step ladder

def transfer_thresholds(steps: np.ndarray, bits: int) -> np.ndarray:
    """All 2^bits - 1 code transition voltages of a binary search [V].

    steps[k] is the differential correction of bit k+1.  The boundary
    between codes at depth j is the cumulative DAC position of the path
    prefix, enumerated breadth-first.
    """
    thresholds = np.empty(2 ** bits - 1)
    positions = np.array([0.0])
    for j in range(1, bits + 1):
        stride = 2 ** (bits - j)
        idx = (2 * np.arange(len(positions)) + 1) * stride - 1
        thresholds[idx] = positions
        if j <= bits - 1:
            s = steps[j - 1]
            positions = np.stack([positions - s, positions + s], axis=1).ravel()
    return thresholds


def inl_from_steps(steps: np.ndarray, bits: int, delta: float) -> np.ndarray:
    """Endpoint-fit integral nonlinearity of a realized ladder [LSB]."""
    t = transfer_thresholds(steps, bits)
    ideal = (np.arange(1, 2 ** bits) - 2 ** (bits - 1)) * delta
    err = t - ideal
    x = np.linspace(0.0, 1.0, len(err))
    err = err - (err[0] + (err[-1] - err[0]) * x)
    return err / delta


# ---------------------------------------------------------------------------
# textbook disciplines at matched capacitance ("ideal accounting")

def _transition_energy(caps: np.ndarray, n_total: float, on_before: np.ndarray,
                       on_after: np.ndarray) -> np.ndarray:
    """Reference charge energy of one bottom-plate state change per code.

    The last axis of the states runs over caps, any leading axes over codes.
    Normalized units (v_ref = 1); caps connected to the reference after the
    event pay/return C * (db - dv_top) each.
    """
    db = on_after - on_before
    dv = np.sum(caps * db, axis=-1, keepdims=True) / n_total
    return np.sum(np.where(on_after > 0, caps * (db - dv), 0.0), axis=-1)


def _trial_sequence_energy(code, bits: int, caps: np.ndarray, first_on: np.ndarray,
                           trial) -> np.ndarray:
    """Summed transition energies of a trial sequence, per code.

    ``first_on`` is the bottom-plate state after the first trial and
    ``trial(state, k, keep)`` applies decision k (the code's bit bits-1-k)
    to prefix rows in place.  The state after decision k depends only on the
    code's top k+1 bits, so each transition is computed once per prefix
    between the smallest and largest code's (at most 2^(k+1) rows) and
    gathered per code; a code's value comes from the same row and the same
    reduction as a walk over that code alone.
    """
    codes = np.asarray(code)
    lo, hi = int(codes.min()), int(codes.max())
    if lo < 0 or hi >= 2 ** bits:
        raise ValueError(f"codes must lie in [0, 2^{bits}), got {lo}..{hi}")
    n_total = float(np.sum(caps))
    state = first_on[np.newaxis, :]
    e = _transition_energy(caps, n_total, np.zeros_like(state), state)
    total = e[np.zeros_like(codes)]  # one entry per code, as each later term
    for k in range(bits - 1):
        shift = bits - 1 - k
        prefix = np.arange(lo >> shift, (hi >> shift) + 1)
        before = state[(prefix >> 1) - (lo >> (shift + 1))]
        state = before.copy()
        trial(state, k, prefix & 1)
        e = _transition_energy(caps, n_total, before, state)
        total = total + e[(codes >> shift) - (lo >> shift)]
    return total


def conventional_energy(code, bits: int):
    """Classic trial/keep/reject charge-redistribution energy, single side.

    ``code`` is an int or an integer array of codes in [0, 2^bits); the
    result is a float or an array of the same shape.  Normalized to unit capacitance and unit
    reference; the array is the full binary ladder plus terminator (2^bits
    units total).  The trial sequence starts with the top bit set; a kept
    trial charges the next capacitor, a rejected trial discharges its own
    and charges the next.
    """
    caps = np.array([2.0 ** (bits - 1 - k) for k in range(bits)] + [1.0])
    first_on = np.zeros_like(caps)
    first_on[0] = 1.0

    def trial(state, k, keep):
        state[:, k] = keep
        state[:, k + 1] = 1.0

    return _trial_sequence_energy(code, bits, caps, first_on, trial)


def splitcap_energy(code, bits: int):
    """Recycling-discipline energy on the split array, single side.

    ``code`` is an int or an integer array, as for ``conventional_energy``.
    Same total capacitance as the conventional array: the top weight is
    split into a bank replicating the lower ladder (sizes 2^(bits-2)..1
    plus a duplicate unit).  Every rejected trial discharges one bank
    capacitor of the next trial's weight; kept trials charge lower
    capacitors exactly as the conventional sequence does.
    """
    bank = [2.0 ** (bits - 2 - k) for k in range(bits - 1)] + [1.0]
    lower = [2.0 ** (bits - 1 - k) for k in range(1, bits)]
    caps = np.array(bank + lower + [1.0])
    n_bank = len(bank)
    first_on = np.zeros_like(caps)
    first_on[:n_bank] = 1.0

    def trial(state, k, keep):
        state[:, n_bank + k] = keep
        state[:, k] = keep  # bank capacitor of weight 2^(bits-2-k)

    return _trial_sequence_energy(code, bits, caps, first_on, trial)


# ---------------------------------------------------------------------------
# topology trade study

@dataclass(frozen=True)
class TopologyRow:
    topology: str
    c_total_side: float        # physical per-side capacitance [F]
    sigma_ktc: float           # differential sampled-noise rms [V]
    e_avg_conversion: float    # converter discipline, all-code average [J]
    e_avg_textbook: float      # textbook discipline at matched capacitance [J]
    inl_max: float             # worst static nonlinearity of the ladder [LSB]


@dataclass(frozen=True)
class TradeReport:
    binary: TopologyRow
    split: TopologyRow
    energy_saving: float       # 1 - split/binary under ideal accounting
    c_reduction: float         # binary/split physical capacitance ratio

    def rows(self):
        return (self.binary, self.split)

    def to_json_dict(self) -> dict:
        def row(r):
            return {
                "topology": r.topology,
                "c_total_side_F": r.c_total_side,
                "sigma_ktc_V": r.sigma_ktc,
                "e_avg_conversion_J": r.e_avg_conversion,
                "e_avg_textbook_J": r.e_avg_textbook,
                "inl_max_lsb": r.inl_max,
            }
        return {
            "rows": [row(self.binary), row(self.split)],
            "energy_saving_ideal_accounting": self.energy_saving,
            "capacitance_reduction": self.c_reduction,
        }

    def to_csv(self) -> str:
        lines = ["topology,c_total_side_F,sigma_ktc_V,e_avg_conversion_J,"
                 "e_avg_textbook_J,inl_max_lsb,energy_saving,c_reduction"]
        for r in self.rows():
            lines.append(
                f"{r.topology},{r.c_total_side:.12g},{r.sigma_ktc:.12g},"
                f"{r.e_avg_conversion:.12g},{r.e_avg_textbook:.12g},"
                f"{r.inl_max:.12g},{self.energy_saving:.12g},{self.c_reduction:.12g}"
            )
        return "\n".join(lines) + "\n"


def _sigma_ktc_diff(c_eff_side: float, t_kelvin: float) -> float:
    """Differential sampled-noise rms for a per-side capacitance [V]."""
    if t_kelvin <= 0:
        return 0.0
    return math.sqrt(2.0 * K_BOLTZMANN * t_kelvin / c_eff_side)




def _row(topology: str, ladder: Ladder, t_kelvin: float, e_textbook: float,
         delta: float) -> TopologyRow:
    """One topology's row; the all-code average of the converter-discipline
    energy is half the table sum, since every decision is +1 in half the
    codes."""
    steps = ladder.dp + ladder.dn
    return TopologyRow(
        topology=topology,
        c_total_side=0.5 * (ladder.c_total_p + ladder.c_total_n),
        sigma_ktc=_sigma_ktc_diff(ladder.node_p, t_kelvin),
        e_avg_conversion=0.5 * float(np.sum(ladder.e_event)),
        e_avg_textbook=e_textbook,
        inl_max=float(np.max(np.abs(inl_from_steps(steps, ladder.bits, delta)))),
    )


def compare_topologies(cfg: AdcConfig, rng: np.random.Generator) -> TradeReport:
    """Exhaustive-code energy, capacitance, noise and linearity comparison."""
    delta = net_full_scale(cfg.v_fs, cfg.c_dac, cfg.c_p) / 2 ** cfg.bits

    bin_ladder = build_cap_array(replace(cfg, topology="binary"), rng)
    split_ladder = build_split_array(cfg, rng)

    # Textbook disciplines, matched capacitance, no parasitics: single-ended
    # energies in (unit * v_ref^2), complementary code on the far side, unit
    # scaled so each scheme's per-side array totals c_dac.  Over all codes
    # the complementary codes n-1-code are the codes reversed, and each
    # code's energy depends on that code alone, so the far side is e[::-1].
    u = cfg.c_dac / 2 ** cfg.bits * cfg.v_ref ** 2
    n_codes = 2 ** cfg.bits
    codes = np.arange(n_codes)
    e = conventional_energy(codes, cfg.bits)
    e_conv = float(np.sum(e + e[::-1]))
    e = splitcap_energy(codes, cfg.bits)
    e_recyc = float(np.sum(e + e[::-1]))

    delta_split = step_voltage(1, split_ladder) / 2 ** (cfg.bits - 1)
    binary = _row("binary", bin_ladder, cfg.t_kelvin, e_conv / n_codes * u, delta)
    split = _row("split", split_ladder, cfg.t_kelvin, e_recyc / n_codes * u, delta_split)
    return TradeReport(
        binary=binary,
        split=split,
        energy_saving=1.0 - split.e_avg_textbook / binary.e_avg_textbook,
        c_reduction=binary.c_total_side / split.c_total_side,
    )
