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
capacitances and physical totals, each with a leading side axis (row 0
positive, row 1 negative); the differential correction of each decision
and the event-energy table.  The engine's bit cycle, energy accounting,
the static transfer and the trade study all read it.

The ladder holds the realized network alone: ``settle_fractions`` sizes
the switches against the topology's mismatch-free network for the
engine's plan, their one reader, so the trade study builds no nominal one.

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
from typing import NamedTuple

import numpy as np

from .config import AdcConfig, derived_constants, kt_over_c

__all__ = [
    "Ladder", "TradeReport", "TopologyRow",
    "build_cap_array", "build_binary_array", "build_split_array", "settle_fractions",
    "transfer_thresholds", "inl_from_steps",
    "compare_topologies",
]

# ---------------------------------------------------------------------------
# the compiled ladder

class Ladder(NamedTuple):
    """A realized differential array, compiled once (both sides).

    Per-side fields lead with the side axis, row 0 the positive side and
    row 1 the negative one.  Bits are indexed 1..bits-1 MSB-first (array
    index i-1).  The bit capacitances are the single-node equivalents that
    reproduce the realized comparator-node steps; for the binary array they
    are the physical bit capacitors.  The switches' settling is not part
    of it: ``settle_fractions`` sizes them against the nominal network.
    """
    bits: int
    v_ref: float
    c_bits: np.ndarray           # (2, bits-1) equivalent bit caps [F]
    node: np.ndarray             # (2,) grounded capacitance at the comparator node [F]
    step: np.ndarray             # (2, bits-1) step when bit i swings by v_ref [V]
    corrections: np.ndarray      # differential correction applied after decision i [V]
    c_total: np.ndarray          # (2,) physical capacitor total [F]
    e_event: np.ndarray          # [i-1, (d+1)//2]: bit-i event energy for decision d [J]


def _segment(counts: list, u: float, sigma_u: float,
             rng: np.random.Generator) -> np.ndarray:
    """Both sides' capacitors from the given unit counts and per-unit draws.

    Each side draws its relative unit deviations in turn, the positive side
    first, and redraws any unit that would kill a capacitor (a deviation of
    -1 or less) until none is left.  The loop ends at any sigma_u: a draw is
    dead with probability below 1/2, so each round leaves fewer dead units
    in expectation; at sigma_u = 0 every draw is an exact zero.  Each
    capacitor is the sum of its constituent units, so its relative spread
    shrinks with the square root of the unit count.
    """
    dev = np.empty((2, int(sum(counts))))
    for side in dev:
        side[:] = rng.normal(0.0, sigma_u, size=side.size)
        while (bad := side <= -1.0).any():
            side[bad] = rng.normal(0.0, sigma_u, size=int(bad.sum()))
    caps = np.empty((2, len(counts)))
    pos = 0
    for k, n in enumerate(counts):
        np.add.reduce(dev[:, pos:pos + n], axis=1, out=caps[:, k])
        pos += n
    return u * (caps + counts)


def _compile(cfg: AdcConfig, c: np.ndarray, node: np.ndarray, step: np.ndarray,
             total: np.ndarray) -> Ladder:
    """Ladder from (2, .) bit caps, node caps, steps and physical totals.

    A bit event costs the rising side's own term plus the falling side's
    fired bystanders (``cross``); a -1 decision raises the positive side.
    """
    mid = np.zeros_like(c)
    np.cumsum(c[:, :-1], axis=1, out=mid[:, 1:])
    node_col = node[:, None]
    q = 0.25 * cfg.v_ref ** 2
    own = c * (node_col - c) / node_col
    cross = mid * c / node_col
    # event row d is the one in which side d rises: a -1 decision, then a +1
    return Ladder(
        bits=cfg.bits, v_ref=cfg.v_ref, c_bits=c, node=node, step=step,
        corrections=(step[0] + step[1]) / 2, c_total=total,
        e_event=(q * (own + cross[::-1])).T.copy(),
    )


def build_cap_array(cfg: AdcConfig, rng: np.random.Generator) -> Ladder:
    """Draw and compile a realized array for the configured topology."""
    if cfg.topology == "split":
        return build_split_array(cfg, rng)
    return build_binary_array(cfg, rng)


def _binary_units(cfg: AdcConfig) -> tuple:
    """The binary array's construction quantum and unit counts.

    Bit i holds 2^(bits-1-i) quanta and each side ends in a one-quantum
    terminator.  The quantum is c_dac / 2^(bits-1), which makes the
    mismatch-free step ladder exactly binary in the net full scale; the
    configured physical c_unit only bounds realizability.
    """
    counts = [2 ** (cfg.bits - 1 - i) for i in range(1, cfg.bits)] + [1]
    return cfg.c_dac / 2 ** (cfg.bits - 1), counts


def build_binary_array(cfg: AdcConfig, rng: np.random.Generator) -> Ladder:
    """Draw and compile a realized binary-weighted array (``_binary_units``)."""
    u_eff, counts = _binary_units(cfg)
    caps = _segment(counts, u_eff, cfg.sigma_u, rng)
    c = caps[:, :-1].copy()
    total = np.add.reduce(c, axis=1) + caps[:, -1]
    node = total + cfg.c_p
    return _compile(cfg, c, node, cfg.v_ref * c / node[:, None], total)


# ---------------------------------------------------------------------------
# split (attenuation-capacitor) array

def _split_sides(main: np.ndarray, sub: np.ndarray, c_att: float,
                 cfg: AdcConfig) -> tuple:
    """Main caps, sub caps and sub terminator -> sides of a split ladder.

    The comparator parasitic loads the main node and an equal parasitic
    loads the attenuation node, which is where this topology's
    nonlinearity comes from.  Each bit's main-node step is mapped to the
    equivalent single-node capacitance at the main node, on which the
    common-mode-preserving discipline and its energy accounting run
    (documented behavioral equivalence; the trade study's textbook numbers
    use exact networks).
    """
    sub, sub_term = sub[..., :-1], sub[..., -1:]
    main_sum = np.add.reduce(main, axis=-1, keepdims=True)
    sub_sum = np.add.reduce(sub, axis=-1, keepdims=True)
    a = main_sum + cfg.c_p                    # grounded at the main node
    b = sub_sum + sub_term + cfg.c_p          # grounded at the sub node
    k = c_att
    node = a + k * b / (k + b)
    step = np.concatenate([cfg.v_ref * main / node,
                           cfg.v_ref * sub / (b + k * a / (k + a)) * k / (a + k)], axis=-1)
    total = (main_sum + sub_sum) + sub_term + c_att
    return step * node / cfg.v_ref, node[..., 0], step, total[..., 0]


def _split_units(cfg: AdcConfig) -> tuple:
    """The split array's unit, its main and sub unit counts (the sub
    terminator last) and c_att.

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
    return u, main_counts, sub_counts, u * 2 ** l_bits / (2 ** l_bits - 1)


def build_split_array(cfg: AdcConfig, rng: np.random.Generator) -> Ladder:
    """Draw and compile a realized split array in the physical unit
    (``_split_units``)."""
    u, main_counts, sub_counts, c_att = _split_units(cfg)
    main = _segment(main_counts, u, cfg.sigma_u, rng)
    sub = _segment(sub_counts, u, cfg.sigma_u, rng)
    return _compile(cfg, *_split_sides(main, sub, c_att, cfg))


# ---------------------------------------------------------------------------
# switch sizing against the nominal network

def settle_fractions(cfg: AdcConfig, ladder: Ladder) -> np.ndarray:
    """(2, bits-1) unsettled fraction of each bit's step on a realized ladder
    of the configured topology.

    Each bit's switch is sized for its nominal cap alone (constant tau): the
    equivalent bit cap of the mismatch-free network, the binary array's
    quanta or the split array's nominal sides.  So a bit settles
    n_settle * nominal / c time constants and leaves exp(-n_settle) of its
    step when its cap is nominal, in either topology.
    """
    if cfg.topology == "split":
        u, main_counts, sub_counts, c_att = _split_units(cfg)
        nominal = _split_sides(u * np.asarray(main_counts, dtype=float),
                               u * np.asarray(sub_counts, dtype=float), c_att, cfg)[0]
    else:
        u_eff, counts = _binary_units(cfg)
        nominal = u_eff * np.asarray(counts[:-1], dtype=float)
    return np.exp(-cfg.n_settle * (nominal / ladder.c_bits))


# ---------------------------------------------------------------------------
# static transfer from a step ladder

def transfer_thresholds(steps: np.ndarray, bits: int) -> np.ndarray:
    """All 2^bits - 1 code transition voltages of a binary search [V].

    steps[k] is the differential correction of bit k+1.  The boundary
    between codes at depth j is the cumulative DAC position of the path
    prefix.  The boundaries form an in-order tree rooted at 0 V: the
    children of a depth-j node sit h = 2^(bits-1-j) entries to either side
    of it and are its position minus and plus steps[j-1], each depth
    filled in place by one strided subtraction and one strided addition.
    """
    thresholds = np.empty(2 ** bits - 1)
    thresholds[2 ** (bits - 1) - 1] = 0.0
    for j in range(1, bits):
        h = 2 ** (bits - 1 - j)
        parents = thresholds[2 * h - 1::4 * h]
        np.subtract(parents, steps[j - 1], out=thresholds[h - 1::4 * h])
        np.add(parents, steps[j - 1], out=thresholds[3 * h - 1::4 * h])
    return thresholds


def inl_from_steps(steps: np.ndarray, bits: int, delta: float) -> np.ndarray:
    """Endpoint-fit integral nonlinearity of a realized ladder [LSB],
    worked out in the thresholds' own array."""
    err = transfer_thresholds(steps, bits)
    err -= np.arange(1 - 2 ** (bits - 1), 2 ** (bits - 1)) * delta
    fit = np.linspace(0.0, 1.0, len(err))
    fit *= err[-1] - err[0]
    fit += err[0]
    err -= fit
    err /= delta
    return err


# ---------------------------------------------------------------------------
# textbook disciplines at matched capacitance ("ideal accounting")

def _textbook_totals(bits: int) -> tuple:
    """Both sides' all-code energy totals of the two textbook disciplines.

    Exact integers in (unit * v_ref^2), rounded once to float.  One side's
    conventional total over the 2^B codes is sum_i 4^(B-i) (2^i - 1), which
    is 2^B times half the differential average sum_i 2^(B+1-2i) (2^i - 1)
    of Liu et al. (IEEE JSSC 2010); the recycling discipline saves
    2^(B-1) (2^(B-1) - 1) of it (Ginsburg & Chandrakasan, IEEE JSSC 2007).
    The far side's complementary codes run over every code again, hence the
    factor 2.  The tests check both totals against a per-code state walk.
    """
    conv = sum(4 ** (bits - i) * (2 ** i - 1) for i in range(1, bits + 1))
    recyc = conv - 2 ** (bits - 1) * (2 ** (bits - 1) - 1)
    return float(2 * conv), float(2 * recyc)


# ---------------------------------------------------------------------------
# topology trade study

class TopologyRow(NamedTuple):
    topology: str
    c_total_side: float        # physical per-side capacitance [F]
    sigma_ktc: float           # differential sampled-noise rms [V]
    e_avg_conversion: float    # converter discipline, all-code average [J]
    e_avg_textbook: float      # textbook discipline at matched capacitance [J]
    inl_max: float             # worst static nonlinearity of the ladder [LSB]


class TradeReport(NamedTuple):
    binary: TopologyRow
    split: TopologyRow
    energy_saving: float       # 1 - split/binary under ideal accounting
    c_reduction: float         # binary/split physical capacitance ratio


def _row(topology: str, ladder: Ladder, t_kelvin: float, e_textbook: float,
         delta: float) -> TopologyRow:
    """One topology's row; the all-code average of the converter-discipline
    energy is half the table sum, since every decision is +1 in half the
    codes, and the differential kT/C noise adds the two sides' powers, each
    on its own drawn sampling node."""
    return TopologyRow(
        topology=topology,
        c_total_side=0.5 * float(ladder.c_total[0] + ladder.c_total[1]),
        sigma_ktc=math.sqrt(kt_over_c(float(ladder.node[0]), t_kelvin)
                            + kt_over_c(float(ladder.node[1]), t_kelvin)),
        e_avg_conversion=0.5 * float(np.sum(ladder.e_event)),
        e_avg_textbook=e_textbook,
        inl_max=float(np.abs(inl_from_steps(ladder.corrections, ladder.bits, delta)).max()),
    )


def compare_topologies(cfg: AdcConfig, rng: np.random.Generator) -> TradeReport:
    """Exhaustive-code energy, capacitance, noise and linearity comparison."""
    bin_ladder = build_binary_array(cfg, rng)
    split_ladder = build_split_array(cfg, rng)

    # Textbook disciplines, matched capacitance, no parasitics: both sides'
    # all-code totals in (unit * v_ref^2), unit scaled so each scheme's
    # per-side array totals c_dac.
    u = cfg.c_dac / 2 ** cfg.bits * cfg.v_ref ** 2
    n_codes = 2 ** cfg.bits
    e_conv, e_recyc = _textbook_totals(cfg.bits)

    # the split row's INL is in the split array's own LSB: its first
    # correction is a quarter of its full scale
    delta_split = split_ladder.corrections[0] / 2 ** (cfg.bits - 2)
    binary = _row("binary", bin_ladder, cfg.t_kelvin, e_conv / n_codes * u,
                  derived_constants(cfg).delta)
    split = _row("split", split_ladder, cfg.t_kelvin, e_recyc / n_codes * u, delta_split)
    return TradeReport(
        binary=binary,
        split=split,
        energy_saving=1.0 - split.e_avg_textbook / binary.e_avg_textbook,
        c_reduction=binary.c_total_side / split.c_total_side,
    )
