"""Per-side reference build of the compiled ladder.

The program draws both sides of an array into one (2, units) table and
compiles the ``Ladder`` from (2, bits-1) arrays (``capdac.build_cap_array``).
This builder draws, sums and sizes one side at a time, the positive side
first: each capacitor is a 1-D ``np.add.reduce`` over its own units, each
side's node, steps and totals come from that side alone, and only then are
the two sides set side by side.  The tests check that every field of the
two builds is equal, bit for bit and in the same memory layout.  It also
sizes each side's switches against its own nominal (mismatch-free) caps,
exp(-n_settle * c_nom / c) per side, which the tests check the engine's
plan (``capdac.settle_fractions``) against.

``transfer_thresholds`` is the breadth-first walk of the static transfer:
each depth's DAC positions are the previous depth's, each minus and plus
its step, laid into that depth's strided slots.
"""

import numpy as np

from saradc.capdac import Ladder
from saradc.config import AdcConfig


def _draw_side(n_units: int, sigma_u: float, rng, redraws: list) -> np.ndarray:
    if sigma_u == 0.0:
        return np.zeros(n_units)
    dev = rng.normal(0.0, sigma_u, size=n_units)
    while (bad := dev <= -1.0).any():
        redraws.append(int(bad.sum()))
        dev[bad] = rng.normal(0.0, sigma_u, size=int(bad.sum()))
    return dev


def _segment(counts: list, u: float, sigma_u: float, rng, redraws: list) -> np.ndarray:
    dev = _draw_side(int(sum(counts)), sigma_u, rng, redraws)
    caps = np.empty(len(counts))
    pos = 0
    for k, n in enumerate(counts):
        caps[k] = u * (n + np.add.reduce(dev[pos:pos + n]))
        pos += n
    return caps


def _binary_side(caps: np.ndarray, cfg: AdcConfig) -> tuple:
    c = caps[:-1]
    total = float(np.sum(c)) + float(caps[-1])
    node = total + cfg.c_p
    return c, node, cfg.v_ref * c / node, total


def _split_side(main: np.ndarray, sub: np.ndarray, c_att: float, cfg: AdcConfig) -> tuple:
    sub, sub_term = sub[:-1], float(sub[-1])
    a = float(np.sum(main)) + cfg.c_p
    b = float(np.sum(sub)) + sub_term + cfg.c_p
    k = c_att
    node = a + k * b / (k + b)
    step = np.concatenate([cfg.v_ref * main / node,
                           cfg.v_ref * sub / (b + k * a / (k + a)) * k / (a + k)])
    total = float(np.sum(main) + np.sum(sub)) + sub_term + c_att
    return step * node / cfg.v_ref, node, step, total


def _compile(cfg: AdcConfig, side_p: tuple, side_n: tuple, c_nom: np.ndarray) -> tuple:
    q = 0.25 * cfg.v_ref ** 2
    own, cross = [], []
    for c, node, _, _ in (side_p, side_n):
        mid = np.concatenate(([0.0], np.cumsum(c)[:-1]))
        own.append(c * (node - c) / node)
        cross.append(mid * c / node)
    # a -1 decision raises the positive side, a +1 decision the negative one
    e_down, e_up = q * (own[0] + cross[1]), q * (own[1] + cross[0])
    c, node, step, total = (np.array(f) for f in zip(side_p, side_n))
    ladder = Ladder(
        bits=cfg.bits, v_ref=cfg.v_ref, c_bits=c, node=node, step=step,
        corrections=(side_p[2] + side_n[2]) / 2, c_total=total,
        e_event=np.stack([e_down, e_up], axis=1),
    )
    return ladder, np.array([np.exp(-cfg.n_settle * (c_nom / side[0]))
                             for side in (side_p, side_n)])


def build_ladder(cfg: AdcConfig, rng, redraws: list | None = None) -> tuple:
    """The realized ladder of ``capdac.build_cap_array``, side by side, and
    its (2, bits-1) settle fractions; the size of every redraw round is
    appended to ``redraws``."""
    redraws = [] if redraws is None else redraws
    if cfg.topology == "split":
        l_bits = (cfg.bits - 1) // 2
        m_bits = cfg.bits - 1 - l_bits
        u = cfg.c_unit
        main_counts = [2 ** (m_bits - i) for i in range(1, m_bits + 1)]
        sub_counts = [2 ** (l_bits - j) for j in range(1, l_bits + 1)] + [1]
        main_p, main_n, sub_p, sub_n = (
            _segment(counts, u, cfg.sigma_u, rng, redraws)
            for counts in (main_counts, main_counts, sub_counts, sub_counts))
        c_att = u * 2 ** l_bits / (2 ** l_bits - 1)
        nominal = [u * np.asarray(c, dtype=float) for c in (main_counts, sub_counts)]
        return _compile(cfg, _split_side(main_p, sub_p, c_att, cfg),
                        _split_side(main_n, sub_n, c_att, cfg),
                        _split_side(*nominal, c_att, cfg)[0])
    u_eff = cfg.c_dac / 2 ** (cfg.bits - 1)
    counts = [2 ** (cfg.bits - 1 - i) for i in range(1, cfg.bits)] + [1]
    side_p = _binary_side(_segment(counts, u_eff, cfg.sigma_u, rng, redraws), cfg)
    side_n = _binary_side(_segment(counts, u_eff, cfg.sigma_u, rng, redraws), cfg)
    return _compile(cfg, side_p, side_n, u_eff * np.asarray(counts[:-1], dtype=float))


def transfer_thresholds(steps: np.ndarray, bits: int) -> np.ndarray:
    """The code transition voltages of ``capdac.transfer_thresholds``,
    one depth of the binary search at a time."""
    thresholds = np.empty(2 ** bits - 1)
    positions = np.array([0.0])
    for j in range(1, bits + 1):
        stride = 2 ** (bits - j)
        thresholds[stride - 1::2 * stride] = positions
        if j <= bits - 1:
            s = steps[j - 1]
            positions = np.add.outer(positions, (-s, s)).ravel()
    return thresholds
