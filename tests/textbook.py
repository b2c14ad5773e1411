"""Per-code and per-event energy walks that the program never runs.

The trade study reads only the closed-form totals of its two textbook
disciplines (``capdac._textbook_totals``) and of the converter discipline
(half the ladder's event table); these walks give every code's energy, and
the tests check those totals and the engine's energy bookkeeping against
them.  ``monotonic_energy_oracle`` prices one decision sequence event by
event from the ladder's capacitances alone, without its event table.

For a textbook discipline one row per code holds one side's bottom-plate
states; every decision sets its caps and adds the reference charge energy
of the state change.  Normalized units: unit capacitance, v_ref = 1.
"""

import numpy as np


def _transition(caps, before, after):
    """Reference energy per row: caps connected to the reference after the
    event pay (or return) C * (db - dv_top)."""
    db = after - before
    dv = np.sum(caps * db, axis=-1, keepdims=True) / np.sum(caps)
    return np.sum(np.where(after > 0, caps * (db - dv), 0.0), axis=-1)


def _walk(bits, caps, first_on, set_caps):
    """Every code's summed transition energies, decisions MSB first."""
    codes = np.arange(2 ** bits)
    state = np.zeros((codes.size, caps.size))
    state[:, first_on] = 1.0
    total = _transition(caps, np.zeros_like(state), state)
    for k in range(bits - 1):
        new = state.copy()
        set_caps(new, k, (codes >> (bits - 1 - k)) & 1)
        total = total + _transition(caps, state, new)
        state = new
    return total


def conventional_energy(bits):
    """Trial/keep/reject on the binary ladder plus terminator: the first
    trial sets the top bit; a kept trial charges the next capacitor, a
    rejected one discharges its own and charges the next."""
    caps = np.array([2.0 ** (bits - 1 - k) for k in range(bits)] + [1.0])

    def set_caps(state, k, keep):
        state[:, k] = keep
        state[:, k + 1] = 1.0

    return _walk(bits, caps, [0], set_caps)


def splitcap_energy(bits):
    """Recycling on the split array: the top weight is a bank replicating the
    lower ladder (2^(bits-2)..1 plus a duplicate unit); a rejected trial
    discharges the one bank capacitor of the next trial's weight."""
    bank = [2.0 ** (bits - 2 - k) for k in range(bits - 1)] + [1.0]
    lower = [2.0 ** (bits - 1 - k) for k in range(1, bits)]
    caps = np.array(bank + lower + [1.0])
    n_bank = len(bank)

    def set_caps(state, k, keep):
        state[:, n_bank + k] = keep
        state[:, k] = keep

    return _walk(bits, caps, slice(0, n_bank), set_caps)


def conversion_energy(ladder):
    """Converter-discipline switching energy of every output code [J].

    The decision sequence of a SAR conversion is the code's bit pattern,
    so the 2^bits entries cover every switching trajectory; decision i
    picks its event from the ladder's table whatever came before it.  The
    walk runs over code prefixes: each decision doubles the prefixes and adds
    its event to each, and the last bit switches nothing.
    """
    total = np.zeros(1)
    for k in range(ladder.bits - 1):
        total = np.repeat(total, 2) + np.tile(ladder.e_event[k], 2 ** k)
    return np.repeat(total, 2)


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
        cp, cn = array.c_bits[:, k]
        np_, nn_ = array.node
        if d > 0:
            total += q * (cn * (nn_ - cn) / nn_ + mid_p * cp / np_)
        else:
            total += q * (cp * (np_ - cp) / np_ + mid_n * cn / nn_)
        mid_p += cp
        mid_n += cn
    return total
