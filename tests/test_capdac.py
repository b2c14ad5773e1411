import math
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc.capdac import (build_cap_array, build_split_array, compare_topologies,
                           conventional_energy, conversion_energy, inl_from_steps,
                           monotonic_energy_oracle, ron_schedule, splitcap_energy,
                           step_voltage, transfer_thresholds)


def _decisions(code, bits):
    return [1 if (code >> (bits - 1 - k)) & 1 else -1 for k in range(bits)]


# ---------------------------------------------------------------------------
# array construction

def test_no_mismatch_binary_weights(ideal_cfg):
    arr = build_cap_array(ideal_cfg, np.random.default_rng(0))
    u = ideal_cfg.c_dac / 512
    for i in range(1, 10):
        assert math.isclose(arr.c_bits_p[i - 1], 2 ** (9 - i) * u, rel_tol=1e-12)
    assert math.isclose(arr.c_total_p, ideal_cfg.c_dac, rel_tol=1e-12)
    assert math.isclose(arr.c_total_n, ideal_cfg.c_dac, rel_tol=1e-12)
    assert np.array_equal(arr.c_bits_p, arr.c_nom)


def test_construction_quantum_close_to_physical_unit(ideal_cfg):
    arr = build_cap_array(ideal_cfg, np.random.default_rng(0))
    quantum = arr.c_nom[-1]          # the LSB bit is one construction quantum
    assert abs(quantum - ideal_cfg.c_unit) / ideal_cfg.c_unit < 0.02


def test_mismatch_sqrt_unit_count_scaling(ref_cfg):
    # the MSB capacitor aggregates 256 units, so its relative spread is
    # sigma_u / 16; check over many draws
    cfg = replace(ref_cfg, sigma_u=0.01)
    rng = np.random.default_rng(5)
    ladders = [build_cap_array(cfg, rng) for _ in range(4000)]
    devs = np.array([a.c_bits_p[0] / a.c_nom[0] - 1.0 for a in ladders])
    expect = 0.01 / math.sqrt(256)
    assert abs(devs.std() / expect - 1.0) < 0.05
    assert abs(devs.mean()) < 3 * expect / math.sqrt(len(devs))


def test_all_caps_positive_under_extreme_mismatch(ref_cfg):
    cfg = replace(ref_cfg, sigma_u=0.3)
    arr = build_cap_array(cfg, np.random.default_rng(11))
    assert np.all(arr.c_bits_p > 0) and np.all(arr.c_bits_n > 0)
    # the physical totals include each side's terminator
    assert arr.c_total_p > np.sum(arr.c_bits_p) and arr.c_total_n > np.sum(arr.c_bits_n)


# ---------------------------------------------------------------------------
# step ladder

def test_step_voltage_examples(ideal_cfg, ideal_array):
    d = sa.derived_constants(ideal_cfg)
    assert math.isclose(step_voltage(1, ideal_array), d.v_fs_net / 2, rel_tol=1e-12)
    assert math.isclose(step_voltage(1, ideal_array), 0.7879, rel_tol=1e-3)
    assert math.isclose(step_voltage(9, ideal_array), d.v_fs_net / 512, rel_tol=1e-12)
    assert math.isclose(step_voltage(9, ideal_array), 3.078e-3, rel_tol=1e-3)
    with pytest.raises(ValueError):
        step_voltage(10, ideal_array)


def test_applied_corrections_telescope_to_one_lsb(ideal_cfg, ideal_array):
    # binary search: after all corrections the worst residue is one LSB
    d = sa.derived_constants(ideal_cfg)
    applied = [step_voltage(i, ideal_array) / 2 for i in range(1, 10)]
    worst = d.v_fs_net / 2 - sum(applied)
    assert 0 < worst <= d.delta + 1e-15


def test_ron_schedule_constant_tau(ref_cfg):
    cfg = replace(ref_cfg, c_dac=1.28e-12, t_phic_low=1e-9, n_settle=10.0)
    arr = build_cap_array(sa.ideal_config(cfg), np.random.default_rng(0))
    r = ron_schedule(arr.c_nom, cfg)
    assert math.isclose(r[0], 156.25, rel_tol=1e-9)          # 640 fF bit
    assert math.isclose(r[1], 2 * r[0], rel_tol=1e-12)       # half the cap
    c_nom = cfg.c_dac / 2.0 ** np.arange(1, 10)
    assert np.allclose(r * c_nom, cfg.t_phic_low / 10.0, rtol=1e-12)
    # both topologies settle exactly n_settle time constants per bit
    nominal = replace(cfg, sigma_u=0.0)
    for topology in ("binary", "split"):
        ladder = build_cap_array(replace(nominal, topology=topology),
                                 np.random.default_rng(0))
        n_tau = cfg.t_phic_low / (ladder.r * ladder.c_nom)
        assert np.allclose(n_tau, cfg.n_settle, rtol=1e-12, atol=0.0)
        assert np.array_equal(ladder.c_bits_p, ladder.c_nom)


def test_ron_schedule_settling_below_lsb_bound(ref_cfg):
    cfg = replace(ref_cfg, n_settle=10.0)
    d = sa.derived_constants(cfg)
    residual = math.exp(-cfg.n_settle)
    assert math.isclose(residual, 4.54e-5, rel_tol=1e-2)
    assert residual < d.delta / (2 * d.v_fs_net)


def test_explicit_ron_list_used(ref_cfg, ideal_array):
    cfg = replace(ref_cfg, ron_dac=tuple(float(i) for i in range(1, 10)))
    assert np.allclose(ron_schedule(ideal_array.c_nom, cfg), np.arange(1.0, 10.0))
    for topology in ("binary", "split"):
        ladder = build_cap_array(replace(cfg, topology=topology), np.random.default_rng(0))
        assert np.array_equal(ladder.r, np.arange(1.0, 10.0))


# ---------------------------------------------------------------------------
# switching

def test_switch_preserves_common_mode_exactly(ideal_array):
    # mismatch-free sides step and settle alike, so every event moves the
    # two plates by equal and opposite amounts
    assert np.array_equal(ideal_array.dp, ideal_array.dn)
    assert np.array_equal(ideal_array.settle_p, ideal_array.settle_n)


def test_switch_applies_half_ladder_weight(ideal_cfg, ideal_array, comparator_calls):
    sa.convert_waveform([0.3], ideal_cfg)
    (v1, bit1), (v2, _) = comparator_calls[:2]
    assert bit1 == 1                   # the ladder steps down
    assert math.isclose(v2 - v1, -step_voltage(1, ideal_array) / 2, rel_tol=1e-12)


def test_switch_settling_residual(ref_cfg, comparator_calls):
    # tau per bit is r_i * C_i; the t_phic_low window of ten tau leaves
    # exp(-10) of the step
    cfg = replace(sa.ideal_config(ref_cfg), n_settle=10.0)
    arr = build_cap_array(cfg, np.random.default_rng(0))
    assert np.allclose(arr.settle_p, math.exp(-10.0), rtol=1e-12, atol=0)
    assert np.allclose(arr.settle_n, math.exp(-10.0), rtol=1e-12, atol=0)
    sa.convert_waveform([0.3], cfg)
    (v1, _), (v2, _) = comparator_calls[:2]
    applied = step_voltage(1, arr) / 2
    residual = abs(v2 - (v1 - applied))
    assert math.isclose(residual, applied * math.exp(-10.0), rel_tol=1e-9)


def test_each_capacitor_fires_at_most_once(ref_cfg, comparator_calls):
    # the one-way discipline: a full conversion compares once per bit and
    # pays each of the bits-1 switch events exactly once
    cfg = replace(ref_cfg, sigma_u=0.02)
    res = sa.convert_waveform([0.1234], cfg)
    assert not res.violation[0] and len(comparator_calls) == cfg.bits
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((0, 1))))
    assert math.isclose(res.e_blocks["dac"], conversion_energy(int(res.codes[0]), ladder),
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# energy

def test_energy_matches_independent_oracle(ideal_array):
    for code in (0, 1, 511, 512, 682, 1023, 341):
        e_inc = conversion_energy(code, ideal_array)
        e_ora = monotonic_energy_oracle(_decisions(code, 10), ideal_array)
        assert math.isclose(e_inc, e_ora, rel_tol=1e-12)


def test_energy_oracle_with_mismatch(ref_cfg):
    cfg = replace(ref_cfg, sigma_u=0.02)
    for build in (build_cap_array, build_split_array):
        arr = build(cfg, np.random.default_rng(9))
        for code in (5, 700, 1023):
            e_table = conversion_energy(code, arr)
            e_ora = monotonic_energy_oracle(_decisions(code, 10), arr)
            assert math.isclose(e_table, e_ora, rel_tol=1e-12)


def test_every_event_nonnegative(ideal_array, ref_cfg):
    assert np.all(ideal_array.e_event >= 0)
    cfg = replace(ref_cfg, sigma_u=0.05)
    for build in (build_cap_array, build_split_array):
        assert np.all(build(cfg, np.random.default_rng(2)).e_event >= 0)


def test_monotonic_cheaper_than_conventional_all_codes(ideal_cfg, ideal_array):
    u = ideal_cfg.c_dac / 1024 * ideal_cfg.v_ref ** 2
    for code in range(1024):
        e_mono = conversion_energy(code, ideal_array)
        e_conv = (conventional_energy(code, 10)
                  + conventional_energy(1023 - code, 10)) * u
        assert e_mono < e_conv


def test_conventional_two_bit_hand_enumeration():
    # hand-walked: initial top-weight charge costs 1.0, a kept trial 0.25,
    # a rejected trial 1.25 (all in units of C_unit * V_ref^2)
    assert math.isclose(conventional_energy(3, 2), 1.25, rel_tol=1e-12)
    assert math.isclose(conventional_energy(2, 2), 1.25, rel_tol=1e-12)
    assert math.isclose(conventional_energy(1, 2), 2.25, rel_tol=1e-12)
    assert math.isclose(conventional_energy(0, 2), 2.25, rel_tol=1e-12)


def test_splitcap_two_bit_hand_enumeration():
    # the recycling reject is a single small discharge costing 0.25
    assert math.isclose(splitcap_energy(3, 2), 1.25, rel_tol=1e-12)
    assert math.isclose(splitcap_energy(1, 2), 1.25, rel_tol=1e-12)


def test_recycling_never_worse_per_code():
    conv = [conventional_energy(code, 10) for code in range(1024)]
    recyc = [splitcap_energy(code, 10) for code in range(1024)]
    for e_recyc, e_conv in zip(recyc, conv):
        assert e_recyc <= e_conv + 1e-12
    # one call over every code gives the per-code results exactly
    codes = np.arange(1024)
    assert conventional_energy(codes, 10).tolist() == conv
    assert splitcap_energy(codes, 10).tolist() == recyc


def _transition(caps, before, after):
    db = after - before
    dv = np.sum(caps * db) / np.sum(caps)
    return np.sum(np.where(after > 0, caps * (db - dv), 0.0))


def _walk_energy(code, bits, caps, first_on, set_bits):
    """Per-code state walk: copy the state and set each decision's caps."""
    state = np.zeros_like(caps)
    new = state.copy()
    new[first_on] = 1.0
    total = _transition(caps, state, new)
    state = new
    for k in range(bits - 1):
        keep = (code >> (bits - 1 - k)) & 1
        new = state.copy()
        for j, value in set_bits(k, keep):
            new[j] = value
        total = total + _transition(caps, state, new)
        state = new
    return total


@pytest.mark.parametrize("bits", [4, 10])
def test_textbook_energies_match_per_code_walk(bits):
    codes = np.arange(2 ** bits)
    caps = np.array([2.0 ** (bits - 1 - k) for k in range(bits)] + [1.0])
    conv = [_walk_energy(c, bits, caps, [0], lambda k, keep: [(k, keep), (k + 1, 1.0)])
            for c in codes]
    assert conventional_energy(codes, bits).tolist() == conv
    n_bank = bits
    caps = np.array([2.0 ** (bits - 2 - k) for k in range(bits - 1)] + [1.0]
                    + [2.0 ** (bits - 1 - k) for k in range(1, bits)] + [1.0])
    recyc = [_walk_energy(c, bits, caps, slice(0, n_bank),
                          lambda k, keep: [(n_bank + k, keep), (k, keep)])
             for c in codes]
    assert splitcap_energy(codes, bits).tolist() == recyc
    # a run of codes away from zero reads the same prefix rows
    assert conventional_energy(codes[3:7], bits).tolist() == conv[3:7]
    assert splitcap_energy(codes[3:7], bits).tolist() == recyc[3:7]
    # the complementary codes give the energies reversed, bit for bit, which
    # lets compare_topologies compute each discipline once
    for f in (conventional_energy, splitcap_energy):
        assert (f(2 ** bits - 1 - codes, bits).tolist()
                == f(codes, bits)[::-1].tolist())
    for bad in (-1, 2 ** bits):
        with pytest.raises(ValueError, match="codes"):
            conventional_energy(bad, bits)
        with pytest.raises(ValueError, match="codes"):
            splitcap_energy(np.array([0, bad]), bits)


# ---------------------------------------------------------------------------
# static transfer

def test_ideal_thresholds_are_uniform(ideal_cfg, ideal_array):
    d = sa.derived_constants(ideal_cfg)
    steps = np.array([step_voltage(i, ideal_array) / 2 for i in range(1, 10)])
    t = transfer_thresholds(steps, 10)
    ideal = (np.arange(1, 1024) - 512) * d.delta
    assert np.max(np.abs(t - ideal)) < 1e-12
    inl = inl_from_steps(steps, 10, d.delta)
    assert np.max(np.abs(inl)) < 1e-9


def test_split_ladder_matches_binary_without_parasitics(ref_cfg):
    cfg = replace(sa.ideal_config(ref_cfg), c_p=0.0)
    split = build_split_array(cfg, np.random.default_rng(0))
    s1 = step_voltage(1, split)
    assert math.isclose(s1, 0.8, rel_tol=1e-12)
    for i in range(2, 10):
        assert math.isclose(step_voltage(i, split), s1 / 2 ** (i - 1), rel_tol=1e-9)


def test_split_parasitic_breaks_linearity(ref_cfg):
    cfg = sa.ideal_config(ref_cfg)   # keeps c_p = 20 fF, no mismatch
    split = build_split_array(cfg, np.random.default_rng(0))
    steps = np.array([step_voltage(i, split) / 2 for i in range(1, 10)])
    delta = steps[0] / 256
    inl = inl_from_steps(steps, 10, delta)
    assert np.max(np.abs(inl)) > 0.5


# ---------------------------------------------------------------------------
# trade study

@pytest.fixture(scope="module")
def trade(ref_cfg):
    return compare_topologies(ref_cfg, np.random.default_rng(5))


def test_trade_energy_saving_near_three_eighths(trade):
    assert abs(trade.energy_saving - 0.375) < 0.05


def test_trade_binary_row_matches_exhaustive_switching(ref_cfg, trade):
    # the closed-form all-code average equals the mean over every code
    rng = np.random.default_rng(5)
    binary = build_cap_array(replace(ref_cfg, topology="binary"), rng)
    split = build_split_array(ref_cfg, rng)
    for row, arr in ((trade.binary, binary), (trade.split, split)):
        total = sum(conversion_energy(c, arr) for c in range(1024))
        assert math.isclose(row.e_avg_conversion, total / 1024, rel_tol=1e-12)


def test_trade_noise_follows_capacitance_scaling(trade, ref_cfg):
    # kT/C law: sixteen times less capacitance means four times the noise
    from saradc.capdac import _sigma_ktc_diff
    c = ref_cfg.c_dac + ref_cfg.c_p
    assert math.isclose(_sigma_ktc_diff(c / 16.0, 300.0),
                        4.0 * _sigma_ktc_diff(c, 300.0), rel_tol=1e-12)
    # and the realized split array is substantially noisier than binary
    assert trade.split.sigma_ktc / trade.binary.sigma_ktc > 2.5


def test_trade_split_reduces_capacitance(trade):
    assert trade.c_reduction > 8.0
    assert trade.split.c_total_side < trade.binary.c_total_side / 8.0


def test_trade_split_inl_worse_paired_seed(ref_cfg):
    a = compare_topologies(ref_cfg, np.random.default_rng(17))
    assert a.split.inl_max > a.binary.inl_max


def test_trade_report_serializes(trade):
    csv = trade.to_csv()
    assert csv.splitlines()[0].startswith("topology,")
    assert len(csv.splitlines()) == 3
    d = trade.to_json_dict()
    assert {"rows", "energy_saving_ideal_accounting", "capacitance_reduction"} <= set(d)
