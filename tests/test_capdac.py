import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc import capdac, cli, engine
from saradc.capdac import (build_cap_array, build_split_array, compare_topologies,
                           inl_from_steps, settle_fractions, transfer_thresholds)
from saradc.config import kt_over_c, validate
from code_density import inl_dnl
from textbook import (conventional_energy, conversion_energy, monotonic_energy_oracle,
                      splitcap_energy)
import reference_ladder


def _decisions(code, bits):
    return [1 if (code >> (bits - 1 - k)) & 1 else -1 for k in range(bits)]


# ---------------------------------------------------------------------------
# array construction

def _binary_nominal(cfg):
    """The mismatch-free binary bit caps: bit i holds 2^(bits-1-i) quanta."""
    return cfg.c_dac / 2 ** (cfg.bits - 1) * 2.0 ** np.arange(cfg.bits - 2, -1, -1)


def test_no_mismatch_binary_weights(ideal_cfg):
    arr = build_cap_array(ideal_cfg, np.random.default_rng(0))
    u = ideal_cfg.c_dac / 512
    for i in range(1, 10):
        assert math.isclose(arr.c_bits[0, i - 1], 2 ** (9 - i) * u, rel_tol=1e-12)
    assert math.isclose(arr.c_total[0], ideal_cfg.c_dac, rel_tol=1e-12)
    assert math.isclose(arr.c_total[1], ideal_cfg.c_dac, rel_tol=1e-12)
    assert np.array_equal(arr.c_bits[0], _binary_nominal(ideal_cfg))
    assert np.array_equal(arr.c_bits[1], _binary_nominal(ideal_cfg))


def test_construction_quantum_close_to_physical_unit(ideal_cfg):
    arr = build_cap_array(ideal_cfg, np.random.default_rng(0))
    quantum = arr.c_bits[0, -1]      # the LSB bit is one construction quantum
    assert abs(quantum - ideal_cfg.c_unit) / ideal_cfg.c_unit < 0.02


def test_mismatch_sqrt_unit_count_scaling(ref_cfg):
    # the MSB capacitor aggregates 256 units, so its relative spread is
    # sigma_u / 16; check over many draws
    cfg = replace(ref_cfg, sigma_u=0.01)
    rng = np.random.default_rng(5)
    ladders = [build_cap_array(cfg, rng) for _ in range(4000)]
    msb = _binary_nominal(cfg)[0]
    devs = np.array([a.c_bits[0, 0] / msb - 1.0 for a in ladders])
    expect = 0.01 / math.sqrt(256)
    assert abs(devs.std() / expect - 1.0) < 0.05
    assert abs(devs.mean()) < 3 * expect / math.sqrt(len(devs))


def test_all_caps_positive_under_extreme_mismatch(ref_cfg):
    cfg = replace(ref_cfg, sigma_u=0.3)
    arr = build_cap_array(cfg, np.random.default_rng(11))
    assert np.all(arr.c_bits[0] > 0) and np.all(arr.c_bits[1] > 0)
    # the physical totals include each side's terminator
    assert arr.c_total[0] > np.sum(arr.c_bits[0]) and arr.c_total[1] > np.sum(arr.c_bits[1])


@pytest.mark.parametrize("topology, sigma_u, seed, units, digest", [
    pytest.param("binary", 0.035, 42, 512,
                 "8902d1022b240a69c586ac48a7a99013ae208efeb5c188b798b0e3191a92f584",
                 id="binary-0.035-42"),
    pytest.param("split", 0.035, 42, 31,
                 "29eff6d55dcb15b32e485b5c94742a98938bc218101d9c8daae593f98de7ff60",
                 id="split-0.035-42"),
    pytest.param("binary", 0.3, 0, 512,
                 "b5082bfadca71415fbd291ce0c404fe73222d049a98512444804ca49e293f735",
                 id="binary-0.3-0"),
    pytest.param("split", 0.3, 256, 31,
                 "a8c27a254ad7824795c7b9b7b9be20e36fdbecb1bb9bcace7aad6cb03e9fc85e",
                 id="split-0.3-256"),
])
def test_sides_are_drawn_in_turn(ref_cfg, topology, sigma_u, seed, units, digest):
    # each side's segments are drawn by their own call, positive side first,
    # so a dead unit's redraw on the positive side comes before the negative
    # side's draw: drawing both sides in one call changes the ladder
    if sigma_u == 0.3:
        first = np.random.default_rng(seed).normal(0.0, sigma_u, size=units)
        assert np.any(first <= -1.0)     # this seed redraws on the positive side
    cfg = replace(ref_cfg, topology=topology, sigma_u=sigma_u)
    ladder = build_cap_array(cfg, np.random.default_rng(seed))
    data = b"".join(a.tobytes() for a in (ladder.c_bits[0], ladder.c_bits[1], ladder.e_event))
    assert hashlib.sha256(data).hexdigest() == digest


_LADDER_FIELDS = ("c_bits", "node", "step", "corrections", "c_total", "e_event")


@pytest.mark.parametrize("topology", ["binary", "split"])
@pytest.mark.parametrize("sigma_u", [0.0, 0.035, 0.3, 1e3])
def test_ladder_equals_per_side_build(ref_cfg, topology, sigma_u):
    # the (2, units) draw, the per-capacitor sums over both sides at once and
    # the compile from (2, .) arrays give every field of the per-side build
    # (1-D sums, one side at a time), bit for bit and in the same layout,
    # also where a dead unit is redrawn; at sigma_u = 1e3, past validation,
    # about half the units die in every round, and at sigma_u = 0 the
    # reference draws nothing, so the program's draws must be exact zeros.
    # The engine's plan sizes the switches: its settle rows are the reference
    # build's own per-side exp(-n_settle * c_nom / c), for the ladder the plan
    # draws from SeedSequence((seed, 1))
    redraws = []
    for bits in range(3, 15):
        cfg = replace(ref_cfg, topology=topology, sigma_u=sigma_u, bits=bits)
        for seed in (0, 7, 2 ** 32 + 3):
            ladder = build_cap_array(cfg, np.random.default_rng(seed))
            ref, _ = reference_ladder.build_ladder(cfg, np.random.default_rng(seed), redraws)
            assert (ladder.bits, ladder.v_ref) == (ref.bits, ref.v_ref)
            for name in _LADDER_FIELDS:
                got, want = getattr(ladder, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.shape == want.shape, (bits, seed, name)
                assert got.flags.c_contiguous, (bits, seed, name)
                assert np.array_equal(got, want), (bits, seed, name)
            _, settle = reference_ladder.build_ladder(
                cfg, np.random.default_rng(np.random.SeedSequence((seed, 1))))
            assert np.array_equal(engine._plan(cfg, seed)[1], settle.T[:, :, None]), (bits, seed)
    assert (len(redraws) > 0) == (sigma_u >= 0.3)


# ---------------------------------------------------------------------------
# step ladder

def test_corrections_examples(ideal_cfg, ideal_array):
    d = sa.derived_constants(ideal_cfg)
    corrections = ideal_array.corrections
    assert corrections.shape == (ideal_cfg.bits - 1,)     # bits 1..9, none for the LSB
    assert math.isclose(corrections[0], d.v_fs_net / 4, rel_tol=1e-12)
    assert math.isclose(corrections[0], 0.7879 / 2, rel_tol=1e-3)
    assert math.isclose(corrections[8], d.v_fs_net / 1024, rel_tol=1e-12)
    assert math.isclose(corrections[8], 3.078e-3 / 2, rel_tol=1e-3)


def test_applied_corrections_telescope_to_one_lsb(ideal_cfg, ideal_array):
    # binary search: after all corrections the worst residue is one LSB
    d = sa.derived_constants(ideal_cfg)
    worst = d.v_fs_net / 2 - sum(ideal_array.corrections)
    assert 0 < worst <= d.delta + 1e-15


def test_settling_depth_is_exact(ref_cfg):
    # constant tau: every bit of a mismatch-free array of either topology
    # leaves exactly exp(-n_settle) of its step unsettled, to the last ulp,
    # in the plan the engine's bit loop reads
    for n_settle in (ref_cfg.n_settle, 10.0):
        nominal = replace(ref_cfg, sigma_u=0.0, n_settle=n_settle)
        for topology in ("binary", "split"):
            settle = engine._plan(replace(nominal, topology=topology), 0)[1]
            assert settle.shape == (ref_cfg.bits - 1, 2, 1)
            assert np.array_equal(settle, np.full_like(settle, np.exp(-n_settle)))


def test_ron_schedule_settling_below_lsb_bound(ref_cfg):
    cfg = replace(ref_cfg, n_settle=10.0)
    d = sa.derived_constants(cfg)
    residual = math.exp(-cfg.n_settle)
    assert math.isclose(residual, 4.54e-5, rel_tol=1e-2)
    assert residual < d.delta / (2 * d.v_fs_net)


# ---------------------------------------------------------------------------
# switching

def test_switch_preserves_common_mode_exactly(ideal_cfg, ideal_array):
    # mismatch-free sides step and settle alike, so every event moves the
    # two plates by equal and opposite amounts
    assert np.array_equal(ideal_array.step[0], ideal_array.step[1])
    settle = settle_fractions(ideal_cfg, ideal_array)
    assert np.array_equal(settle[0], settle[1])


def test_switch_applies_half_ladder_weight(ideal_cfg, ideal_array, comparator_calls):
    sa.convert_waveform([0.3], ideal_cfg)
    (v1, up1), (v2, _) = comparator_calls[:2]
    assert up1                         # the ladder steps down
    assert math.isclose(v2 - v1, -ideal_array.corrections[0], rel_tol=1e-12)


def test_switch_settling_residual(ref_cfg, comparator_calls):
    # a settling depth of ten time constants leaves exp(-10) of the step
    cfg = replace(sa.ideal_config(ref_cfg), n_settle=10.0)
    arr = build_cap_array(cfg, np.random.default_rng(0))
    assert np.allclose(settle_fractions(cfg, arr), math.exp(-10.0), rtol=1e-12, atol=0)
    sa.convert_waveform([0.3], cfg)
    (v1, _), (v2, _) = comparator_calls[:2]
    applied = arr.corrections[0]
    residual = abs(v2 - (v1 - applied))
    assert math.isclose(residual, applied * math.exp(-10.0), rel_tol=1e-9)


def test_each_capacitor_fires_at_most_once(ref_cfg, comparator_calls):
    # the one-way discipline: a full conversion compares once per bit and
    # pays each of the bits-1 switch events exactly once
    cfg = replace(ref_cfg, sigma_u=0.02)
    res = sa.convert_waveform([0.1234], cfg)
    assert not res.violation[0] and len(comparator_calls) == cfg.bits
    ladder = build_cap_array(cfg, np.random.default_rng(np.random.SeedSequence((0, 1))))
    assert math.isclose(res.e_blocks["dac"], conversion_energy(ladder)[res.codes[0]],
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# energy

def test_energy_matches_independent_oracle(ideal_array):
    energy = conversion_energy(ideal_array)
    assert energy.shape == (1024,)
    for code in (0, 1, 511, 512, 682, 1023, 341):
        e_ora = monotonic_energy_oracle(_decisions(code, 10), ideal_array)
        assert math.isclose(energy[code], e_ora, rel_tol=1e-12)


def test_energy_oracle_with_mismatch(ref_cfg):
    cfg = replace(ref_cfg, sigma_u=0.02)
    for build in (build_cap_array, build_split_array):
        arr = build(cfg, np.random.default_rng(9))
        energy = conversion_energy(arr)
        for code in (5, 700, 1023):
            e_ora = monotonic_energy_oracle(_decisions(code, 10), arr)
            assert math.isclose(energy[code], e_ora, rel_tol=1e-12)


def test_every_event_nonnegative(ideal_array, ref_cfg):
    assert np.all(ideal_array.e_event >= 0)
    cfg = replace(ref_cfg, sigma_u=0.05)
    for build in (build_cap_array, build_split_array):
        assert np.all(build(cfg, np.random.default_rng(2)).e_event >= 0)


def test_monotonic_cheaper_than_conventional_all_codes(ideal_cfg, ideal_array):
    # the far side converts the complementary code 1023 - code
    u = ideal_cfg.c_dac / 1024 * ideal_cfg.v_ref ** 2
    conv = conventional_energy(10)
    assert np.all(conversion_energy(ideal_array) < (conv + conv[::-1]) * u)


def test_conventional_two_bit_hand_enumeration():
    # hand-walked: initial top-weight charge costs 1.0, a kept trial 0.25,
    # a rejected trial 1.25 (all in units of C_unit * V_ref^2)
    e = conventional_energy(2)
    assert e.shape == (4,)
    assert math.isclose(e[3], 1.25, rel_tol=1e-12)
    assert math.isclose(e[2], 1.25, rel_tol=1e-12)
    assert math.isclose(e[1], 2.25, rel_tol=1e-12)
    assert math.isclose(e[0], 2.25, rel_tol=1e-12)


def test_splitcap_two_bit_hand_enumeration():
    # the recycling reject is a single small discharge costing 0.25
    e = splitcap_energy(2)
    assert e.shape == (4,)
    assert math.isclose(e[3], 1.25, rel_tol=1e-12)
    assert math.isclose(e[1], 1.25, rel_tol=1e-12)


def test_recycling_never_worse_per_code():
    assert np.all(splitcap_energy(10) <= conventional_energy(10) + 1e-12)


# ---------------------------------------------------------------------------
# static transfer

def test_ideal_thresholds_are_uniform(ideal_cfg, ideal_array):
    d = sa.derived_constants(ideal_cfg)
    steps = ideal_array.corrections
    t = transfer_thresholds(steps, 10)
    ideal = (np.arange(1, 1024) - 512) * d.delta
    assert np.max(np.abs(t - ideal)) < 1e-12
    inl = inl_from_steps(steps, 10, d.delta)
    assert np.max(np.abs(inl)) < 1e-9


def _sequential_threshold(c, bits, steps):
    """Boundary below code c: its binary-search prefix added step by step."""
    depth = bits - ((c & -c).bit_length() - 1)
    position = 0.0
    for k in range(depth - 1):
        position += steps[k] if (c >> (bits - 1 - k)) & 1 else -steps[k]
    return position


@pytest.mark.parametrize("bits", range(3, 13))
def test_thresholds_match_sequential_prefix_walk(bits):
    # mismatched steps: every boundary is its own prefix sum, bit for bit
    rng = np.random.default_rng(bits)
    steps = 0.5 ** np.arange(1, bits) * (1.0 + 0.01 * rng.standard_normal(bits - 1))
    walk = [_sequential_threshold(c, bits, steps) for c in range(1, 2 ** bits)]
    assert transfer_thresholds(steps, bits).tolist() == walk


@pytest.mark.parametrize("bits", range(3, 13))
def test_thresholds_equal_breadth_first_walk(bits):
    # the in-place in-order fill gives the breadth-first walk's boundaries,
    # bit for bit, on steps far from binary
    rng = np.random.default_rng(100 + bits)
    steps = 0.5 ** np.arange(1, bits) * (1.0 + 0.3 * rng.standard_normal(bits - 1))
    assert transfer_thresholds(steps, bits).tobytes() == \
        reference_ladder.transfer_thresholds(steps, bits).tobytes()


def test_split_ladder_matches_binary_without_parasitics(ref_cfg):
    cfg = replace(sa.ideal_config(ref_cfg), c_p=0.0)
    split = build_split_array(cfg, np.random.default_rng(0))
    s1 = split.corrections[0]
    assert math.isclose(s1, 0.4, rel_tol=1e-12)
    for i in range(2, 10):
        assert math.isclose(split.corrections[i - 1], s1 / 2 ** (i - 1), rel_tol=1e-9)


def test_split_parasitic_breaks_linearity(ref_cfg):
    cfg = sa.ideal_config(ref_cfg)   # keeps c_p = 20 fF, no mismatch
    split = build_split_array(cfg, np.random.default_rng(0))
    steps = split.corrections
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


def test_trade_textbook_average_matches_per_code_arrays(ref_cfg):
    # the closed-form totals equal the summed per-code reference walk exactly
    for bits in range(3, 17):
        cfg = replace(ref_cfg, bits=bits)
        trade = compare_topologies(cfg, np.random.default_rng(bits))
        u = cfg.c_dac / 2 ** bits * cfg.v_ref ** 2
        for row, energy in ((trade.binary, conventional_energy),
                            (trade.split, splitcap_energy)):
            e = energy(bits)
            assert row.e_avg_textbook == float(np.sum(e + e[::-1])) / 2 ** bits * u
    # and the study no longer builds an array per code
    tracemalloc.start()
    try:
        compare_topologies(replace(ref_cfg, bits=20), np.random.default_rng(20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20


def test_trade_binary_row_matches_exhaustive_switching(ref_cfg, trade):
    # the closed-form all-code average equals the mean over every code
    rng = np.random.default_rng(5)
    binary = build_cap_array(replace(ref_cfg, topology="binary"), rng)
    split = build_split_array(ref_cfg, rng)
    for row, arr in ((trade.binary, binary), (trade.split, split)):
        total = float(np.sum(conversion_energy(arr)))
        assert math.isclose(row.e_avg_conversion, total / 1024, rel_tol=1e-12)


def test_trade_noise_follows_capacitance_scaling(trade, ref_cfg):
    # kT/C law: sixteen times less capacitance means sixteen times the
    # noise power, four times the rms
    c = ref_cfg.c_dac + ref_cfg.c_p
    assert math.isclose(kt_over_c(c / 16.0, 300.0), 16.0 * kt_over_c(c, 300.0),
                        rel_tol=1e-12)
    assert kt_over_c(c, 0.0) == 0.0
    # the binary row is the sampler's per-side noise on both sides, up to the
    # drawn array's mismatch
    assert math.isclose(trade.binary.sigma_ktc, math.sqrt(2.0) * sa.ktc_sigma(ref_cfg),
                        rel_tol=5e-3)
    # and the realized split array is substantially noisier than binary
    assert trade.split.sigma_ktc / trade.binary.sigma_ktc > 2.5


def test_trade_ktc_adds_both_sides(ref_cfg):
    # each side samples kT/C on its own drawn node; the differential rms is
    # the root of the two powers' sum, not twice the positive side's
    rng = np.random.default_rng(np.random.SeedSequence((0, 1)))
    trade = compare_topologies(ref_cfg, rng)
    rng = np.random.default_rng(np.random.SeedSequence((0, 1)))
    binary = build_cap_array(replace(ref_cfg, topology="binary"), rng)
    split = build_split_array(ref_cfg, rng)
    for row, arr in ((trade.binary, binary), (trade.split, split)):
        assert arr.node[0] != arr.node[1]
        assert row.sigma_ktc == math.sqrt(kt_over_c(float(arr.node[0]), ref_cfg.t_kelvin)
                                          + kt_over_c(float(arr.node[1]), ref_cfg.t_kelvin))


def test_trade_ignores_the_configured_topology(ref_cfg):
    # the trade study builds the binary array itself: a split config gives
    # the binary config's rows under the same rng seed
    assert ref_cfg.topology == "binary"
    split_cfg = validate(replace(ref_cfg, topology="split"))
    for seed in (0, 5, 42):
        a = compare_topologies(ref_cfg, np.random.default_rng(seed))
        b = compare_topologies(split_cfg, np.random.default_rng(seed))
        assert a.binary == b.binary and a.split == b.split


def test_trade_builds_only_the_realized_split_network(ref_cfg, monkeypatch):
    # the study reads no switch settling, so it evaluates the split network
    # once, for the drawn array, and never its mismatch-free twin
    calls = []
    sides = capdac._split_sides

    def counted(*args):
        calls.append(args)
        return sides(*args)

    monkeypatch.setattr(capdac, "_split_sides", counted)
    compare_topologies(ref_cfg, np.random.default_rng(np.random.SeedSequence((0, 1))))
    assert len(calls) == 1


def test_trade_split_reduces_capacitance(trade):
    assert trade.c_reduction > 8.0
    assert trade.split.c_total_side < trade.binary.c_total_side / 8.0


def test_trade_split_inl_worse_paired_seed(ref_cfg):
    a = compare_topologies(ref_cfg, np.random.default_rng(17))
    assert a.split.inl_max > a.binary.inl_max


def test_trade_inl_matches_engine_ramp(ref_cfg):
    # the binary row's ladder INL equals the code-density INL of a noiseless
    # engine ramp converted on the same drawn ladder (seed 0 draws it first)
    cfg = replace(sa.ideal_config(ref_cfg), sigma_u=ref_cfg.sigma_u)
    trade = compare_topologies(cfg, np.random.default_rng(np.random.SeedSequence((0, 1))))
    span = sa.derived_constants(cfg).v_fs_net
    n = 16 * 2 ** cfg.bits
    v = (np.arange(n) + 0.5) / n * span - span / 2
    inl = inl_dnl(sa.convert_waveform(v, cfg, seed=0).codes, cfg.bits, min_hits=8)[1]
    assert abs(trade.binary.inl_max - np.max(np.abs(inl))) < 0.15


def test_trade_report_serializes(ref_cfg, tmp_path):
    # the dac-compare command serializes compare_topologies under the rng
    # stream it derives from --seed: one CSV row per topology
    assert cli.main(["dac-compare", "--seed", "5", "--out", str(tmp_path)]) == 0
    trade = compare_topologies(ref_cfg, np.random.default_rng(np.random.SeedSequence((5, 1))))
    csv = (tmp_path / "dac_compare.csv").read_text().splitlines()
    assert csv[0].startswith("topology,")
    assert len(csv) == 3
    assert [line.split(",")[0] for line in csv[1:]] == [trade.binary.topology, trade.split.topology]
    d = json.loads((tmp_path / "dac_compare.json").read_text())
    assert {"rows", "energy_saving_ideal_accounting", "capacitance_reduction"} <= set(d)
    assert d["energy_saving_ideal_accounting"] == trade.energy_saving
    assert d["capacitance_reduction"] == trade.c_reduction
