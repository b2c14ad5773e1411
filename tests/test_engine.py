import gc
import hashlib
import json
import math
import platform
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import saradc as sa
from saradc import cli, engine
from saradc.config import _SCHEMA, ConfigError, validate
from saradc.engine import (convert_waveform, ideal_quantizer_code, measure_distortion_power,
                           noise_budget, power_report)
import reference_engine as reference
from textbook import conversion_energy


def test_ideal_ramp_subset_matches_oracle(ideal_cfg):
    # grid points sit an eighth of an LSB away from every decision threshold
    d = sa.derived_constants(ideal_cfg)
    n = 4096
    v = ((np.arange(n) + 0.5) / n * d.v_fs_net - d.v_fs_net / 2)[::57]
    res = convert_waveform(v, ideal_cfg, seed=0)
    assert res.codes.tolist() == [ideal_quantizer_code(vv, ideal_cfg) for vv in v]
    assert not res.violation.any()


def test_positive_full_scale_saturates(ideal_cfg):
    d = sa.derived_constants(ideal_cfg)
    assert convert_waveform([d.v_fs_net / 2], ideal_cfg).codes[0] == 1023


def test_zero_input_flags_metastable(ideal_cfg):
    res = convert_waveform([0.0], ideal_cfg)
    assert res.metastable[0] == 1 and res.n_metastable_bits == 1
    assert res.violation[0] and res.n_violations == 1
    assert res.codes[0] == 512       # mid-scale completion from the first bit


def test_out_of_rail_input_rejected(ideal_cfg):
    v = 2.0 * (ideal_cfg.v_dd - ideal_cfg.v_cm) + 0.2
    with pytest.raises(ValueError, match="sample 1 leaves"):
        convert_waveform([0.1, v], ideal_cfg)
    # each block checks its own sides, and names a sample by its place in
    # the record
    k = engine._STREAM_BLOCK + 7
    record = np.zeros(k + 3)
    record[k] = v
    with pytest.raises(ValueError, match=f"sample {k} leaves"):
        convert_waveform(record, ideal_cfg)


def test_engine_raises_no_floating_point_error(ref_cfg, ideal_cfg):
    # under a caller's errstate(all="raise") the in-place bit loop, the held
    # pairs and the ladder signal nothing: an exactly zero held difference
    # (an infinite latency), a record whose every conversion runs out of
    # window, a split ladder; and the caller's error state is left as it was,
    # also when the engine raises
    tone = sa.gen_coherent_tone(64, 31, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    split = replace(ref_cfg, topology="split")
    before = np.geterr()
    with np.errstate(all="raise"):
        outer = np.geterr()
        zero = convert_waveform([0.0], ideal_cfg)
        assert zero.metastable[0] == 1 and zero.violation[0]
        fast = convert_waveform(tone.v_diff, replace(ref_cfg, f_s=225e6), seed=1)
        assert fast.n_violations == fast.n_samples
        convert_waveform(0.5 * tone.v_diff, split, seed=2)
        assert np.geterr() == outer
        with pytest.raises(ValueError, match="leaves"):
            convert_waveform([0.1, 2.0 * ref_cfg.v_dd], ref_cfg)
        assert np.geterr() == outer
    assert np.geterr() == before


def test_code_reproduces_decisions(ref_cfg, comparator_calls):
    res = convert_waveform([0.2], ref_cfg, seed=3)
    assert res.metastable[0] == 0 and len(comparator_calls) == ref_cfg.bits
    code = 0
    for _, up in comparator_calls:
        code = (code << 1) | up
    assert code == res.codes[0]


def test_energy_conservation_identity(ref_cfg):
    # without a violation every code pays one table event per switched bit,
    # and every bit fires the comparator and the logic once
    tone = sa.gen_coherent_tone(256, 19, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    res = convert_waveform(tone.v_diff, ref_cfg, seed=4)
    assert res.n_violations == 0
    ladder = sa.build_cap_array(ref_cfg, np.random.default_rng(np.random.SeedSequence((4, 1))))
    e_dac = float(np.sum(conversion_energy(ladder)[res.codes]))
    assert math.isclose(res.e_blocks["dac"], e_dac, rel_tol=1e-12)
    # the comparator fires bits * f_s = 1.3 GHz, each time 66 fF * 1.44 V^2,
    # and its power is quadratic in the supply
    p_comp = power_report(res).blocks["comparator"]
    assert math.isclose(p_comp, 123.552e-6, rel_tol=1e-6)
    doubled = convert_waveform(tone.v_diff, replace(ref_cfg, v_dd=2.4), seed=4)
    assert doubled.n_violations == 0
    assert power_report(doubled).blocks["comparator"] == 4.0 * p_comp
    slots = res.n_samples * ref_cfg.bits
    assert math.isclose(res.e_blocks["logic"], slots * ref_cfg.e_logic, rel_tol=1e-12)


def test_starved_schedule_flags_violation(ref_cfg):
    # window smaller than the fixed overheads: conversion must give up
    cfg = replace(ref_cfg, f_s=500e6, t_track=1.5e-9)
    res = convert_waveform([2e-4], cfg)
    assert res.violation[0]


def test_waveform_determinism_across_calls(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    a = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    kept = {name: getattr(a, name).copy()
            for name in ("codes", "metastable", "violation")}
    e_kept = dict(a.e_blocks)
    _assert_same(convert_waveform(tone.v_diff, ref_cfg, seed=5), a)
    # a later call of the same length leaves the first record as it was: no
    # memory of a block's workspace escapes into a result
    other = convert_waveform(tone.v_diff, ref_cfg, seed=6)
    assert not np.array_equal(other.codes, a.codes)
    for name, value in kept.items():
        assert np.array_equal(getattr(a, name), value), name
    assert a.e_blocks == e_kept


# A steady-state record in a fresh interpreter: warm-up calls, then the
# minor page faults of ten more, per call, for each temperature and length
# given as comma-separated arguments, after a heap padding of the bytes the
# third argument gives
_FAULTS_PER_CALL = """
import sys

padding = bytes(int(sys.argv[3]))

import resource
from dataclasses import replace

import saradc as sa
from saradc.engine import convert_waveform

ref = sa.reference_defaults()
t_kelvins, lengths = (arg.split(",") for arg in sys.argv[1:3])
for cfg in (replace(ref, t_kelvin=float(t)) for t in t_kelvins):
    for n in map(int, lengths):
        tone = sa.gen_coherent_tone(n, 189, 0.75, cfg.v_cm, cfg.f_s)
        for seed in range(3):
            convert_waveform(tone.v_diff, cfg, seed=seed)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for seed in range(10):
            convert_waveform(tone.v_diff, cfg, seed=seed)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print(cfg.t_kelvin, n, (after - before) / 10)
"""


# heap paddings [bytes] chosen by a scan of int64 outputs, which fault at
# 0 K in some start-ups: over 20 caller environments (0-3,300 extra bytes),
# each of which faulted at some paddings of a 0-4,096-byte grid, these six
# caught every one
_PADDINGS = (512, 1280, 1664, 1792, 2304, 3712)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts glibc's heap trimming on Linux")
def test_steady_records_take_no_page_faults(fresh_env):
    # a record whose transient memory outgrows glibc's heap-trim point gives
    # the heap top back after every call, and the next call faults it in
    # again, about 300 times at 4,096 samples; 8,192 samples take two blocks.
    # At 65,536 samples the record-sized outputs come near the trim point:
    # one more float array of that size costs about 600 faults a call.  Each
    # temperature converts that length alone in an interpreter of its own,
    # since shorter records run first raise glibc's thresholds and hide such
    # faults.  A fresh interpreter, because earlier tests in this one raise
    # them too.  Which side of the trim point a 0 K call lands on depends on
    # the heap layout the interpreter starts with, so that case runs again
    # after each padding of ``_PADDINGS``
    cases = [("300,0", "2048,4096,8192", 0), ("300", "65536", 0),
             *(("0", "65536", padding) for padding in (0, *_PADDINGS))]

    def probe(case):
        t_kelvins, lengths, padding = case
        run = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL, t_kelvins, lengths,
                              str(padding)],
                             env=fresh_env, capture_output=True, text=True, timeout=300,
                             check=True)
        return [(padding, *line.split()) for line in run.stdout.splitlines()]

    # two interpreters at a time: each counts only its own faults
    with ThreadPoolExecutor(max_workers=2) as pool:
        counts = [count for found in pool.map(probe, cases) for count in found]
    assert len(counts) == 8 + len(_PADDINGS)
    for padding, t_kelvin, n, faults in counts:
        assert float(faults) <= 5, \
            f"t_kelvin={t_kelvin} n={n} padding={padding}: {faults} faults per call"


# a 4,096-sample call's workspace: 43 rows of 4,096 doubles, 1,376 KiB
_WORKSPACE = 43 * 4096 * 8


def _traced_peak(v_diff, cfg):
    """Traced peak of one call [bytes], after a warm-up call."""
    convert_waveform(v_diff, cfg, seed=1)
    tracemalloc.start()
    try:
        convert_waveform(v_diff, cfg, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flagged_sizes(patch):
    """The size of every flagged set the careful pass takes, in order,
    once ``patch`` has wrapped ``engine._careful_pass``."""
    taken = []
    careful = engine._careful_pass

    def recorded(held, noise, flagged, *args):
        taken.append(flagged.size)
        return careful(held, noise, flagged, *args)

    patch.setattr(engine, "_careful_pass", recorded)
    return taken


def test_careful_pass_reads_the_block_rows_in_place(ref_cfg, monkeypatch):
    # at 225 MHz the careful pass takes every conversion of a 4,096-sample
    # block; reading one noise row per bit and zeroing only the stopped
    # conversions' events, it keeps the call's traced peak under 1.46x the
    # workspace: 1.437x is measured (1,977 KiB), and a whole-block gather of
    # the flagged noise rows alone reads 1.669x (2,297 KiB).  The peak is
    # bounded against the workspace, not against the shipped-rate peak, so
    # that a saving at the shipped rate does not read as careful-pass growth
    fast = replace(ref_cfg, f_s=225e6)
    tone = sa.gen_coherent_tone(4096, 189, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    with monkeypatch.context() as patch:
        taken = _flagged_sizes(patch)
        convert_waveform(tone.v_diff, fast, seed=1)
    assert taken == [tone.v_diff.size]
    peak = _traced_peak(tone.v_diff, fast)
    assert peak < 1.46 * _WORKSPACE, f"{peak / _WORKSPACE:.3f}x the workspace at 225 MHz"


def test_shipped_rate_peak_stays_near_the_workspace(ref_cfg):
    # at the shipped rate the screen flags nothing, and a 4,096-sample
    # call's traced peak is its workspace plus the block's transients:
    # 1.174x, with the input sides formed in the sign rows and the noise
    # scaled into the normal rows.  A (2, n) temporary more, as a separately
    # scaled kT/C pair or input sides kept beside the workspace, costs
    # 64 KiB each (1.267x with both)
    tone = sa.gen_coherent_tone(4096, 189, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    peak = _traced_peak(tone.v_diff, ref_cfg)
    assert peak < 1.22 * _WORKSPACE, f"{peak / _WORKSPACE:.3f}x the workspace"


def test_screen_flags_no_noisy_shipped_conversion(ref_cfg, monkeypatch):
    # a screen that flagged every conversion would keep every bit while
    # running the careful pass on all of them: at the shipped rate, with
    # both noise sources on, no conversion of these records is flagged
    taken = _flagged_sizes(monkeypatch)
    for n, tone_bin in ((4096, 189), (64, 3), (64, 31)):
        tone = sa.gen_coherent_tone(n, tone_bin, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
        for seed in (0, 1, 2 ** 32 + 5):
            res = convert_waveform(tone.v_diff, ref_cfg, seed=seed)
            assert res.n_metastable_bits == 0
    assert taken == []


# config changes after the rate, each shown in the test id as key=value:
# every mix of the two noise sources, and a pre-amplifier gain that lets the
# comparisons after a latch resolve, with noise large enough to decide some
# of their bits
_QUIET = [{}, {"sigma_n_comp": 0.0}, {"t_kelvin": 0.0}, {"sigma_n_comp": 0.0, "t_kelvin": 0.0}]
_WALKS = [(130e6, {}), *((f_s, quiet) for f_s in (210e6, 225e6) for quiet in _QUIET),
          (225e6, {"a_v": 100.0, "sigma_n_comp": 5e-3})]


def test_sample_streams_continue_across_blocks(ref_cfg, monkeypatch):
    # blocks of three samples: the record stream, the held pair and the
    # running energy totals carry across every block edge, also where a
    # latch goes on inside a block
    tone = sa.gen_coherent_tone(8, 3, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    f_s, changes = _WALKS[-1]
    latching = replace(ref_cfg, f_s=f_s, **changes)
    for cfg in (ref_cfg, latching):
        whole = convert_waveform(tone.v_diff, cfg, seed=7)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_STREAM_BLOCK", 3)
            _assert_same(convert_waveform(tone.v_diff, cfg, seed=7), whole)
        _assert_same(whole, reference.convert_waveform(tone.v_diff, cfg, seed=7))
    # a latch that went on: more metastable comparisons than stops
    assert np.any(whole.metastable > whole.violation)


def _assert_same(res, ref):
    for name in ("codes", "metastable", "violation"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    assert res.e_blocks == ref.e_blocks


@pytest.mark.parametrize("f_s, changes", [
    pytest.param(f_s, changes, id="-".join([str(f_s), *(f"{k}={v}" for k, v in changes.items())]))
    for f_s, changes in _WALKS])
def test_block_pass_matches_reference_walk(ref_cfg, f_s, changes):
    # one sample past a block, at the shipped rate, at a rate where some
    # conversions are metastable and at one where every conversion runs out
    # of window; the seed takes two words.  Where a latch goes on, the
    # latch normal decides its bit and the comparator normals after it
    # decide the rest
    cfg = replace(ref_cfg, f_s=f_s, **changes)
    tone = sa.gen_coherent_tone(engine._STREAM_BLOCK + 1, 101, 0.75, cfg.v_cm, cfg.f_s)
    res = convert_waveform(tone.v_diff, cfg, seed=2 ** 32 + 3)
    _assert_same(res, reference.convert_waveform(tone.v_diff, cfg, seed=2 ** 32 + 3))
    assert np.all(res.metastable - res.violation <= 1)
    if f_s == 210e6:
        assert 0 < res.n_metastable_conversions < res.n_samples
    if "a_v" in changes:
        assert np.any((res.metastable == 1) & ~res.violation)
    elif f_s == 225e6:
        assert res.n_violations == res.n_samples


def test_lean_and_bookkeeping_blocks_match_reference_walk(ref_cfg, monkeypatch):
    # a block whose conversions all pass the latency screen runs only the
    # lean pass; at 210 MHz some 16-sample blocks do and others hand the
    # conversions that latch to the careful pass, and the record still
    # equals the sequential walk
    cfg = replace(ref_cfg, f_s=210e6)
    tone = sa.gen_coherent_tone(256, 19, 0.75, cfg.v_cm, cfg.f_s)
    monkeypatch.setattr(engine, "_STREAM_BLOCK", 16)
    res = convert_waveform(tone.v_diff, cfg, seed=3)
    latched = res.metastable.reshape(-1, 16).sum(axis=1)
    assert np.any(latched == 0) and np.any(latched > 0)
    _assert_same(res, reference.convert_waveform(tone.v_diff, cfg, seed=3))


def _careful_calls(monkeypatch):
    """(columns, |effective input| of column 0) of every careful-pass
    comparison, in order: the careful pass takes one bit's latencies at a
    time, a one-dimensional call, the lean pass all bits' in one (bits, n)
    call."""
    calls = []
    latencies = engine.decision_latencies

    def recorded(v_abs, tau_reg, v_dd, a_v, out):
        if v_abs.ndim == 1:
            calls.append((v_abs.size, float(v_abs[0])))
        return latencies(v_abs, tau_reg, v_dd, a_v, out=out)

    monkeypatch.setattr(engine, "decision_latencies", recorded)
    return calls


def test_careful_pass_takes_only_the_dead_zero(ref_cfg, monkeypatch):
    # a noise-off tone starts at an exactly zero held difference, which never
    # resolves: the screen hands that one conversion, and no other, to the
    # careful pass, which stops it at its first bit and then ends
    calls = _careful_calls(monkeypatch)
    quiet = replace(ref_cfg, sigma_n_comp=0.0, t_kelvin=0.0)
    tone = sa.gen_coherent_tone(64, 3, 0.75, quiet.v_cm, quiet.f_s)
    res = convert_waveform(tone.v_diff, quiet, seed=0)
    assert calls == [(1, 0.0)]
    assert res.violation.nonzero()[0].tolist() == [0] and res.codes[0] == 512
    _assert_same(res, reference.convert_waveform(tone.v_diff, quiet, seed=0))


def test_careful_pass_takes_every_flagged_conversion(ref_cfg, monkeypatch):
    # at 225 MHz nearly every conversion overruns the window: the careful
    # pass converts them again from their held pairs, and ends once all have
    # stopped; the record still equals the sequential walk
    calls = _careful_calls(monkeypatch)
    cfg = replace(ref_cfg, f_s=225e6)
    tone = sa.gen_coherent_tone(1024, 101, 0.75, cfg.v_cm, cfg.f_s)
    res = convert_waveform(tone.v_diff, cfg, seed=5)
    _assert_same(res, reference.convert_waveform(tone.v_diff, cfg, seed=5))
    assert calls and calls[0][0] > 0.9 * tone.v_diff.size
    assert len(calls) < cfg.bits and res.n_violations == res.n_samples


def test_switch_energy_matches_reference_walk_at_every_stop_bit(ref_cfg):
    # a stopped conversion books the switches before its stop bit and none
    # from it on: for each stop bit the data reaches, a one-sample record
    # equals the sequential walk, energies included.  The stop bit is read
    # off the lowest set bit of the violated code.  A noise-off dead zero
    # stops at bit 0; a 225 MHz ramp, and its variant whose gain lets a
    # latch go on, reach bits 2-9
    quiet = replace(ref_cfg, sigma_n_comp=0.0, t_kelvin=0.0)
    fast = replace(ref_cfg, f_s=225e6)
    latching = replace(fast, a_v=100.0, sigma_n_comp=5e-3)
    ramp = np.linspace(-0.4, 0.4, 257)
    cases = [(quiet, 0.0), *((cfg, v) for cfg in (fast, latching) for v in ramp)]
    reached = set()
    for cfg, v in cases:
        res = convert_waveform([v], cfg)
        code = int(res.codes[0])
        stop = cfg.bits - (code & -code).bit_length()
        if res.violation[0] and (cfg, stop) not in reached:
            reached.add((cfg, stop))
            _assert_same(res, reference.convert_waveform([v], cfg))
    assert {stop for _, stop in reached} == {0, *range(2, ref_cfg.bits)}


def test_exact_zero_after_the_first_bit_goes_to_the_careful_pass(ideal_cfg, monkeypatch,
                                                                 comparator_calls):
    # at a quarter of the full scale the ideal converter's first switch
    # leaves an exactly zero difference: its sign row reads 0 there, which
    # switches nothing, and its infinite latency hands the conversion to
    # the careful pass, which stops it at bit 1; the record equals the walk
    careful = _careful_calls(monkeypatch)
    v = [sa.derived_constants(ideal_cfg).v_fs_net / 4]
    res = convert_waveform(v, ideal_cfg)
    lean = comparator_calls[:ideal_cfg.bits]
    assert lean[0][1] and lean[1] == (0.0, False)
    assert [k for k, _ in careful] == [1, 1] and careful[1][1] == 0.0
    assert res.violation[0] and res.metastable[0] == 1 and res.codes[0] == 0b11 << 8
    _assert_same(res, reference.convert_waveform(v, ideal_cfg))


@pytest.mark.parametrize("fn, lo, hi", [(np.exp, -20.0, 0.0), (np.log, 1e-3, 1e9)],
                         ids=["exp", "log"])
def test_numpy_exp_log_shape_free(fn, lo, hi):
    # the engine takes exp (held-chain settling) and log (decision latency)
    # of blocks of any length, the reference walk of one float at a time;
    # a record is byte-identical however it is split only if an element's
    # value does not depend on the call's length, chunking, stride or rank,
    # nor on where the result is written.  Over the ranges the engine feeds:
    # hold exponents and latency arguments
    rng = np.random.default_rng(16)
    span = rng.random(4 * 4095)
    x = lo + (hi - lo) * span if fn is np.exp else lo * (hi / lo) ** span
    whole = fn(x)
    assert np.array_equal([fn(v) for v in x.tolist()], whole)
    # lengths around the SIMD widths and a block's tail
    for size in (1, 7, 16, 17, 4095):
        chunks = [fn(x[i:i + size]) for i in range(0, x.size, size)]
        assert np.array_equal(np.concatenate(chunks), whole), size
    assert np.array_equal(fn(x[1::3]), whole[1::3])
    assert np.array_equal(fn(x.reshape(-1, 2)), whole.reshape(-1, 2))
    assert np.array_equal(fn(x.reshape(2, -1).T), whole.reshape(2, -1).T)
    # the out= forms: into a row of a 2-D buffer (the latency chain), into
    # a strided view, and in place on the input (hold's (2, n) settling
    # factors, written over their exponents, also through a transposed view)
    rows = np.zeros((3, x.size))
    row = rows[1]
    assert fn(x, out=row) is row
    assert np.array_equal(rows[1], whole) and not rows[[0, 2]].any()
    strided = np.zeros(2 * x.size)
    fn(x, out=strided[1::2])
    assert np.array_equal(strided[1::2], whole) and not strided[::2].any()
    for shape in ((x.size,), (2, -1)):
        inplace = x.reshape(shape).copy()
        assert fn(inplace, out=inplace) is inplace
        assert np.array_equal(inplace, whole.reshape(shape))
    pairs = x.reshape(-1, 2).copy().T
    fn(pairs, out=pairs)
    assert np.array_equal(pairs, whole.reshape(-1, 2).T)


def test_negative_seed_rejected(ref_cfg):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        convert_waveform([0.1], ref_cfg, seed=-1)


def test_latched_bit_is_a_fair_coin(ref_cfg):
    # at 225 MHz with every noise source and the mismatch off, a 1 uV input
    # makes every MSB comparison latch and go on; the next comparison that
    # needs time stops the conversion, so the MSB is the latched bit
    cfg = replace(ref_cfg, f_s=225e6, sigma_n_comp=0.0, t_kelvin=0.0, sigma_u=0.0)
    n = 4096
    res = convert_waveform(np.full(n, 1e-6), cfg, seed=0)
    assert set(res.codes.tolist()) <= {384, 640}
    assert np.all(res.metastable == 2) and np.all(res.violation)
    assert abs((res.codes >> 9).mean() - 0.5) < 4 * math.sqrt(0.25 / n)
    assert hashlib.sha256(res.codes.astype("<i8").tobytes()).hexdigest() == (
        "ec3eea92cff498e0bd134c6e7de2b539f4087f043b46781c144b03487bc125a1")


def test_waveform_seed_changes_results(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    a = convert_waveform(tone.v_diff, ref_cfg, seed=5)
    b = convert_waveform(tone.v_diff, ref_cfg, seed=6)
    assert not np.array_equal(a.codes, b.codes)


# ---------------------------------------------------------------------------
# the plan memo

def _assert_identical(res, ref):
    # every WaveformResult field, dtypes included
    for name in engine.WaveformResult._fields:
        a, b = getattr(res, name), getattr(ref, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


@pytest.mark.parametrize("topology", ["binary", "split"])
def test_plan_memo_cold_hit_and_evicted_agree(ref_cfg, topology):
    # a record is the same whether its plan is built on a cold memo, served
    # from the memo, or built again after a full memo evicted it.  The two
    # configs of one seed are two entries; the seeds take one word, two
    # words and the largest two-word value
    shipped = replace(ref_cfg, topology=topology)
    cfgs = (shipped, sa.ideal_config(shipped))
    tone = sa.gen_coherent_tone(64, 3, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    for seed in (0, 2 ** 32, 2 ** 32 + 3, 2 ** 64 - 1):
        engine._plan.cache_clear()
        cold = [convert_waveform(tone.v_diff, cfg, seed=seed) for cfg in cfgs]
        hit = [convert_waveform(tone.v_diff, cfg, seed=seed) for cfg in cfgs]
        assert engine._plan.cache_info()[:2] == (2, 2)      # hits, misses
        for k in range(engine._PLAN_MEMO):
            engine._plan(shipped, seed ^ (k + 1))
        evicted = [convert_waveform(tone.v_diff, cfg, seed=seed) for cfg in cfgs]
        assert engine._plan.cache_info().misses == engine._PLAN_MEMO + 4
        for a, b, c in zip(cold, hit, evicted):
            _assert_identical(b, a)
            _assert_identical(c, a)


def test_seed_at_two_bins_equals_cold_records(ref_cfg):
    # the benchmark's record batch: each seed at bin 3, then at bin 31 from
    # the memo; every record equals the one converted on a cold memo
    tones = [sa.gen_coherent_tone(64, b, 0.75, ref_cfg.v_cm, ref_cfg.f_s).v_diff
             for b in (3, 31)]
    runs = [(seed, v) for seed in range(2 ** 32, 2 ** 32 + 4) for v in tones]
    engine._plan.cache_clear()
    warm = [convert_waveform(v, ref_cfg, seed=seed) for seed, v in runs]
    assert engine._plan.cache_info()[:2] == (4, 4)
    for res, (seed, v) in zip(warm, runs):
        engine._plan.cache_clear()
        _assert_identical(res, convert_waveform(v, ref_cfg, seed=seed))


def test_plan_arrays_are_read_only(ref_cfg):
    # every call that hits an entry shares its arrays, and the per-bit rows
    # the bit loop reads are views of them
    for a in engine._plan(ref_cfg, 11):
        assert a.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a[0] += 1.0


def test_plan_memo_is_bounded_and_small(ref_cfg):
    # the bound is the module constant, and a full memo stays within 256 KiB
    # even when each entry keeps a config object of its own, floats
    # included, as configs loaded afresh are
    assert engine._plan.cache_info().maxsize == engine._PLAN_MEMO
    floats = [f.name for f in fields(ref_cfg) if isinstance(getattr(ref_cfg, f.name), float)]
    engine._plan.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for k in range(engine._PLAN_MEMO + 8):
            own = replace(ref_cfg, **{name: getattr(ref_cfg, name) * 1.0 for name in floats})
            engine._plan(own, 2 ** 64 - 1 - k)
        assert engine._plan.cache_info().currsize == engine._PLAN_MEMO
        gc.collect()
        full = tracemalloc.get_traced_memory()[0]
        engine._plan.cache_clear()
        gc.collect()
        empty = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert full - empty <= 256 * 1024


def test_constant_midscale_input(ideal_cfg):
    d = sa.derived_constants(ideal_cfg)
    res = convert_waveform(np.full(32, d.delta / 2), ideal_cfg, seed=0)
    assert np.all(res.codes == 512)


def test_empty_waveform_rejected(ref_cfg):
    with pytest.raises(ValueError):
        convert_waveform([], ref_cfg)
    with pytest.raises(ValueError, match="one-dimensional"):
        convert_waveform(0.1, ref_cfg)


def test_waveform_energy_bookkeeping(ref_cfg):
    tone = sa.gen_coherent_tone(128, 11, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    res = convert_waveform(tone.v_diff, ref_cfg, seed=2)
    assert res.n_samples == 128
    assert list(res.e_blocks) == ["comparator", "dac", "logic", "track_hold"]
    assert math.isclose(res.e_blocks["track_hold"], 128 * ref_cfg.e_track, rel_tol=1e-12)
    total = sum(res.e_blocks.values())
    assert math.isclose(power_report(res).total, total / 128 * ref_cfg.f_s, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# noise budget

def test_budget_terms_hand_values(ref_cfg):
    nb = noise_budget(ref_cfg, 56.4, 0.75 ** 2 / 2)
    assert math.isclose(math.sqrt(nb.quantization), 444.3e-6, rel_tol=1e-3)
    # 2kT over the sampled capacitance c_dac + c_p
    assert math.isclose(math.sqrt(nb.sampling), 79.2e-6, rel_tol=1e-3)
    assert nb.comparator == 312e-6 ** 2
    rss = math.sqrt(nb.comparator + nb.sampling + nb.quantization)
    assert math.isclose(rss, 548e-6, rel_tol=2e-3)


def test_budget_sampling_term_is_the_sampler_noise(ref_cfg):
    # the sampler puts kT/(c_dac + c_p) on each side; a parasitic as large
    # as the array makes the difference a factor of two
    cfg = validate(replace(ref_cfg, c_p=ref_cfg.c_dac))
    nb = noise_budget(cfg, 50.0, 0.3 ** 2 / 2)
    assert nb.sampling == 2 * sa.ktc_sigma(cfg) ** 2


def test_budget_zeroed_noise_is_quantization_limit(ideal_cfg):
    nb = noise_budget(ideal_cfg, 40.0, 0.75 ** 2 / 2)
    assert nb.comparator == 0.0 and nb.sampling == 0.0
    assert nb.distortion < 0.05 * nb.quantization
    d = sa.derived_constants(ideal_cfg)
    bound = 10 * math.log10((d.v_fs_net / 2) ** 2 / 2 / (d.delta ** 2 / 12))
    assert math.isclose(bound, 6.02 * 10 + 1.76, abs_tol=0.02)


def test_budget_rejects_bad_target(ref_cfg):
    with pytest.raises(ValueError):
        noise_budget(ref_cfg, -3.0, 0.1)


def test_budget_rejects_signal_outside_full_scale(ref_cfg):
    # a tone that clips would book the clipping as front-end distortion
    half = sa.derived_constants(ref_cfg).v_fs_net / 2
    small = validate(replace(ref_cfg, c_p=ref_cfg.c_dac))
    for cfg, power in [(ref_cfg, 0.0), (ref_cfg, -0.1), (ref_cfg, math.nan),
                       (ref_cfg, (half * 1.001) ** 2 / 2), (small, 0.75 ** 2 / 2)]:
        with pytest.raises(ValueError, match="signal_power"):
            noise_budget(cfg, 56.4, power)


def test_distortion_power_grows_with_curvature(ref_cfg):
    flat = replace(ref_cfg, ron_beta=0.0, sigma_u=0.0, n_settle=30.0)
    bent = replace(ref_cfg, ron_beta=0.9, sigma_u=0.0, n_settle=30.0)
    p0 = measure_distortion_power(flat, 0.75)
    p1 = measure_distortion_power(bent, 0.75)
    assert p1 > 4 * p0


# ---------------------------------------------------------------------------
# power report

def test_power_blocks_sum_exactly(ref_cfg):
    tone = sa.gen_coherent_tone(256, 19, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    rep = power_report(convert_waveform(tone.v_diff, ref_cfg, seed=0))
    assert math.isclose(sum(rep.blocks.values()), rep.total, rel_tol=1e-15)
    assert abs(sum(rep.fractions.values()) - 1.0) < 1e-9


def test_power_scales_linearly_with_rate(ref_cfg):
    # doubling the rate doubles every dynamic block (ideal scaling: the
    # schedule must still close, so tracking is shortened with the period)
    tone = sa.gen_coherent_tone(128, 11, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    fast = validate(replace(ref_cfg, f_s=2 * ref_cfg.f_s, t_track=ref_cfg.t_track / 2,
                            t_fix=75e-12, t_delay=50e-12))
    a = power_report(convert_waveform(tone.v_diff, ref_cfg, seed=1))
    b = power_report(convert_waveform(tone.v_diff, fast, seed=1))
    for k in a.blocks:
        assert math.isclose(b.blocks[k], 2 * a.blocks[k], rel_tol=1e-6)


def test_power_csv_layout(ref_cfg, tmp_path):
    # power.csv is written by the power command from this same report: one
    # row per block in report order, then the total
    assert cli.main(["power", "--n", "64", "--bin", "3", "--amplitude", "0.7",
                        "--out", str(tmp_path)]) == 0
    tone = sa.gen_coherent_tone(64, 3, 0.7, ref_cfg.v_cm, ref_cfg.f_s)
    rep = power_report(convert_waveform(tone.v_diff, ref_cfg, seed=0))
    lines = (tmp_path / "power.csv").read_text().splitlines()
    assert lines[0] == "block,power_W,fraction"
    assert [line.split(",")[0] for line in lines[1:-1]] == list(rep.blocks)
    assert lines[-1] == f"total,{rep.total:.12g},1"


# ---------------------------------------------------------------------------
# properties over schema-bounded configs

_KEYS = [f.name for f in fields(sa.AdcConfig)]
# keys the ideal converter keeps: static quantities, plus the nonidealities
# ideal_config zeroes; timing stays at the reference operating point
_IDEAL_KEYS = ["bits", "v_dd", "v_ref", "v_cm", "c_unit", "c_dac", "c_p", "sigma_u",
               "sigma_n_comp", "ron_alpha", "ron_beta", "t_kelvin"]


def _in_bounds(key):
    kind, _, lo, hi, _ = _SCHEMA[key]
    if key == "bits":
        return st.integers(lo, min(hi, 12))   # keeps the per-unit mismatch draw small
    if kind is str:
        return st.sampled_from(["binary", "split"])
    return st.floats(lo, hi)


def _configs(keys):
    """Reference config with up to four keys at in-bounds values, loaded."""
    changes = st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True).flatmap(
        lambda ks: st.fixed_dictionaries({k: _in_bounds(k) for k in ks}))
    return changes.map(lambda c: json.dumps({**asdict(sa.reference_defaults()), **c}))


def _load(doc):
    try:
        return sa.load_config(doc)
    except ConfigError:
        assume(False)


_FRACTIONS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(doc=_configs(_KEYS), fractions=_FRACTIONS, seed=st.integers(0, 2 ** 32))
def test_engine_invariants_hold_for_any_config(doc, fractions, seed):
    cfg = _load(doc)
    d = sa.derived_constants(cfg)
    v = np.array(fractions) * d.v_fs_net / 2
    try:
        res = convert_waveform(v, cfg, seed=seed)
    except ConfigError as err:      # an on-resistance polynomial that turns negative
        assert "nonphysical" in str(err)
        assume(False)
    assert np.all((res.codes >= 0) & (res.codes < 2 ** cfg.bits))
    assert np.all(res.metastable <= cfg.bits)
    # at most one latch goes on: it leaves no slack for a later one
    assert np.all(res.metastable - res.violation <= 1)
    for topology in ("binary", "split"):
        ladder = sa.build_cap_array(replace(cfg, topology=topology), np.random.default_rng(seed))
        assert np.all(ladder.e_event >= 0)
    rep = power_report(res)
    assert all(p >= 0 for p in rep.blocks.values())
    assert rep.total == sum(rep.blocks.values())
    assert math.isclose(rep.total, sum(res.e_blocks.values()) / res.n_samples * cfg.f_s,
                        rel_tol=1e-12)


@settings(derandomize=True, max_examples=130, deadline=None)
@given(doc=_configs(_KEYS), fractions=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
       seed=st.sampled_from([0, 2 ** 32 + 3, 2 ** 64 + 5]) | st.integers(0, 2 ** 32),
       block=st.integers(1, 5), quiet=st.booleans(),
       f_s=st.sampled_from([None, 210e6, 225e6, 190e6, 195e6]))
def test_block_pass_equals_reference_walk_for_any_config(doc, fractions, seed, block, quiet,
                                                         f_s):
    # field by field and bit for bit, with and without noise, at rates
    # where comparisons go metastable, and just under the shipped config's
    # analytic f_s_max of 194.5 MHz, where latency totals come near the
    # window and so test the screen's margin, over records split into
    # short blocks
    cfg = _load(doc)
    if quiet:
        cfg = replace(cfg, sigma_n_comp=0.0, t_kelvin=0.0)
    if f_s is not None:
        cfg = replace(cfg, f_s=f_s)
    v = np.array(fractions) * sa.derived_constants(cfg).v_fs_net / 2
    try:
        ref = reference.convert_waveform(v, cfg, seed=seed)
    except ValueError as err:       # out of the rails, or a nonphysical on-resistance
        with pytest.raises(type(err)) as raised:
            convert_waveform(v, cfg, seed=seed)
        assert str(raised.value) == str(err)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_STREAM_BLOCK", block)
        _assert_same(convert_waveform(v, cfg, seed=seed), ref)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(doc=_configs(_IDEAL_KEYS), offsets=st.lists(st.floats(0.125, 0.875), min_size=1,
                                                   max_size=8), data=st.data())
def test_ideal_mode_matches_quantizer_for_any_config(doc, offsets, data):
    # inputs sit at least an eighth of an LSB away from every threshold
    cfg = replace(sa.ideal_config(_load(doc)), topology="binary")
    d = sa.derived_constants(cfg)
    half = 2 ** (cfg.bits - 1)
    steps = data.draw(st.lists(st.integers(-half, half - 1), min_size=len(offsets),
                               max_size=len(offsets)))
    v = (np.array(steps) + np.array(offsets)) * d.delta
    res = convert_waveform(v, cfg)
    clean = res.metastable == 0
    oracle = np.array([ideal_quantizer_code(x, cfg) for x in v])
    assert np.array_equal(res.codes[clean], oracle[clean])
