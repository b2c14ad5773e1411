import math
from dataclasses import replace

import numpy as np
import pytest

import saradc as sa
from saradc.analysis import (InsufficientDataError, gen_coherent_tone, inl_dnl,
                             metrics, spectrum, spectrum_csv)
from saradc.engine import convert_waveform, ideal_quantizer_code


def _ideal_codes(tone, cfg):
    return np.array([ideal_quantizer_code(v, cfg) for v in tone.v_diff])


# ---------------------------------------------------------------------------
# tone generation

def test_tone_frequency_mapping(ref_cfg):
    t = gen_coherent_tone(64, 3, 0.75, ref_cfg.v_cm, 130e6)
    assert math.isclose(t.f_in, 6.094e6, rel_tol=1e-3)
    t31 = gen_coherent_tone(64, 31, 0.75, ref_cfg.v_cm, 130e6)
    assert t31.f_in < 65e6 and t31.f_in > 60e6


def test_tone_zero_amplitude_is_silence(ref_cfg):
    t = gen_coherent_tone(64, 3, 0.0, ref_cfg.v_cm, 130e6)
    assert np.all(t.v_diff == 0.0)
    assert t.v_cm == ref_cfg.v_cm


def test_tone_rejects_incoherent_bin(ref_cfg):
    with pytest.raises(ValueError, match="factor"):
        gen_coherent_tone(64, 4, 0.75, ref_cfg.v_cm, 130e6)
    with pytest.raises(ValueError, match="bin"):
        gen_coherent_tone(64, 32, 0.75, ref_cfg.v_cm, 130e6)
    with pytest.raises(ValueError, match="bin"):
        gen_coherent_tone(64, 0, 0.75, ref_cfg.v_cm, 130e6)


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_parseval(ideal_cfg):
    tone = gen_coherent_tone(4096, 101, 0.7, ideal_cfg.v_cm, ideal_cfg.f_s)
    codes = _ideal_codes(tone, ideal_cfg)
    p = spectrum(codes, 10)
    x = (codes + 0.5) / 1024 - 0.5
    ms = float(np.mean(x * x))
    assert abs(float(np.sum(p)) - ms) < 1e-9 * ms


def test_spectrum_constant_record_is_dc_only():
    p = spectrum(np.full(64, 700), 10)
    assert p[0] > 0
    assert float(np.sum(p[1:])) < 1e-24


def test_spectrum_pure_tone_concentrates_in_signal_bin(ideal_cfg):
    # quantize a coherent tone at very fine resolution: everything lands in
    # the signal bin to numerical precision
    cfg = replace(ideal_cfg, bits=20, c_unit=1e-18)
    tone = gen_coherent_tone(256, 19, 0.7, cfg.v_cm, cfg.f_s)
    codes = np.array([ideal_quantizer_code(v, cfg) for v in tone.v_diff])
    p = spectrum(codes, 20)
    others = np.delete(p[1:], 18)
    assert p[19] > 1e5 * float(np.sum(others))


def test_spectrum_rejects_bad_codes():
    with pytest.raises(ValueError, match="codes"):
        spectrum(np.array([0, 1, 5000]), 10)


def test_spectrum_csv_shape(ref_cfg):
    p = spectrum(np.arange(64) % 1024, 10)
    lines = spectrum_csv(p, ref_cfg.f_s).splitlines()
    assert lines[0] == "bin,frequency_Hz,power_dBFS"
    assert len(lines) == 34  # header + 33 one-sided bins


# ---------------------------------------------------------------------------
# metrics

def test_quantization_limit_snr_for_several_resolutions(ref_cfg):
    for bits in (6, 8, 10):
        cfg = sa.ideal_config(replace(ref_cfg, bits=bits))
        d = sa.derived_constants(cfg)
        tone = gen_coherent_tone(4096, 101, d.v_fs_net / 2, cfg.v_cm, cfg.f_s)
        codes = _ideal_codes(tone, cfg)
        m = metrics(spectrum(codes, bits), 101, 1.0, cfg.f_s)
        assert abs(m.sndr - (6.02 * bits + 1.76)) < 0.5


def test_enob_identity_exact():
    p = np.zeros(33)
    p[3] = 1.0
    p[7] = 1e-6
    m = metrics(p, 3, 1.0, 130e6)
    assert m.enob == (m.sndr - 1.76) / 6.02


def test_enob_matches_reported_rounding():
    assert math.isclose((55.2 - 1.76) / 6.02, 8.88, abs_tol=0.005)


def test_fom_values():
    p = np.zeros(33)
    p[3] = 1.0
    p[5] = 10 ** (-55.2 / 10)  # exactly 55.2 dB SNDR
    m = metrics(p, 3, 860e-6, 130e6)
    assert math.isclose(m.sndr, 55.2, rel_tol=1e-9)
    # internal consistency with the exact ENOB, and the quoted-value
    # arithmetic at the rounded 8.8 bits
    assert math.isclose(m.fom_walden, 860e-6 / (2 ** m.enob * 130e6), rel_tol=1e-12)
    assert math.isclose(860e-6 / (2 ** 8.8 * 130e6), 14.8e-15, rel_tol=0.01)
    assert math.isclose(m.fom_literal, 860e-6 / 130e6 ** 2, rel_tol=1e-12)
    assert "J*s" in m.fom_literal_unit


def test_sfdr_never_below_sndr(ref_cfg):
    tone = gen_coherent_tone(64, 3, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    res = convert_waveform(tone.v_diff, ref_cfg, seed=0)
    m = metrics(spectrum(res.codes, 10), 3, 1.0, ref_cfg.f_s)
    assert m.sfdr >= m.sndr


def test_single_bin_spectrum_sentinels():
    p = np.zeros(33)
    p[3] = 1.0
    m = metrics(p, 3, 1.0, 130e6)
    assert math.isinf(m.sndr) and math.isinf(m.sfdr)
    assert math.isnan(m.fom_walden)


def test_empty_signal_bin_is_not_measurable():
    # noise but no tone: every ratio to the signal is NaN, not a crash on
    # log10(0) and not an infinite SNDR
    p = np.zeros(33)
    p[5] = p[9] = 1e-6
    m = metrics(p, 3, 1.0, 130e6)
    for value in (m.sndr, m.sfdr, m.thd, m.enob, m.fom_walden):
        assert math.isnan(value)


def test_odd_record_length_from_caller():
    # a 5-point record has a 3-bin spectrum, as a 4-point one does: bin 2
    # lies at 2/5 of the rate, and the second harmonic (4 of 5) aliases to
    # bin 1, which only the odd length knows
    p = spectrum(np.array([512, 900, 300, 700, 100]), 10)
    m = metrics(p, 2, 1.0, 130e6, n=5)
    assert m.n == 5 and math.isfinite(m.thd)
    assert metrics(p, 2, 1.0, 130e6).n == 4
    assert spectrum_csv(p, 130e6, n=5).splitlines()[3].startswith("2,52000000,")
    for call in (lambda: metrics(p, 2, 1.0, 130e6, n=6), lambda: spectrum_csv(p, 130e6, n=3)):
        with pytest.raises(ValueError, match="record length"):
            call()


def test_amplitude_sweep_rises_then_flattens(ref_cfg):
    # about one dB of SNDR per dB of amplitude while quantization-limited,
    # then the curve flattens as distortion takes over near full scale
    sndrs = []
    amps_db = np.array([-30.0, -24.0, -18.0, -12.0, -6.0, -1.5])
    for a_db in amps_db:
        amp = 0.78 * 10 ** (a_db / 20)
        tone = gen_coherent_tone(1024, 75, amp, ref_cfg.v_cm, ref_cfg.f_s)
        res = convert_waveform(tone.v_diff, ref_cfg, seed=3)
        sndrs.append(metrics(spectrum(res.codes, 10), 75, 1.0, ref_cfg.f_s).sndr)
    low_slope = (sndrs[2] - sndrs[0]) / (amps_db[2] - amps_db[0])
    assert 0.7 < low_slope < 1.3
    top_slope = (sndrs[-1] - sndrs[-2]) / (amps_db[-1] - amps_db[-2])
    assert top_slope < low_slope
    assert all(b > a - 1.0 for a, b in zip(sndrs, sndrs[1:]))


# ---------------------------------------------------------------------------
# static metrology

def _ramp_codes(cfg, per_code=32, seed=0, span=None):
    """Codes of a uniform ramp across the converter's input range.

    span defaults to the binary-ladder net full scale; the split topology
    covers less, so its tests pass the realized range explicitly.
    """
    if span is None:
        span = sa.derived_constants(cfg).v_fs_net
    n = per_code * 2 ** cfg.bits
    v = (np.arange(n) + 0.5) / n * span - span / 2
    return convert_waveform(v, cfg, seed=seed).codes


def _realized_span(cfg, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    arr = sa.build_cap_array(cfg, rng)
    return 4 * arr.corrections[0]


def test_inl_dnl_ideal_ramp_is_flat(ideal_cfg):
    codes = _ramp_codes(ideal_cfg)
    dnl, inl = inl_dnl(codes, 10)
    assert np.max(np.abs(dnl)) < 1e-9
    assert np.max(np.abs(inl)) < 1e-9


def test_inl_dnl_insufficient_data_lists_codes():
    codes = np.concatenate([np.full(40, 1), np.full(40, 3), [0, 1023]])
    with pytest.raises(InsufficientDataError) as err:
        inl_dnl(codes, 10)
    assert 2 in err.value.missing


def test_inl_dnl_rejects_codes_outside_range(ideal_cfg):
    # a code past the top would grow the histogram by one more DNL entry
    codes = _ramp_codes(ideal_cfg)
    for bad in (1024, -1):
        with pytest.raises(ValueError, match=r"codes outside \[0, 1023\]"):
            inl_dnl(np.append(codes, bad), 10)


def test_inl_dnl_rejects_malformed_records():
    # each would reach np.bincount and fail there with numpy's own message
    for codes, message in [([0.5, 1.0], "integers, not float64"),
                           ([], "non-empty one-dimensional"),
                           (np.zeros((2, 2), dtype=int), "non-empty one-dimensional")]:
        with pytest.raises(ValueError, match=message):
            inl_dnl(codes, 10)


def test_inl_reproducible_and_nonzero_with_mismatch(ref_cfg):
    cfg = replace(sa.ideal_config(ref_cfg), bits=8, sigma_u=0.01)
    a = inl_dnl(_ramp_codes(cfg, seed=4), 8)[1]
    b = inl_dnl(_ramp_codes(cfg, seed=4), 8)[1]
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) > 0.02


def test_split_topology_inl_worse_under_same_seed(ref_cfg):
    # A light attenuation-node parasitic keeps every code reachable (the
    # full-severity case has genuinely missing codes, which the histogram
    # estimator rejects by contract; the ladder-level comparison covers it).
    base = replace(sa.ideal_config(ref_cfg), bits=8, sigma_u=0.01, c_p=2e-15)
    inl_bin = inl_dnl(_ramp_codes(base, seed=4), 8)[1]
    split = replace(base, topology="split")
    span = 1.05 * _realized_span(split, 4)   # end codes absorb the overshoot
    inl_split = inl_dnl(_ramp_codes(split, seed=4, per_code=48, span=span), 8)[1]
    assert np.max(np.abs(inl_split)) > np.max(np.abs(inl_bin))
