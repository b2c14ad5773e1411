import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saradc as sa
from saradc import analysis
from saradc.analysis import gen_coherent_tone, metrics, spectrum, spectrum_csv
from saradc.engine import convert_waveform, ideal_quantizer_code
from code_density import inl_dnl


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
    for record in (np.zeros((2, 4), dtype=int), np.array([512])):
        with pytest.raises(ValueError, match="one-dimensional record"):
            spectrum(record, 10)


def test_spectrum_csv_shape(ref_cfg):
    p = spectrum(np.arange(64) % 1024, 10)
    lines = spectrum_csv(p, ref_cfg.f_s).splitlines()
    assert lines[0] == "bin,frequency_Hz,power_dBFS"
    assert len(lines) == 34  # header + 33 one-sided bins


def _percent_spectrum_csv(power, f_s, n):
    # the table as the % operator prints it, one row at a time
    rows = [None] * (3 * power.size)
    rows[0::3] = range(power.size)
    rows[1::3] = (np.arange(power.size) * f_s / n).tolist()
    with np.errstate(divide="ignore"):
        rows[2::3] = (10.0 * np.log10(power / (1.0 / 8.0))).tolist()
    return "bin,frequency_Hz,power_dBFS\n" + ("%d,%.12g,%.6f\n" * power.size) % tuple(rows)


def _assert_same_text(text, expected):
    # compared by name, so that a failure names the first bad row instead of
    # having pytest diff up to a megabyte of text
    same = text == expected
    assert same, next((pair for pair in zip(text.splitlines(), expected.splitlines())
                       if pair[0] != pair[1]), "the row counts differ")


# odd and even record lengths of every digit count up to 65,536
_RECORD_LENGTHS = st.integers(1, 5).flatmap(
    lambda width: st.integers(max(3, 10 ** (width - 1)), min(10 ** width, 65536)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=_RECORD_LENGTHS, f_s=st.floats(1e3, 1e12), seed=st.integers(0, 2 ** 32),
       empty=st.sampled_from([0.0, 0.01, 0.3]))
def test_spectrum_csv_matches_percent_format(n, f_s, seed, empty):
    # levels from about +6 dBFS down to a few hundred dB below full scale,
    # with a share of empty bins (-inf)
    rng = np.random.default_rng(seed)
    power = 0.5 * rng.random(n // 2 + 1) ** rng.uniform(1.0, 30.0)
    power[rng.random(power.size) < empty] = 0.0
    _assert_same_text(spectrum_csv(power, f_s, n=n), _percent_spectrum_csv(power, f_s, n))


def test_spectrum_csv_named_rows():
    # bin 317 of 4096 at 130 MHz lies at 10061035.15625 Hz exactly, a tie
    # at the 12th digit that rounds to even
    power = np.full(2049, 0.01)
    assert 10061035.15625 * 1e4 == 100610351562.5
    text = spectrum_csv(power, 130e6, n=4096)
    assert text.splitlines()[318].startswith("317,10061035.1562,")
    _assert_same_text(text, _percent_spectrum_csv(power, 130e6, 4096))
    # bin 1 of a 2-point record lies at f_s / 2 exactly
    for freq, shown in [
            # a tie in the float product that the exact product misses, on
            # either side
            (1.368761715425, "1.36876171543"), (1.148748719755, "1.14874871975"),
            # rounded up across a decade: within one form, out of the
            # exponent form below 1e-4, and into it at 1e12
            (99999.99999999996, "100000"), (9.999999999999996e-05, "0.0001"),
            (999999999999.7, "1e+12"),
            # below 1e-4 Hz %.12g writes an exponent
            (1.5625e-05, "1.5625e-05"), (0.0001, "0.0001")]:
        power = np.array([0.125, 0.125])
        text = spectrum_csv(power, 2.0 * freq, n=2)
        assert text.splitlines()[2] == f"1,{shown},0.000000"
        _assert_same_text(text, _percent_spectrum_csv(power, 2.0 * freq, 2))
    # a level just below zero keeps its sign once rounded to zero
    power = 0.125 * 10.0 ** (-np.array([0.0, 1e-9, 4.9e-7, 5.1e-7, 5e-7]) / 10.0)
    levels = [row.split(",")[2] for row in spectrum_csv(power, 130e6, n=8).splitlines()[1:]]
    assert levels == ["0.000000", "-0.000000", "-0.000000", "-0.000001", "%.6f" % (
        10.0 * np.log10(power[4] / 0.125))]
    _assert_same_text(spectrum_csv(power, 130e6, n=8), _percent_spectrum_csv(power, 130e6, 8))


@pytest.mark.parametrize("n, tone_bin", [(4096, 189), (64, 3), (64, 31), (127, 5), (256, 19)])
def test_spectrum_csv_places_every_finite_row(ref_cfg, monkeypatch, n, tone_bin):
    # the shipped records' rows are built from the columns; only an empty
    # bin's -inf level goes to the % operator (the DC bin of 64/31, seed 0)
    replaced = []

    def table_text(blocks, rows, lines=None):
        replaced.extend(lines or ())
        return text_of(blocks, rows, lines)

    text_of = analysis.table_text
    monkeypatch.setattr(analysis, "table_text", table_text)
    tone = gen_coherent_tone(n, tone_bin, 0.75, ref_cfg.v_cm, ref_cfg.f_s)
    power = spectrum(convert_waveform(tone.v_diff, ref_cfg, seed=0).codes, ref_cfg.bits)
    text = spectrum_csv(power, ref_cfg.f_s, n=n)
    assert replaced == np.flatnonzero(power == 0.0).tolist()
    assert replaced == ([0] if (n, tone_bin) == (64, 31) else [])
    _assert_same_text(text, _percent_spectrum_csv(power, ref_cfg.f_s, n))


def test_spectrum_csv_rounds_without_warnings():
    # empty bins' -inf levels and an exponent-form frequency (5e-05 Hz) go
    # to %, and no numpy floating-point error is raised on the way
    power = np.array([0.0, 0.125, 1e-300, 0.0, 0.3])
    with np.errstate(all="raise"):
        text = spectrum_csv(power, 4e-4, n=8)
    assert text.splitlines()[2] == "1,5e-05,0.000000"
    _assert_same_text(text, _percent_spectrum_csv(power, 4e-4, 8))


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(4, 8), data=st.data(), seed=st.integers(0, 2 ** 32), ideal=st.booleans())
def test_sfdr_never_below_sndr_on_short_records(ref_cfg, ideal_cfg, n, data, seed, ideal):
    # few non-signal bins: SNDR's noise is their sum, never below the spur
    tone_bin = data.draw(st.sampled_from(
        [b for b in range(1, (n + 1) // 2) if math.gcd(b, n) == 1]))
    cfg = ideal_cfg if ideal else ref_cfg
    tone = gen_coherent_tone(n, tone_bin, 0.75, cfg.v_cm, cfg.f_s)
    res = convert_waveform(tone.v_diff, cfg, seed=seed)
    m = metrics(spectrum(res.codes, 10), tone_bin, 1.0, cfg.f_s, n=n)
    if math.isfinite(m.sndr):
        assert m.sfdr >= m.sndr


def test_single_bin_spectrum_sentinels():
    p = np.zeros(33)
    p[3] = 1.0
    m = metrics(p, 3, 1.0, 130e6)
    assert math.isinf(m.sndr) and math.isinf(m.sfdr)
    assert math.isnan(m.fom_walden)


def test_metrics_rejects_signal_bin_outside_spectrum():
    p = np.full(33, 1e-6)
    for signal_bin in (0, 33):
        with pytest.raises(ValueError, match=f"signal bin {signal_bin} outside spectrum"):
            metrics(p, signal_bin, 1.0, 130e6)


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


def test_inl_reproducible_and_nonzero_with_mismatch(ref_cfg):
    cfg = replace(sa.ideal_config(ref_cfg), bits=8, sigma_u=0.01)
    a = inl_dnl(_ramp_codes(cfg, seed=4), 8)[1]
    b = inl_dnl(_ramp_codes(cfg, seed=4), 8)[1]
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) > 0.02


def test_split_topology_inl_worse_under_same_seed(ref_cfg):
    # A light attenuation-node parasitic keeps every code reachable (the
    # full-severity case has genuinely missing codes, which the code-density
    # oracle refuses; the ladder-level comparison covers it).
    base = replace(sa.ideal_config(ref_cfg), bits=8, sigma_u=0.01, c_p=2e-15)
    inl_bin = inl_dnl(_ramp_codes(base, seed=4), 8)[1]
    split = replace(base, topology="split")
    span = 1.05 * _realized_span(split, 4)   # end codes absorb the overshoot
    inl_split = inl_dnl(_ramp_codes(split, seed=4, per_code=48, span=span), 8)[1]
    assert np.max(np.abs(inl_split)) > np.max(np.abs(inl_bin))
