import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import saradc as sa
from saradc import analysis, engine
from saradc.cli import _codes_csv, _json_text, _load, _parse_args, build_parser, main
from saradc.config import REFERENCE_CONFIG_DOC
import reference_ladder


def run(args):
    return main(args)


def test_print_defaults_round_trips(capsys):
    assert run(["print-defaults"]) == 0
    doc = capsys.readouterr().out
    assert sa.load_config(doc) == sa.reference_defaults()


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run1"
    assert run(["simulate", "--n", "64", "--bin", "3", "--seed", "1",
                "--out", str(out)]) == 0
    assert (out / "spectrum.csv").exists()
    assert (out / "metrics.json").exists()
    assert (out / "codes.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 1
    metrics = json.loads((out / "metrics.json").read_text())
    assert 40 < metrics["sndr_dB"] < 70
    assert metrics["enob_bits"] == (metrics["sndr_dB"] - 1.76) / 6.02


def test_simulate_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--n", "128", "--bin", "11", "--seed", "7", "--out", str(a)])
    run(["simulate", "--n", "128", "--bin", "11", "--seed", "7", "--out", str(b)])
    for name in ("spectrum.csv", "metrics.json", "codes.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_engine_output_pinned(tmp_path):
    # sha256 of the engine's, the design study's and the sweep's artifacts;
    # a change to the conversion arithmetic, the order of the random draws,
    # the trade study, the timing budget, the metastability Monte Carlo or
    # the layout of any CSV or JSON shows here
    record = ["--n", "256", "--bin", "19", "--seed", "42"]
    fast, split = tmp_path / "fast.cfg", tmp_path / "split.cfg"
    mismatch = tmp_path / "mismatch.cfg"
    fast.write_text(sa.serialize(dataclasses.replace(sa.reference_defaults(), f_s=225e6)))
    split.write_text(sa.serialize(dataclasses.replace(sa.reference_defaults(),
                                                      topology="split")))
    mismatch.write_text(sa.serialize(dataclasses.replace(sa.reference_defaults(),
                                                         sigma_u=0.3)))
    pins = [(["simulate", *record], {
                "codes.csv": "d11e0698624444e32fc79d4a1f1326d0e70765423851cd459770dc4456b238a2",
                "metrics.json": "39cd166ace27074288d7520130b4b20d4907fed1129d67574760826f924cd67a",
                "spectrum.csv":
                    "bbb1d936d63a6c6f8bb16de4aef22850f30415a5497a3adc7c1c9f6cacdb5636"}),
            (["power", *record], {
                "power.csv": "55aa9585a16b379852900f3fc958888fcca5e1d8ac8c6c39ee9036d306b17f59",
                "power.json": "678aa2bc45f69b77577f154c1bffd5fa543fd281a3ab8a3ac0bc30361f59b4bf"}),
            (["dac-compare", "--seed", "42"], {
                "dac_compare.csv":
                    "a04ae548b79c0d232e0456d29c14212b97504a5f7486411e54066a226a51e057",
                "dac_compare.json":
                    "6486bbbc0e38d5fd61118b306d1496ff842c93628fed2be6dd5544c5330e41d4"}),
            (["timing"], {
                "timing.csv": "652f8bf32d1d3980686dcb788ad734dc6ce4014440e166171defb79b9d8060fd",
                "timing.json": "a5baf2dd2be8eef85c586aa6ef5109e8f791a4ac2409715a43f461a288575ecd"}),
            (["metastability", "--pmeta", "1e-3", "--trials", "1000000", "--seed", "5"], {
                "metastability.json":
                    "de0f3e61e27e8b847e6e8179fc40aa74f0f80b19535a3dcc57ff46033727f1e0"}),
            (["sweep", "--param", "c_p", "--range", "0:1e-13:5"], {
                "sweep.csv": "2e294ce674ec64f6be0bf2a8f11a30b223931a1edaa7304875ad3ceb464f7f98"}),
            (["sweep", "--param", "f_s", "--range", "100e6:150e6:3", "--sndr"], {
                "sweep.csv": "84bd9eae05b5ce92933f1c529d810594cf39802539f0e8e59b0c33aa98ee15c5"}),
            # a seed of two 32-bit words, as the benchmark derives per op
            (["simulate", "--n", "256", "--bin", "19", "--seed", "4294967299"], {
                "codes.csv": "289a2e77e1d4f3242764aea916f925d463fc5e3d84ea836e9d1ef2649e516180"}),
            # the DC row of this record is "0,0,-inf"
            (["simulate", "--n", "64", "--bin", "31", "--seed", "0"], {
                "codes.csv": "49a4be469e17555b0384109b17cf12b7025d179534230e8e9410bafff1ec0558",
                "spectrum.csv":
                    "b0ab12e1eae2c36d3382d4ba2b1bbd27d215370ba6d62fbfff084d654514f7ce"}),
            # an odd record: 64 bins, frequencies k * f_s / 127
            (["simulate", "--n", "127", "--bin", "5", "--seed", "0"], {
                "codes.csv": "993bc7922503bf45a3fabfd4af9f3b45e04e839ec40942735913ba0dafec1918",
                "spectrum.csv":
                    "a26ea6a753f26c9b393a71ff2af986e5e95c09c20de1bceb81565eeab8cea8b1"}),
            # a record with no noise bin: null noise figures and a "-inf" THD
            (["simulate", "--n", "3", "--bin", "1"], {
                "metrics.json":
                    "a73f1660867d40be46b2755138d24a73a8a36ae71554a915a047d4211ce255b6"}),
            # a silent ideal record: its figures are "nan" strings
            (["simulate", "--ideal", "--amplitude", "0", "--n", "64", "--bin", "3"], {
                "metrics.json":
                    "5ff0f8a67e92da6dd73e322db6c59154fe3fd44166c038c6f8ea2bd3c33980be"}),
            # a sounding ideal record: the zero-mismatch ladder through every
            # switch, and the dead zero at sample 0
            (["simulate", "--ideal", "--n", "64", "--bin", "3"], {
                "codes.csv": "33b8f1782b79e870ef2cd78c44ab77fddb366576ff4f8a8a0b730b5dc0197fd8",
                "metrics.json":
                    "d1d7aaee5e76342ba5e92a5c0d3f4a341615a8c4e4b1e236abda0b5521c4372a"}),
            # past the asynchronous limit conversions stop early, so the
            # comparator books a different count of firings per sample
            (["power", str(fast), "--n", "256", "--bin", "19"], {
                "power.json": "a280ebdf3e7f7f87aa000ad50a6c1af6522b98834a3640a7900a7c864b25f3ca"}),
            # the split ladder: a main and a sub segment, each drawn side by side
            (["simulate", str(split), "--n", "256", "--bin", "19"], {
                "codes.csv": "441e8c71a5b7d82d65e214c53110208a8949571d2d189fcf4f2e2e469c74cd94"}),
            # the trade study at a seed of two 32-bit words
            (["dac-compare", "--seed", "4294967299"], {
                "dac_compare.csv":
                    "5c8f2e04972420385cb19298029924fec7a4da16d0e8e9920b3703127e23143a",
                "dac_compare.json":
                    "bfded155ab454d6e0ca253c8665c7dff8e63b3410398eda7aab2266d6d997222"}),
            # and at sigma_u = 0.3, where this seed's split array redraws a
            # dead unit
            (["dac-compare", str(mismatch), "--seed", "6"], {
                "dac_compare.csv":
                    "e4dcba94a6266912ddeb7c96ab57697cbc0bc1ccff018454295d830b303ef24b",
                "dac_compare.json":
                    "50589690f0754aef7612a85131ad63a9f344e8b9518a629883b93b9758fd7f29"})]
    # the mismatch row's seed redraws a dead unit; the study draws the binary
    # array and then the split one from one stream
    rng, redraws = np.random.default_rng(np.random.SeedSequence((6, 1))), []
    for topology in ("binary", "split"):
        cfg = dataclasses.replace(sa.reference_defaults(), sigma_u=0.3, topology=topology)
        reference_ladder.build_ladder(cfg, rng, redraws)
    assert redraws
    for k, (argv, digests) in enumerate(pins):
        out = tmp_path / f"{k}_{argv[0]}"
        assert run([*argv, "--out", str(out)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_simulate_check_passes(tmp_path):
    assert run(["simulate", "--n", "64", "--bin", "3", "--check",
                "--out", str(tmp_path / "c")]) == 0


@pytest.mark.parametrize("extra", [["--seed", "2"], ["--ideal"]])
def test_simulate_check_passes_on_short_records(tmp_path, extra):
    # five samples leave one non-signal bin, SNDR's noise and SFDR's spur
    # alike, so no rounding can lift SNDR above SFDR
    assert run(["simulate", "--n", "5", "--bin", "1", *extra, "--check",
                "--out", str(tmp_path / "c")]) == 0


def test_simulate_ideal_flag(tmp_path):
    out = tmp_path / "ideal"
    assert run(["simulate", "--n", "4096", "--bin", "101", "--ideal",
                "--amplitude", "0.787", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert abs(metrics["sndr_dB"] - 61.96) < 0.6


def test_unmeasurable_record_reports_null(tmp_path, capsys):
    # a 3-point record has no non-signal bin, so it measures no noise: its
    # SNDR, SFDR, ENOB and Walden FOM are null, neither an infinite SNDR
    # nor a best-possible FOM of zero, and the report says so
    out = tmp_path / "short"
    assert run(["simulate", "--n", "3", "--bin", "1", "--out", str(out)]) == 0
    assert "SNDR and ENOB not measurable" in capsys.readouterr().out
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("sndr_dB", "sfdr_dB", "enob_bits", "fom_walden_J_per_step"):
        assert metrics[key] is None, key
    assert "null" in (out / "metrics.json").read_text()
    assert metrics["n"] == 3 and metrics["thd_dB"] == "-inf"


def test_check_fails_an_unmeasurable_record(tmp_path, capsys):
    # an infinite SNDR is no more a measurement than a NaN one; the
    # artifacts are the same as without --check
    plain, checked = tmp_path / "plain", tmp_path / "checked"
    assert run(["simulate", "--n", "3", "--bin", "1", "--out", str(plain)]) == 0
    assert run(["simulate", "--n", "3", "--bin", "1", "--check", "--out", str(checked)]) == 3
    assert "simulate --check: FAILED" in capsys.readouterr().err
    for name in ("metrics.json", "spectrum.csv", "codes.csv"):
        assert (checked / name).read_bytes() == (plain / name).read_bytes(), name


def test_odd_record_keeps_its_length(tmp_path):
    # the spectrum of a 5-point record has as many bins as a 4-point one's;
    # the metrics and the spectrum table take the length from --n
    out = tmp_path / "odd"
    assert run(["simulate", "--n", "5", "--bin", "2", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n"] == 5 and metrics["thd_dB"] != "-inf"
    rows = [line.split(",") for line in (out / "spectrum.csv").read_text().splitlines()[1:]]
    assert float(rows[2][1]) == metrics["f_in_Hz"] == 52e6


def test_silent_record_is_not_measurable(tmp_path, capsys):
    # a zero-amplitude tone leaves the signal bin empty: no SNDR can be
    # measured, so none may read as a perfect converter, and --check fails
    out = tmp_path / "silent"
    assert run(["simulate", "--ideal", "--amplitude", "0", "--n", "64", "--bin", "3",
                "--check", "--out", str(out)]) == 3
    assert "simulate --check: FAILED" in capsys.readouterr().err
    metrics = json.loads((out / "metrics.json").read_text())
    for key in ("sndr_dB", "sfdr_dB", "thd_dB", "enob_bits", "fom_walden_J_per_step"):
        assert metrics[key] == "nan"


def test_negative_seed_exit_code(tmp_path):
    out = tmp_path / "neg"
    assert run(["simulate", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate"], ["power", "--n", "64", "--bin", "3"], ["dac-compare"],
    ["metastability", "--trials", "10000"],
    ["sweep", "--param", "c_p", "--range", "0:1e-15:2", "--sndr"]],
    ids=["simulate", "power", "dac-compare", "metastability", "sweep"])
def test_negative_seed_names_the_option(tmp_path, capsys, command):
    out = tmp_path / "x"
    assert run([*command, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "runtime error: --seed: expected a non-negative integer, got -1\n"
    assert not out.exists()


def _shipped_with(**values):
    """The shipped document with each key of ``values`` set to its text."""
    return "\n".join(f"{key} = {values[key]}" if (key := line.split("=")[0].strip()) in values
                     else line for line in REFERENCE_CONFIG_DOC.splitlines())


def test_trivially_met_target_needs_no_time(tmp_path):
    # a config that loads, at which the hardest comparison's target is met
    # at once: timing and sweep run, and the comparison is given no time
    doc = tmp_path / "loose.cfg"
    doc.write_text(_shipped_with(bits="3", a_v="1000", p_meta="0.9"))
    out = tmp_path / "t"
    assert run(["timing", str(doc), "--out", str(out)]) == 0
    assert "t_hard_s,0\n" in (out / "timing.csv").read_text()
    assert json.loads((out / "timing.json").read_text())["t_hard_s"] == 0.0
    assert run(["sweep", str(doc), "--param", "c_p", "--range", "0:1e-14:2",
                "--out", str(tmp_path / "s")]) == 0


def test_timing_warns_above_the_asynchronous_limit(tmp_path, capsys):
    doc = tmp_path / "fast.cfg"
    doc.write_text(_shipped_with(f_s="300 MHz"))
    out = tmp_path / "t"
    assert run(["timing", str(doc), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: configured f_s exceeds the asynchronous limit\n"
    data = json.loads((out / "timing.json").read_text())
    assert data["timing_violation"] and data["margin_s"] < 0


def test_config_error_exit_code(tmp_path, capsys):
    # a JSON document whose bits is an array nested 100,000 deep, or an
    # integer of 5,000 digits, is a configuration error, not a traceback
    bits_null = json.dumps({**dataclasses.asdict(sa.reference_defaults()), "bits": None})
    texts = (REFERENCE_CONFIG_DOC + "\nnot_a_key = 3\n",
             REFERENCE_CONFIG_DOC.replace("bits         = 10", "bits = nan"),
             bits_null, bits_null.replace("null", "[" * 100_000 + "]" * 100_000),
             bits_null.replace("null", "7" * 5000))
    for text in texts:
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert run(["simulate", str(bad), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.count("configuration error: ") == len(texts)
    assert err.count("configuration error: JSON parse failure: ") == 2


def test_unreadable_config_exit_code(tmp_path, capsys):
    # a missing path, a directory and a file that is not UTF-8 text are
    # configuration errors that name the path
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(REFERENCE_CONFIG_DOC.replace("uV", "\xb5V").encode("latin-1"))
    for path in (tmp_path / "missing.cfg", tmp_path, undecodable):
        assert run(["timing", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(path) in err


def test_config_document_with_a_byte_order_mark(tmp_path):
    # a document saved with a UTF-8 byte-order mark, as Notepad writes it,
    # reads as the same document without one, in either format
    shipped = sa.reference_defaults()
    for name, text in (("doc.cfg", REFERENCE_CONFIG_DOC),
                       ("doc.json", json.dumps(dataclasses.asdict(shipped)))):
        for mark in ("", "\ufeff"):
            doc = tmp_path / name
            doc.write_text(mark + text, encoding="utf-8")
            assert _load(str(doc)) == shipped, (name, mark)
            assert run(["timing", str(doc), "--out", str(tmp_path / "x")]) == 0


def test_out_naming_a_file_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["timing", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and str(taken) in err


def test_precondition_error_exit_code(tmp_path):
    # bin 4 shares a factor with 64: coherence precondition fails at runtime
    assert run(["simulate", "--n", "64", "--bin", "4",
                "--out", str(tmp_path / "x")]) == 2


def test_short_record_names_its_length(tmp_path, capsys):
    # a record too short for any tone bin is blamed on n, not on the bin
    out = tmp_path / "x"
    for args in (["simulate", "--n", "0"], ["simulate", "--n", "2"],
                 ["power", "--n", "0"],
                 ["sweep", "--param", "c_p", "--range", "0:1e-15:2", "--sndr", "--n", "0"]):
        assert run(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"record length n = {args[-1]}" in err
        assert not out.exists() or not any(out.iterdir())


def test_timing_report(tmp_path, capsys):
    out = tmp_path / "t"
    assert run(["timing", "--out", str(out)]) == 0
    data = json.loads((out / "timing.json").read_text())
    assert data["f_s_max_Hz"] > 130e6
    assert data["async_boost"] > 0
    assert not data["timing_violation"]
    assert (out / "timing.csv").exists()


def test_stale_artifacts_are_replaced(tmp_path, capsys):
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    assert run(["timing", "--out", str(fresh)]) == 0
    stale.mkdir()
    junk = "x" * 4 * len((fresh / "timing.json").read_bytes())
    (stale / "timing.json").write_text(junk)
    # a symlinked artifact is replaced, not written through
    target = tmp_path / "target.csv"
    target.write_text(junk)
    (stale / "timing.csv").symlink_to(target)
    assert run(["timing", "--out", str(stale)]) == 0
    for name in ("timing.json", "timing.csv"):
        assert (stale / name).read_bytes() == (fresh / name).read_bytes()
    assert not (stale / "timing.csv").is_symlink()
    assert target.read_text() == junk
    # a directory in an artifact's place is not removed: the run stops and
    # names the path
    (stale / "timing.json").unlink()
    (stale / "timing.json").mkdir()
    capsys.readouterr()
    assert run(["timing", "--out", str(stale)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and str(stale / "timing.json") in err
    assert (stale / "timing.json").is_dir()


def test_failed_rerun_leaves_no_stale_manifest(tmp_path, capsys):
    # a run into a directory that holds an earlier run's artifacts and
    # manifest stops at an artifact it cannot write; the earlier manifest
    # must not be left to vouch for the new run's partial artifacts
    out = tmp_path / "reused"
    assert run(["timing", "--out", str(out)]) == 0
    (out / "timing.json").unlink()
    (out / "timing.json").mkdir()
    capsys.readouterr()
    assert run(["timing", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert not (out / "manifest.json").exists()
    assert {p.name for p in out.iterdir()} == {"timing.csv", "timing.json"}


@pytest.mark.parametrize("out", [["--out", ""], []], ids=["--out", "SARADC_OUT"])
def test_empty_out_is_the_current_directory(tmp_path, monkeypatch, out):
    # an empty --out, or an empty SARADC_OUT, names the current directory:
    # the second run there replaces the first one's manifest
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SARADC_OUT", "")
    assert run(["timing", *out]) == 0
    assert run(["power", "--n", "64", "--bin", "3", *out]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["command"] == "power"
    assert (tmp_path / "timing.json").exists() and (tmp_path / "power.json").exists()


@pytest.mark.parametrize("amplitude", ["inf", "nan"])
@pytest.mark.parametrize("command", [
    ["simulate"], ["power", "--n", "64", "--bin", "3"],
    ["sweep", "--param", "c_p", "--range", "0:1e-15:2", "--sndr"]],
    ids=["simulate", "power", "sweep"])
def test_non_finite_amplitude_exit_code(tmp_path, capsys, command, amplitude):
    # the tone is refused by name, before a conversion sees a sample of it
    out = tmp_path / "x"
    assert run([*command, "--amplitude", amplitude, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ") and err.count("\n") == 1
    assert f"amplitude {amplitude}" in err
    assert not out.exists()


@pytest.mark.parametrize("amplitude", ["5", "1.3", "-1.3"])
@pytest.mark.parametrize("command", [
    ["simulate"], ["power", "--n", "64", "--bin", "3"],
    ["sweep", "--param", "c_p", "--range", "0:1e-15:2", "--sndr"]],
    ids=["simulate", "power", "sweep"])
def test_amplitude_past_the_rails_exit_code(tmp_path, capsys, command, amplitude):
    # each side swings half the amplitude about v_cm = 0.7 V on a 1.2 V
    # supply, so the bound is 2 * min(0.7, 0.5) = 1 V
    out = tmp_path / "x"
    assert run([*command, "--amplitude", amplitude, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"runtime error: --amplitude {amplitude} V drives a side past a rail; its "
                   f"size must not exceed 2*min(v_cm, v_dd - v_cm) = 1 V\n")
    assert not out.exists()
    assert run([*command, "--amplitude", "0.99", "--out", str(out)]) == 0


def test_short_writes_complete_the_artifact(tmp_path, monkeypatch):
    # a write may take fewer bytes than it was given; the artifact is still whole
    commands = (["timing"], ["simulate", "--n", "64"])
    for command in commands:
        assert run(command + ["--out", str(tmp_path / "whole" / command[0])]) == 0
    write = os.write
    calls = []

    def short(fd, data):
        calls.append(fd)
        return write(fd, data[:7])

    monkeypatch.setattr(os, "write", short)
    for command in commands:
        assert run(command + ["--out", str(tmp_path / "short" / command[0])]) == 0
    monkeypatch.undo()
    assert len(calls) > 100
    for command in commands:
        whole = tmp_path / "whole" / command[0]
        names = sorted(p.name for p in whole.iterdir() if p.name != "manifest.json")
        assert len(names) >= 2
        for name in names:
            assert (tmp_path / "short" / command[0] / name).read_bytes() == \
                (whole / name).read_bytes()


def test_long_record_writes_codes_csv(tmp_path):
    # a record of any length writes its codes as codes.csv, and only that;
    # a 65,537-sample record is one sample past the length at which an
    # earlier release switched to codes.npz
    n = 65537
    out = tmp_path / "long"
    assert run(["simulate", "--n", str(n), "--bin", "3", "--out", str(out)]) == 0
    assert not (out / "codes.npz").exists()
    cfg = sa.reference_defaults()
    tone = analysis.gen_coherent_tone(n, 3, 0.75, cfg.v_cm, cfg.f_s)
    result = engine.convert_waveform(tone.v_diff, cfg, seed=0)
    rows = np.column_stack((np.arange(n), result.codes, result.metastable,
                            result.violation)).ravel().tolist()
    expected = "index,code,metastable,violation\n" + ("%d,%d,%d,%d\n" * n) % tuple(rows)
    # compared by name, so that a failure does not diff a megabyte of text
    same = (out / "codes.csv").read_text() == expected
    assert same


@pytest.mark.parametrize("first, second", [("65537", "64"), ("64", "65537")])
def test_codes_file_of_another_format_is_removed(tmp_path, first, second):
    # an earlier release wrote records over 65,536 samples as codes.npz; now
    # every length writes codes.csv, so a later run into the same directory,
    # longer or shorter, leaves one codes file that holds its own record only
    out = tmp_path / "run"
    for n, bin_ in ((first, "1"), (second, "3")):
        assert run(["simulate", "--n", n, "--bin", bin_, "--out", str(out)]) == 0
    assert {p.name for p in out.glob("codes.*")} == {"codes.csv"}
    lines = (out / "codes.csv").read_text().splitlines()
    assert len(lines) == int(second) + 1
    assert lines[-1].split(",")[0] == str(int(second) - 1)


# each result command's artifacts, as README's Command line section lists them
_ARTIFACTS = [(["simulate"], {"spectrum.csv", "metrics.json", "codes.csv"}),
              (["power", "--n", "64", "--bin", "3"], {"power.csv", "power.json"}),
              (["timing"], {"timing.csv", "timing.json"}),
              (["dac-compare"], {"dac_compare.csv", "dac_compare.json"}),
              (["metastability", "--trials", "1000", "--pmeta", "0.1"],
               {"metastability.json"}),
              (["sweep", "--param", "c_p", "--range", "0:1e-15:2"], {"sweep.csv"})]


def test_output_contract(tmp_path, capsys):
    # a command writes its own artifacts and a manifest, nothing else
    for argv, names in _ARTIFACTS:
        out = tmp_path / argv[0]
        assert run([*argv, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == names | {"manifest.json"}, argv[0]
    # the manifest comes last: a run whose second artifact cannot be written
    # stops there and writes none
    out = tmp_path / "blocked"
    (out / "timing.json").mkdir(parents=True)
    capsys.readouterr()
    assert run(["timing", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert {p.name for p in out.iterdir()} == {"timing.csv", "timing.json"}


def test_manifest_layout_is_json_dumps(tmp_path):
    # a manifest carries a timestamp, so it cannot be pinned; its text is
    # still json.dumps(sort_keys=True, indent=2) of what it holds
    for argv, _ in _ARTIFACTS:
        out = tmp_path / argv[0]
        assert run([*argv, "--out", str(out)]) == 0
        text = (out / "manifest.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", argv[0]


def test_one_unlink_per_file(tmp_path, monkeypatch):
    # a run into a directory that holds an earlier run's files unlinks each
    # artifact and the old manifest once, and writes the new manifest with
    # no unlink; a run into a new directory unlinks only its artifacts
    unlink = os.unlink
    unlinked = []

    def counted(path, *args, **kwargs):
        unlinked.append(os.path.basename(path))
        return unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", counted)
    for argv, names in _ARTIFACTS:
        for expected in (names, names | {"manifest.json"}):
            unlinked.clear()
            assert run([*argv, "--out", str(tmp_path / argv[0])]) == 0
            assert sorted(unlinked) == sorted(expected), argv[0]


_FLOAT_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 1e22, 2.0 ** 53]
_STRING_EDGES = ['"', "\\", '\\"', "\x00\x1f\x7f\n\t\r\b\f", "µs", "€ 😀", "\ud800", "\u2028"]
_JSON_LEAVES = (st.none() | st.booleans()
                | st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([2 ** 64, -2 ** 64 - 1])
                | st.floats() | st.sampled_from(_FLOAT_EDGES)
                | st.text(max_size=12) | st.sampled_from(_STRING_EDGES))
_KEYS = st.text(max_size=6) | st.sampled_from(_STRING_EDGES)


def _trees(leaves, keys=_KEYS):
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)), max_leaves=16)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tree=_trees(_JSON_LEAVES))
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


# values json writes through float.__repr__ or int.__repr__, values and keys
# it refuses, and keys of other types that it turns into strings, which the
# writer refuses
_ODD_LEAVES = st.sampled_from([np.float64(0.1), np.float64("nan"), np.int64(1), np.float32(1.0),
                               np.bool_(True), {1}, frozenset(), b"x", 1j, object()])
_ODD_KEYS = (st.integers(-3, 3) | st.sampled_from(_FLOAT_EDGES) | st.booleans() | st.none()
             | st.tuples(st.integers()))


def _keys(tree):
    """Every dict key in ``tree``, at any depth."""
    if isinstance(tree, dict):
        yield from tree
        tree = tree.values()
    elif not isinstance(tree, (list, tuple)):
        return
    for value in tree:
        yield from _keys(value)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tree=_trees(_JSON_LEAVES | _ODD_LEAVES, _KEYS | _ODD_KEYS))
def test_json_writer_refuses_what_json_dumps_refuses(tree):
    if not all(isinstance(key, str) for key in _keys(tree)):
        with pytest.raises(TypeError):
            _json_text(tree)
        return
    try:
        expected = json.dumps(tree, sort_keys=True, indent=2) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            _json_text(tree)
    else:
        assert _json_text(tree) == expected


# record lengths of 1 to 65,536 samples whose last index has 1 to 5 digits
_LENGTHS = st.integers(1, 5).flatmap(
    lambda width: st.integers(1 if width == 1 else 10 ** (width - 1) + 1,
                              min(10 ** width, 65536)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=_LENGTHS, seed=st.integers(0, 2 ** 32))
def test_codes_csv_matches_percent_format(n, seed):
    # metastable counts up to 0, 1 or 2, and violation flags of both values
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1024, n)
    metastable = rng.integers(0, int(rng.integers(1, 4)), n)
    violation = rng.random(n) < rng.random()
    rows = np.column_stack((np.arange(n), codes, metastable, violation)).ravel().tolist()
    text = _codes_csv(codes, metastable, violation)
    expected = "index,code,metastable,violation\n" + ("%d,%d,%d,%d\n" * n) % tuple(rows)
    # compared by name, so that a failure names the first bad row instead of
    # having pytest diff up to a megabyte of text
    same = text == expected
    assert same, next((pair for pair in zip(text.splitlines(), expected.splitlines())
                       if pair[0] != pair[1]), "the row counts differ")


def test_one_mkdir_per_command(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    for command in (["simulate"], ["power", "--n", "64", "--bin", "3"], ["timing"],
                    ["dac-compare"], ["metastability", "--trials", "1000", "--pmeta", "0.1"],
                    ["sweep", "--param", "c_p", "--range", "0:1e-15:2"]):
        made.clear()
        out = tmp_path / command[0]
        assert run(command + ["--out", str(out)]) == 0
        assert made == [out]
        # a run that fails before it writes creates no directory
        made.clear()
        assert run(command + ["--out", str(tmp_path / "failed"), "no-such.cfg"]) == 1
        assert made == [] and not (tmp_path / "failed").exists()
    # nor does one that fails a runtime precondition
    assert run(["simulate", "--n", "64", "--bin", "4", "--out", str(tmp_path / "failed")]) == 2
    assert made == [] and not (tmp_path / "failed").exists()


def test_power_report_artifacts(tmp_path):
    out = tmp_path / "p"
    assert run(["power", "--n", "256", "--bin", "19", "--out", str(out)]) == 0
    data = json.loads((out / "power.json").read_text())
    assert set(data["blocks_W"]) == {"comparator", "dac", "logic", "track_hold"}
    assert abs(sum(data["fractions"].values()) - 1.0) < 1e-9
    csv = (out / "power.csv").read_text().splitlines()
    assert csv[0] == "block,power_W,fraction"
    assert csv[-1].startswith("total,") and len(csv) == 6


def test_dac_compare_artifacts(tmp_path):
    out = tmp_path / "d"
    assert run(["dac-compare", "--out", str(out)]) == 0
    data = json.loads((out / "dac_compare.json").read_text())
    assert abs(data["energy_saving_ideal_accounting"] - 0.375) < 0.05
    assert {"rows", "energy_saving_ideal_accounting", "capacitance_reduction"} <= set(data)
    csv = (out / "dac_compare.csv").read_text().splitlines()
    assert csv[0].startswith("topology,") and len(csv) == 3
    assert csv[1].startswith("binary,") and csv[2].startswith("split,")


def test_csv_numbers_match_json(tmp_path):
    # every number of a command's CSV is the %.12g of the same number in
    # its JSON, so the two artifacts of one run cannot disagree
    def read(name):
        rows = [line.split(",") for line in (tmp_path / name).read_text().splitlines()]
        return rows, json.loads((tmp_path / name.replace(".csv", ".json")).read_text())

    def g(x):
        return f"{x:.12g}"

    for command in (["timing"], ["power", "--n", "64", "--bin", "3"], ["dac-compare"]):
        assert run([*command, "--out", str(tmp_path)]) == 0
    rows, data = read("timing.csv")
    assert rows[0] == ["quantity", "value"] and len(rows) == 13
    for quantity, value in rows[1:]:
        assert value == g(data[quantity]), quantity
    rows, data = read("power.csv")
    for block, power, fraction in rows[1:-1]:
        assert (power, fraction) == (g(data["blocks_W"][block]), g(data["fractions"][block]))
    assert rows[-1] == ["total", g(data["total_W"]), "1"]
    assert [row[0] for row in rows[1:-1]] == list(data["blocks_W"])
    rows, data = read("dac_compare.csv")
    summary = {"energy_saving": data["energy_saving_ideal_accounting"],
               "c_reduction": data["capacitance_reduction"]}
    assert len(rows) == 1 + len(data["rows"])
    for row, topology in zip(rows[1:], data["rows"]):
        for column, cell in zip(rows[0], row, strict=True):
            value = topology[column] if column in topology else summary[column]
            assert cell == (value if column == "topology" else g(value)), column


def test_metastability_command(tmp_path):
    out = tmp_path / "m"
    assert run(["metastability", "--pmeta", "1e-2", "--trials", "100000",
                "--seed", "3", "--out", str(out)]) == 0
    data = json.loads((out / "metastability.json").read_text())
    assert abs(data["rate"] - 1e-2) < 5e-3


def test_sweep_parasitic_shrinks_full_scale(tmp_path):
    out = tmp_path / "s"
    assert run(["sweep", "--param", "c_p", "--range", "0:100e-15:11",
                "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    vfs = [float(r.split(",")[2]) for r in rows]
    assert all(a > b for a, b in zip(vfs, vfs[1:]))
    assert len(vfs) == 11


def test_sweep_tau_reg_is_the_swept_value(tmp_path):
    # the regeneration constant is a key, read as it was given
    out = tmp_path / "s"
    assert run(["sweep", "--param", "tau_reg", "--range", "10e-12:16e-12:3",
                "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["tau_reg", "delta_V", "v_fs_net_V", "tau_reg_s"]
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[3]) for r in rows] == np.linspace(10e-12, 16e-12, 3).tolist()
    assert [r[3] for r in rows] == [r[0] for r in rows]
    # a slower latch lowers the asynchronous limit
    f_max = [float(r[4]) for r in rows]
    assert f_max[0] > f_max[1] > f_max[2]


def test_sweep_leaves_an_unmeasurable_sndr_empty(tmp_path):
    # a 3-sample record has no noise bin: no SNDR, and no "inf" either
    out = tmp_path / "s"
    assert run(["sweep", "--param", "c_p", "--range", "0:1e-14:2", "--sndr",
                "--n", "3", "--bin", "1", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].endswith(",sndr_dB") and len(lines) == 3
    for line in lines[1:]:
        assert line.endswith(",") and line.count(",") == lines[0].count(",")


def test_sweep_rejects_unknown_param(tmp_path):
    for span in ("0:1:3", "0:1:0"):
        assert run(["sweep", "--param", "nope", "--range", span,
                    "--out", str(tmp_path / "x")]) == 1


def test_sweep_rejects_non_finite_point(tmp_path, capsys):
    # each swept point reaches the config parser as a plain float
    assert run(["sweep", "--param", "c_p", "--range", "0:nan:3",
                "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "c_p: non-finite value nan" in err
    assert "np.float64" not in err
    assert not (tmp_path / "x" / "sweep.csv").exists()


@pytest.mark.parametrize("span, fault", [
    ("0:1e-13", "expected start:stop:steps"), ("a:b:3", "expected start:stop:steps"),
    ("0:1e-13:2.5", "expected start:stop:steps"), ("0:1e-13:0", "steps must be at least 1"),
    ("0:1e-13:-1", "steps must be at least 1")])
def test_sweep_rejects_malformed_range(tmp_path, capsys, span, fault):
    assert run(["sweep", "--param", "c_p", "--range", span,
                "--out", str(tmp_path / "x")]) == 1
    assert f"--range: {fault}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_keys_it_cannot_sweep(tmp_path, capsys):
    for param in ("ron_dac", "t_phic_low", "v_pedestal", "c_pq", "c_xy", "g_m5", "topology"):
        assert run(["sweep", "--param", param, "--range", "1:2:2",
                    "--out", str(tmp_path / "x")]) == 1
        assert param in capsys.readouterr().err


def test_manifest_names_the_config_that_ran(tmp_path):
    def manifest(name, *extra):
        assert run(["simulate", *extra, "--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "manifest.json").read_text())

    a, b, ideal = manifest("a"), manifest("b"), manifest("ideal", "--ideal")
    ref = sa.reference_defaults()
    assert a["config_sha256"] == b["config_sha256"] == hashlib.sha256(
        sa.serialize(ref).encode()).hexdigest()
    # the hash is of the config after --ideal, not of the document loaded
    assert ideal["config"] is None
    assert ideal["config_sha256"] == hashlib.sha256(
        sa.serialize(sa.ideal_config(ref)).encode()).hexdigest() != a["config_sha256"]
    assert a["python"] == platform.python_version()
    assert a["numpy"] == np.__version__


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; SARADC_OUT is read on every call
    for name in ("envout", "envout2"):
        monkeypatch.setenv("SARADC_OUT", str(tmp_path / name))
        assert run(["timing"]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["output_dir"] == str(tmp_path / name)
    assert (tmp_path / "envout" / "timing.json").exists()
    assert (tmp_path / "envout2" / "timing.json").exists()


_RESULT_RUNS = (["simulate", "--n", "64", "--bin", "3"], ["power", "--n", "64", "--bin", "3"],
                ["timing"], ["dac-compare"], ["metastability", "--trials", "10000"])


def _results(cfg, out):
    """Every artifact but the manifest of each result command, for cfg."""
    out.mkdir()
    doc = out / "cfg.txt"
    doc.write_text(sa.serialize(cfg))
    for argv in _RESULT_RUNS:
        assert run([*argv, str(doc), "--out", str(out / argv[0])]) == 0
        yield {p.name: p.read_bytes() for p in (out / argv[0]).iterdir()
               if p.name != "manifest.json"}


def test_every_config_key_changes_a_result(tmp_path):
    # a key that moves no artifact is a knob to delete; each step keeps the
    # shipped config valid and is large enough to flip a code where it acts
    # on the conversion
    ref = sa.reference_defaults()
    steps = {"bits": 9, "topology": "split", "ron_alpha": 0.1, "c_unit": 2e-15,
             "sigma_n_comp": 1e-3, "ron_beta": 0.9}
    base = list(_results(ref, tmp_path / "base"))
    for f in dataclasses.fields(sa.AdcConfig):
        value = steps[f.name] if f.name in steps else getattr(ref, f.name) * 1.1
        cfg = sa.config.validate(dataclasses.replace(ref, **{f.name: value}))
        assert any(a != b for a, b in zip(_results(cfg, tmp_path / f.name), base)), f.name


@pytest.mark.parametrize("argv, status", [
    (["print-defaults"], 0),
    (["simulate", "missing.cfg"], 1),
    (["simulate", "--amplitude", "5"], 2),
    (["simulate", "--n", "3", "--bin", "1", "--check"], 3),
    # these take the full parser
    ([], 2),
    (["bogus"], 2),
    (["simulate", "--bogus"], 2),
    (["--help"], 0),
    (["simulate", "-h"], 0)])
def test_exit_status_of_the_module(tmp_path, argv, status):
    # the status the shell sees, through the module's __main__ line
    src = str(Path(sa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "SARADC_OUT": str(tmp_path / "out")}
    done = subprocess.run([sys.executable, "-m", "saradc.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == status, done.stderr


_COMMANDS = ["simulate", "timing", "power", "dac-compare", "metastability", "sweep",
             "print-defaults"]
_OPTIONS = ["--out", "--seed", "--n", "--bin", "--amplitude", "--ideal", "--check", "--pmeta",
            "--trials", "--param", "--range", "--sndr", "-h", "--help"]
_VALUES = ["0", "3", "64", "1e-3", "inf", "-1", "-1:1:3", "0:20e-15:3", "c_p", "x", ""]
# an option cut to a prefix of at least one letter, which may name one option,
# several or none
_ABBREVIATED = st.sampled_from([o for o in _OPTIONS if o.startswith("--")]).flatmap(
    lambda option: st.integers(3, len(option)).map(lambda cut: option[:cut]))
_TOKENS = (st.sampled_from(_COMMANDS + ["bogus"] + _OPTIONS + _VALUES + ["--"])
           | _ABBREVIATED
           | st.tuples(st.sampled_from(_OPTIONS) | _ABBREVIATED, st.sampled_from(_VALUES)).map(
               "=".join))
# any tokens; a command and any tokens; a command and options with values,
# which mostly parse
_LINES = (st.lists(_TOKENS, max_size=7)
          | st.tuples(st.sampled_from(_COMMANDS), st.lists(_TOKENS, max_size=6)).map(
              lambda t: [t[0], *t[1]])
          | st.tuples(st.sampled_from(_COMMANDS), st.lists(st.tuples(
              st.sampled_from(_OPTIONS[:5]) | _ABBREVIATED, st.sampled_from(_VALUES)),
              max_size=3)).map(lambda t: [t[0], *(token for pair in t[1] for token in pair)]))


def _outcome(parse, argv):
    """What ``parse(argv)`` gives: the namespace's dict or the exit code,
    with what it printed to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parse(argv))
        except SystemExit as stop:
            got = stop.code
    return got, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(argv=_LINES)
def test_dispatch_parses_as_the_full_parser(argv):
    # a command line that names a command skips the top-level parser; the
    # namespace, or the exit code, usage and error text, must not show it
    assert _outcome(_parse_args, argv) == _outcome(build_parser().parse_args, argv)
