import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import saradc as sa
from saradc.cli import main
from saradc.config import REFERENCE_CONFIG_DOC


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


def test_simulate_byte_identical_across_workers(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--n", "128", "--bin", "11", "--seed", "7", "--out", str(a)])
    run(["simulate", "--n", "128", "--bin", "11", "--seed", "7", "--out", str(b)])
    for name in ("spectrum.csv", "metrics.json", "codes.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_engine_output_pinned(tmp_path):
    # sha256 of the engine's and the design study's artifacts at one seed; a
    # change to the conversion arithmetic, the order of the random draws, the
    # trade study or the timing budget shows here
    record = ["--n", "256", "--bin", "19", "--seed", "42"]
    pins = [(["simulate", *record], "codes.csv",
             "163c0acee4349292a99212a935423149979f59ffdda339d2ca75eefffe213fb4"),
            (["power", *record], "power.json",
             "26f78e16968f017e3f28ea8efba32696475ead83fed461d092831356f23ff4c9"),
            (["dac-compare", "--seed", "42"], "dac_compare.json",
             "626de7890cf5181c00778767b3963508295158f99475817c8a1a34246214788f"),
            (["timing"], "timing.json",
             "a5baf2dd2be8eef85c586aa6ef5109e8f791a4ac2409715a43f461a288575ecd"),
            # a seed of two 32-bit words, as the benchmark derives per op
            (["simulate", "--n", "256", "--bin", "19", "--seed", "4294967299"], "codes.csv",
             "7d3827cf5b3b885286c629bcf52f5178a1522b1fffcfa5b759630a3697ae7bca")]
    for argv, name, digest in pins:
        out = tmp_path / argv[0]
        assert run([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_simulate_check_passes(tmp_path):
    assert run(["simulate", "--n", "64", "--bin", "3", "--check",
                "--out", str(tmp_path / "c")]) == 0


def test_simulate_ideal_flag(tmp_path):
    out = tmp_path / "ideal"
    assert run(["simulate", "--n", "4096", "--bin", "101", "--ideal",
                "--amplitude", "0.787", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert abs(metrics["sndr_dB"] - 61.96) < 0.6


def test_unmeasurable_record_reports_nan_fom(tmp_path):
    # a 3-point record has no non-signal bin, so SNDR and ENOB are infinite;
    # a Walden FOM of zero would read as the best possible converter
    out = tmp_path / "short"
    assert run(["simulate", "--n", "3", "--bin", "1", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["enob_bits"] == "inf"
    assert metrics["fom_walden_J_per_step"] == "nan"


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


def test_config_error_exit_code(tmp_path, capsys):
    bits_null = json.dumps({**dataclasses.asdict(sa.reference_defaults()), "bits": None})
    for text in (REFERENCE_CONFIG_DOC + "\nnot_a_key = 3\n",
                 REFERENCE_CONFIG_DOC.replace("bits         = 10", "bits = nan"),
                 bits_null):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert run(["simulate", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.count("configuration error") == 3


def test_unreadable_config_exit_code(tmp_path, capsys):
    # a missing path, a directory and a file that is not UTF-8 text are
    # configuration errors that name the path
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(REFERENCE_CONFIG_DOC.replace("uV", "\xb5V").encode("latin-1"))
    for path in (tmp_path / "missing.cfg", tmp_path, undecodable):
        assert run(["timing", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(path) in err


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


def test_stale_artifacts_are_replaced(tmp_path):
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


def test_power_report_artifacts(tmp_path):
    out = tmp_path / "p"
    assert run(["power", "--n", "256", "--bin", "19", "--out", str(out)]) == 0
    data = json.loads((out / "power.json").read_text())
    assert set(data["blocks_W"]) == {"comparator", "dac", "logic", "track_hold"}
    assert abs(sum(data["fractions"].values()) - 1.0) < 1e-9


def test_dac_compare_artifacts(tmp_path):
    out = tmp_path / "d"
    assert run(["dac-compare", "--out", str(out)]) == 0
    data = json.loads((out / "dac_compare.json").read_text())
    assert abs(data["energy_saving_ideal_accounting"] - 0.375) < 0.05
    csv = (out / "dac_compare.csv").read_text().splitlines()
    assert csv[1].startswith("binary,") and csv[2].startswith("split,")


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


def test_sweep_rejects_keys_it_cannot_sweep(tmp_path, capsys):
    for param in ("ron_dac", "topology"):
        assert run(["sweep", "--param", param, "--range", "1:2:2",
                    "--out", str(tmp_path / "x")]) == 1
        assert param in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; SARADC_OUT is read on every call
    for name in ("envout", "envout2"):
        monkeypatch.setenv("SARADC_OUT", str(tmp_path / name))
        assert run(["timing"]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["output_dir"] == str(tmp_path / name)
    assert (tmp_path / "envout" / "timing.json").exists()
    assert (tmp_path / "envout2" / "timing.json").exists()
