"""Command-line front end.

Commands: simulate | timing | power | dac-compare | metastability | sweep |
print-defaults.  Every run that writes artifacts drops a manifest.json next
to them so any output can be re-derived: it names the sha256 of the config
that ran (as ``serialize`` writes it, after ``--ideal``) and the Python and
numpy versions.  Data artifacts are byte-identical for a fixed seed and
config; their layouts are set here, but spectrum.csv's, which
``analysis.spectrum_csv`` sets.  Exit codes:
0 success, 1 configuration error, 2 runtime precondition, 3 a --check
verification failed.

The default output directory is ./saradc_out, overridable with the
SARADC_OUT environment variable or --out.  ``main`` may be called any number
of times in one process: the parser is built once, and SARADC_OUT is read on
every call.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import math
import os
import platform
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from . import __version__, analysis, capdac, engine, timing as timing_mod
from .config import (AdcConfig, ConfigError, REFERENCE_CONFIG_DOC, derived_constants,
                     ideal_config, load_config, parse_value, reference_defaults,
                     serialize, validate)

# OSError: an output path that cannot be written, e.g. --out naming a file
_PRECONDITION_ERRORS = (ValueError, OSError)


def _default_out() -> str:
    return os.environ.get("SARADC_OUT", "saradc_out")


def _load(path: str | None) -> AdcConfig:
    if path is None:
        return reference_defaults()
    try:
        # utf-8-sig drops a leading byte-order mark, which some editors write
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config document {path}: {err}") from err
    return load_config(text)


# O_EXCL also refuses a symlink that appears at the path after the unlink
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _write(outdir: Path, name: str, text: str) -> None:
    """Write ``text`` as a new file ``name`` in four system calls: unlink,
    open, write and close.

    A new file is created in place of any earlier one: reopening an existing
    file with truncation makes ext4 (``auto_da_alloc``) flush it on close,
    which costs several times the write itself.  A symlink there is removed,
    and its target left as it was; a directory there is an ``OSError`` that
    names the path.
    """
    path = os.path.join(outdir, name)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    _create(path, text)


def _create(path: str, text: str) -> None:
    """Write ``text`` as the new file ``path``, which must not exist.

    A buffered text file would add an ``fstat``, a terminal check and seeks
    to each artifact.  The bytes are UTF-8 and no newline is translated; the
    write repeats until every byte is out, so a short write cannot cut an
    artifact.
    """
    fd = os.open(path, _NEW_FILE, 0o666)
    try:
        data = memoryview(text.encode())
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _codes_csv(codes, metastable, violation) -> str:
    """The per-sample table of a record, byte for byte what
    ``"%d,%d,%d,%d\n"`` rows print, built from the columns by
    ``analysis.table_text``."""
    return "index,code,metastable,violation\n" + analysis.table_text(
        [np.arange(len(codes)), ",", codes, ",", metastable, ",", violation, "\n"], len(codes))


def _csv(header, rows) -> str:
    """A CSV of a header and rows: a number is printed as ``%.12g``, a
    string as it is."""
    return "".join(",".join(cell if isinstance(cell, str) else f"{cell:.12g}" for cell in row)
                   + "\n" for row in (header, *rows))


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj, indent: str) -> str:
    """The JSON text of ``obj``, its nested lines indented two spaces past
    ``indent``."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{\n" + inner + (",\n" + inner).join([
            _escape(key) + ": " + _json(obj[key], inner)
            for key in sorted(obj)]) + "\n" + indent + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(
            [_json(value, inner) for value in obj]) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, byte for
    byte, for trees whose keys are all strings; any other key is a
    ``TypeError``.  json's C encoder does not indent, and its pure-Python
    one takes nearly twice as long as this writer on a design study's
    texts."""
    return _json(obj, "") + "\n"


def _unmeasured(m: analysis.SpectrumMetrics) -> bool:
    """A record that measured no noise has no noise figures, not perfect
    ones: null in ``metrics.json``, an empty field in ``sweep.csv``."""
    return m.sndr == math.inf


# main may run many times in one process, mostly on one config; serializing
# it costs some 30 us, about 5 % of a whole `timing` command
@functools.lru_cache(maxsize=8)
def _config_sha256(cfg: AdcConfig) -> str:
    return hashlib.sha256(serialize(cfg).encode()).hexdigest()


def _emit(args, cfg: AdcConfig, seed, artifacts: dict[str, str]) -> Path:
    """Write a run's artifacts into ``--out`` in the given order, then its
    manifest, and return the directory.

    Every command that writes comes here once, with its results in hand, so
    a run that fails creates nothing, and the manifest comes last, so a run
    whose artifacts did not all land writes none, nor leaves an earlier
    run's: that one is removed first, so the new one is created without an
    unlink.  The directory is created only if it is missing: one that is
    already there costs one ``stat``.  An empty ``--out`` is the current
    directory.
    """
    outdir = Path(args.out)
    manifest = os.path.join(outdir, "manifest.json")
    if not os.path.isdir(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    else:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(manifest)
    for name, text in artifacts.items():
        _write(outdir, name, text)
    _create(manifest, _json_text({
        "tool": "saradc",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": args.command,
        "config": getattr(args, "config", None),
        "config_sha256": _config_sha256(cfg),
        "seed": seed,
        "output_dir": str(outdir),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }))
    return outdir


def _tone(args, cfg: AdcConfig) -> analysis.Tone:
    """The test tone of ``--n``, ``--bin`` and ``--amplitude`` at the rate of
    ``cfg``.  Each side swings half the amplitude about ``v_cm``, so an
    amplitude past ``2*min(v_cm, v_dd - v_cm)`` would leave the rails and
    is refused by name."""
    rail = 2.0 * min(cfg.v_cm, cfg.v_dd - cfg.v_cm)
    if abs(args.amplitude) > rail:
        raise ValueError(f"--amplitude {args.amplitude:g} V drives a side past a rail; "
                         f"its size must not exceed 2*min(v_cm, v_dd - v_cm) = {rail:g} V")
    return analysis.gen_coherent_tone(args.n, args.bin, args.amplitude, cfg.v_cm, cfg.f_s)


def _cmd_simulate(args, cfg: AdcConfig) -> int:
    if args.ideal:
        cfg = ideal_config(cfg)
    d = derived_constants(cfg)
    tone = _tone(args, cfg)
    result = engine.convert_waveform(tone.v_diff, cfg, seed=args.seed)
    power = analysis.spectrum(result.codes, cfg.bits)
    rep = engine.power_report(result)
    m = analysis.metrics(power, args.bin, rep.total, cfg.f_s, n=args.n)

    # a non-finite figure is written as its repr, e.g. "-inf", but as null
    # if it is a noise figure of a record that measured no noise
    def num(x, noise_figure=False):
        if noise_figure and _unmeasured(m):
            return None
        return x if math.isfinite(x) else repr(x)
    payload = {
        "n": m.n, "signal_bin": m.signal_bin, "sndr_dB": num(m.sndr, True),
        "sfdr_dB": num(m.sfdr, True), "thd_dB": num(m.thd), "enob_bits": num(m.enob, True),
        "fom_walden_J_per_step": num(m.fom_walden, True), "fom_literal": num(m.fom_literal),
        "fom_literal_unit": m.fom_literal_unit, "amplitude_V": args.amplitude,
        "f_in_Hz": tone.f_in, "metastable_conversions": result.n_metastable_conversions,
        "timing_violations": result.n_violations, "mean_power_W": rep.total,
        "lsb_V": d.delta, "v_fs_net_V": d.v_fs_net, "seed": args.seed}
    outdir = _emit(args, cfg, args.seed, {
        "spectrum.csv": analysis.spectrum_csv(power, cfg.f_s, n=args.n),
        "metrics.json": _json_text(payload),
        "codes.csv": _codes_csv(result.codes, result.metastable, result.violation)})
    shown = ("SNDR and ENOB not measurable" if _unmeasured(m)
             else f"SNDR={m.sndr:.2f} dB ENOB={m.enob:.2f} b")
    print(f"simulate: n={args.n} bin={args.bin} {shown} power={rep.total * 1e6:.1f} uW -> {outdir}")

    if args.check:
        x = (result.codes + 0.5) / 2.0 ** cfg.bits - 0.5
        mean_square = float(np.mean(x * x))
        parseval = abs(float(np.sum(power)) - mean_square)
        # a silent record, or one with no non-signal bin, measures nothing
        ok = (math.isfinite(m.sndr)
              and parseval <= 1e-9 * max(mean_square, 1e-30)
              and m.sfdr >= m.sndr
              and math.isclose(m.enob, (m.sndr - 1.76) / 6.02, rel_tol=0, abs_tol=0))
        if not ok:
            print("simulate --check: FAILED", file=sys.stderr)
            return 3
        print("simulate --check: ok")
    return 0


def _cmd_timing(args, cfg: AdcConfig) -> int:
    b = timing_mod.build_budget(cfg)
    rows = [
        ("tau_reg_s", cfg.tau_reg), ("t_hard_s", b.t_hard), ("t_easy_s", b.t_easy),
        ("t_fix_s", cfg.t_fix), ("t_delay_s", cfg.t_delay), ("t_track_s", cfg.t_track),
        ("period_min_s", b.period), ("f_s_max_Hz", b.f_s_max),
        ("f_s_max_sync_Hz", b.f_s_max_sync), ("f_s_Hz", cfg.f_s),
        ("margin_s", b.margin), ("async_boost", b.boost),
    ]
    _emit(args, cfg, None, {
        "timing.csv": _csv(("quantity", "value"), rows),
        "timing.json": _json_text({**dict(rows), "timing_violation": b.timing_violation})})
    for k, v in rows:
        print(f"{k:>18s} : {v:.6g}")
    if b.timing_violation:
        print("warning: configured f_s exceeds the asynchronous limit", file=sys.stderr)
    return 0


def _cmd_power(args, cfg: AdcConfig) -> int:
    result = engine.convert_waveform(_tone(args, cfg).v_diff, cfg, seed=args.seed)
    rep = engine.power_report(result)
    rows = [(k, v, v / rep.total) for k, v in rep.blocks.items()]
    _emit(args, cfg, args.seed, {
        "power.csv": _csv(("block", "power_W", "fraction"), rows + [("total", rep.total, 1)]),
        "power.json": _json_text({"blocks_W": rep.blocks, "total_W": rep.total,
                                  "fractions": rep.fractions})})
    for k, v, fraction in rows:
        print(f"{k:>12s} : {v * 1e6:8.2f} uW ({fraction * 100:5.1f} %)")
    print(f"{'total':>12s} : {rep.total * 1e6:8.2f} uW")
    return 0


def _cmd_dac_compare(args, cfg: AdcConfig) -> int:
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    report = capdac.compare_topologies(cfg, rng)
    rows = [{"topology": r.topology, "c_total_side_F": r.c_total_side,
             "sigma_ktc_V": r.sigma_ktc, "e_avg_conversion_J": r.e_avg_conversion,
             "e_avg_textbook_J": r.e_avg_textbook, "inl_max_lsb": r.inl_max}
            for r in (report.binary, report.split)]
    _emit(args, cfg, args.seed, {
        "dac_compare.csv": _csv(
            (*rows[0], "energy_saving", "c_reduction"),
            [(*row.values(), report.energy_saving, report.c_reduction) for row in rows]),
        "dac_compare.json": _json_text({
            "rows": rows, "energy_saving_ideal_accounting": report.energy_saving,
            "capacitance_reduction": report.c_reduction})})
    for r in (report.binary, report.split):
        print(f"{r.topology:>7s}: C/side={r.c_total_side * 1e15:8.2f} fF  "
              f"kT/C={r.sigma_ktc * 1e6:7.2f} uVrms  "
              f"E/conv={r.e_avg_conversion * 1e12:7.3f} pJ  "
              f"E_textbook={r.e_avg_textbook * 1e12:7.3f} pJ  "
              f"INL={r.inl_max:.3f} LSB")
    print(f"energy saving (ideal accounting): {report.energy_saving * 100:.1f} %")
    print(f"capacitance reduction: {report.c_reduction:.1f} x")
    return 0


def _cmd_metastability(args, cfg: AdcConfig) -> int:
    res = timing_mod.metastability_mc(cfg, args.trials, args.pmeta, seed=args.seed)
    _emit(args, cfg, args.seed, {"metastability.json": _json_text(res)})
    lo, hi = res["ci95"]
    print(f"metastability: rate={res['rate']:.3e} target={res['target']:.3e} "
          f"ci95=[{lo:.3e}, {hi:.3e}] trials={res['trials']}")
    return 0


def _cmd_sweep(args, cfg: AdcConfig) -> int:
    try:
        start, stop, steps = args.range.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as err:
        raise ConfigError(f"--range: expected start:stop:steps, got {args.range!r}") from err
    if steps < 1:
        raise ConfigError("--range: steps must be at least 1")
    values = np.linspace(start, stop, steps)
    header = [args.param, "delta_V", "v_fs_net_V", "tau_reg_s", "f_s_max_Hz"] + (
        ["sndr_dB"] if args.sndr else [])
    rows = []
    for v in values.tolist():
        c = validate(dataclasses.replace(cfg, **{args.param: parse_value(args.param, v)}))
        d = derived_constants(c)
        b = timing_mod.build_budget(c)
        row = [v, d.delta, d.v_fs_net, c.tau_reg, b.f_s_max]
        if args.sndr:
            result = engine.convert_waveform(_tone(args, c).v_diff, c, seed=args.seed)
            power = analysis.spectrum(result.codes, c.bits)
            m = analysis.metrics(power, args.bin, 1.0, c.f_s, n=args.n)
            row.append("" if _unmeasured(m) else f"{m.sndr:.6f}")
        rows.append(row)
    outdir = _emit(args, cfg, args.seed, {"sweep.csv": _csv(header, rows)})
    print(f"sweep: {args.param} over {len(values)} points -> {outdir / 'sweep.csv'}")
    return 0


def _cmd_print_defaults(_args, _cfg) -> int:
    sys.stdout.write(REFERENCE_CONFIG_DOC)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``--out`` defaults to
    None so that ``main`` resolves it from the environment on every call."""
    p = argparse.ArgumentParser(prog="saradc",
                                description="SAR ADC behavioral simulator")

    def common(sp, seed=True):
        sp.add_argument("config", nargs="?", default=None,
                        help="config document; omitted = shipped defaults")
        sp.add_argument("--out", default=None,
                        help="output directory (default: $SARADC_OUT or ./saradc_out)")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    def tone(sp, n, bin_):
        sp.add_argument("--n", type=int, default=n, help="record length")
        sp.add_argument("--bin", type=int, default=bin_, help="tone bin (coprime to n)")
        sp.add_argument("--amplitude", type=float, default=0.75,
                        help="differential amplitude [V]")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="tone -> conversion -> spectrum + metrics")
    common(sp)
    tone(sp, 64, 3)
    sp.add_argument("--ideal", action="store_true", help="disable all nonidealities")
    sp.add_argument("--check", action="store_true",
                    help="verify spectrum identities; exit 3 on failure")

    sp = sub.add_parser("timing", help="conversion-period budget report")
    common(sp, seed=False)

    sp = sub.add_parser("power", help="per-block power breakdown")
    common(sp)
    tone(sp, 4096, 189)

    sp = sub.add_parser("dac-compare", help="binary vs split topology trade study")
    common(sp)

    sp = sub.add_parser("metastability", help="Monte Carlo rate validation")
    common(sp)
    sp.add_argument("--pmeta", type=float, default=1e-3)
    sp.add_argument("--trials", type=int, default=1_000_000)

    sp = sub.add_parser("sweep", help="one config key vs derived metrics")
    common(sp)
    sp.add_argument("--param", required=True)
    sp.add_argument("--range", required=True, help="start:stop:steps (SI units); "
                    "a negative start needs the form --range=-1:1:3")
    sp.add_argument("--sndr", action="store_true", help="add a simulated SNDR column")
    tone(sp, 256, 19)

    sub.add_parser("print-defaults", help="emit the shipped configuration")
    return p


_HANDLERS = {
    "simulate": _cmd_simulate,
    "timing": _cmd_timing,
    "power": _cmd_power,
    "dac-compare": _cmd_dac_compare,
    "metastability": _cmd_metastability,
    "sweep": _cmd_sweep,
    "print-defaults": _cmd_print_defaults,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None) is None:
        args.out = _default_out()
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed: expected a non-negative integer, got {args.seed}")
        return _HANDLERS[args.command](args, _load(getattr(args, "config", None)))
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except _PRECONDITION_ERRORS as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
