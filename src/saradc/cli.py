"""Command-line front end.

Commands: simulate | timing | power | dac-compare | metastability | sweep |
print-defaults.  Every run that writes artifacts drops a manifest.json next
to them so any output can be re-derived; data artifacts are byte-identical
for a fixed seed and config.  Exit codes:
0 success, 1 configuration error, 2 runtime precondition, 3 a --check
verification failed.

The default output directory is ./saradc_out, overridable with the
SARADC_OUT environment variable or --out.  ``main`` may be called any number
of times in one process: the parser is built once, and SARADC_OUT is read on
every call.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, capdac, engine, timing as timing_mod
from .config import (AdcConfig, ConfigError, REFERENCE_CONFIG_DOC, derived_constants,
                     ideal_config, load_config, parse_value, reference_defaults,
                     validate)

# OSError: an output path that cannot be written, e.g. --out naming a file
_PRECONDITION_ERRORS = (ValueError, OSError)


def _default_out() -> str:
    return os.environ.get("SARADC_OUT", "saradc_out")


def _load(path: str | None) -> AdcConfig:
    if path is None:
        return reference_defaults()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config document {path}: {err}") from err
    return load_config(text)


def _fresh(outdir: Path, name: str) -> Path:
    """The artifact path, with any earlier file there removed.

    A new file is created in its place: reopening an existing file with
    truncation makes ext4 (``auto_da_alloc``) flush it on close, which costs
    several times the write itself.  A symlink there is replaced, not
    written through.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.unlink(missing_ok=True)
    return path


def _write(outdir: Path, name: str, text: str) -> None:
    with open(_fresh(outdir, name), "w", newline="\n") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _manifest(outdir: Path, args, seed) -> None:
    payload = {
        "tool": "saradc",
        "version": __version__,
        "command": args.command,
        "config": getattr(args, "config", None),
        "seed": seed,
        "output_dir": str(outdir),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write(outdir, "manifest.json", _json_text(payload))


def _cmd_simulate(args) -> int:
    cfg = _load(args.config)
    if args.ideal:
        cfg = ideal_config(cfg)
    d = derived_constants(cfg)
    tone = analysis.gen_coherent_tone(args.n, args.bin, args.amplitude, cfg.v_cm, cfg.f_s)
    result = engine.convert_waveform(tone.v_diff, cfg, seed=args.seed)
    power = analysis.spectrum(result.codes, cfg.bits)
    rep = engine.power_report(result)
    m = analysis.metrics(power, args.bin, rep.total, cfg.f_s)

    outdir = Path(args.out)
    _write(outdir, "spectrum.csv", analysis.spectrum_csv(power, cfg.f_s))
    payload = m.to_json_dict()
    payload.update({
        "amplitude_V": args.amplitude,
        "f_in_Hz": tone.f_in,
        "metastable_conversions": result.n_metastable_conversions,
        "timing_violations": result.n_violations,
        "mean_power_W": rep.total,
        "lsb_V": d.delta,
        "v_fs_net_V": d.v_fs_net,
        "seed": args.seed,
    })
    _write(outdir, "metrics.json", _json_text(payload))
    if args.n <= 65536:
        rows = "".join(f"{k},{c},{m},{int(v)}\n"
                       for k, (c, m, v) in enumerate(
                           zip(result.codes.tolist(), result.metastable.tolist(),
                               result.violation.tolist())))
        _write(outdir, "codes.csv", "index,code,metastable,violation\n" + rows)
    else:
        np.savez_compressed(_fresh(outdir, "codes.npz"), codes=result.codes,
                            metastable=result.metastable,
                            violation=result.violation)
    _manifest(outdir, args, args.seed)
    print(f"simulate: n={args.n} bin={args.bin} SNDR={m.sndr:.2f} dB "
          f"ENOB={m.enob:.2f} b power={rep.total * 1e6:.1f} uW -> {outdir}")

    if args.check:
        x = (result.codes + 0.5) / 2.0 ** cfg.bits - 0.5
        parseval = abs(float(np.sum(power)) - float(np.mean(x * x)))
        ok = (not math.isnan(m.sndr)      # a silent record measures nothing
              and parseval <= 1e-9 * max(float(np.mean(x * x)), 1e-30)
              and m.sfdr >= m.sndr
              and math.isclose(m.enob, (m.sndr - 1.76) / 6.02, rel_tol=0, abs_tol=0))
        if not ok:
            print("simulate --check: FAILED", file=sys.stderr)
            return 3
        print("simulate --check: ok")
    return 0


def _cmd_timing(args) -> int:
    cfg = _load(args.config)
    b = timing_mod.build_budget(cfg)
    rows = [
        ("tau_reg_s", b.tau_reg), ("t_hard_s", b.t_hard), ("t_easy_s", b.t_easy),
        ("t_fix_s", b.t_fix), ("t_delay_s", b.t_delay), ("t_track_s", b.t_track),
        ("period_min_s", b.period), ("f_s_max_Hz", b.f_s_max),
        ("f_s_max_sync_Hz", b.f_s_max_sync), ("f_s_Hz", b.f_s),
        ("margin_s", b.margin), ("async_boost", b.boost),
    ]
    outdir = Path(args.out)
    _write(outdir, "timing.csv",
           "quantity,value\n" + "".join(f"{k},{v:.12g}\n" for k, v in rows))
    payload = {k: v for k, v in rows}
    payload["timing_violation"] = b.timing_violation
    _write(outdir, "timing.json", _json_text(payload))
    _manifest(outdir, args, None)
    for k, v in rows:
        print(f"{k:>18s} : {v:.6g}")
    if b.timing_violation:
        print("warning: configured f_s exceeds the asynchronous limit", file=sys.stderr)
    return 0


def _cmd_power(args) -> int:
    cfg = _load(args.config)
    tone = analysis.gen_coherent_tone(args.n, args.bin, args.amplitude,
                                      cfg.v_cm, cfg.f_s)
    result = engine.convert_waveform(tone.v_diff, cfg, seed=args.seed)
    rep = engine.power_report(result)
    outdir = Path(args.out)
    _write(outdir, "power.csv", rep.to_csv())
    _write(outdir, "power.json", _json_text(rep.to_json_dict()))
    _manifest(outdir, args, args.seed)
    for k, v in rep.blocks.items():
        print(f"{k:>12s} : {v * 1e6:8.2f} uW ({rep.fractions[k] * 100:5.1f} %)")
    print(f"{'total':>12s} : {rep.total * 1e6:8.2f} uW")
    return 0


def _cmd_dac_compare(args) -> int:
    cfg = _load(args.config)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 1)))
    report = capdac.compare_topologies(cfg, rng)
    outdir = Path(args.out)
    _write(outdir, "dac_compare.csv", report.to_csv())
    _write(outdir, "dac_compare.json", _json_text(report.to_json_dict()))
    _manifest(outdir, args, args.seed)
    for r in report.rows():
        print(f"{r.topology:>7s}: C/side={r.c_total_side * 1e15:8.2f} fF  "
              f"kT/C={r.sigma_ktc * 1e6:7.2f} uVrms  "
              f"E/conv={r.e_avg_conversion * 1e12:7.3f} pJ  "
              f"E_textbook={r.e_avg_textbook * 1e12:7.3f} pJ  "
              f"INL={r.inl_max:.3f} LSB")
    print(f"energy saving (ideal accounting): {report.energy_saving * 100:.1f} %")
    print(f"capacitance reduction: {report.c_reduction:.1f} x")
    return 0


def _cmd_metastability(args) -> int:
    cfg = _load(args.config)
    res = timing_mod.metastability_mc(cfg, args.trials, args.pmeta, seed=args.seed)
    outdir = Path(args.out)
    _write(outdir, "metastability.json", _json_text(res))
    _manifest(outdir, args, args.seed)
    lo, hi = res["ci95"]
    print(f"metastability: rate={res['rate']:.3e} target={res['target']:.3e} "
          f"ci95=[{lo:.3e}, {hi:.3e}] trials={res['trials']}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    try:
        start, stop, steps = args.range.split(":")
        values = np.linspace(float(start), float(stop), int(steps))
    except ValueError as err:
        raise ConfigError(f"--range: expected start:stop:steps, got {args.range!r}") from err
    if len(values) == 0:
        raise ConfigError("--range: steps must be at least 1")
    header = f"{args.param},delta_V,v_fs_net_V,tau_reg_s,f_s_max_Hz"
    if args.sndr:
        header += ",sndr_dB"
    lines = [header]
    for v in values.tolist():
        c = validate(dataclasses.replace(cfg, **{args.param: parse_value(args.param, v)}))
        d = derived_constants(c)
        b = timing_mod.build_budget(c)
        row = f"{v:.12g},{d.delta:.12g},{d.v_fs_net:.12g},{d.tau_reg:.12g},{b.f_s_max:.12g}"
        if args.sndr:
            tone = analysis.gen_coherent_tone(args.n, args.bin, args.amplitude,
                                              c.v_cm, c.f_s)
            result = engine.convert_waveform(tone.v_diff, c, seed=args.seed)
            power = analysis.spectrum(result.codes, c.bits)
            m = analysis.metrics(power, args.bin, 1.0, c.f_s)
            row += f",{m.sndr:.6f}"
        lines.append(row)
    outdir = Path(args.out)
    _write(outdir, "sweep.csv", "\n".join(lines) + "\n")
    _manifest(outdir, args, args.seed)
    print(f"sweep: {args.param} over {len(values)} points -> {outdir / 'sweep.csv'}")
    return 0


def _cmd_print_defaults(_args) -> int:
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

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="tone -> conversion -> spectrum + metrics")
    common(sp)
    sp.add_argument("--n", type=int, default=64, help="record length")
    sp.add_argument("--bin", type=int, default=3, help="tone bin (coprime to n)")
    sp.add_argument("--amplitude", type=float, default=0.75,
                    help="differential amplitude [V]")
    sp.add_argument("--ideal", action="store_true", help="disable all nonidealities")
    sp.add_argument("--check", action="store_true",
                    help="verify spectrum identities; exit 3 on failure")

    sp = sub.add_parser("timing", help="conversion-period budget report")
    common(sp, seed=False)

    sp = sub.add_parser("power", help="per-block power breakdown")
    common(sp)
    sp.add_argument("--n", type=int, default=4096)
    sp.add_argument("--bin", type=int, default=189)
    sp.add_argument("--amplitude", type=float, default=0.75)

    sp = sub.add_parser("dac-compare", help="binary vs split topology trade study")
    common(sp)

    sp = sub.add_parser("metastability", help="Monte Carlo rate validation")
    common(sp)
    sp.add_argument("--pmeta", type=float, default=1e-3)
    sp.add_argument("--trials", type=int, default=1_000_000)

    sp = sub.add_parser("sweep", help="one config key vs derived metrics")
    common(sp)
    sp.add_argument("--param", required=True)
    sp.add_argument("--range", required=True, help="start:stop:steps (SI units)")
    sp.add_argument("--sndr", action="store_true", help="add a simulated SNDR column")
    sp.add_argument("--n", type=int, default=256)
    sp.add_argument("--bin", type=int, default=19)
    sp.add_argument("--amplitude", type=float, default=0.75)

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
        return _HANDLERS[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except _PRECONDITION_ERRORS as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
