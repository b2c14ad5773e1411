"""Converter configuration: every physical and timing parameter in SI units.

A single immutable ``AdcConfig`` feeds all other modules.  Values can be
loaded from a human-editable ``key = value`` document or from a JSON
object.  Both formats go through one schema-driven parser: every number,
including each ``ron_dac`` entry and the integer ``bits``, is a bare SI
number or text carrying an SI unit with an optional prefix (``2.5 fF``,
``130 MHz``, ``1 kOhm``).  Every key is range-checked so that a value
entered in the wrong order of magnitude (farads where femtofarads were
meant) is rejected, and every malformed value, unknown key or broken
cross-field rule raises a ``ConfigError`` naming the offending key.

Calibration notes
-----------------
Three comparator internals (``c_pq``, ``c_xy``, ``g_m5``) are not direct
measurements; their defaults are chosen so the regeneration time constant
``c_xy / g_m5`` comes out at 13 ps.  The pre-regeneration gain ``a_v`` is an
assumption (5, a typical first-phase latch gain).  The track-and-hold
nonlinearity, DAC settling depth, unit-cap mismatch and the two per-block
energy constants were tuned once against the target dynamic performance and
are frozen here; see the schema entries marked "calibration".
"""

import functools
import json
import math
from dataclasses import dataclass, fields, replace
from decimal import Decimal

K_BOLTZMANN = 1.380649e-23  # [J/K]


class ConfigError(ValueError):
    """Malformed or invalid configuration; message names the offending key."""


@dataclass(frozen=True)
class AdcConfig:
    # Core converter
    bits: int               # resolution [bits]
    v_dd: float             # supply [V]
    v_ref: float            # DAC reference, half the gross full scale [V]
    f_s: float              # sampling rate [Hz]
    # Capacitive DAC
    c_unit: float           # minimum physical unit capacitor [F]
    c_dac: float            # total per-side DAC capacitance [F]
    c_p: float              # lumped parasitic at the comparator node [F]
    # Comparator
    c_pq: float             # latch internal node capacitance [F] (calibration)
    c_xy: float             # latch output node capacitance [F] (calibration)
    g_m5: float             # regeneration transconductance [S] (calibration)
    a_v: float              # gain accrued before regeneration [-] (assumption)
    sigma_n_comp: float     # operative input-referred noise [Vrms]
    v_cm: float             # comparator common mode [V]
    # Timing
    t_track: float          # tracking phase length [s]
    t_delay: float          # logic delay per bit cycle [s]
    t_fix: float            # fixed per-bit overhead (DAC settle + clock) [s]
    t_phic_low: float       # comparator-clock off time = DAC settle window [s]
    p_meta: float           # metastability rate target [-]
    # Track and hold
    r_on0: float            # sampling switch on-resistance at v = 0 [Ohm]
    ron_alpha: float        # linear on-resistance coefficient [1/V]
    ron_beta: float         # quadratic on-resistance coefficient [1/V^2]
    v_pedestal: float       # lumped charge-injection pedestal [V]
    # DAC behavior
    sigma_u: float          # relative unit-capacitor mismatch sigma [-]
    topology: str           # "binary" | "split"
    ron_dac: str | tuple    # "auto" or explicit per-bit switch resistances [Ohm]
    n_settle: float         # DAC settling depth in time constants [-] (calibration)
    # Bookkeeping
    e_logic: float          # logic energy per bit cycle [J] (calibration)
    e_track: float          # track-and-hold energy per sample [J] (calibration)
    t_kelvin: float         # temperature for kT terms [K]; 0 disables noise

    @property
    def v_fs(self) -> float:
        """Gross differential full scale, twice the reference [V]."""
        return 2.0 * self.v_ref


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from a validated config, shared by every module."""
    delta: float       # LSB after parasitic attenuation [V]
    v_fs_net: float    # net differential full scale [V]
    tau_reg: float     # comparator regeneration time constant [s]


# Schema: key -> (kind, unit, lo, hi, doc).  kind is the python type after
# parsing (ron_dac is "auto" or a tuple); unit "" means dimensionless;
# bounds are generous decade guards whose only job is to catch
# wrong-order-of-magnitude entries.
_SCHEMA = {
    "bits":         (int,   "",    3,      24,    "resolution (the split array needs a sub bit)"),
    "v_dd":         (float, "V",   0.1,    20.0,  "supply voltage"),
    "v_ref":        (float, "V",   0.01,   20.0,  "DAC reference voltage"),
    "f_s":          (float, "Hz",  1e3,    1e12,  "sampling rate"),
    "c_unit":       (float, "F",   1e-18,  1e-9,  "minimum unit capacitor"),
    "c_dac":        (float, "F",   1e-16,  1e-6,  "per-side DAC capacitance"),
    "c_p":          (float, "F",   0.0,    1e-6,  "comparator-node parasitic"),
    "c_pq":         (float, "F",   1e-18,  1e-9,  "latch internal capacitance (calibration)"),
    "c_xy":         (float, "F",   1e-18,  1e-9,  "latch output capacitance (calibration)"),
    "g_m5":         (float, "S",   1e-6,   1.0,   "regeneration transconductance (calibration)"),
    "a_v":          (float, "",    1.0,    1e3,   "pre-regeneration gain (assumption)"),
    "sigma_n_comp": (float, "V",   0.0,    0.1,   "comparator input noise, rms"),
    "v_cm":         (float, "V",   0.0,    20.0,  "comparator common mode"),
    "t_track":      (float, "s",   1e-15,  1.0,   "tracking phase length"),
    "t_delay":      (float, "s",   0.0,    1.0,   "logic delay per bit"),
    "t_fix":        (float, "s",   0.0,    1.0,   "fixed per-bit overhead"),
    "t_phic_low":   (float, "s",   1e-15,  1.0,   "comparator-clock off time"),
    "p_meta":       (float, "",    0.0,    1.0,   "metastability rate target"),
    "r_on0":        (float, "Ohm", 1e-6,   1e9,   "sampling switch on-resistance"),
    "ron_alpha":    (float, "/V",  -10.0,  10.0,  "on-resistance linear coefficient"),
    "ron_beta":     (float, "/V^2", -10.0, 10.0,  "on-resistance quadratic coefficient (calibration)"),
    "v_pedestal":   (float, "V",   -0.1,   0.1,   "charge-injection pedestal"),
    "sigma_u":      (float, "",    0.0,    0.3,   "relative unit-cap mismatch (calibration)"),
    "topology":     (str,   "",    None,   None,  "DAC topology: binary | split"),
    "ron_dac":      (tuple, "Ohm", 1e-6,   1e9,   "auto or per-bit switch resistances"),
    "n_settle":     (float, "",    0.1,    1e3,   "DAC settling depth in time constants (calibration)"),
    "e_logic":      (float, "J",   0.0,    1e-6,  "logic energy per bit cycle (calibration)"),
    "e_track":      (float, "J",   0.0,    1e-6,  "track-and-hold energy per sample (calibration)"),
    "t_kelvin":     (float, "K",   0.0,    2e3,   "temperature for kT terms; 0 = noiseless"),
}

_SI_PREFIX = {"T": 12, "G": 9, "M": 6, "k": 3, "": 0,
              "m": -3, "u": -6, "µ": -6, "n": -9, "p": -12, "f": -15}


def _parse_quantity(key: str, raw) -> float:
    """Parse one number of ``key`` into an SI float.

    ``raw`` is a JSON number (not a bool) or text '<number> [prefix+unit]'.
    Every numeric key, each ``ron_dac`` entry and the integer ``bits`` take
    this one path, and every failure (wrong type, unit or prefix, overflow,
    a non-finite value) is a ConfigError naming the key.  Scaling is done in
    decimal so that '2.5 fF' parses to the same float as the literal 2.5e-15.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ConfigError(f"{key}: expected a number, got {raw!r}")
    num, exp = raw, 0
    if isinstance(raw, str):
        unit = _SCHEMA[key][1]
        parts = raw.split()
        if len(parts) not in (1, 2):
            raise ConfigError(f"{key}: cannot parse value {raw!r}")
        num, suffix = parts[0], parts[1] if len(parts) == 2 else ""
        if suffix:
            if not unit:
                raise ConfigError(f"{key}: dimensionless key takes a bare number, got {raw!r}")
            if not suffix.endswith(unit):
                raise ConfigError(f"{key}: expected unit {unit!r}, got {suffix!r}")
            prefix = suffix[: -len(unit)]
            if prefix not in _SI_PREFIX:
                raise ConfigError(f"{key}: unknown SI prefix {prefix!r} in {raw!r}")
            exp = _SI_PREFIX[prefix]
    try:
        value = float(Decimal(num) * Decimal(10) ** exp)
    except ArithmeticError as err:
        raise ConfigError(f"{key}: cannot parse number {num!r}") from err
    if not math.isfinite(value):
        raise ConfigError(f"{key}: non-finite value {raw!r}")
    return value


def parse_value(key: str, raw):
    """Parse the raw value of one config key: document text or a JSON value.

    Numbers go through ``_parse_quantity``; ``ron_dac`` is 'auto' or a list
    of resistances (comma-separated in text), ``topology`` a string.  Ranges
    and cross-field rules are left to ``validate``.
    """
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}")
    kind = _SCHEMA[key][0]
    if kind is str:
        if not isinstance(raw, str):
            raise ConfigError(f"{key}: expected a string, got {raw!r}")
        return raw.strip()
    if kind is tuple:
        if isinstance(raw, str):
            if raw.strip() == "auto":
                return "auto"
            raw = raw.split(",")
        if not isinstance(raw, list):
            raise ConfigError(f"{key}: expected 'auto' or a list of resistances, got {raw!r}")
        return tuple(_parse_quantity(key, v) for v in raw)
    value = _parse_quantity(key, raw)
    if kind is int:
        if not value.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
        return int(value)
    return value


def _check_ranges(key: str, value) -> None:
    _, _, lo, hi, _ = _SCHEMA[key]
    if key == "topology":
        if value not in ("binary", "split"):
            raise ConfigError("topology: must be 'binary' or 'split'")
    elif value != "auto":  # ron_dac = auto has nothing to range-check
        for v in value if isinstance(value, tuple) else (value,):
            if not lo <= v <= hi:
                raise ConfigError(
                    f"{key}: value {v:g} outside plausible range [{lo:g}, {hi:g}] "
                    f"(check the unit prefix)"
                )
    if key == "p_meta" and not (0.0 < value < 1.0):
        raise ConfigError(f"p_meta: must lie strictly inside (0, 1), got {value:g}")


def validate(cfg: AdcConfig) -> AdcConfig:
    """Check all ranges and cross-field invariants; returns the config on
    success.  Each message names every key its rule reads."""
    for f in fields(AdcConfig):
        _check_ranges(f.name, getattr(cfg, f.name))
    # Common-mode feasibility: both comparator inputs must stay on-rail at
    # the quarter-full-scale excursions seen during conversion.
    lo = cfg.v_cm - cfg.v_fs / 4.0
    hi = cfg.v_cm + cfg.v_fs / 4.0
    if lo < 0.0 or hi > cfg.v_dd:
        raise ConfigError(
            f"v_cm: common mode {cfg.v_cm:g} V with quarter-scale swing "
            f"v_ref/2 = {cfg.v_fs / 4.0:g} V leaves [0, v_dd = {cfg.v_dd:g}] V"
        )
    if cfg.topology == "binary" and cfg.c_dac < 2 ** (cfg.bits - 1) * cfg.c_unit:
        raise ConfigError(
            f"c_dac: {cfg.c_dac:g} F cannot realize 2^(bits-1) = {2 ** (cfg.bits - 1)} "
            f"unit capacitors of c_unit = {cfg.c_unit:g} F"
        )
    # The DAC settles during the comparator clock's off time, which the
    # timing budget reserves as part of each bit's fixed overhead.
    if cfg.t_phic_low > cfg.t_fix:
        raise ConfigError(
            f"t_phic_low: DAC settle window {cfg.t_phic_low:g} s exceeds the "
            f"per-bit overhead t_fix = {cfg.t_fix:g} s that the schedule reserves"
        )
    if isinstance(cfg.ron_dac, tuple) and len(cfg.ron_dac) != cfg.bits - 1:
        raise ConfigError(
            f"ron_dac: expected bits-1 = {cfg.bits - 1} per-bit resistances, "
            f"got {len(cfg.ron_dac)}"
        )
    return cfg


def load_config(text: str) -> AdcConfig:
    """Parse and validate a configuration document (key=value or JSON)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"JSON parse failure: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("JSON document must be an object")
        items = raw.items()
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, val = body.partition("=")
            items.append((key.strip(), val.strip()))
    values = {}
    for key, raw in items:
        if key in values:
            raise ConfigError(f"duplicate key {key!r}")
        values[key] = parse_value(key, raw)
    missing = [k for k in _SCHEMA if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(sorted(missing))}")
    return validate(AdcConfig(**values))


def serialize(cfg: AdcConfig) -> str:
    """Emit a document that round-trips through load_config to an equal config."""
    lines = []
    for f in fields(AdcConfig):
        v = getattr(cfg, f.name)
        unit = _SCHEMA[f.name][1]
        if f.name == "ron_dac":
            body = "auto" if v == "auto" else ", ".join(repr(x) for x in v)
        elif isinstance(v, str):
            body = v
        elif isinstance(v, int):
            body = str(v)
        else:
            body = repr(v) + (f" {unit}" if unit else "")
        lines.append(f"{f.name} = {body}")
    return "\n".join(lines) + "\n"


def derived_constants(cfg: AdcConfig) -> DerivedConstants:
    """Compute the shared derived constants from a validated config.

    The net full scale is the gross full scale attenuated by the parasitic
    capacitive divider at the comparator node; the LSB divides it by 2^bits.
    """
    v_fs_net = net_full_scale(cfg.v_fs, cfg.c_dac, cfg.c_p)
    delta = v_fs_net / 2 ** cfg.bits
    tau_reg = cfg.c_xy / cfg.g_m5
    return DerivedConstants(delta=delta, v_fs_net=v_fs_net, tau_reg=tau_reg)


def net_full_scale(v_fs: float, c_dac: float, c_p: float) -> float:
    """Differential input range after parasitic attenuation [V]."""
    if c_dac <= 0 or c_p < 0:
        raise ConfigError("net_full_scale: capacitances must be positive")
    return v_fs * c_dac / (c_dac + c_p)


def t_easy_of(bits: int, tau_reg: float) -> float:
    """Total settling time of the non-worst-case comparisons [s].

    Anchored at 39 regeneration time constants for a 10-bit converter; other
    resolutions extrapolate with the sum-of-per-bit-latencies quadratic
    (bits*(bits-1)/2 terms), which reproduces the anchor at bits = 10.
    """
    return 39.0 * tau_reg * (bits * (bits - 1) / 2.0) / 45.0


def ideal_config(cfg: AdcConfig) -> AdcConfig:
    """Copy of cfg with every nonideality disabled.

    Noise sources off (0 K, zero comparator sigma), zero mismatch, linear
    track-and-hold with a negligible switch resistance, and a DAC settling
    depth deep enough to be exact in double precision.
    """
    return replace(
        cfg,
        sigma_n_comp=0.0,
        sigma_u=0.0,
        ron_alpha=0.0,
        ron_beta=0.0,
        v_pedestal=0.0,
        t_kelvin=0.0,
        r_on0=1e-6,
        ron_dac="auto",
        n_settle=200.0,
    )


# Shipped reference-design configuration.  The ron_beta / sigma_u / n_settle
# / e_logic / e_track values are frozen calibration outcomes; everything else
# is a quantity of the modeled converter.  The quoted differential input range of
# +/-750 mV in the reference design's summary table disagrees with the
# parasitic-divider calculation (+/-787.9 mV here, rounded to 785 mV at the
# source); the divider value is the one the simulator uses.
REFERENCE_CONFIG_DOC = """\
# 10-bit 130-MS/s asynchronous SAR ADC, shipped calibration.
# All values SI; prefixed units allowed.  Keys marked (cal) are frozen
# calibration constants, not quantities of the modeled converter.

bits         = 10
v_dd         = 1.2 V
v_ref        = 0.8 V          # half the 1.6 V gross full scale
f_s          = 130 MHz

c_unit       = 2.5 fF
c_dac        = 1.3 pF
c_p          = 20 fF

c_pq         = 20 fF          # (cal) sized for 13 ps regeneration constant
c_xy         = 26 fF          # (cal)
g_m5         = 2 mS           # (cal)
a_v          = 5              # assumed pre-regeneration gain
sigma_n_comp = 312 uV
v_cm         = 0.7 V

t_track      = 2 ns
t_delay      = 100 ps
t_fix        = 150 ps
t_phic_low   = 150 ps
p_meta       = 1e-7

r_on0        = 200 Ohm
ron_alpha    = 0 /V
ron_beta     = 0.45 /V^2      # (cal) tracking-distortion coefficient
v_pedestal   = 0 V

sigma_u      = 0.035          # (cal) lumps mismatch and unmodeled device error
topology     = binary
ron_dac      = auto
n_settle     = 6.0            # (cal) DAC settling depth, time constants

e_logic      = 280 fJ         # (cal) per bit cycle
e_track      = 2.66 pJ        # (cal) per sample
t_kelvin     = 300 K
"""


@functools.cache
def reference_defaults() -> AdcConfig:
    """The shipped reference-design configuration, parsed once per process.

    Every call returns the same frozen instance.
    """
    return load_config(REFERENCE_CONFIG_DOC)
