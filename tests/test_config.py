import ast
import json
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import saradc as sa
from saradc import analysis, capdac, cli, comparator, config, engine, timing, track_hold
from saradc.config import _SCHEMA, REFERENCE_CONFIG_DOC, ConfigError, validate
from saradc.timing import t_easy_of


def test_reference_defaults_core_values(ref_cfg):
    assert ref_cfg.bits == 10
    assert ref_cfg.v_dd == 1.2
    assert ref_cfg.f_s == 130e6
    assert ref_cfg.c_unit == 2.5e-15
    assert ref_cfg.c_dac == 1.3e-12
    assert ref_cfg.sigma_n_comp == 312e-6
    assert ref_cfg.p_meta == 1e-7


def test_unit_prefix_parsing_is_exact():
    cfg = sa.reference_defaults()
    assert cfg.c_p == 20e-15
    assert cfg.t_delay == 100e-12
    # the latch's two numbers equal, bit for bit, those set by the device
    # values C_pq = 20 fF, C_xy = 26 fF and g_m5 = 2 mS of the paper's latch
    assert cfg.tau_reg == 26e-15 / 2e-3
    assert cfg.c_comp == 2 * 20e-15 + 26e-15


def test_derived_constants(ref_cfg):
    assert list(sa.DerivedConstants._fields) == ["delta", "v_fs_net"]
    assert math.isclose(ref_cfg.tau_reg, 13e-12, rel_tol=1e-12)
    d = sa.derived_constants(ref_cfg)
    assert math.isclose(d.v_fs_net, 1.6 * 1.3e-12 / 1.32e-12, rel_tol=1e-12)
    assert math.isclose(d.delta, d.v_fs_net / 1024, rel_tol=1e-12)
    # half range within 0.5 % of the quoted 785 mV
    assert abs(d.v_fs_net / 2 - 0.785) / 0.785 < 0.005
    assert math.isclose(d.delta, 1.539e-3, rel_tol=1e-3)


def test_zero_parasitic_identity(ref_cfg):
    cfg = replace(ref_cfg, c_p=0.0)
    d = sa.derived_constants(cfg)
    assert d.v_fs_net == cfg.v_fs == 1.6
    assert math.isclose(d.delta, 1.5625e-3, rel_tol=1e-12)


def test_delta_decreases_with_parasitic(ref_cfg):
    deltas = [sa.derived_constants(replace(ref_cfg, c_p=c)).delta
              for c in (0.0, 10e-15, 20e-15, 50e-15, 100e-15)]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_net_full_scale_examples(ref_cfg):
    def v_fs_net(c_dac, c_p):
        return sa.derived_constants(validate(replace(ref_cfg, c_dac=c_dac, c_p=c_p))).v_fs_net

    assert v_fs_net(1.3e-12, 0.0) == 1.6
    assert math.isclose(v_fs_net(1.3e-12, 20e-15), 1.57576, rel_tol=1e-4)
    assert math.isclose(v_fs_net(1.3e-12, 1.3e-12), 0.8, rel_tol=1e-12)


def test_round_trip_serialize(ref_cfg):
    assert sa.load_config(sa.serialize(ref_cfg)) == ref_cfg
    mutated = replace(ref_cfg, c_p=13.7e-15)
    assert sa.load_config(sa.serialize(mutated)) == mutated


def test_print_defaults_doc_loads_to_defaults(ref_cfg):
    assert sa.load_config(REFERENCE_CONFIG_DOC) == ref_cfg


def test_json_document_path(ref_cfg):
    import json
    from dataclasses import asdict
    doc = json.dumps(asdict(ref_cfg))
    assert sa.load_config(doc) == ref_cfg


def test_negative_capacitance_names_key():
    doc = REFERENCE_CONFIG_DOC.replace("c_unit       = 2.5 fF", "c_unit       = -1 fF")
    with pytest.raises(ConfigError, match="c_unit"):
        sa.load_config(doc)


def test_missing_key_reported():
    doc = "\n".join(l for l in REFERENCE_CONFIG_DOC.splitlines() if not l.startswith("f_s"))
    with pytest.raises(ConfigError, match="f_s"):
        sa.load_config(doc)


def test_unknown_key_rejected():
    # ron_dac, the old switch-resistance override, the settle window
    # t_phic_low, the common-mode pedestal v_pedestal and the latch devices
    # c_pq, c_xy and g_m5 (now tau_reg and c_comp) are no longer keys
    shipped = asdict(sa.reference_defaults())
    for key, doc in [
        ("widgets", REFERENCE_CONFIG_DOC + "\nwidgets = 3\n"),
        ("ron_dac", REFERENCE_CONFIG_DOC + "\nron_dac = auto\n"),
        ("ron_dac", json.dumps({**shipped, "ron_dac": "auto"})),
        ("t_phic_low", REFERENCE_CONFIG_DOC + "\nt_phic_low = 150 ps\n"),
        ("t_phic_low", json.dumps({**shipped, "t_phic_low": 150e-12})),
        ("v_pedestal", REFERENCE_CONFIG_DOC + "\nv_pedestal = 0 V\n"),
        ("v_pedestal", json.dumps({**shipped, "v_pedestal": 0.0})),
        ("c_pq", REFERENCE_CONFIG_DOC + "\nc_pq = 20 fF\n"),
        ("c_pq", json.dumps({**shipped, "c_pq": 20e-15})),
        ("c_xy", REFERENCE_CONFIG_DOC + "\nc_xy = 26 fF\n"),
        ("c_xy", json.dumps({**shipped, "c_xy": 26e-15})),
        ("g_m5", REFERENCE_CONFIG_DOC + "\ng_m5 = 2 mS\n"),
        ("g_m5", json.dumps({**shipped, "g_m5": 2e-3})),
    ]:
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            sa.load_config(doc)


def _smooth_outputs(cfg):
    """The outputs that move smoothly with the config: the timing budget,
    the topology trade and the per-block power of a 130 MHz record in which
    no conversion is cut short."""
    b = timing.build_budget(cfg)
    out = list(b)
    trade = capdac.compare_topologies(cfg, np.random.default_rng(np.random.SeedSequence((0, 1))))
    for row in (trade.binary, trade.split):
        out += [getattr(row, name) for name in row._fields if name != "topology"]
    out += [trade.energy_saving, trade.c_reduction]
    tone = sa.gen_coherent_tone(4096, 189, 0.75, cfg.v_cm, cfg.f_s)
    res = engine.convert_waveform(tone.v_diff, cfg, seed=0)
    assert res.n_violations == res.n_metastable_bits == 0
    out += list(engine.power_report(res).blocks.values())
    return np.array(out, dtype=float)


def test_calibration_keys_are_identifiable(ref_cfg):
    # the log-log Jacobian of the smooth outputs over the calibration keys
    # that reach them has full column rank: no direction of the calibrated
    # constants leaves every output where it was, so each one can be fitted.
    # ron_beta and n_settle reach only the codes (tracking distortion, DAC
    # residual), which move in steps, not smoothly.
    keys = [k for k, entry in _SCHEMA.items()
            if "(calibration)" in entry[4] and k not in ("ron_beta", "n_settle")]
    h = 1e-6
    base = _smooth_outputs(ref_cfg)
    assert np.all(base != 0)
    columns = []
    for key in keys:
        x = getattr(ref_cfg, key)
        up, down = (np.log(np.abs(_smooth_outputs(replace(ref_cfg, **{key: x * (1 + s)}))))
                    for s in (h, -h))
        columns.append((up - down) / (2 * h))
    singular = np.linalg.svd(np.array(columns).T, compute_uv=False)
    assert singular[-1] > 1e-3 * singular[0], (keys, singular)
    assert keys == ["tau_reg", "c_comp", "sigma_u", "e_logic", "e_track"]


def test_wrong_magnitude_caught():
    # farads typed where femtofarads were meant
    doc = REFERENCE_CONFIG_DOC.replace("c_unit       = 2.5 fF", "c_unit       = 2.5 F")
    with pytest.raises(ConfigError, match="c_unit"):
        sa.load_config(doc)


def test_wrong_unit_rejected():
    doc = REFERENCE_CONFIG_DOC.replace("v_dd         = 1.2 V", "v_dd         = 1.2 Hz")
    with pytest.raises(ConfigError, match="v_dd"):
        sa.load_config(doc)


def test_common_mode_feasibility(ref_cfg):
    with pytest.raises(ConfigError, match="v_cm"):
        sa.load_config(sa.serialize(replace(ref_cfg, v_cm=0.1)))


def test_array_realizability(ref_cfg):
    with pytest.raises(ConfigError, match="c_dac"):
        sa.load_config(sa.serialize(replace(ref_cfg, c_dac=1.0e-12)))


def test_p_meta_open_interval(ref_cfg):
    for bad in (0.0, 1.0):
        with pytest.raises(ConfigError, match="p_meta"):
            sa.load_config(sa.serialize(replace(ref_cfg, p_meta=bad)))


def test_t_easy_anchor():
    assert math.isclose(t_easy_of(10, 13e-12), 39 * 13e-12, rel_tol=1e-12)


def test_ideal_config_disables_nonidealities(ref_cfg):
    ic = sa.ideal_config(ref_cfg)
    assert ic.sigma_n_comp == 0.0
    assert ic.sigma_u == 0.0
    assert ic.ron_alpha == ic.ron_beta == 0.0
    assert ic.t_kelvin == 0.0
    # tracking settles completely even at the largest capacitances the schema allows
    c_side = _SCHEMA["c_dac"][3] + _SCHEMA["c_p"][3]
    assert math.exp(-ic.t_track / (ic.r_on0 * c_side)) == 0.0
    # still a valid config
    assert sa.load_config(sa.serialize(ic)) == ic


def test_public_names_resolve():
    for module in (sa, capdac, engine, timing, analysis, comparator, track_hold):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
    # the per-code textbook walk, the per-event energy oracle, the per-sample
    # engine walk and the code-density estimator live in the tests; nothing
    # reads the rest
    walk = ("sample", "decide", "decision_latency")
    deleted = {capdac: ("conventional_energy", "splitcap_energy", "_trial_sequence_energy",
                        "_transition_energy", "_per_code", "conversion_energy",
                        "monotonic_energy_oracle"),
               config: ("t_easy_of", "net_full_scale"), timing: ("max_sampling_rate",),
               engine: ("ideal_config", "_sample_streams", "_bit_cycle", "_live_draws", *walk,
                        "_stream_states", "_pool_state", "_hashmix", "_mix", "_hash_consts",
                        "_Preseeded", "_stream", "ISeedSequence"),
               cli: ("_fresh",), track_hold: walk, comparator: (*walk, "comparator_power"),
               analysis: ("inl_dnl", "InsufficientDataError"),
               sa: (*walk, "comparator_power", "inl_dnl", "InsufficientDataError",
                    "monotonic_energy_oracle", "net_full_scale", "max_sampling_rate"),
               analysis.Tone: ("v_p", "v_n"), engine.NoiseBudget: ("allowed", "slack")}
    for owner, names in deleted.items():
        for name in names:
            assert not hasattr(owner, name), name
            assert name not in getattr(owner, "__all__", ()), name
    assert "power" not in analysis.SpectrumMetrics._fields
    # a tone keeps no copy of its arguments, and a budget none of the config
    # but the rate its margin is taken against
    assert list(analysis.Tone._fields) == ["v_diff", "v_cm", "f_in"]
    assert list(timing.TimingBudget._fields) == [
        "t_hard", "t_easy", "f_s_max", "f_s_max_sync", "f_s"]
    # a result keeps what the commands read, and no conversion time
    assert list(engine.WaveformResult._fields) == [
        "codes", "metastable", "violation", "e_blocks", "f_s"]
    # the ladder's per-side fields lead with one side axis
    assert list(capdac.Ladder._fields) == [
        "bits", "v_ref", "c_bits", "node", "step", "corrections", "c_total", "e_event"]


def test_config_is_the_only_dataclass():
    # a dataclass compiles and execs its generated methods when its module
    # loads, 0.7-2.8 ms each: the config pays that for its field metadata,
    # the schema, while the result records are named tuples, which compile
    # one small constructor each
    decorated = []
    for path in sorted(Path(sa.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for d in node.decorator_list:
                    target = d.func if isinstance(d, ast.Call) else d
                    if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                        decorated.append(node.name)
            assert getattr(node, "id", getattr(node, "attr", None)) != "make_dataclass", path.name
    assert decorated == ["AdcConfig"]
    for record in (sa.DerivedConstants, capdac.Ladder, capdac.TopologyRow,
                   capdac.TradeReport, timing.TimingBudget, analysis.Tone,
                   analysis.SpectrumMetrics, engine.WaveformResult, engine.NoiseBudget,
                   engine.PowerReport):
        assert issubclass(record, tuple), record.__name__


def _json_with(key, literal):
    """The shipped config as JSON, with the raw JSON text ``literal`` as the
    value of ``key``."""
    doc = asdict(sa.reference_defaults())
    doc[key] = "@"
    return json.dumps(doc).replace('"@"', literal)


def _kv_with(key, text):
    """The shipped document with ``key`` set to ``text``."""
    return "\n".join(f"{key} = {text}" if line.split("=")[0].strip() == key else line
                     for line in REFERENCE_CONFIG_DOC.splitlines())


@pytest.mark.parametrize("key, doc, expected", [
    pytest.param("bits", _json_with("bits", "null"), ConfigError, id="json-bits-null"),
    pytest.param("bits", _json_with("bits", "1e400"), ConfigError, id="json-bits-1e400"),
    pytest.param("bits", _json_with("bits", "NaN"), ConfigError, id="json-bits-nan"),
    pytest.param("bits", _kv_with("bits", "1e400"), ConfigError, id="kv-bits-1e400"),
    pytest.param("bits", _kv_with("bits", "nan"), ConfigError, id="kv-bits-nan"),
    # both formats feed (key, value) pairs into one duplicate check
    pytest.param("duplicate key 'c_p'", REFERENCE_CONFIG_DOC + "c_p = 30 fF\n",
                 ConfigError, id="kv-c_p-twice"),
    pytest.param("duplicate key 'c_p'", _json_with("c_p", '2e-14, "c_p": 3e-14'),
                 ConfigError, id="json-c_p-twice"),
    # a value inside the document is echoed as the document wrote it
    pytest.param(r"c_p: expected a number, got \{'a': 1\}$", _json_with("c_p", '{"a": 1}'),
                 ConfigError, id="json-c_p-object"),
    # a split array needs a sub-array bit behind its attenuation capacitor
    pytest.param("bits", _kv_with("bits", "2"), ConfigError, id="kv-bits-2"),
    pytest.param("c_p: cannot parse value '20 f F'", _kv_with("c_p", "20 f F"),
                 ConfigError, id="kv-c_p-three-words"),
    pytest.param("a_v: dimensionless key takes a bare number", _kv_with("a_v", "5 V"),
                 ConfigError, id="kv-a_v-unit"),
    pytest.param("f_s: unknown SI prefix 'X'", _kv_with("f_s", "130 XHz"),
                 ConfigError, id="kv-f_s-prefix"),
    pytest.param("bits: expected an integer", _kv_with("bits", "10.5"),
                 ConfigError, id="kv-bits-fraction"),
    pytest.param("topology: must be 'binary' or 'split'", _kv_with("topology", "ternary"),
                 ConfigError, id="kv-topology-ternary"),
    pytest.param("JSON parse failure", _json_with("bits", "10,"),
                 ConfigError, id="json-broken"),
    # a nesting past the decoder's recursion limit and an integer past
    # Python's digit limit are parse failures too
    pytest.param("JSON parse failure: maximum recursion depth",
                 _json_with("bits", "[" * 100_000 + "]" * 100_000),
                 ConfigError, id="json-bits-nested-100000-deep"),
    pytest.param("JSON parse failure: Exceeds the limit", _json_with("bits", "1" * 5000),
                 ConfigError, id="json-bits-5000-digits"),
    pytest.param(f"line {len(REFERENCE_CONFIG_DOC.splitlines()) + 1}: "
                 f"expected 'key = value', got 'c_p 30 fF'",
                 REFERENCE_CONFIG_DOC + "c_p 30 fF\n", ConfigError, id="kv-no-equals"),
])
def test_every_value_takes_one_parse_path(key, doc, expected):
    if expected is ConfigError:
        with pytest.raises(ConfigError, match=key):
            sa.load_config(doc)
    else:
        assert getattr(sa.load_config(doc), key) == expected


_KEYS = [f.name for f in fields(sa.AdcConfig)]
_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=8), st.integers(),
              st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.sampled_from(_KEYS), value=_JUNK)
def test_any_value_loads_or_names_its_key(key, value):
    doc = json.dumps({**asdict(sa.reference_defaults()), key: value})
    try:
        sa.load_config(doc)
    except ConfigError as err:
        assert key in str(err)


def _in_bounds(key):
    kind, _, lo, hi, _ = _SCHEMA[key]
    if kind is int:
        return st.integers(lo, hi)
    if kind is str:
        return st.sampled_from(["binary", "split"])
    return st.floats(lo, hi)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=6, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _in_bounds(key) for key in keys})))
def test_loaded_config_round_trips(changes):
    # in-bounds values for a few keys of the shipped config, so that most
    # documents also meet the cross-field rules and load
    try:
        cfg = sa.load_config(json.dumps({**asdict(sa.reference_defaults()), **changes}))
    except ConfigError:
        assume(False)
    assert sa.load_config(sa.serialize(cfg)) == cfg
