import math
from dataclasses import replace

import pytest

import saradc as sa
from saradc.config import REFERENCE_CONFIG_DOC, ConfigError, t_easy_of


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
    assert cfg.g_m5 == 2e-3
    assert cfg.t_delay == 100e-12


def test_derived_constants(ref_cfg):
    d = sa.derived_constants(ref_cfg)
    assert math.isclose(d.tau_reg, 13e-12, rel_tol=1e-12)
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


def test_net_full_scale_examples():
    assert sa.net_full_scale(1.6, 1.3e-12, 0.0) == 1.6
    assert math.isclose(sa.net_full_scale(1.6, 1.3e-12, 20e-15), 1.57576, rel_tol=1e-4)
    assert math.isclose(sa.net_full_scale(1.6, 1.0e-12, 1.0e-12), 0.8, rel_tol=1e-12)


def test_round_trip_serialize(ref_cfg):
    assert sa.load_config(sa.serialize(ref_cfg)) == ref_cfg
    mutated = replace(ref_cfg, c_p=13.7e-15, ron_dac=tuple(float(i) for i in range(1, 10)))
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
    with pytest.raises(ConfigError, match="unknown key"):
        sa.load_config(REFERENCE_CONFIG_DOC + "\nwidgets = 3\n")


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
    # still a valid config
    assert sa.load_config(sa.serialize(ic)) == ic


def test_public_names_resolve():
    missing = [name for name in sa.__all__ if not hasattr(sa, name)]
    assert missing == []
    assert len(set(sa.__all__)) == len(sa.__all__)
