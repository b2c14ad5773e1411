import numpy as np
import pytest

import saradc as sa


@pytest.fixture(scope="session")
def ref_cfg():
    return sa.reference_defaults()


@pytest.fixture(scope="session")
def ideal_cfg(ref_cfg):
    return sa.ideal_config(ref_cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ideal_array(ideal_cfg):
    return sa.build_cap_array(ideal_cfg, np.random.default_rng(0))


@pytest.fixture()
def comparator_calls(monkeypatch):
    """(v_diff, bit) of every comparison the engine makes, in order."""
    calls = []

    def recorded(v_diff, t_available, cfg, rng):
        bit, t_decide, metastable = sa.decide(v_diff, t_available, cfg, rng)
        calls.append((v_diff, bit))
        return bit, t_decide, metastable

    monkeypatch.setattr(sa.engine, "decide", recorded)
    return calls
