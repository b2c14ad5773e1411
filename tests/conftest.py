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
    """(v_diff, up) of sample 0 at every comparison the engine makes, in order:
    the input and whether the comparator found it positive."""
    calls = []
    decisions = sa.engine.decisions

    def recorded(v_diff, t_available, noise, cfg, out):
        up, t_decide, metastable = decisions(v_diff, t_available, noise, cfg, out=out)
        calls.append((float(v_diff[0]), bool(up[0])))
        return up, t_decide, metastable

    monkeypatch.setattr(sa.engine, "decisions", recorded)
    return calls
