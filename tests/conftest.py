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
    the input and whether the comparator found it positive.

    It wraps ``comparator.compare``, the one place a comparison's sign is
    taken: both of the engine's passes call it at every bit.  A conversion
    the lean pass hands to the careful pass is compared again there, from
    its first bit."""
    calls = []
    compare = sa.comparator.compare

    def recorded(v_diff, noise, out):
        v_eff, up = compare(v_diff, noise, out=out)
        calls.append((float(v_diff[0]), bool(up[0])))
        return v_eff, up

    monkeypatch.setattr(sa.comparator, "compare", recorded)
    monkeypatch.setattr(sa.engine, "compare", recorded)
    return calls
