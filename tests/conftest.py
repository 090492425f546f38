import pytest

from conewave.config import RunConfig
from conewave.lattice import lattice_for
from conewave.norms import Quadrature


@pytest.fixture(scope="session")
def small_config():
    # compact torus/window: fast unit tests, same invariants as the defaults
    return RunConfig(box=20.0, half_window=4.0, dt=0.25)


@pytest.fixture(scope="session")
def lat0(small_config):
    return lattice_for(small_config, 0)


@pytest.fixture(scope="session")
def quad0(small_config, lat0):
    return Quadrature(small_config, lat0)


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Every SpectralWave.evaluate call of the test, as (wave id, t, N)."""
    from conewave.waves import SpectralWave
    calls = []
    real = SpectralWave.evaluate

    def counting(self, t, lattice=None):
        calls.append((id(self), float(t), (lattice or self.lattice).size))
        return real(self, t, lattice)

    monkeypatch.setattr(SpectralWave, "evaluate", counting)
    return calls
