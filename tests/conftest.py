import numpy as np
import pytest

import disd
from disd.evolve import Propagator


@pytest.fixture
def propagator_builds(monkeypatch):
    """A list that gains one entry per ``Propagator`` built (one ``eigh`` each) during the test."""
    builds = []
    build = Propagator.__init__

    def counted(self, h):
        builds.append(np.shape(h))
        build(self, h)

    monkeypatch.setattr(Propagator, "__init__", counted)
    return builds


@pytest.fixture
def dims222():
    return disd.Dims(2, 2, 2)


@pytest.fixture
def dims233():
    return disd.Dims(2, 3, 3)


@pytest.fixture
def init233():
    return disd.InitialSpec(alpha=np.array([1.0, 1.0]) / np.sqrt(2),
                            chi=np.array([1.0, 1.0, 1.0]) / np.sqrt(3))


@pytest.fixture
def init222():
    return disd.InitialSpec(alpha=np.array([1.0, 1.0]) / np.sqrt(2),
                            chi=np.array([1.0, 1.0j]) / np.sqrt(2))


@pytest.fixture
def spec233(dims233):
    return disd.build_canonical(dims233, seed=1, c1=8.0, c2=0.3)


@pytest.fixture
def spec222(dims222):
    return disd.build_canonical(dims222, seed=1, c1=4.0, c2=0.5)
