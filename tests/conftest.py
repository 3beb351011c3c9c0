import functools

import numpy as np
import pytest

import disd
from disd.evolve import Propagator

# each LAPACK entry point of numpy.linalg that the package or its tests reach, and its array
# arguments; a norm reaches LAPACK (an SVD) only as a 2, -2 or nuclear matrix norm
_LAPACK_INPUTS = {
    "eigh": lambda a, *args, **kwargs: (a,),
    "eigvalsh": lambda a, *args, **kwargs: (a,),
    "svd": lambda a, *args, **kwargs: (a,),
    "qr": lambda a, *args, **kwargs: (a,),
    "inv": lambda a, *args, **kwargs: (a,),
    "solve": lambda a, b, *args, **kwargs: (a, b),
    "norm": lambda x, ord=None, axis=None, keepdims=False: (
        (x,) if ord in (2, -2, "nuc") and (np.ndim(x) == 2 if axis is None else np.ndim(axis) == 1)
        else ()),
}
_non_finite_lapack_calls = []  # the names of the calls of the current test phase that saw one


def _guarded(name, function, inputs):
    @functools.wraps(function)
    def guarded(*args, **kwargs):
        if not all(np.isfinite(x).all() for x in inputs(*args, **kwargs)):
            _non_finite_lapack_calls.append(f"np.linalg.{name}")
        return function(*args, **kwargs)

    return guarded


def pytest_configure(config):
    """Install the non-finite LAPACK input guard once a session: numpy's solvers may turn a NaN
    or an inf into a finite answer, so a test phase that passes one fails, whatever it asserts."""
    for name, inputs in _LAPACK_INPUTS.items():
        setattr(np.linalg, name, _guarded(name, getattr(np.linalg, name), inputs))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if _non_finite_lapack_calls:
        report.outcome = "failed"
        report.longrepr = (f"{report.longrepr or ''}\nnon-finite input reached LAPACK in "
                           f"{', '.join(_non_finite_lapack_calls)}").lstrip()
        _non_finite_lapack_calls.clear()
    return report


@pytest.fixture
def non_finite_lapack_calls():
    """The guard's record of the current test phase, for a test that passes a NaN on purpose
    and clears it."""
    return _non_finite_lapack_calls


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
