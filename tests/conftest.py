import numpy as np
import pytest

import disd
import lapack_guard
from disd.evolve import Propagator


def pytest_configure(config):
    """Install the non-finite LAPACK input guard once a session: a test phase that passes a NaN
    or an inf to LAPACK fails, whatever it asserts."""
    lapack_guard.install()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    message = lapack_guard.report()
    if message:
        report.outcome = "failed"
        report.longrepr = f"{report.longrepr or ''}\n{message}".lstrip()
    return report


@pytest.fixture
def non_finite_lapack_calls():
    """The guard's record of the current test phase, for a test that passes a NaN on purpose
    and clears it."""
    return lapack_guard.non_finite_lapack_calls


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
def haar_draws(monkeypatch):
    """A list that gains the dimension of each ``qcore.haar_unitary`` call during the test,
    also of those that ``disd.locality`` makes through the name it imported."""
    draws = []
    draw = disd.qcore.haar_unitary

    def counted(dim, seed):
        draws.append(dim)
        return draw(dim, seed)

    for module in (disd.qcore, disd.locality):
        monkeypatch.setattr(module, "haar_unitary", counted)
    return draws


@pytest.fixture
def job_route(monkeypatch):
    """``job_route(job, *args)``: the route that ``evolve._route`` picks for ``job(*args)``.

    The job stops as the route is picked, before any stream starts, so the sizes of the
    stacks it evolves are priced as the job prices them and never copied into a test.
    """
    class Picked(Exception):
        pass

    route = disd.evolve._route

    def picked(job, *args, **kwargs):
        routes = []

        def spy(*route_args):
            routes.append(route(*route_args))
            raise Picked

        monkeypatch.setattr(disd.evolve, "_route", spy)
        try:
            job(*args, **kwargs)
        except Picked:
            pass
        finally:
            monkeypatch.setattr(disd.evolve, "_route", route)
        (got,) = routes
        return got

    return picked


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
