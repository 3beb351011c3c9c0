import numpy as np
import pytest
from numpy.testing import assert_allclose

import disd
from disd.decompose import planted_sequential
from disd.evolve import Propagator, perturbation_data, propagate, residuals_along
from disd.locality import (
    mi_trajectory,
    signaling_test,
    signaling_test_unitary,
    tau_estimate,
)
from disd.model import InitialSpec, assemble_hamiltonian, build_canonical, initial_state
from disd.qcore import Dims, haar_unitary, rdm_from_state, vn_entropy
from oracles import mi_per_row, signaling_per_row


class TestMiTrajectory:
    def test_zero_at_start(self, spec233, init233):
        traj = propagate(spec233, init233, [0.0])
        assert mi_trajectory(traj)[0] <= 1e-12

    def test_decoupled_when_c2_zero(self, dims233, init233):
        spec = build_canonical(dims233, 4, 3.0, 0.0)
        traj = propagate(spec, init233, np.linspace(0, 20, 60))
        assert mi_trajectory(traj).max() <= 1e-10

    def test_correlations_appear_at_long_horizon(self, dims233, init233):
        spec = build_canonical(dims233, 1, 1.0, 0.2)
        traj = propagate(spec, init233, np.linspace(0, 50, 400))
        assert mi_trajectory(traj).max() > 0.01

    def test_bounded_by_smaller_subsystem(self, spec233, init233):
        traj = propagate(spec233, init233, np.linspace(0, 30, 40))
        bound = 2 * min(np.log2(spec233.dims.a), np.log2(spec233.dims.b))
        assert mi_trajectory(traj).max() <= bound + 1e-9


class TestSignaling:
    def test_decoupled_b_to_a(self, dims233, init233):
        spec = build_canonical(dims233, 4, 3.0, 0.0)
        traj = propagate(spec, init233, np.linspace(0, 10, 20))
        out = signaling_test(traj, "b_to_a", n_samples=16, seed=5)
        assert out.max() <= 1e-10

    def test_no_signaling_when_a_uncorrelated(self, dims233, init233):
        # I(A:CB) stays zero without the A-C coupling, so B cannot reach A
        spec = build_canonical(dims233, 4, 3.0, 0.0)
        traj = propagate(spec, init233, np.linspace(0, 10, 20))
        d = dims233
        for s in traj.states:
            s_a = vn_entropy(rdm_from_state(s, d.factors, (0,)))
            assert 2 * s_a <= 1e-10  # I(A:CB) = 2 S(A) for a pure global state
        out = signaling_test(traj, "b_to_a", n_samples=8, seed=1)
        assert out.max() <= 1e-10

    def test_canonical_signaling_appears(self, dims233, init233):
        spec = build_canonical(dims233, 1, 1.0, 0.2)
        traj = propagate(spec, init233, np.linspace(0, 50, 60))
        out = signaling_test(traj, "b_to_a", n_samples=8, seed=2)
        assert out.max() > 1e-3

    def test_sample_max_nested_in_n_samples(self, spec233, init233):
        traj = propagate(spec233, init233, np.linspace(0, 5, 10))
        small = signaling_test(traj, "b_to_a", n_samples=1, seed=9)
        large = signaling_test(traj, "b_to_a", n_samples=8, seed=9)
        assert np.all(large >= small - 1e-15)

    def test_deterministic_for_fixed_seed(self, spec233, init233):
        traj = propagate(spec233, init233, np.linspace(0, 5, 6))
        a = signaling_test(traj, "a_to_b", n_samples=4, seed=3)
        b = signaling_test(traj, "a_to_b", n_samples=4, seed=3)
        assert np.array_equal(a, b)

    def test_global_phase_invariance(self, spec233, init233):
        import dataclasses
        times = np.linspace(0, 5, 6)
        shifted = dataclasses.replace(init233, alpha=init233.alpha * np.exp(0.3j))
        a = signaling_test(propagate(spec233, init233, times), "b_to_a", n_samples=4, seed=3)
        b = signaling_test(propagate(spec233, shifted, times), "b_to_a", n_samples=4, seed=3)
        assert np.abs(a - b).max() <= 1e-12

    def test_rejects_bad_direction(self, spec233, init233):
        traj = propagate(spec233, init233, [0.0])
        with pytest.raises(ValueError):
            signaling_test(traj, "c_to_a", n_samples=1)

    def test_rejects_zero_samples(self, spec233, init233):
        traj = propagate(spec233, init233, [0.0])
        with pytest.raises(ValueError):
            signaling_test(traj, "b_to_a", n_samples=0)


class TestSignalingOneShot:
    def test_sequential_unitary_blocks_b_to_a(self, dims222, init222):
        psi0 = initial_state(init222, dims222, 0)
        for seed in range(5):
            u = planted_sequential(dims222, seed)
            out = signaling_test_unitary(u, psi0, dims222, "b_to_a",
                                         n_samples=32, seed=seed)
            assert out <= 1e-10

    def test_sequential_unitary_is_one_directional(self, dims222, init222):
        psi0 = initial_state(init222, dims222, 0)
        forward = [signaling_test_unitary(planted_sequential(dims222, s), psi0,
                                          dims222, "a_to_b", n_samples=32, seed=s)
                   for s in range(5)]
        assert max(forward) > 1e-3

    def test_generic_unitary_signals_both_ways(self, dims222, init222):
        psi0 = initial_state(init222, dims222, 0)
        u = haar_unitary(dims222.total, 77)
        ba = signaling_test_unitary(u, psi0, dims222, "b_to_a", n_samples=16, seed=0)
        ab = signaling_test_unitary(u, psi0, dims222, "a_to_b", n_samples=16, seed=0)
        assert ba > 1e-3 and ab > 1e-3


class TestSamplerSanity:
    def test_local_unitary_preserves_target_spectrum(self, dims233, init233):
        # applying G on B must not change S(rho_B) of the unevolved state
        psi0 = initial_state(init233, dims233, 0)
        base = vn_entropy(rdm_from_state(psi0, dims233.factors, (2,)))
        from disd.locality import _apply_local
        for k in range(8):
            g = haar_unitary(dims233.b, disd.derive_seed(3, "sanity", k))
            mod = _apply_local(psi0, g, dims233, 2)
            assert abs(vn_entropy(rdm_from_state(mod, dims233.factors, (2,))) - base) <= 1e-10


class TestTauEstimate:
    def test_absent_when_never_crossed(self):
        assert tau_estimate([0.0, 1.0, 2.0], [0.0, 0.001, 0.002], 0.01) is None

    def test_linear_interpolation(self):
        assert tau_estimate([0.0, 1.0], [0.0, 0.02], 0.01) == pytest.approx(0.5)

    def test_crossing_at_first_sample(self):
        assert tau_estimate([2.0, 3.0], [0.05, 0.2], 0.01) == 2.0

    def test_monotone_in_c1(self, dims233, init233):
        taus = []
        for c1 in (1.0, 2.0, 4.0):
            spec = build_canonical(dims233, 1, c1, 0.2)
            times = np.linspace(0, 50 * c1, 600)
            traj = propagate(spec, init233, times)
            taus.append(tau_estimate(times, mi_trajectory(traj), 0.01))
        assert all(t is not None for t in taus)
        assert taus[0] < taus[1] < taus[2]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            tau_estimate([0.0], [0.0], 0.0)


class TestOneEigensystem:
    def test_one_trajectory_serves_every_diagnostic(self, spec233, init233, propagator_builds):
        traj = propagate(spec233, init233, np.linspace(0, 5, 12))
        mi_trajectory(traj)
        residuals_along(traj, perturbation_data(spec233))
        for direction in ("b_to_a", "a_to_b"):
            signaling_test(traj, direction, n_samples=3, seed=1)
        assert propagator_builds == [(spec233.dims.total, spec233.dims.total)]

    def test_evolve_reuses_the_trajectory_eigensystem(self, spec233, init233):
        traj = propagate(spec233, init233, np.linspace(0, 5, 12))
        assert np.array_equal(traj.evolve(traj.psi0), traj.states)


# (dims, c2): d_A*d_B > d_C in all but 2x5x2; c2 = 0 keeps A and B uncorrelated
ORACLE_CASES = [((2, 2, 2), 0.5), ((2, 3, 4), 0.5), ((3, 2, 2), 0.5),
                ((2, 5, 2), 0.5), ((2, 3, 4), 0.0)]
ORACLE_IDS = ["2x2x2", "2x3x4", "3x2x2", "2x5x2", "2x3x4-c2-zero"]


def oracle_case(factors, c2):
    dims = Dims(*factors)
    rng = np.random.default_rng(sum(factors))
    alpha, chi = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (dims.a, dims.b))
    init = InitialSpec(alpha=alpha / np.linalg.norm(alpha), chi=chi / np.linalg.norm(chi))
    return build_canonical(dims, 3, 2.0, c2), init, np.linspace(0, 12, 25)


class TestBatchedAgainstOracles:
    @pytest.mark.parametrize("factors, c2", ORACLE_CASES, ids=ORACLE_IDS)
    def test_mi_matches_per_row_route(self, factors, c2):
        spec, init, times = oracle_case(factors, c2)
        traj = propagate(spec, init, times)
        expected = mi_per_row(traj.states, spec.dims)
        assert_allclose(mi_trajectory(traj), expected, rtol=0, atol=1e-12)
        if c2 == 0:
            assert expected.max() <= 1e-10
        else:
            assert expected.max() > 1e-3

    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    @pytest.mark.parametrize("factors, c2", ORACLE_CASES, ids=ORACLE_IDS)
    def test_signaling_matches_per_row_loop(self, factors, c2, direction):
        spec, init, times = oracle_case(factors, c2)
        prop = Propagator(assemble_hamiltonian(spec))
        evolve = lambda psi: prop.evolve_many(psi, times)
        psi0 = initial_state(init, spec.dims, spec.robust_index)
        expected = signaling_per_row(evolve, psi0, evolve(psi0), spec.dims,
                                             direction, n_samples=5, seed=2)
        got = signaling_test(propagate(spec, init, times), direction, n_samples=5, seed=2)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    @pytest.mark.parametrize("factors, c2", ORACLE_CASES, ids=ORACLE_IDS)
    def test_signaling_through_trajectory_evolve_matches_per_row_loop(self, factors, c2,
                                                                       direction):
        spec, init, times = oracle_case(factors, c2)
        traj = propagate(spec, init, times)
        expected = signaling_per_row(traj.evolve, traj.psi0, traj.states, spec.dims,
                                     direction, n_samples=5, seed=2)
        got = signaling_test(traj, direction, n_samples=5, seed=2)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    @pytest.mark.parametrize("factors", [c[0] for c in ORACLE_CASES[:4]], ids=ORACLE_IDS[:4])
    def test_one_shot_signaling_matches_per_row_loop(self, factors, direction):
        _, init, _ = oracle_case(factors, 0.5)
        dims = Dims(*factors)
        u = haar_unitary(dims.total, 4)
        psi0 = initial_state(init, dims, 0)
        evolve = lambda psi: (u @ psi)[None, :]
        expected = signaling_per_row(evolve, psi0, evolve(psi0), dims,
                                             direction, n_samples=5, seed=2)
        got = signaling_test_unitary(u, psi0, dims, direction, n_samples=5, seed=2)
        assert abs(got - expected[0]) <= 1e-12
