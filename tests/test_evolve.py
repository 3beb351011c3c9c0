import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from disd.evolve import (
    Propagator,
    perturbation_data,
    product_approx,
    propagate,
    residuals_along,
)
from disd.model import ModelSpec, assemble_hamiltonian, build_canonical, initial_state
from disd.qcore import Dims, ValidationError

from oracles import residuals_per_row, rs2_table_bruteforce
from test_locality import ORACLE_CASES, ORACLE_IDS, oracle_case

# Frozen from the brute-force oracle for seed 1, dims (2,2,2), c1=4, c2=0.5.
RS2_TABLE_SEED1 = np.array([
    [0.10441571552433715, -0.07935865840590733],
    [0.01701361205136436, -0.01293078748016771],
])


def diagonal_explicit_spec():
    """All-diagonal model with a planted robust/orthogonal eigenvalue collision."""
    dims = Dims(2, 2, 2)
    return ModelSpec(
        dims=dims,
        h_a=np.diag([0.6, -0.2]).astype(complex),
        h_c=np.diag([0.3, -0.9]).astype(complex),
        h_b=np.diag([0.4, -0.7]).astype(complex),
        h_ac=np.diag([1.0, -0.5, 0.25, -1.0]).astype(complex),
        h_cb=np.diag([1.0, -1.0, 1.0, -0.6]).astype(complex),
        c1=2.0, c2=0.3,
    )


class TestPropagate:
    def test_time_zero(self, spec233, init233):
        traj = propagate(spec233, init233, [0.0, 0.5])
        assert np.array_equal(traj.psi0, initial_state(init233, spec233.dims))
        assert np.array_equal(traj.states[0], traj.psi0)

    def test_zero_hamiltonian(self, dims233, init233):
        psi0 = initial_state(init233, dims233)
        prop = Propagator(np.zeros((dims233.total, dims233.total)))
        for s in prop.evolve_many(psi0, [0.0, 1.0, 2.0]):
            assert_allclose(s, psi0, atol=1e-12)

    def test_two_step_group_law(self, spec233, init233):
        psi0 = initial_state(init233, spec233.dims)
        t1, t2 = 0.9, 1.4
        prop = Propagator(assemble_hamiltonian(spec233))
        one = prop.apply(psi0, t1 + t2)
        two = prop.apply(prop.apply(psi0, t1), t2)
        assert np.linalg.norm(one - two) <= 1e-9

    def test_norm_preserved(self, spec233, init233):
        traj = propagate(spec233, init233, np.linspace(0, 20, 50))
        assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() <= 1e-9

    def test_energy_conserved(self, spec233, init233):
        h = assemble_hamiltonian(spec233)
        traj = propagate(spec233, init233, np.linspace(0, 10, 30))
        energies = [np.vdot(s, h @ s).real for s in traj.states]
        assert max(energies) - min(energies) <= 1e-8

    def test_rejects_unsorted_times(self, spec233, init233):
        with pytest.raises(ValueError):
            propagate(spec233, init233, [0.0, 2.0, 1.0])

    def test_rejects_wrong_state_dim(self, spec233, init233):
        wrong = dataclasses.replace(init233, alpha=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="alpha has length"):
            propagate(spec233, wrong, [0.0])

    def test_evolve_many_matches_apply(self, spec233, init233):
        psi0 = initial_state(init233, spec233.dims)
        prop = Propagator(assemble_hamiltonian(spec233))
        times = np.array([0.0, 0.3, 1.1])
        stacked = prop.evolve_many(psi0, times)
        for k, t in enumerate(times):
            assert_allclose(stacked[k], prop.apply(psi0, t), atol=1e-12)


class TestPerturbationData:
    def test_zero_coupling_gives_zero_table(self, dims233):
        spec = build_canonical(dims233, 2, 3.0, 0.0)
        pd = perturbation_data(spec)
        assert np.abs(pd.lambda_i0j).max() == 0.0
        assert pd.lambda_sup == 0.0
        assert pd.gap_warnings == []

    def test_lambda_sup_inverse_in_c1(self, dims233):
        pd1 = perturbation_data(build_canonical(dims233, 2, 2.0, 0.4))
        pd10 = perturbation_data(build_canonical(dims233, 2, 20.0, 0.4))
        ratio = pd1.lambda_sup / pd10.lambda_sup
        assert ratio == pytest.approx(10.0, rel=0.15)

    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_matches_bruteforce_oracle(self, dims222, seed):
        spec = build_canonical(dims222, seed, 4.0, 0.5)
        pd = perturbation_data(spec)
        oracle = rs2_table_bruteforce(spec)
        assert np.abs(pd.lambda_i0j - oracle).max() <= 1e-9

    def test_frozen_oracle_values(self, spec222):
        pd = perturbation_data(spec222)
        assert_allclose(pd.lambda_i0j, RS2_TABLE_SEED1, atol=1e-9)

    def test_lambda_sup_consistent_with_table(self, spec222):
        pd = perturbation_data(spec222)
        assert pd.lambda_sup == np.abs(pd.lambda_i0j).max()

    def test_table_is_real_float(self, spec222):
        pd = perturbation_data(spec222)
        assert pd.lambda_i0j.dtype == np.float64

    def test_bases_orthonormal(self, spec233):
        pd = perturbation_data(spec233)
        for vecs in (pd.a_vecs, pd.b_vecs):
            gram = vecs.conj().T @ vecs
            assert np.abs(gram - np.eye(vecs.shape[1])).max() <= 1e-10

    def test_lambda0_is_robust_eigenvalue(self, spec233):
        pd = perturbation_data(spec233)
        e0 = np.zeros(spec233.dims.c)
        e0[spec233.robust_index] = 1.0
        assert pd.lambda0 == pytest.approx(np.vdot(e0, spec233.h_c @ e0).real, abs=1e-12)

    def test_gap_warnings_on_planted_collision(self):
        spec = diagonal_explicit_spec()
        pd = perturbation_data(spec)
        assert len(pd.gap_warnings) == 1
        j, m, gap = pd.gap_warnings[0]
        assert abs(gap) < 1e-8 * spec.c1

    def test_rejects_commutator_violation(self, dims222):
        spec = diagonal_explicit_spec()
        bad_h_a = np.array([[0.2, 0.5], [0.5, -0.2]], dtype=complex)
        with pytest.raises(ValidationError):
            perturbation_data(dataclasses.replace(spec, h_a=bad_h_a))

    def test_rejects_hc_leakage(self):
        spec = diagonal_explicit_spec()
        bad_h_c = np.array([[0.3, 0.4], [0.4, -0.9]], dtype=complex)
        with pytest.raises(ValidationError):
            perturbation_data(dataclasses.replace(spec, h_c=bad_h_c))

    def test_rejects_robustness_violation(self, spec233):
        h = spec233.h_cb.copy()
        d_b = spec233.dims.b
        h[1 * d_b, 0 * d_b] += 1e-3
        h[0 * d_b, 1 * d_b] += 1e-3
        with pytest.raises(ValidationError):
            perturbation_data(dataclasses.replace(spec233, h_cb=h))

    def test_hermitian_part_invariance(self, spec222):
        pd = perturbation_data(spec222)
        rng = np.random.default_rng(0)
        s = rng.standard_normal(spec222.h_ac.shape)
        anti = 1e-13j * (s + s.T)
        perturbed = dataclasses.replace(spec222, h_ac=spec222.h_ac + anti)
        pd2 = perturbation_data(perturbed)
        assert np.abs(pd.lambda_i0j - pd2.lambda_i0j).max() <= 1e-10


class TestProductApprox:
    def test_time_zero_equals_initial(self, spec233, init233):
        pd = perturbation_data(spec233)
        psi = product_approx(init233, pd, [0.0])
        psi0 = initial_state(init233, spec233.dims)
        assert psi.shape == (1, spec233.dims.total)
        assert np.abs(psi[0] - psi0).max() <= 1e-12

    def test_unit_norm_at_all_times(self, spec233, init233):
        pd = perturbation_data(spec233)
        psi = product_approx(init233, pd, [0.0, 0.7, 3.3, 12.0])
        assert np.abs(np.linalg.norm(psi, axis=1) - 1.0).max() <= 1e-12

    def test_exact_when_c2_zero(self, dims233, init233):
        spec = build_canonical(dims233, 2, 3.0, 0.0)
        pd = perturbation_data(spec)
        traj = propagate(spec, init233, np.linspace(0, 8, 40))
        res = residuals_along(traj, pd)
        assert res.max() <= 1e-9

    def test_rejects_foreign_pd(self, spec233, dims233, init233):
        other = build_canonical(dims233, 3, 8.0, 0.3)
        pd = perturbation_data(other)
        traj = propagate(spec233, init233, [0.0, 1.0])
        with pytest.raises(ValueError, match="different model"):
            residuals_along(traj, pd)


class TestApproxResidual:
    def test_zero_at_time_zero(self, spec233, init233):
        pd = perturbation_data(spec233)
        traj = propagate(spec233, init233, [0.0, 2.0])
        assert residuals_along(traj, pd)[0] <= 1e-12

    def test_chi_phase_invariance(self, spec233, init233):
        pd = perturbation_data(spec233)
        shifted = dataclasses.replace(init233, chi=init233.chi * np.exp(0.77j))
        times = [0.0, 2.0, 5.5]
        r1 = residuals_along(propagate(spec233, init233, times), pd)
        r2 = residuals_along(propagate(spec233, shifted, times), pd)
        assert np.abs(r1 - r2).max() <= 1e-12
        assert r1[1] > 1e-6

    def test_decreases_with_c1(self, dims233, init233):
        psi_res = {}
        times = np.linspace(0, 5, 80)
        for c1 in (4.0, 40.0):
            spec = build_canonical(dims233, 1, c1, 0.3)
            pd = perturbation_data(spec)
            traj = propagate(spec, init233, times)
            psi_res[c1] = residuals_along(traj, pd).max()
        assert psi_res[40.0] < psi_res[4.0]


class TestResidualsAgainstOracle:
    @pytest.mark.parametrize("factors, c2", ORACLE_CASES, ids=ORACLE_IDS)
    def test_stacked_matches_per_row_route(self, factors, c2):
        spec, init, times = oracle_case(factors, c2)
        pd = perturbation_data(spec)
        traj = propagate(spec, init, times)
        expected = residuals_per_row(spec, init, pd, traj.times, traj.states)
        assert_allclose(residuals_along(traj, pd), expected, rtol=0, atol=1e-12)
        if c2 == 0:
            assert expected.max() <= 1e-9
        else:
            assert expected.max() > 1e-3
