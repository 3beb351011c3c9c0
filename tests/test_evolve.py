import dataclasses
import importlib
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from disd import evolve
from disd.config import initial_from_config, model_from_config, parse_config, times_from_config
from disd.evolve import (
    _CHEB_CHUNK,
    _CHEB_POINTS,
    CHEB_TOL,
    CHEB_Z_MAX,
    Chebyshev,
    PerturbationData,
    Propagator,
    perturbation_data,
    product_approx,
    propagate,
    row_norms,
    simulate_columns,
)
from disd.locality import _source_stack, locality_columns
from disd.model import (InitialSpec, ModelSpec, assemble_hamiltonian, build_canonical,
                        initial_state, place_robust)
from disd.qcore import Dims, ValidationError

from oracles import (apply_2x, chebyshev_operator, chebyshev_series_exact, dense_exponential,
                     dense_spectral_bounds, energy_table, evolved_states, expm_longdouble,
                     lambda_per_index, psi0_stream, residuals_per_row, route_states,
                     rs2_table_bruteforce)
from test_locality import ORACLE_CASES, ORACLE_IDS, oracle_case
from test_model import planted_h_cb

# Frozen from the brute-force oracle for seed 1, dims (2,2,2), c1=4, c2=0.5.
RS2_TABLE_SEED1 = np.array([
    [0.10441571552433715, -0.07935865840590733],
    [0.01701361205136436, -0.01293078748016771],
])


def planted_gap_spec():
    """A 2x3x4 canonical model with one orthogonal-sector energy of h_cb moved onto a robust one.

    The orthogonal block's middle eigenvalue is set to the second robust-sector one, so exactly
    one denominator c1 (b_j - p_m) is a roundoff zero and is skipped with a gap warning, while
    the generic h_ac leaves every other term of the shift table in place.
    """
    spec = build_canonical(Dims(2, 3, 4), 1, 4.0, 0.5)
    t = spec.h_cb.reshape(3, 4, 3, 4).copy()
    b = np.linalg.eigvalsh(t[0, :, 0])
    perp = t[1:, :, 1:].reshape(8, 8)
    p, phi = np.linalg.eigh(perp)
    perp = perp + (b[1] - p[4]) * np.outer(phi[:, 4], phi[:, 4].conj())
    t[1:, :, 1:] = ((perp + perp.conj().T) / 2).reshape(2, 4, 2, 4)
    return dataclasses.replace(spec, h_cb=t.reshape(12, 12))


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
        psi0 = initial_state(init233, spec233.dims, spec233.robust_index)
        assert np.array_equal(evolved_states(spec233, init233, [0.0, 0.5])[0], psi0)

    def test_zero_hamiltonian(self, dims233, init233):
        psi0 = initial_state(init233, dims233, 0)
        prop = Propagator(np.zeros((dims233.total, dims233.total)))
        for s in prop.evolve_many(psi0, [0.0, 1.0, 2.0]):
            assert_allclose(s, psi0, atol=1e-12)

    def test_two_step_group_law(self, spec233, init233):
        psi0 = initial_state(init233, spec233.dims, spec233.robust_index)
        t1, t2 = 0.9, 1.4
        prop = Propagator(assemble_hamiltonian(spec233))
        one = prop.apply(psi0, t1 + t2)
        two = prop.apply(prop.apply(psi0, t1), t2)
        assert np.linalg.norm(one - two) <= 1e-9

    def test_norm_preserved(self, spec233, init233):
        states = evolved_states(spec233, init233, np.linspace(0, 20, 50))
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-9

    def test_energy_conserved(self, spec233, init233):
        h = assemble_hamiltonian(spec233)
        states = evolved_states(spec233, init233, np.linspace(0, 10, 30))
        energies = [np.vdot(s, h @ s).real for s in states]
        assert max(energies) - min(energies) <= 1e-8

    def test_rejects_unsorted_times(self, spec233, init233):
        with pytest.raises(ValueError):
            psi0_stream(spec233, init233, [0.0, 2.0, 1.0])

    @pytest.mark.parametrize("times, message", [
        ([], "times must be a non-empty 1-D sequence"),
        ([0.0, 2.0, 1.0], "times must be strictly increasing"),
    ], ids=["empty", "unsorted"])
    def test_simulate_columns_rejects_a_bad_grid_as_propagate_does(self, spec233, init233, times,
                                                                    message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_columns(spec233, init233, times)

    @pytest.mark.parametrize("times", [[np.nan], [np.inf], [0.0, np.inf], [0.0, np.nan],
                                       [-np.inf, 0.0]],
                             ids=["nan", "inf", "zero-inf", "zero-nan", "minus-inf-zero"])
    @pytest.mark.parametrize("job", [psi0_stream, simulate_columns, locality_columns],
                             ids=["propagate", "simulate_columns", "locality_columns"])
    def test_non_finite_grid_is_rejected_before_any_route(self, spec233, init233,
                                                          propagator_builds, job, times):
        # a grid that got past the check would reach the phase guard, which refuses an error
        # of nan or inf with its own message, after building a Chebyshev
        with pytest.raises(ValueError, match="^times must be finite$"):
            job(spec233, init233, times)
        assert propagator_builds == []

    def test_rejects_wrong_state_dim(self, spec233, init233):
        wrong = dataclasses.replace(init233, alpha=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"^alpha has length \(3,\), expected 2$"):
            simulate_columns(spec233, wrong, [0.0])

    @pytest.mark.parametrize("shape", [(18,), (0, 18), (1, 17), (1, 1, 18), ()],
                             ids=["one-state", "no-state", "wrong-length", "3-d", "scalar"])
    def test_rejects_a_stack_that_is_not_k_states_before_any_route(self, spec233, monkeypatch,
                                                                   propagator_builds, shape):
        # a 1-D state would be read as 18 states of one number each: it is refused, by shape,
        # with the grid checked first and no route built
        cheb_builds = []
        monkeypatch.setattr(Chebyshev, "__init__", lambda self, spec: cheb_builds.append(spec))
        good = np.eye(spec233.dims.total)[:1]
        with pytest.raises(ValueError, match=rf"^a stack must have shape \(k, 18\) with k >= 1, "
                                             rf"got {re.escape(str(shape))}$"):
            propagate(spec233, [0.0, 1.0], [good, np.ones(shape, dtype=complex)])
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            propagate(spec233, [1.0, 0.0], [np.ones(shape, dtype=complex)])
        assert propagator_builds == [] and cheb_builds == []

    @pytest.mark.parametrize("stacks, message", [
        ([2 * np.eye(18)[:1]], "stack 0, row 0: norm 2"),
        ([np.eye(18)[:2], np.eye(18)[:2] * [[1.0], [np.nan]]], "stack 1, row 1: norm nan"),
    ], ids=["twice-a-unit-state", "nan-row"])
    def test_rejects_a_row_that_is_not_a_unit_state_before_any_route(self, spec233, monkeypatch,
                                                                     propagator_builds, stacks,
                                                                     message):
        # such a row would otherwise evolve and fail at its first block as a propagation norm
        # drift, which blames the propagation for its input; the shapes are checked first
        cheb_builds = []
        monkeypatch.setattr(Chebyshev, "__init__", lambda self, spec: cheb_builds.append(spec))
        with pytest.raises(ValueError, match=rf"^{message} is not 1 within 1\.0e-08$"):
            propagate(spec233, [0.0, 1.0], stacks)
        with pytest.raises(ValueError, match=r"^a stack must have shape \(k, 18\)"):
            propagate(spec233, [0.0, 1.0], [*stacks, np.ones(18)])
        assert propagator_builds == [] and cheb_builds == []

    def test_apply_and_evolve_many_match_a_dense_exponential(self, spec233, init233):
        psi0 = initial_state(init233, spec233.dims, spec233.robust_index)
        h = assemble_hamiltonian(spec233)
        prop = Propagator(h)
        times = np.array([0.0, 0.3, 1.1, 7.5])
        stacked = prop.evolve_many(psi0, times)
        for k, t in enumerate(times):
            expected = dense_exponential(h, t) @ psi0
            assert_allclose(stacked[k], expected, rtol=0, atol=1e-12)
            assert_allclose(prop.apply(psi0, t), expected, rtol=0, atol=1e-12)


class TestRobustInitialState:
    """C starts in the model's robust state, whichever basis index that is."""

    def test_trajectory_starts_in_the_model_robust_state(self, init233):
        spec = build_canonical(Dims(2, 3, 3), 1, 8.0, 0.3, robust_index=1)
        times = np.linspace(0, 5, 12)
        states = evolved_states(spec, init233, times)
        psi0 = states[0].reshape(spec.dims.factors)
        assert np.count_nonzero(psi0[:, [0, 2], :]) == 0
        assert np.array_equal(psi0[:, 1, :], np.outer(init233.alpha, init233.chi))
        pd, columns = simulate_columns(spec, init233, times)
        expected = residuals_per_row(spec, init233, pd, times, states)
        assert_allclose(columns["residual_eq4"], expected, rtol=0, atol=1e-12)
        assert expected[0] <= 1e-12


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

    @pytest.mark.parametrize("dims, robust_index", [
        ((2, 2, 2), 0), *(((2, 3, 4), r) for r in range(3)), *(((3, 4, 2), r) for r in range(4)),
    ])
    @pytest.mark.parametrize("seed", [1, 2, 3, 11])
    def test_matches_bruteforce_oracle(self, dims, robust_index, seed):
        spec = build_canonical(Dims(*dims), seed, 4.0, 0.5, robust_index)
        pd = perturbation_data(spec)
        oracle = rs2_table_bruteforce(spec)
        assert np.abs(pd.lambda_i0j - oracle).max() <= 1e-9

    @pytest.mark.parametrize("case", [
        ((2, 3, 4), 1, 0, 0.5), ((2, 3, 4), 2, 0, 0.5), ((3, 4, 5), 3, 2, 0.5),
        ((3, 4, 5), 11, 3, 0.5), ((2, 5, 3), 1, 1, 0.5), ((3, 4, 5), 2, 1, 0.0), "gap-warning"],
        ids=["2x3x4-seed1", "2x3x4-seed2", "3x4x5-r2", "3x4x5-r3", "2x5x3-r1", "c2-zero",
             "gap-warning"])
    def test_contracted_table_matches_the_per_index_sum(self, case):
        # the table summed over C first, sum_cc' g[i, c, c'] k[c, c', j], against the sum over
        # every matrix element one A index at a time and against the full-space dense sum; at
        # c2 = 0 it is exactly 0, and a skipped denominator is skipped by all three
        if case == "gap-warning":
            spec = planted_gap_spec()
        else:
            factors, seed, r, c2 = case
            spec = build_canonical(Dims(*factors), seed, 4.0, c2, r)
        pd = perturbation_data(spec)
        assert len(pd.gap_warnings) == (1 if case == "gap-warning" else 0)
        assert_allclose(pd.lambda_i0j, lambda_per_index(spec, pd), rtol=0, atol=1e-12)
        assert_allclose(pd.lambda_i0j, rs2_table_bruteforce(spec), rtol=0, atol=1e-12)
        if spec.c2 == 0:
            assert not pd.lambda_i0j.any()
        else:
            assert pd.lambda_sup > 1e-3

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

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(PerturbationData)] == [
            "spec", "a_vecs", "b_vecs", "energies", "lambda_i0j", "lambda_sup", "gap_warnings"]

    @pytest.mark.parametrize("robust_index", [0, 2])
    def test_energies_match_the_spec(self, dims233, robust_index):
        spec = build_canonical(dims233, 4, 6.0, 0.7, robust_index=robust_index)
        pd = perturbation_data(spec)
        assert pd.energies.dtype == np.float64
        assert_allclose(pd.energies, energy_table(spec, pd), rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_rejects_commutator_violation_at_any_scale(self, scale):
        spec = diagonal_explicit_spec()
        bad_h_a = scale * np.array([[0.2, 0.5], [0.5, -0.2]], dtype=complex)
        message = r"^\[h_a, A0\] norm .* > 1e-08 \|\|X\|\| \|\|Y\|\| = "
        with pytest.raises(ValidationError, match=message):
            perturbation_data(dataclasses.replace(spec, h_a=bad_h_a))

    @pytest.mark.parametrize("c1, c2, h_a_scale", [
        (1e13, 1e10, 1.0), (1e13, 1e-300, 1.0), (4.0, 1e6, 1.0), (4.0, 0.5, 1e12)])
    def test_commutator_bound_is_scale_free(self, dims233, c1, c2, h_a_scale):
        # the canonical h_a commutes with A0 to ~1e-17 relative; at c2 = 1e10, or
        # with h_a scaled by 1e12, the absolute norm of [h_a, c2 A0] is above 1e-8
        spec = build_canonical(dims233, 1, c1, c2)
        spec = dataclasses.replace(spec, h_a=h_a_scale * spec.h_a)
        a0 = c2 * spec.robust_block_a()
        assert (np.linalg.norm(spec.h_a @ a0 - a0 @ spec.h_a, 2)
                <= 1e-14 * np.linalg.norm(spec.h_a, 2) * np.linalg.norm(a0, 2))
        assert np.isfinite(perturbation_data(spec).energies).all()

    def test_c2_zero_leaves_no_a0_to_commute_with(self):
        spec = dataclasses.replace(diagonal_explicit_spec(), c2=0.0,
                                   h_a=np.array([[0.2, 0.5], [0.5, -0.2]], dtype=complex))
        assert perturbation_data(spec).lambda_sup == 0.0

    @pytest.mark.parametrize("c1", [1e-310, 5e-324])
    def test_tiny_c1_is_named_validation_error(self, dims233, c1):
        # 1/(c1 * gap) overflows, so the shift table would hold inf and nan
        with pytest.raises(ValidationError, match=rf"^c1 = {c1:.3e} is too small for c2"):
            perturbation_data(build_canonical(dims233, 2, c1, 0.4))

    def test_rejects_hc_leakage(self):
        spec = diagonal_explicit_spec()
        bad_h_c = np.array([[0.3, 0.4], [0.4, -0.9]], dtype=complex)
        with pytest.raises(ValidationError):
            perturbation_data(dataclasses.replace(spec, h_c=bad_h_c))

    def test_rejects_robustness_violation(self, spec233):
        # no model that violates it reaches perturbation_data: ModelSpec rejects it
        with pytest.raises(ValidationError, match="max cross-block entry 1.000e-03"):
            spec = dataclasses.replace(spec233, h_cb=planted_h_cb(spec233.dims, 0, 1e-3))
            perturbation_data(spec)

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
        ab = product_approx(init233, pd, [0.0])
        psi0 = initial_state(init233, spec233.dims, spec233.robust_index)
        assert ab.shape == (1, 2, 3)  # (T, d_A, d_B): the product form holds no C index
        assert np.abs(place_robust(ab[0], spec233.dims, spec233.robust_index) - psi0).max() <= 1e-12

    def test_unit_norm_at_all_times(self, spec233, init233):
        pd = perturbation_data(spec233)
        ab = product_approx(init233, pd, [0.0, 0.7, 3.3, 12.0])
        assert ab.shape == (4, 2, 3)
        assert np.abs(np.linalg.norm(ab, axis=(1, 2)) - 1.0).max() <= 1e-12

    def test_exact_when_c2_zero(self, dims233, init233):
        spec = build_canonical(dims233, 2, 3.0, 0.0)
        _, columns = simulate_columns(spec, init233, np.linspace(0, 8, 40))
        assert columns["residual_eq4"].max() <= 1e-9


class TestApproxResidual:
    def test_zero_at_time_zero(self, spec233, init233):
        assert simulate_columns(spec233, init233, [0.0, 2.0])[1]["residual_eq4"][0] <= 1e-12

    def test_chi_phase_invariance(self, spec233, init233):
        shifted = dataclasses.replace(init233, chi=init233.chi * np.exp(0.77j))
        times = [0.0, 2.0, 5.5]
        r1, r2 = (simulate_columns(spec233, init, times)[1]["residual_eq4"]
                  for init in (init233, shifted))
        assert np.abs(r1 - r2).max() <= 1e-12
        assert r1[1] > 1e-6

    def test_decreases_with_c1(self, dims233, init233):
        psi_res = {}
        times = np.linspace(0, 5, 80)
        for c1 in (4.0, 40.0):
            spec = build_canonical(dims233, 1, c1, 0.3)
            psi_res[c1] = simulate_columns(spec, init233, times)[1]["residual_eq4"].max()
        assert psi_res[40.0] < psi_res[4.0]


class TestRowNorms:
    def test_matches_numpy_with_no_copy_of_the_states(self):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((200, 1024)) + 1j * rng.standard_normal((200, 1024))
        tracemalloc.start()
        got = row_norms(states)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < states.nbytes / 100  # np.linalg.norm allocates a copy the size of states
        assert_allclose(got, np.linalg.norm(states, axis=1), rtol=1e-15, atol=0)


# each oracle case at the first, a middle and the last C index: the residual writes into slice r
ROBUST_CASES = [pytest.param(factors, c2, r, id=name + (f"-r{r}" if r else ""))
                for (factors, c2), name in zip(ORACLE_CASES, ORACLE_IDS)
                for r in sorted({0, factors[1] // 2, factors[1] - 1})]


def robust_case(factors, c2, r):
    """``oracle_case`` with its model's robust C state at index r."""
    _, init, times = oracle_case(factors, c2)
    return build_canonical(Dims(*factors), 3, 2.0, c2, robust_index=r), init, times


class TestResidualsAgainstOracle:
    @staticmethod
    def check_against_oracle(spec, init, times, c2):
        pd, columns = simulate_columns(spec, init, times)
        expected = residuals_per_row(spec, init, pd, times, evolved_states(spec, init, times))
        assert_allclose(columns["residual_eq4"], expected, rtol=0, atol=1e-12)
        if c2 == 0:
            assert expected.max() <= 1e-9
        else:
            assert expected.max() > 1e-3

    @pytest.mark.parametrize("factors, c2, r", ROBUST_CASES)
    def test_stacked_matches_per_row_route(self, factors, c2, r):
        self.check_against_oracle(*robust_case(factors, c2, r), c2)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_chebyshev_route_matches_per_row_route(self, r, monkeypatch, job_route):
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", np.inf)  # every grid prefers Chebyshev
        case = robust_case((2, 3, 4), 0.5, r)
        assert isinstance(job_route(simulate_columns, *case), Chebyshev)
        self.check_against_oracle(*case, 0.5)

    def test_an_exact_row_orthogonal_to_the_product_form_is_sqrt2_away(self, spec233, init233):
        # a row outside the robust C state has zero overlap with the product form: no phase
        # aligns them, and the residual is sqrt(1 + 1)
        pd = perturbation_data(spec233)
        times = np.array([0.0, 1.5, 4.0])
        states = place_robust(product_approx(init233, pd, times[::-1]), spec233.dims, 1)
        expected = residuals_per_row(spec233, init233, pd, times, states)
        got = evolve._residuals(product_approx(init233, pd, times), states.copy(), 0)
        assert_allclose(got, np.sqrt(2), rtol=0, atol=1e-12)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_residual_holds_less_than_the_block_it_reads(self):
        # d_C = 8: the product form of a block is an eighth of it, so the residual of a block
        # must not form a (rows, n) array, as a zero-filled product form in n space would
        spec, init = uniform_case((4, 8, 16))
        pd = perturbation_data(spec)
        times = np.linspace(0, 5, 200)
        rows, states = next(psi0_stream(spec, init, times))
        tracemalloc.start()
        evolve._residuals(product_approx(init, pd, times[rows]), states[:, 0], 0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < states.nbytes


def uniform_case(factors, c1=50.0):
    """The benchmark's simulate model at other sizes: seed 7, c2 = 0.5, uniform amplitudes."""
    dims = Dims(*factors)
    init = InitialSpec(alpha=np.full(dims.a, dims.a ** -0.5), chi=np.full(dims.b, dims.b ** -0.5))
    return build_canonical(dims, 7, c1, 0.5), init


def both_routes(spec, init, times):
    """(Chebyshev, spectral) states of the product state of ``init`` on ``times``."""
    psi0 = initial_state(init, spec.dims, spec.robust_index)
    return (route_states(Chebyshev(spec), psi0, times),
            Propagator(assemble_hamiltonian(spec)).evolve_many(psi0, times))


def preset_case():
    """The ion-cage preset's model and initial amplitudes."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "presets" / "ion-cage.json")
                     .read_text())
    cfg = parse_config(doc)
    return model_from_config(cfg), initial_from_config(cfg)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
class TestAgainstExtendedPrecision:
    """Both routes against e^{-iHt} psi0 taken in long double, on the preset model."""

    @pytest.mark.parametrize("t", [20.0, 1e3])
    def test_error_stays_within_the_phase_error_of_double(self, t):
        # the phases e^{-iEt} of a double H carry about eps * max|E| * t: measured at one BLAS
        # thread, the spectral route's largest entry error is 0.99 of that at t = 20 and 0.92
        # at t = 1e3, the Chebyshev route's 0.02-0.03
        spec, init = preset_case()
        h = assemble_hamiltonian(spec)
        psi0 = initial_state(init, spec.dims, spec.robust_index)
        cheb = Chebyshev(spec)
        unit = np.finfo(float).eps * cheb.max_abs_energy * t
        u = expm_longdouble(h, t)
        assert np.abs(u.conj().T @ u - np.eye(len(u))).max() <= 1e-2 * unit  # the oracle holds
        exact = u @ psi0.astype(np.clongdouble)
        for got in (Propagator(h).evolve_many(psi0, [t])[0], route_states(cheb, psi0, [t])[0]):
            assert np.abs(got - exact).max() <= 2 * unit


class TestChebyshev:
    """The matrix-free stepper, called directly, against the spectral Propagator to 1e-12."""

    @pytest.mark.parametrize("factors, c2", ORACLE_CASES, ids=ORACLE_IDS)
    def test_oracle_models(self, factors, c2):
        spec, init, times = oracle_case(factors, c2)
        cheb, spectral = both_routes(spec, init, times)
        assert_allclose(cheb, spectral, rtol=0, atol=1e-12)
        assert np.array_equal(cheb[0], initial_state(init, spec.dims, spec.robust_index))

    @pytest.mark.parametrize("factors", [(8, 4, 16), (8, 4, 32)], ids=["8x4x16", "8x4x32"])
    def test_benchmark_grid(self, factors):
        spec, init = uniform_case(factors)
        cheb, spectral = both_routes(spec, init, np.linspace(0, 20, 200))
        assert_allclose(cheb, spectral, rtol=0, atol=1e-12)
        assert np.abs(np.linalg.norm(cheb, axis=1) - 1).max() <= 1e-12

    @pytest.mark.parametrize("times", [
        [0.0, 0.013, 0.2, 0.21, 1.7, 4.0, 9.5],
        [-3.0, -1.1, 0.0, 0.4, 2.5],
    ], ids=["non-uniform", "through-zero"])
    def test_non_uniform_grid(self, times):
        spec, init, _ = oracle_case((2, 3, 4), 0.5)
        cheb, spectral = both_routes(spec, init, times)
        assert_allclose(cheb, spectral, rtol=0, atol=1e-12)
        psi0 = initial_state(init, spec.dims, spec.robust_index)
        assert np.array_equal(cheb[times.index(0.0)], psi0)

    def test_grid_far_from_zero(self):
        spec, init, _ = oracle_case((3, 2, 2), 0.5)
        cheb, spectral = both_routes(spec, init, 40.0 + np.linspace(0, 3, 9))
        assert_allclose(cheb, spectral, rtol=0, atol=1e-12)

    def test_long_interval_is_sub_stepped(self):
        spec, init = uniform_case((2, 3, 4), c1=8.0)
        cheb = Chebyshev(spec)
        t = 10 * CHEB_Z_MAX / cheb._half
        (sub_steps, rows, coeffs), = cheb._plans(np.array([t]), 1)
        assert sub_steps == 10
        assert rows == slice(0, 1) and coeffs.shape[0] == 1
        assert coeffs.shape[1] <= 210
        got, spectral = both_routes(spec, init, [0.0, t])
        assert_allclose(got, spectral, rtol=0, atol=1e-12)

    def test_mixed_grid(self):
        # short intervals, a row at t = 0 in the middle, and one interval of 3 sub-steps
        spec, init = uniform_case((2, 3, 4), c1=8.0)
        cheb = Chebyshev(spec)
        long = 2.5 * CHEB_Z_MAX / cheb._half
        times = [-0.3, -0.2, -0.05, 0.0, 0.01, 0.1, 0.1 + long, 0.1 + long + 0.02, 0.1 + long + 0.5]
        plans = cheb._plans(np.array(times), len(times))
        # the row at t = 0 is a row like any other: every recurrence applies its series
        assert all(steps >= 1 and isinstance(coeffs, np.ndarray) and coeffs.ndim == 2
                   for steps, _, coeffs in plans)
        assert [steps for steps, _, _ in plans].count(3) == 1
        got, spectral = both_routes(spec, init, times)
        assert_allclose(got, spectral, rtol=0, atol=1e-12)
        assert np.array_equal(got[3], initial_state(init, spec.dims, spec.robust_index))

    def test_series_at_the_largest_step(self):
        a, length = evolve._chebyshev_coefficients(CHEB_Z_MAX)
        assert 0 < len(a) == length <= 210
        # against the exact series: the kept part agrees to the FFT's roundoff (6.2e-17
        # here), the cut tail is below CHEB_TOL
        exact = chebyshev_series_exact(CHEB_Z_MAX, _CHEB_POINTS // 2)
        assert_allclose(a, exact[:length], rtol=0, atol=4e-15)
        assert np.abs(exact[length:]).max() < CHEB_TOL
        x = np.cos(np.linspace(0, np.pi, 7))
        series = np.polynomial.chebyshev.chebval(x, a)
        assert_allclose(series, np.exp(-1j * CHEB_Z_MAX * x), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("z", [1e-3, -2.5, 20.0, 100.0, CHEB_Z_MAX, 190.0])
    def test_series_are_exact_well_below_the_cut(self, z):
        # the cut is decided at CHEB_TOL = 1e-15, so the kept coefficients must be far closer
        a, length = evolve._chebyshev_coefficients(z)
        exact = chebyshev_series_exact(z, _CHEB_POINTS // 2)
        assert_allclose(a, exact[:length], rtol=0, atol=2e-16)
        assert np.abs(exact[length:]).max() < CHEB_TOL

    def test_batched_series_match_one_at_a_time(self):
        z = np.array([0.0, 1e-3, -2.5, 7.0, CHEB_Z_MAX])
        a, lengths = evolve._chebyshev_coefficients(z)
        assert a.shape == (len(z), lengths.max())
        for row, zi, length in zip(a, z, lengths):
            one, one_length = evolve._chebyshev_coefficients(zi)
            assert one_length == length and len(one) == length
            assert_allclose(row[:length], one, rtol=0, atol=1e-16)
            assert not row[length:].any()

    def test_unconverged_series_raises(self):
        with pytest.raises(ValueError, match="no Chebyshev series of 512 points converges"):
            evolve._chebyshev_coefficients(250.0)
        with pytest.raises(ValueError, match=r"at \|z\| = 250$"):
            evolve._chebyshev_coefficients([1.0, -250.0])

    @pytest.mark.parametrize("factors, times", [
        ((8, 4, 32), np.linspace(0, 20, 200)),
        ((2, 3, 4), [0.0, 0.013, 0.2, 0.21, 1.7, 4.0, 9.5]),
        ((2, 3, 4), [-3.0, -1.1, 0.0, 0.4, 2.5]),
        ((2, 3, 4), [10 * CHEB_Z_MAX / 48.0, 11 * CHEB_Z_MAX / 48.0]),
    ], ids=["benchmark", "non-uniform", "through-zero", "long-interval"])
    def test_terms_count_the_applications_of_2x(self, factors, times, monkeypatch):
        spec, init = uniform_case(factors)
        cheb = Chebyshev(spec)
        calls = []
        apply = Chebyshev._apply

        def counted(self, src, dst, product):
            calls.append(len(product))
            return apply(self, src, dst, product)

        monkeypatch.setattr(Chebyshev, "_apply", counted)
        route_states(cheb, initial_state(init, spec.dims, spec.robust_index), times)
        # the terms past T_0 = v, its uses of 2X, over the blocks of no row limit
        terms = sum(steps * (coeffs.shape[1] - 1)
                    for steps, _, coeffs in cheb._plans(np.array(times), len(times)))
        assert terms == len(calls)
        assert terms >= cheb._half * np.abs(times).max()  # the lower bound of the route's pre-check
        if factors == (8, 4, 32):
            assert terms <= 1373  # one series per interval took 4776 here

    @pytest.mark.parametrize("length", [1, _CHEB_CHUNK, _CHEB_CHUNK + 1, 2 * _CHEB_CHUNK + 1])
    def test_block_across_chunk_boundaries(self, length):
        # the first z with a series of this length; one block serves z / 2 and z
        zs = np.linspace(0, 40, 4001)
        z = zs[np.argmax(evolve._chebyshev_coefficients(zs)[1] == length)]
        series, lengths = evolve._chebyshev_coefficients([z / 2, z])
        assert lengths[1] == series.shape[1] == length
        spec, _ = uniform_case((2, 3, 4), c1=8.0)
        cheb = Chebyshev(spec)
        deltas = np.array([z / 2, z]) / cheb._half
        coeffs = np.exp(-1j * cheb._center * deltas)[:, None] * series
        psi = random_stack(spec.dims.total, k=2)
        got = cheb._block(psi, coeffs, np.empty((2, *psi.shape), dtype=complex))
        want = Propagator(assemble_hamiltonian(spec)).evolve_many(psi, deltas)
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_stack_through_a_multi_chunk_block(self):
        spec, _ = uniform_case((2, 3, 4), c1=8.0)
        cheb = Chebyshev(spec)
        times = np.array([0.3, 0.6, 0.9]) * CHEB_Z_MAX / cheb._half
        (_, _, coeffs), = cheb._plans(times, len(times))
        assert coeffs.shape[1] > 2 * _CHEB_CHUNK
        psi = random_stack(spec.dims.total)
        stack = route_states(cheb, psi, times)
        for k, state in enumerate(psi):
            assert_allclose(stack[:, k], route_states(cheb, state, times), rtol=0, atol=1e-14)

    def test_spectral_bounds_contain_the_spectrum(self, spec233):
        cheb = Chebyshev(spec233)
        evals = np.linalg.eigvalsh(assemble_hamiltonian(spec233))
        assert cheb.lo <= evals[0] and evals[-1] <= cheb.hi
        assert cheb.max_abs_energy == max(abs(cheb.lo), abs(cheb.hi))

    def test_subnormal_half_width_takes_the_spectral_route(self, monkeypatch):
        # c1 = 1e-310 leaves a half-width of 5e-311, where 2 / half overflows: no 2X is formed,
        # and even a count that prices eigh at infinity keeps the spectral route
        robust = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        zero = np.zeros((2, 2), dtype=complex)
        spec = ModelSpec(dims=Dims(2, 2, 2), h_a=zero, h_c=zero, h_b=zero, h_ac=robust,
                         h_cb=robust, c1=1e-310, c2=0.0)
        cheb = Chebyshev(spec)
        assert cheb.subnormal and 0 < cheb._half < np.finfo(float).tiny
        assert np.isfinite(cheb._ac).all() and all(np.isfinite(b).all() for _, b in cheb._cb_t)
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", np.inf)
        assert isinstance(evolve._route(spec, np.linspace(0, 1e305, 50), [1])[0], Propagator)
        assert not Chebyshev(build_canonical(Dims(2, 2, 2), 1, 1e-300, 0.0)).subnormal

    def test_phase_guard_uses_the_spectral_bounds(self, spec233, monkeypatch, propagator_builds):
        # the one guard reads the Weyl bound of the blocks, at least the exact max|E|: a grid
        # within it takes either route, and one past it is refused before either is built
        limit = phase_limit(spec233)
        within = np.array([0.0, 0.99 * limit])
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", np.inf)  # every grid prefers Chebyshev
        assert isinstance(evolve._route(spec233, within, [1])[0], Chebyshev)
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", 0.0)  # every grid prefers eigh
        assert isinstance(evolve._route(spec233, within, [1])[0], Propagator)
        propagator_builds.clear()
        with pytest.raises(ValidationError, match="^phases lose their precision: "):
            evolve._route(spec233, np.array([0.0, 1.01 * limit]), [1])
        assert propagator_builds == []

    @pytest.mark.parametrize("job", [psi0_stream, locality_columns],
                             ids=["propagate", "locality_columns"])
    def test_a_window_past_the_guard_builds_no_propagator(self, spec233, init233,
                                                         propagator_builds, job):
        # this small model takes the spectral route: a guard that ran after the route would
        # pay its eigh first
        with pytest.raises(ValidationError, match="^phases lose their precision: "):
            job(spec233, init233, [0.0, 1e3 * phase_limit(spec233)])
        assert propagator_builds == []

    @pytest.mark.parametrize("case", ["nan", "past-both-guards", "past-the-weyl-guard"])
    @pytest.mark.parametrize("job", [simulate_columns, locality_columns],
                             ids=["simulate_columns", "locality_columns"])
    def test_a_bad_grid_raises_before_any_draw_eigh_or_block(self, spec233, init233, monkeypatch,
                                                            propagator_builds, haar_draws, job,
                                                            case):
        # the grid check, then the phase guards, come before the samples of the locality job
        # are drawn, before any eigh and before any state evolves. On the preset, t = 1.2e6
        # passes the product form's guard and fails the Weyl bound's (see below)
        blocks = []

        def counted(self, *args):
            blocks.append(args)
            return iter(())

        for route in (Propagator, Chebyshev):
            monkeypatch.setattr(route, "blocks", counted)
        spec, init, times, message = {
            "nan": (spec233, init233, [0.0, np.nan], "^times must be finite$"),
            "past-both-guards": (spec233, init233, [0.0, 1e3 * phase_limit(spec233)],
                                 "phases lose their precision"),
            "past-the-weyl-guard": (*preset_case(), np.linspace(0, 1.2e6, 401),
                                    "^phases lose their precision: "),
        }[case]
        with pytest.raises((ValueError, ValidationError), match=message):
            job(spec, init, times)
        assert haar_draws == [] and propagator_builds == [] and blocks == []

    def test_simulate_window_past_the_weyl_guard_builds_no_propagator(self, propagator_builds):
        # on the ion-cage preset the product form's guard allows t up to 1.557e6 and the
        # Weyl bound up to 9.043e5: t_max = 1.2e6 passes the first and fails the second
        doc = json.loads((Path(__file__).resolve().parents[1] / "presets" / "ion-cage.json")
                         .read_text())
        doc["time"]["t_max"] = 1.2e6
        cfg = parse_config(doc)
        spec, init, times = model_from_config(cfg), initial_from_config(cfg), times_from_config(cfg)
        assert 9.04e5 < phase_limit(spec) < 9.05e5
        perturbation_data(spec).check_phases(times)
        with pytest.raises(ValidationError, match="^phases lose their precision: "):
            simulate_columns(spec, init, times)
        assert propagator_builds == []


def phase_limit(spec):
    """The largest max|t| the phase guard lets through on ``spec``: 1e-8 / (eps * Weyl bound)."""
    return evolve.PHASE_ERROR_TOL / (np.finfo(float).eps * Chebyshev(spec).max_abs_energy)


def leaky_h_c_spec():
    """A 2x3x4 model whose h_c couples the robust C state to another: the cross blocks of the
    C-B block are not zero, though h_cb itself is exactly robust."""
    spec = build_canonical(Dims(2, 3, 4), 3, 50.0, 0.5)
    h_c = spec.h_c.copy()
    h_c[0, 1] = h_c[1, 0] = 0.3
    return dataclasses.replace(spec, h_c=h_c)


def near_robust_h_cb_spec():
    """A 2x3x4 model with one h_cb cross entry of 1e-13, within ROBUST_TOL = 1e-12."""
    spec = build_canonical(Dims(2, 3, 4), 3, 50.0, 0.5)
    h_cb = spec.h_cb.copy()
    h_cb[5, 1] = h_cb[1, 5] = 1e-13  # <1, b=1| h_cb |0, b=1>_C
    return dataclasses.replace(spec, h_cb=h_cb)


def record_eigvalsh_shapes(monkeypatch):
    """The list that the shape of each matrix ``np.linalg.eigvalsh`` is given goes into."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return eigvalsh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


SECTOR_CASES = [(f, r) for f in [(2, 2, 3), (2, 3, 4), (3, 4, 5), (2, 5, 2)] for r in range(f[1])]


class TestTwoSectorKernel:
    """The C-B block applied as its robust and orthogonal sectors, against 2X formed by np.kron."""

    @pytest.mark.parametrize("factors, r", SECTOR_CASES,
                             ids=[f"{a}x{c}x{b}-r{r}" for (a, c, b), r in SECTOR_CASES])
    def test_split_matches_the_kron_operator(self, factors, r, monkeypatch):
        # every robust model splits where r is the first or the last C index, so that each
        # sector is one range of columns; any other r keeps the dense GEMM
        monkeypatch.setattr(evolve, "CHEB_TERM_FLOPS", 0.0)
        spec = build_canonical(Dims(*factors), 5, 50.0, 0.5, robust_index=r)
        cheb = Chebyshev(spec)
        d_c, d_b = factors[1:]
        sectors = {0: [slice(0, d_b), slice(d_b, None)],
                   d_c - 1: [slice(r * d_b, d_c * d_b), slice(None, r * d_b)]}.get(r, [slice(None)])
        assert [cols for cols, _ in cheb._cb_t] == sectors
        psi = random_stack(spec.dims.total)
        want = psi @ chebyshev_operator(spec, cheb._center, cheb._half).T
        assert np.abs(apply_2x(cheb, psi) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("factors, r", SECTOR_CASES,
                             ids=[f"{a}x{c}x{b}-r{r}" for (a, c, b), r in SECTOR_CASES])
    def test_sector_bounds_match_the_dense_eigvalsh(self, factors, r, monkeypatch):
        # at any r, a robust model's C-B bounds come from its two sectors, d_B and (d_C - 1) d_B
        # square, and agree with the dense eigvalsh of the whole block to roundoff
        spec = build_canonical(Dims(*factors), 5, 50.0, 0.5, robust_index=r)
        shapes = record_eigvalsh_shapes(monkeypatch)
        cheb = Chebyshev(spec)
        d_a, d_c, d_b = factors
        assert shapes == [(d_a * d_c,) * 2, (d_b,) * 2, ((d_c - 1) * d_b,) * 2]
        for got, want in zip((cheb.lo, cheb.hi), dense_spectral_bounds(spec)):
            assert abs(got - want) <= 1e-13 * cheb.max_abs_energy

    @pytest.mark.parametrize("make_spec", [leaky_h_c_spec, near_robust_h_cb_spec],
                             ids=["leaky-h_c", "h_cb-cross-1e-13"])
    def test_cross_blocks_not_exactly_zero_take_the_dense_bounds(self, make_spec, monkeypatch):
        spec = make_spec()
        shapes = record_eigvalsh_shapes(monkeypatch)
        cheb = Chebyshev(spec)
        assert shapes == [(6, 6), (12, 12)]
        assert (cheb.lo, cheb.hi) == dense_spectral_bounds(spec)

    @pytest.mark.parametrize("make_spec", [leaky_h_c_spec, near_robust_h_cb_spec],
                             ids=["leaky-h_c", "h_cb-cross-1e-13"])
    def test_cross_blocks_not_exactly_zero_keep_the_dense_gemm(self, make_spec, monkeypatch):
        monkeypatch.setattr(evolve, "CHEB_TERM_FLOPS", 0.0)
        spec = make_spec()
        cheb = Chebyshev(spec)
        assert [cols for cols, _ in cheb._cb_t] == [slice(None)]
        psi = random_stack(spec.dims.total)
        want = psi @ chebyshev_operator(spec, cheb._center, cheb._half).T
        assert np.abs(apply_2x(cheb, psi) - want).max() <= 1e-13 * np.abs(want).max()
        init = InitialSpec(alpha=np.full(2, 2 ** -0.5), chi=np.full(4, 0.5))
        cheb_states, spectral = both_routes(spec, init, np.linspace(0, 4, 9))
        assert_allclose(cheb_states, spectral, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("factors, split", [((18, 4, 4), False), ((8, 4, 16), False),
                                                ((8, 8, 16), True), ((8, 4, 32), True)],
                             ids=["18x4x4", "8x4x16", "8x8x16", "8x4x32"])
    def test_split_only_where_it_saves_more_than_a_call(self, factors, split):
        # 16 (d_C - 1) d_B^2 d_A flops saved a state against CHEB_TERM_FLOPS / 2 = 1.75e5:
        # 1.4e4 at 18x4x4 (n = 288, the smallest that takes the Chebyshev route), 9.8e4 at
        # 8x4x16, 2.3e5 at 8x8x16 and 3.9e5 at 8x4x32
        cheb = Chebyshev(uniform_case(factors)[0])
        assert len(cheb._cb_t) == (2 if split else 1)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_route_at_a_nonzero_robust_index(self, r):
        # r = 3, the last C index, splits; r = 1 and 2 keep the dense GEMM
        dims = Dims(8, 4, 32)
        spec = build_canonical(dims, 7, 50.0, 0.5, robust_index=r)
        init = InitialSpec(alpha=np.full(dims.a, dims.a ** -0.5),
                           chi=np.full(dims.b, dims.b ** -0.5))
        assert len(Chebyshev(spec)._cb_t) == (2 if r == 3 else 1)
        cheb, spectral = both_routes(spec, init, np.linspace(0, 20, 200))
        assert_allclose(cheb, spectral, rtol=0, atol=1e-12)

    def test_sub_steps_and_chunks_at_a_nonzero_robust_index(self, monkeypatch):
        # a stack through multi-chunk recurrences and a sub-stepped interval, split at the last r
        monkeypatch.setattr(evolve, "CHEB_TERM_FLOPS", 0.0)
        spec = build_canonical(Dims(2, 3, 4), 7, 8.0, 0.5, robust_index=2)
        cheb = Chebyshev(spec)
        assert len(cheb._cb_t) == 2
        times = np.array([0.0, 0.3, 0.9, 3.5]) * CHEB_Z_MAX / cheb._half
        psi = random_stack(spec.dims.total)
        got = route_states(cheb, psi, times)
        assert_allclose(got, Propagator(assemble_hamiltonian(spec)).evolve_many(psi, times),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [0, 2])
    def test_trimmed_row_slices_match_one_gemm_a_chunk(self, r, monkeypatch):
        # each chunk goes only to the rows whose series reach it, in slices of at most 34 rows;
        # the rows must agree with one GEMM of every row a chunk, the parent's sums, to the
        # rounding of a 32-term sum (a row that missed a chunk would be off by its coefficients)
        monkeypatch.setattr(evolve, "CHEB_TERM_FLOPS", 0.0)
        spec = build_canonical(Dims(2, 3, 4), 7, 8.0, 0.5, robust_index=r)
        cheb = Chebyshev(spec)
        times = np.linspace(0.01, 0.95, 101) * CHEB_Z_MAX / cheb._half
        (_, _, coeffs), = cheb._plans(times, len(times))
        assert coeffs.shape[1] > 4 * _CHEB_CHUNK and not coeffs[0, -1]
        psi = random_stack(spec.dims.total, k=2)
        got = cheb._block(psi, coeffs, np.empty((len(times), *psi.shape), dtype=complex))
        terms = [psi]
        for k in range(1, coeffs.shape[1]):
            term = apply_2x(cheb, terms[-1])
            if k == 1:
                term /= 2
            else:
                term -= terms[-2]
            terms.append(term)
        terms = np.array(terms).reshape(len(terms), -1)
        want = np.zeros((len(times), terms.shape[1]), dtype=complex)
        for start in range(0, coeffs.shape[1], _CHEB_CHUNK):
            want += coeffs[:, start:start + _CHEB_CHUNK] @ terms[start:start + _CHEB_CHUNK]
        assert np.abs(got.reshape(want.shape) - want).max() <= 1e-14 * np.abs(want).max()

    def test_summing_a_block_takes_no_block_sized_temporary(self, monkeypatch):
        # 2000 rows of dim 128 in one recurrence, a 4.1 MB block: evolving it may add at most
        # a quarter of a block to the block itself (the sums of one chunk over every row took
        # a second block)
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", np.inf)  # every grid prefers Chebyshev
        spec, init = uniform_case((4, 4, 8))
        half = Chebyshev(spec)._half
        times = np.linspace(0, 0.95 * CHEB_Z_MAX / half, 2000)
        route, (plans,) = evolve._route(spec, times, [1])
        assert isinstance(route, Chebyshev) and len(plans) == 1
        stream = psi0_stream(spec, init, times)  # planned as it is priced, before the count
        tracemalloc.start()
        try:
            for _, states in stream:
                block = states.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block == 2000 * 128 * 16
        assert peak < 1.25 * block


def random_stack(n, k=3, seed=0):
    """k random unit states of length n, as the rows of a (k, n) array."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


STACK_CASES = [(oracle_case(f, c2)[0], np.linspace(0, 12, 25)) for f, c2 in ORACLE_CASES] + [
    (uniform_case((8, 4, 16))[0], np.linspace(0, 20, 200)),
    (uniform_case((2, 3, 4))[0], np.linspace(-6, 6, 25))]  # a zero after negative times
STACK_IDS = ORACLE_IDS + ["8x4x16", "2x3x4-through-zero"]


class TestStackContract:
    """Both routes take psi of shape (n,) or (k, n) and return (T, n) or (T, k, n)."""

    @pytest.mark.parametrize("spec, times", STACK_CASES, ids=STACK_IDS)
    def test_stack_matches_one_state_calls(self, spec, times):
        psi = random_stack(spec.dims.total)
        stacks = []
        for route in (Chebyshev(spec), Propagator(assemble_hamiltonian(spec))):
            stack = route_states(route, psi, times)
            assert stack.shape == (len(times), *psi.shape)
            assert np.array_equal(stack[times == 0], psi[None])
            for k, state in enumerate(psi):
                one = route_states(route, state, times)
                assert one.shape == (len(times), len(state))
                assert_allclose(stack[:, k], one, rtol=0, atol=1e-15)
            stacks.append(stack)
        assert_allclose(stacks[0], stacks[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec, times", STACK_CASES, ids=STACK_IDS)
    def test_spectral_blocks_are_the_rows_of_evolve_many(self, spec, times):
        # each block is bit for bit one evolve_many call at its own times, a row at t = 0
        # included, in blocks of one row, of 7, and of all
        prop = Propagator(assemble_hamiltonian(spec))
        psi = random_stack(spec.dims.total)
        for max_rows in (1, 7, len(times)):
            blocks = list(prop.blocks(psi, times, max_rows))
            assert [rows.start for rows, _ in blocks] == list(range(0, len(times), max_rows))
            for rows, block in blocks:
                assert np.array_equal(block, prop.evolve_many(psi, times[rows]))

    def test_unitary_from_the_identity_stack(self, spec233):
        h = assemble_hamiltonian(spec233)
        u = Propagator(h).evolve_many(np.eye(len(h)), [0.0, 1.3])
        assert np.array_equal(u[0], np.eye(len(h)))
        assert_allclose(u[1].T, dense_exponential(h, 1.3), rtol=0, atol=1e-12)


class TestTracerNames:
    def test_every_traced_method_exists(self):
        # bench/tracer.py patches these methods by name; it is read here, never changed
        path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.CLASS_METHODS
        for layer, classes in tracer.CLASS_METHODS.items():
            module = importlib.import_module(f"disd.{layer}")
            for cls_name, methods in classes.items():
                for method in methods:
                    assert callable(vars(getattr(module, cls_name)).get(method)), \
                        f"{layer}.{cls_name}.{method}"


    def test_install_patches_and_uninstall_restores(self, monkeypatch):
        # the traced benchmark installs its spans on src/ by name: every name it patches must
        # exist, and uninstall must put back the very object each attribute held
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        tracer = importlib.import_module("tracer").Tracer()
        tracer.install()
        try:
            patches = list(tracer._patches)
            assert len(patches) > 50
            assert all(getattr(owner, key) is not original for owner, key, original in patches)
        finally:
            tracer.uninstall()
        for owner, key, original in patches:
            assert getattr(owner, key) is original, f"{owner}.{key}"


class TestRoute:
    @pytest.mark.parametrize("factors, job, steps, route", [
        ((8, 4, 6), simulate_columns, 200, Propagator),
        ((8, 4, 9), simulate_columns, 200, Chebyshev),
        ((8, 4, 16), simulate_columns, 200, Chebyshev),
        ((8, 4, 8), simulate_columns, 2000, Propagator),
        *(((8, 4, b), locality_columns, 200, Propagator) for b in (10, 16, 32))],
        ids=["8x4x6", "8x4x9", "8x4x16", "8x4x8-2000-steps", "8x4x10-locality", "8x4x16-locality",
             "8x4x32-locality"])
    def test_benchmark_grid_takes_the_faster_route(self, job_route, factors, job, steps, route):
        # measured at one BLAS thread (CHANGES.md has the ladder): one state is 2x faster by eigh
        # at 8x4x6, 1.3x by Chebyshev at 8x4x9 and 6x at 8x4x16; at 2000 steps eigh is 1.36x
        # faster at 8x4x8, as each Chebyshev row sums about 190 terms; a locality job is
        # 1.3-1.5x faster by eigh at 8x4x{10, 16, 32}
        spec, init = uniform_case(factors)
        assert isinstance(job_route(job, spec, init, np.linspace(0, 20, steps)), route)

    def test_the_count_prices_the_blocks_of_the_stacks_passed(self, spec233, monkeypatch):
        # the plans priced are those of the stacks given, in order, and the streams run
        # exactly those, planned once: no size is stated apart from its stack
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", np.inf)  # every grid prefers Chebyshev
        asked = []
        plans = Chebyshev._plans

        def recorded(self, times, max_rows):
            asked.append((np.asarray(times).tobytes(), max_rows))
            return plans(self, times, max_rows)

        monkeypatch.setattr(Chebyshev, "_plans", recorded)
        times = np.linspace(0, 5, 40)
        stacks = [random_stack(spec233.dims.total, k=3), random_stack(spec233.dims.total, k=1)]
        streams = propagate(spec233, times, stacks)
        # 40 times of 18 numbers: a stack of three takes 720 // 54 = 13 rows, one of one 40
        priced = [(times.tobytes(), 13), (times.tobytes(), 40)]
        assert asked == priced
        asked.clear()
        blocks = [[rows for rows, _ in stream] for stream in streams]
        assert asked == []
        assert [[(rows.start, rows.stop) for rows in stream] for stream in blocks] == [
            [(0, 13), (13, 26), (26, 39), (39, 40)], [(0, 40)]]

    @pytest.mark.parametrize("eigh_cost, route", [(evolve.EIGH_FLOPS_PER_N3, Propagator),
                                                  (np.inf, Chebyshev)], ids=["spectral", "chebyshev"])
    def test_a_smaller_budget_cuts_the_blocks_not_the_states(self, spec233, init233, monkeypatch,
                                                             eigh_cost, route):
        # 40 times of dim 18 under a budget of 100 numbers: blocks of 5 rows for psi0 alone, and
        # of one row for psi0 with 5 more states (108 numbers a row), with the same states
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", eigh_cost)
        times = np.linspace(0, 5, 40)
        whole = evolved_states(spec233, init233, times)
        monkeypatch.setattr(evolve, "BLOCK_NUMBERS", 100)
        psi0 = initial_state(init233, spec233.dims, spec233.robust_index)[None]
        with_psi0 = np.concatenate([psi0, random_stack(spec233.dims.total, k=5)])
        for stack, rows in ((psi0, 5), (with_psi0, 1)):
            assert isinstance(evolve._route(spec233, times, [len(stack)])[0], route)
            blocks = [(r, states.copy()) for r, states in propagate(spec233, times, [stack])[0]]
            assert [(r.start, r.stop) for r, _ in blocks] == [(i, i + rows)
                                                              for i in range(0, 40, rows)]
            states = np.concatenate([states for _, states in blocks])
            assert_allclose(states[:, 0], whole, rtol=0, atol=1e-12)

    def test_signaling_builds_no_propagator_on_a_chebyshev_trajectory(self, propagator_builds,
                                                                      monkeypatch):
        # a locality job priced for Chebyshev builds no Propagator, and matches the spectral
        # route, which the count gives this model's locality job, to 1e-12: its evolved
        # source bases state by state, and its columns
        spec, init = uniform_case((16, 2, 16))
        times = np.linspace(0, 20, 200)
        bases = [_source_stack(init, spec.dims, spec.robust_index, direction)[1]
                 for direction in ("b_to_a", "a_to_b")]

        def evolved_bases():
            return [np.concatenate([states.copy() for _, states in stream])
                    for stream in propagate(spec, times, bases)]

        want = locality_columns(spec, init, times, n_samples=2, seed=1)
        assert len(propagator_builds) == 1
        spectral = evolved_bases()
        assert len(propagator_builds) == 2
        monkeypatch.setattr(evolve, "EIGH_FLOPS_PER_N3", np.inf)
        assert isinstance(evolve._route(spec, times, [len(b) for b in bases])[0], Chebyshev)
        got = locality_columns(spec, init, times, n_samples=2, seed=1)
        cheb = evolved_bases()
        assert len(propagator_builds) == 2
        for c, s in zip(cheb, spectral):
            assert_allclose(c, s, rtol=0, atol=1e-12)
        for name in want:
            assert_allclose(got[name], want[name], rtol=0, atol=1e-12)
