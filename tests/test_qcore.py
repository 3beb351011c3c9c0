import contextlib

import numpy as np
import pytest
from numpy.testing import assert_allclose
from disd.evolve import Propagator
from disd.qcore import (
    Dims,
    ValidationError,
    derive_seed,
    eigh_ordered,
    haar_unitary,
    max_trace_distance,
    mi_and_entropies,
    random_hermitian,
    rdm_from_state,
    spectral_norm,
    vn_entropy,
)

from oracles import mutual_information, partial_trace, trace_distance

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return psi


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestDims:
    def test_factors_and_total(self):
        d = Dims(2, 3, 4)
        assert d.factors == (2, 3, 4)
        assert d.total == 24

    @pytest.mark.parametrize("bad", [(1, 2, 2), (2, 0, 2), (2, 2, 1)])
    def test_rejects_small_factors(self, bad):
        with pytest.raises(ValueError):
            Dims(*bad)

    @pytest.mark.parametrize("dims", [
        (16, 16, 17),
        (np.int64(2**21), np.int64(2**21), np.int64(2**22)),  # the int64 product wraps to 0
    ], ids=["int", "int64-wraps"])
    def test_rejects_oversized_product(self, dims):
        with pytest.raises(ValueError, match="exceeds the cap 4096"):
            Dims(*dims)

    def test_stores_python_ints(self):
        d = Dims(np.int64(2), np.int32(3), 4)
        assert all(type(x) is int for x in d.factors)


class TestPartialTrace:
    def test_product_factorization(self):
        rho_a = random_density(2, 0)
        rho_b = random_density(3, 1)
        out = partial_trace(np.kron(rho_a, rho_b), (2, 3), (0,))
        assert_allclose(out, rho_a, atol=1e-12)

    def test_bell_reduction(self):
        psi = bell_state()
        rho = np.outer(psi, psi.conj())
        assert_allclose(partial_trace(rho, (2, 2), (0,)), np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_trace_preserved(self, seed):
        rho = random_density(12, seed)
        reduced = partial_trace(rho, (2, 3, 2), (1,))
        assert abs(np.trace(reduced) - np.trace(rho)) <= 1e-12

    def test_sequential_equals_joint(self):
        rho = random_density(12, 7)
        step1 = partial_trace(rho, (2, 3, 2), (0, 1))   # trace out B
        step2 = partial_trace(step1, (2, 3), (0,))      # then trace out C
        joint = partial_trace(rho, (2, 3, 2), (0,))
        assert np.abs(step2 - joint).max() <= 1e-12

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), (2, 3), (0,))

    def test_rejects_empty_keep(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), (2, 3), ())

    def test_pure_state_rejects_empty_keep(self):
        psi = np.ones(16) / 4
        with pytest.raises(ValueError, match="^keep set must not be empty$"):
            rdm_from_state(psi, (2, 4, 2), [])

    def test_pure_state_shortcut_matches(self):
        rng = np.random.default_rng(9)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for keep in [(0,), (2,), (0, 2)]:
            assert_allclose(rdm_from_state(psi, (2, 3, 2), keep),
                            partial_trace(rho, (2, 3, 2), keep), atol=1e-12)


def propagator_matrix(h, t):
    """exp(-i h t) from ``Propagator``: the columns are the evolved basis states."""
    return Propagator(h).evolve_many(np.eye(len(h)), [t])[0].T


class TestHermPropagator:
    """The spectral propagator ``evolve.Propagator`` as a matrix."""

    def test_zero_time(self):
        h = random_hermitian(4, 0)
        assert_allclose(propagator_matrix(h, 0.0), np.eye(4), atol=1e-14)

    def test_pauli_z_analytic(self):
        u = propagator_matrix(SZ, np.pi / 2)
        assert_allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]),
                        atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unitarity(self, seed):
        h = random_hermitian(6, seed)
        u = propagator_matrix(h, 1.7)
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError):
            Propagator(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"^Hamiltonian must be square, got shape \(2, 3\)$"):
            Propagator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_rejects_non_finite_before_any_arithmetic(self, bad):
        # the suite turns numpy warnings into errors, so inf - inf would fail here first
        with pytest.raises(ValidationError, match=r"Hamiltonian has a non-finite entry .* \(0, 0\)"):
            Propagator([[bad, 0], [0, 1]])


class TestEntropy:
    def test_pure_projector(self):
        psi = haar_unitary(4, 3)[:, 0]
        assert vn_entropy(np.outer(psi, psi.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert vn_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_qutrit(self):
        assert vn_entropy(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unitary_invariance(self, seed):
        rho = random_density(5, seed)
        u = haar_unitary(5, seed + 100)
        assert abs(vn_entropy(u @ rho @ u.conj().T) - vn_entropy(rho)) <= 1e-9

    def test_rejects_large_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            vn_entropy(np.diag([1.1, -0.1]))

    def test_never_negative(self):
        rho = np.diag([1.0 + 5e-15, -5e-15])
        assert vn_entropy(rho) >= 0.0


class TestMutualInformation:
    def test_product_state(self):
        rho = np.kron(random_density(2, 0), random_density(2, 1))
        assert mutual_information(rho, 2, 2) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        psi = bell_state()
        rho = np.outer(psi, psi.conj())
        assert mutual_information(rho, 2, 2) == pytest.approx(2.0, abs=1e-10)

    def test_classical_correlation(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        assert mutual_information(rho, 2, 2) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(np.eye(4) / 4, 2, 3)

    def test_negative_mi_of_a_state_off_unit_norm_is_rejected(self):
        # Bell(A, C1) x Bell(C2, B) in the A, C, B layout at dims 2 x 4 x 2: I(A:B) = 0 at unit
        # norm, but scaled by sqrt(1.1) the entropies S(A) + S(B) - S(C) read -0.151
        pair = np.eye(2) / np.sqrt(2)
        psi = np.einsum("ac,db->acdb", pair, pair).reshape(1, 16)
        dims = Dims(2, 4, 2)
        assert abs(mi_and_entropies(psi, dims)[0][0]) <= 1e-12
        with pytest.raises(ValidationError, match=r"^mutual information -1.513e-01 below -1e-9$"):
            mi_and_entropies(np.sqrt(1.1) * psi, dims)


class TestTraceDistance:
    def test_equal_states(self):
        rho = random_density(3, 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_pure_vs_maximally_mixed(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_triangle_inequality(self, seed):
        r1 = random_density(4, 3 * seed)
        r2 = random_density(4, 3 * seed + 1)
        r3 = random_density(4, 3 * seed + 2)
        assert trace_distance(r1, r3) <= trace_distance(r1, r2) + trace_distance(r2, r3) + 1e-9

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(3))


def density_stack(shape, dim, seed):
    return np.array([random_density(dim, seed + i)
                     for i in range(int(np.prod(shape)))]).reshape(shape + (dim, dim))


class TestMaxTraceDistance:
    """The bracketed maximum equals that of every difference's trace distance, bit for bit."""

    @staticmethod
    def check(rho, sigma):
        want = trace_distance(rho, np.broadcast_to(sigma, rho.shape)).max(axis=-1)
        got = max_trace_distance(rho - sigma)
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_random_density_stacks(self, dim):
        self.check(density_stack((5, 16), dim, 0), density_stack((5, 16), dim, 500))

    def test_rows_where_every_difference_is_zero(self):
        # at t = 0 every sample state equals the reference
        rho = density_stack((3, 8), 4, 0)
        rho[1] = rho[1, 0]
        got = self.check(rho, rho[:, :1])
        assert got[1] == 0.0 and got[0] > 0.0

    def test_exact_ties(self):
        rho = density_stack((2, 1), 3, 0).repeat(6, axis=1)
        self.check(rho, density_stack((2, 1), 3, 7))

    def test_ties_up_to_roundoff(self):
        # rotated orthogonal pure states lie at trace distance 1 in exact arithmetic; their
        # computed Frobenius norms and trace distances differ in the last bits, in either order
        u = np.stack([haar_unitary(2, k) for k in range(400)]).reshape(200, 2, 2, 2)
        rho, sigma = (u[..., :, j, None] * u[..., None, :, j].conj() for j in (0, 1))
        assert_allclose(self.check(rho, sigma), 1.0, rtol=0, atol=1e-14)

    def test_trace_term_decides(self):
        # D = diag(1, 0, 0, 0) beside D = 0.3 I: the second is the maximum (0.6 against 0.5),
        # and only the tau^2 term keeps its bracket above the first's lower bound
        rho = np.stack([np.diag([1.0, 0, 0, 0]), 0.3 * np.eye(4)]).astype(complex)
        assert self.check(rho, np.zeros((4, 4))) == pytest.approx(0.6, abs=1e-15)

    def test_qubit_stacks_diagonalize_one_pair_per_row(self, monkeypatch):
        # for a traceless 2x2 difference both bounds equal 2F^2, so only the largest F survives
        rho, sigma = density_stack((7, 64), 2, 0), density_stack((7, 1), 2, 1000)
        want = trace_distance(rho, np.broadcast_to(sigma, rho.shape)).max(axis=-1)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            sizes.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert np.array_equal(max_trace_distance(rho - sigma), want)
        assert sizes == [7]

    def test_a_stack_whose_last_axis_is_not_contiguous(self):
        diffs = (density_stack((4, 6), 3, 0) - density_stack((4, 6), 3, 100)).swapaxes(-1, -2)
        want = trace_distance(diffs, np.zeros_like(diffs)).max(axis=-1)
        assert np.array_equal(max_trace_distance(diffs), want)

    def test_one_stack_gives_a_float(self):
        rho, sigma = density_stack((5,), 3, 0), density_stack((5,), 3, 50)
        assert isinstance(max_trace_distance(rho - sigma), float)
        with pytest.raises(ValueError):
            max_trace_distance(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)], ids=["00", "11", "01"])
class TestNonFiniteInputs:
    """A NaN or inf entry raises before ``eigvalsh``, which would ignore one in the triangle it
    does not read, raise ``LinAlgError`` on another, and turn a third into a finite number."""

    def test_entropy(self, bad, where):
        rho = np.eye(4) / 4
        rho[where] = bad
        message = rf"^entropy input has a non-finite entry {bad} at \({where[0]}, {where[1]}\)$"
        with pytest.raises(ValidationError, match=message):
            vn_entropy(rho)

    def test_max_trace_distance(self, bad, where):
        diffs = density_stack((2, 3), 2, 0) - density_stack((2, 1), 2, 50)
        diffs[1, 2][where] = bad
        message = rf"^trace-distance input has a non-finite entry \({bad}\+0j\) at "
        with pytest.raises(ValidationError, match=message + rf"\(1, 2, {where[0]}, {where[1]}\)$"):
            max_trace_distance(diffs)

    def test_spectral_norm(self, bad, where):
        m = np.eye(3)
        m[where] = bad
        message = rf"^spectral-norm input has a non-finite entry {bad} at \({where[0]}, {where[1]}\)$"
        with pytest.raises(ValidationError, match=message):
            spectral_norm(m)


class TestSpectralNorm:
    def test_zero_matrix_has_norm_zero(self):
        assert spectral_norm(np.zeros((3, 5), dtype=complex)) == 0.0


class TestLapackGuard:
    """The session's guard (``conftest.py``) records each LAPACK call that sees a NaN or inf."""

    def test_a_nan_that_eigvalsh_turns_finite_is_recorded(self, non_finite_lapack_calls):
        # LAPACK returns the eigenvalues 0 and -0 for diag(nan, 1): no assertion could tell
        assert np.isfinite(np.linalg.eigvalsh(np.diag([np.nan, 1.0]))).all()
        np.linalg.solve(np.eye(2), [np.inf, 1.0])
        assert non_finite_lapack_calls == ["np.linalg.eigvalsh", "np.linalg.solve"]
        non_finite_lapack_calls.clear()

    def test_only_norms_by_an_svd_are_guarded(self, non_finite_lapack_calls):
        assert np.isnan(np.linalg.norm([np.nan, 1.0]))
        assert np.isnan(np.linalg.norm(np.diag([np.nan, 1.0]), "fro"))
        assert non_finite_lapack_calls == []
        for x, axis in ((np.diag([np.inf, 1.0]), None), (np.diag([np.nan, 1.0])[None], (1, 2))):
            with contextlib.suppress(np.linalg.LinAlgError):  # LAPACK may answer nan or give up
                np.linalg.norm(x, 2, axis=axis)
        assert non_finite_lapack_calls == ["np.linalg.norm"] * 2
        non_finite_lapack_calls.clear()


class TestStackedInputs:
    """Leading batch axes give the same numbers as one call per input."""

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (1, 2)])
    def test_rdm_stack_matches_single_calls(self, keep):
        rng = np.random.default_rng(4)
        states = rng.standard_normal((3, 4, 12)) + 1j * rng.standard_normal((3, 4, 12))
        stacked = rdm_from_state(states, (2, 3, 2), keep)
        for idx in np.ndindex(3, 4):
            assert_allclose(stacked[idx], rdm_from_state(states[idx], (2, 3, 2), keep),
                            rtol=0, atol=1e-15)

    def test_entropy_and_trace_distance_stacks_match_single_calls(self):
        rhos = np.array([random_density(3, s) for s in range(6)]).reshape(2, 3, 3, 3)
        sigmas = np.array([random_density(3, s) for s in range(10, 16)]).reshape(2, 3, 3, 3)
        ent = vn_entropy(rhos)
        dist = trace_distance(rhos, sigmas)
        assert ent.shape == dist.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one_ent, one_dist = vn_entropy(rhos[idx]), trace_distance(rhos[idx], sigmas[idx])
            assert isinstance(one_ent, float) and isinstance(one_dist, float)
            assert ent[idx] == pytest.approx(one_ent, rel=0, abs=1e-15)
            assert dist[idx] == pytest.approx(one_dist, rel=0, abs=1e-15)

    def test_one_bad_matrix_in_stack_raises(self):
        stack = np.array([np.eye(2) / 2, np.diag([1.1, -0.1]), np.eye(2) / 2])
        with pytest.raises(ValidationError):
            vn_entropy(stack)

    def test_stack_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            trace_distance(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))


class TestHaarUnitary:
    def test_dim_one_unit_modulus(self):
        u = haar_unitary(1, 5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_deterministic(self):
        assert np.array_equal(haar_unitary(4, 42), haar_unitary(4, 42))

    def test_seeds_differ(self):
        assert not np.allclose(haar_unitary(4, 1), haar_unitary(4, 2))

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unitary(self, dim):
        u = haar_unitary(dim, 17)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10

    def test_haar_marginal_monte_carlo(self):
        vals = [abs(haar_unitary(2, derive_seed(99, "haar-mc", k))[0, 0]) ** 2
                for k in range(1000)]
        assert abs(np.mean(vals) - 0.5) <= 0.05

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            haar_unitary(0, 1)

    @pytest.mark.parametrize("dim", [1, 2, 4, 7])
    def test_stacked_draws_are_the_per_seed_draws(self, dim):
        seeds = [derive_seed(5, "stack", k) for k in range(16)]
        stack = haar_unitary(dim, seeds)
        assert stack.shape == (16, dim, dim)
        for u, seed in zip(stack, seeds):
            assert np.array_equal(u, haar_unitary(dim, seed))

    def test_rejects_a_seed_array_of_two_axes(self):
        with pytest.raises(ValueError, match="1-D"):
            haar_unitary(2, [[1, 2], [3, 4]])


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "x", 1) == derive_seed(3, "x", 1)

    def test_parts_matter(self):
        seen = {derive_seed(3), derive_seed(3, "x"), derive_seed(3, "y"),
                derive_seed(3, "x", 0), derive_seed(3, "x", 1), derive_seed(4, "x", 1)}
        assert len(seen) == 6

    def test_range(self):
        s = derive_seed(2 ** 70, "big")
        assert 0 <= s < 2 ** 64


class TestEighOrdered:
    def test_descending_order(self):
        h = random_hermitian(5, 8)
        evals, vecs = eigh_ordered(h)
        assert np.all(np.diff(evals) <= 0)
        assert np.abs(vecs @ np.diag(evals) @ vecs.conj().T - h).max() <= 1e-12

    def test_phase_convention(self):
        h = random_hermitian(4, 9)
        _, vecs = eigh_ordered(h)
        for k in range(4):
            col = vecs[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-12

    def test_secondary_resolves_degeneracy(self):
        # primary is fully degenerate; secondary must pin the basis
        secondary = random_hermitian(3, 10)
        evals, vecs = eigh_ordered(np.zeros((3, 3), dtype=complex), secondary=secondary)
        d = vecs.conj().T @ secondary @ vecs
        off = d - np.diag(np.diagonal(d))
        assert np.abs(off).max() <= 1e-10
        assert np.all(np.diff(np.real(np.diagonal(d))) <= 1e-12)

    def test_secondary_resolves_a_degeneracy_in_a_complex_basis(self):
        # the degenerate pair of U diag(1, 1, 2) U+ spans complex vectors, so the block
        # sub+ @ secondary @ sub is diagonal only with both the conjugate and the transpose
        u = haar_unitary(3, 4)
        secondary = random_hermitian(3, 10)
        evals, vecs = eigh_ordered((u * [1.0, 1.0, 2.0]) @ u.conj().T, secondary=secondary)
        assert_allclose(evals, [2.0, 1.0, 1.0], rtol=0, atol=1e-12)
        d = vecs[:, 1:].conj().T @ secondary @ vecs[:, 1:]
        assert np.abs(d - np.diag(np.diagonal(d))).max() <= 1e-10
