import numpy as np
import pytest
from numpy.testing import assert_allclose
from disd.evolve import Propagator
from disd.qcore import (
    Dims,
    ValidationError,
    basis_vector,
    derive_seed,
    eigh_ordered,
    haar_unitary,
    mutual_information,
    partial_trace,
    random_hermitian,
    rdm_from_state,
    trace_distance,
    vn_entropy,
)

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

    def test_rejects_oversized_product(self):
        with pytest.raises(ValueError):
            Dims(16, 16, 17)


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

    def test_pure_state_shortcut_matches(self):
        rng = np.random.default_rng(9)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for keep in [(0,), (2,), (0, 2)]:
            assert_allclose(rdm_from_state(psi, (2, 3, 2), keep),
                            partial_trace(rho, (2, 3, 2), keep), atol=1e-12)


def propagator_matrix(h, t):
    """exp(-i h t) from ``Propagator``, built column by column."""
    prop = Propagator(h)
    return np.column_stack([prop.apply(e, t) for e in np.eye(len(h), dtype=complex)])


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


def test_basis_vector_bounds():
    v = basis_vector(3, 1)
    assert_allclose(v, [0, 1, 0])
    with pytest.raises(ValueError):
        basis_vector(3, 3)
