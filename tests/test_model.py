import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose
from disd.model import (
    InitialSpec,
    ModelSpec,
    assemble_hamiltonian,
    build_canonical,
    initial_state,
    place_robust,
    validate_robustness,
)
from disd.qcore import (
    Dims,
    ValidationError,
    rdm_from_state,
    spectral_norm,
)

from oracles import mutual_information


def zero_spec(dims):
    return ModelSpec(
        dims=dims,
        h_a=np.zeros((dims.a, dims.a), dtype=complex),
        h_c=np.zeros((dims.c, dims.c), dtype=complex),
        h_b=np.zeros((dims.b, dims.b), dtype=complex),
        h_ac=np.zeros((dims.a * dims.c, dims.a * dims.c), dtype=complex),
        h_cb=np.zeros((dims.c * dims.b, dims.c * dims.b), dtype=complex),
        c1=1.0, c2=0.0,
    )


class TestBuildCanonical:
    def test_robustness_by_construction(self, dims233):
        spec = build_canonical(dims233, 5, 2.0, 0.4)
        report = validate_robustness(spec.h_cb, dims233, spec.robust_index)
        assert report.passed
        assert report.max_violation <= 1e-12

    def test_same_seed_bitwise_identical(self, dims233):
        s1 = build_canonical(dims233, 11, 3.0, 0.2)
        s2 = build_canonical(dims233, 11, 3.0, 0.2)
        for name in ("h_a", "h_c", "h_b", "h_ac", "h_cb"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))

    def test_matrices_independent_of_couplings(self, dims233):
        s1 = build_canonical(dims233, 11, 3.0, 0.2)
        s2 = build_canonical(dims233, 11, 30.0, 0.7)
        assert np.array_equal(s1.h_cb, s2.h_cb)
        assert np.array_equal(s1.h_ac, s2.h_ac)

    def test_seeds_differ(self, dims233):
        s1 = build_canonical(dims233, 11, 3.0, 0.2)
        s2 = build_canonical(dims233, 12, 3.0, 0.2)
        assert not np.allclose(s1.h_cb, s2.h_cb)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_commutation_structure(self, dims233, seed):
        spec = build_canonical(dims233, seed, 2.0, 0.4)
        a0 = spec.robust_block_a()
        b0 = spec.robust_block_b()
        assert spectral_norm(spec.h_a @ a0 - a0 @ spec.h_a) <= 1e-10
        assert spectral_norm(spec.h_b @ b0 - b0 @ spec.h_b) <= 1e-10
        e0 = np.zeros(dims233.c)
        e0[spec.robust_index] = 1.0
        hc_e0 = spec.h_c @ e0
        lam0 = np.vdot(e0, hc_e0)
        assert np.linalg.norm(hc_e0 - lam0 * e0) <= 1e-10

    def test_unit_shape_norms(self, dims233):
        spec = build_canonical(dims233, 4, 5.0, 0.1)
        for name in ("h_a", "h_c", "h_b", "h_ac", "h_cb"):
            assert abs(spectral_norm(getattr(spec, name)) - 1.0) <= 1e-9

    def test_nonzero_robust_index(self):
        dims = Dims(2, 3, 2)
        spec = build_canonical(dims, 9, 2.0, 0.3, robust_index=2)
        assert spec.robust_index == 2
        assert validate_robustness(spec.h_cb, dims, 2).passed

    @pytest.mark.parametrize("robust_index", [3, -1])
    def test_rejects_robust_index_out_of_range(self, dims233, robust_index):
        with pytest.raises(ValueError, match=f"robust_index {robust_index} out of range for d_c = 3"):
            build_canonical(dims233, 0, 1.0, 0.1, robust_index=robust_index)

    def test_rejects_bad_couplings(self, dims233):
        with pytest.raises(ValidationError):
            build_canonical(dims233, 0, 0.0, 0.1)
        with pytest.raises(ValidationError):
            build_canonical(dims233, 0, 1.0, -0.1)


class TestValidateRobustness:
    def test_planted_violation(self, dims233):
        spec = build_canonical(dims233, 3, 2.0, 0.4)
        h = spec.h_cb.copy()
        d_b = dims233.b
        row = 1 * d_b + 0     # C index 1, B index 0
        col = spec.robust_index * d_b + 1
        h[row, col] += 1e-3
        h[col, row] += 1e-3
        report = validate_robustness(h, dims233, spec.robust_index)
        assert not report.passed
        assert report.max_violation == pytest.approx(1e-3, rel=1e-6)

    def test_rejects_bad_shape(self, dims233):
        with pytest.raises(ValueError):
            validate_robustness(np.eye(5), dims233, 0)

    def test_rejects_bad_index(self, dims233):
        with pytest.raises(ValueError):
            validate_robustness(np.eye(9), dims233, 3)


class TestAssembleHamiltonian:
    def test_all_zero_terms(self, dims233):
        # zero shapes have spectral norm 0, not 1: no such model can be built
        with pytest.raises(ValidationError, match="shape norm"):
            zero_spec(dims233)

    def test_linear_in_c1(self, spec233):
        h1 = assemble_hamiltonian(spec233)
        h2 = assemble_hamiltonian(dataclasses.replace(spec233, c1=2 * spec233.c1))
        i_a = np.eye(spec233.dims.a)
        expected = spec233.c1 * np.kron(i_a, spec233.h_cb)
        assert np.abs((h2 - h1) - expected).max() <= 1e-12

    def test_trace_identity(self, spec233):
        d = spec233.dims
        h = assemble_hamiltonian(spec233)
        expected = (d.c * d.b * np.trace(spec233.h_a)
                    + d.a * d.b * np.trace(spec233.h_c)
                    + d.a * d.c * np.trace(spec233.h_b)
                    + spec233.c2 * d.b * np.trace(spec233.h_ac)
                    + spec233.c1 * d.a * np.trace(spec233.h_cb))
        assert abs(np.trace(h) - expected) <= 1e-10

    def test_hermitian(self, spec233):
        h = assemble_hamiltonian(spec233)
        assert np.abs(h - h.conj().T).max() <= 1e-12

    def test_addend_order_irrelevant(self, spec233):
        d = spec233.dims
        i_a, i_c, i_b = np.eye(d.a), np.eye(d.c), np.eye(d.b)
        terms = [
            np.kron(np.kron(spec233.h_a, i_c), i_b),
            np.kron(np.kron(i_a, spec233.h_c), i_b),
            np.kron(np.kron(i_a, i_c), spec233.h_b),
            spec233.c2 * np.kron(spec233.h_ac, i_b),
            spec233.c1 * np.kron(i_a, spec233.h_cb),
        ]
        h = assemble_hamiltonian(spec233)
        assert np.abs(h - sum(reversed(terms))).max() <= 1e-12

    def test_c_sector_decoupling_at_c2_zero(self, dims233):
        spec = build_canonical(dims233, 6, 3.0, 0.0)
        h = assemble_hamiltonian(spec).reshape(
            dims233.a, dims233.c, dims233.b, dims233.a, dims233.c, dims233.b)
        r = spec.robust_index
        others = [j for j in range(dims233.c) if j != r]
        cross = h[:, others, :, :, r, :]
        assert np.abs(cross).max() <= 1e-12

    def test_rejects_shape_mismatch(self, spec233):
        with pytest.raises(ValueError, match="h_a has shape"):
            dataclasses.replace(spec233, h_a=np.zeros((3, 3), dtype=complex))


class TestModelSpecValidate:
    def test_canonical_passes(self, spec233):
        dataclasses.replace(spec233)

    def test_rejects_non_hermitian(self, spec233):
        h = spec233.h_ac.copy()
        h[0, 1] += 1e-6
        with pytest.raises(ValidationError):
            dataclasses.replace(spec233, h_ac=h)

    @pytest.mark.parametrize("name", ["h_a", "h_ac"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, spec222, name, bad):
        # a NaN deviation compares false against the Hermitian tolerance, and a NaN in h_ac
        # would reach the SVD of the shape-norm check
        h = getattr(spec222, name).copy()
        h[1, 0] = bad
        with pytest.raises(ValidationError, match=rf"^{name} has a non-finite entry .* at \(1, 0\)"):
            dataclasses.replace(spec222, **{name: h})

    def test_stores_the_hermitian_part(self, spec233):
        h = spec233.h_cb.copy()
        h[0, 1] += 0.9e-12
        h[2, 2] += 0.5e-12j
        kept = dataclasses.replace(spec233, h_cb=h).h_cb
        assert np.array_equal(kept, kept.conj().T)
        assert_allclose(kept, (h + h.conj().T) / 2, rtol=0, atol=1e-16)
        assert kept[0, 2] == h[0, 2] and kept[2, 2].imag == 0

    @pytest.mark.parametrize("scale", [1.0, 1e308])
    def test_exactly_hermitian_term_is_stored_bit_for_bit(self, spec233, scale):
        h = spec233.h_a * scale  # no overflow, hence no warning, at the largest entries
        assert np.array_equal(dataclasses.replace(spec233, h_a=h).h_a, h)

    def test_rejects_unnormalized_shape(self, spec233):
        with pytest.raises(ValidationError):
            dataclasses.replace(spec233, h_cb=0.5 * spec233.h_cb)

    def test_rejects_robustness_violation(self, spec233):
        h = spec233.h_cb.copy()
        d_b = spec233.dims.b
        h[1 * d_b, 0 * d_b] += 1e-3
        h[0 * d_b, 1 * d_b] += 1e-3
        with pytest.raises(ValidationError):
            dataclasses.replace(spec233, h_cb=h)

    @pytest.mark.parametrize("field, value, exc, message", [
        ("c1", 0.0, ValidationError, "c1 must be positive and finite, got 0.0"),
        ("c1", -2.0, ValidationError, "c1 must be positive and finite, got -2.0"),
        ("c1", float("inf"), ValidationError, "c1 must be positive and finite, got inf"),
        ("c2", -0.1, ValidationError, "c2 must be non-negative and finite, got -0.1"),
        ("c2", float("inf"), ValidationError, "c2 must be non-negative and finite, got inf"),
        ("c2", float("nan"), ValidationError, "c2 must be non-negative and finite, got nan"),
        ("robust_index", 3, ValueError, "robust_index 3 out of range for d_c = 3"),
        ("robust_index", -1, ValueError, "robust_index -1 out of range for d_c = 3"),
    ])
    def test_replace_rejects_bad_scalar(self, spec233, field, value, exc, message):
        with pytest.raises(exc) as info:
            dataclasses.replace(spec233, **{field: value})
        assert type(info.value) is exc
        assert str(info.value) == message


class TestInitialSpec:
    def test_fields_are_the_two_amplitude_vectors(self, init233):
        assert [f.name for f in dataclasses.fields(InitialSpec)] == ["alpha", "chi"]
        assert init233.alpha.dtype == init233.chi.dtype == complex

    @pytest.mark.parametrize("name", ["alpha", "chi"])
    def test_rejects_non_unit_vector(self, name):
        vectors = {"alpha": np.array([1.0, 0.0]), "chi": np.array([1.0, 0.0, 0.0])}
        vectors[name] = 2 * vectors[name]
        with pytest.raises(ValidationError, match=rf"^{name} norm off by 1\.000e\+00$"):
            InitialSpec(**vectors)

    def test_replace_rechecks(self, init233):
        with pytest.raises(ValidationError, match="^alpha norm off by"):
            dataclasses.replace(init233, alpha=np.array([1.0, 1.0]))

    def test_within_tolerance_is_accepted(self, dims222):
        # each factor is 0.9e-10 off unit norm, inside the 1e-10 check; the
        # product state is off by 1.8e-10 and is still accepted
        init = InitialSpec(alpha=np.array([1 + 0.9e-10, 0.0]), chi=np.array([1 + 0.9e-10, 0.0]))
        psi = initial_state(init, dims222, 0)
        assert psi[0] == (1 + 0.9e-10) ** 2
        assert np.count_nonzero(psi) == 1

    @pytest.mark.parametrize("alpha", [
        [1e200, 1e200], [1e-200, 1e-200], [1.7e308 + 1.7e308j, 0], [5e-324, 0],
        [0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0],
    ], ids=["huge", "tiny", "largest", "subnormal", "zero", "nan", "inf"])
    def test_off_norm_is_rejected_without_a_numpy_warning(self, alpha):
        # filterwarnings = error turns any numpy warning into a failure here
        with pytest.raises(ValidationError, match="^alpha norm off by"):
            InitialSpec(alpha=np.array(alpha), chi=np.array([1.0]))


class TestInitialState:
    def test_basis_vector_case(self):
        dims = Dims(2, 2, 2)
        init = InitialSpec(alpha=np.array([1.0, 0.0]), chi=np.array([1.0, 0.0]))
        psi = initial_state(init, dims, 0)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert_allclose(psi, expected)

    def test_c_factor_is_the_given_robust_state(self, dims233, init233):
        psi = initial_state(init233, dims233, 2).reshape(dims233.factors)
        assert np.count_nonzero(psi[:, :2, :]) == 0
        assert_allclose(psi[:, 2, :], np.outer(init233.alpha, init233.chi), rtol=0, atol=0)

    @pytest.mark.parametrize("robust_index", [0, 1, 2])
    def test_place_robust_matches_the_kronecker_product(self, dims233, robust_index):
        rng = np.random.default_rng(3)
        ab = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        c = np.eye(3)[robust_index]
        psi = place_robust(ab, dims233, robust_index)
        assert psi.shape == (4, 18)
        for k in range(4):
            kron = sum(ab[k, i, j] * np.kron(np.kron(np.eye(2)[i], c), np.eye(3)[j])
                       for i in range(2) for j in range(3))
            assert np.array_equal(psi[k], kron)

    def test_product_state_has_zero_mi(self, dims233, init233):
        psi = initial_state(init233, dims233, 0)
        rho_ab = rdm_from_state(psi, dims233.factors, (0, 2))
        assert mutual_information(rho_ab, dims233.a, dims233.b) <= 1e-12

    @pytest.mark.parametrize("robust_index", [5, -1])
    def test_rejects_robust_index_out_of_range(self, dims233, init233, robust_index):
        with pytest.raises(ValueError, match=f"robust_index {robust_index} out of range for d_c = 3"):
            initial_state(init233, dims233, robust_index)

    @pytest.mark.parametrize("dims, message", [
        (Dims(3, 3, 3), "alpha has length (2,), expected 3"),
        (Dims(2, 3, 2), "chi has length (3,), expected 2"),
    ])
    def test_rejects_wrong_lengths(self, init233, dims, message):
        with pytest.raises(ValueError) as info:
            initial_state(init233, dims, 0)
        assert str(info.value) == message

    def test_schmidt_rank_one_across_a_splits(self, dims233, init233):
        psi = initial_state(init233, dims233, 0)
        d_a, d_c, d_b = dims233.factors
        for shape in [(d_a, d_c * d_b), (d_a * d_c, d_b)]:
            sv = np.linalg.svd(psi.reshape(shape), compute_uv=False)
            assert (sv > 1e-10).sum() == 1
