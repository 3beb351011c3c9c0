import numpy as np
import pytest

from disd.decompose import (
    RESTARTS,
    planted_sequential,
    sequential_residual,
    sequential_unitary,
)
from disd.qcore import Dims, ValidationError, haar_unitary


class TestPlantedSequential:
    def test_identity_factors(self, dims222):
        u = sequential_unitary(np.eye(4, dtype=complex), np.eye(4, dtype=complex), dims222)
        assert np.abs(u - np.eye(8)).max() <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_is_unitary(self, dims222, seed):
        u = planted_sequential(dims222, seed)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-10

    def test_deterministic(self, dims222):
        assert np.array_equal(planted_sequential(dims222, 5), planted_sequential(dims222, 5))


class TestSequentialResidual:
    def test_identity_input(self, dims222):
        r = sequential_residual(np.eye(8, dtype=complex), dims222)
        assert r.residual <= 1e-10
        assert r.converged

    def test_v_only_input_recovers_identity_w(self, dims222):
        v0 = haar_unitary(4, 21)
        u = np.kron(v0, np.eye(2, dtype=complex))
        r = sequential_residual(u, dims222, seed=3)
        assert r.residual <= 1e-8
        assert np.abs(r.w_cb - np.eye(4)).max() <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_planted_recovery(self, dims222, seed):
        u = planted_sequential(dims222, seed)
        r = sequential_residual(u, dims222, seed=seed)
        assert r.residual <= 1e-6
        assert r.iterations <= 50

    def test_recovered_product_matches_input(self, dims222):
        u = planted_sequential(dims222, 9)
        r = sequential_residual(u, dims222, seed=9)
        rebuilt = sequential_unitary(r.v_ac, r.w_cb, dims222)
        ov = np.trace(rebuilt.conj().T @ u) / dims222.total
        assert abs(abs(ov) - 1.0) <= 1e-8
        assert np.abs(rebuilt * ov / abs(ov) - u).max() <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_haar_input_stays_far(self, dims222, seed):
        u = haar_unitary(8, seed)
        r = sequential_residual(u, dims222, seed=seed)
        assert r.residual >= 0.05

    def test_factors_unitary(self, dims222):
        r = sequential_residual(haar_unitary(8, 11), dims222, seed=1)
        assert np.abs(r.v_ac.conj().T @ r.v_ac - np.eye(4)).max() <= 1e-9
        assert np.abs(r.w_cb.conj().T @ r.w_cb - np.eye(4)).max() <= 1e-9

    @pytest.mark.parametrize("dims", [Dims(2, 2, 2), Dims(2, 3, 4), Dims(3, 2, 2)],
                             ids=lambda d: "x".join(map(str, d.factors)))
    def test_residual_recomputable_from_factors(self, dims):
        # asymmetric dims catch index-order slips in the environment contractions
        u = haar_unitary(dims.total, 13)
        r = sequential_residual(u, dims, seed=2)
        x = sequential_unitary(r.v_ac, r.w_cb, dims)
        f = abs(np.trace(x.conj().T @ u)) / dims.total
        assert abs(r.residual - (1.0 - f)) <= 1e-12

    @pytest.mark.parametrize("seed", [7, 21])
    def test_fidelity_history_monotone(self, dims222, seed):
        u = haar_unitary(8, seed)
        r = sequential_residual(u, dims222, seed=seed)
        assert np.all(np.diff(r.f_history) >= -1e-12)

    def test_invariant_under_sequential_dressing(self, dims222):
        u = planted_sequential(dims222, 17)
        w1 = haar_unitary(4, 100)
        v1 = haar_unitary(4, 101)
        dressed = (np.kron(np.eye(2, dtype=complex), w1) @ u
                   @ np.kron(v1, np.eye(2, dtype=complex)))
        r_plain = sequential_residual(u, dims222, seed=17)
        r_dressed = sequential_residual(dressed, dims222, seed=17)
        assert r_plain.residual <= 1e-6
        assert r_dressed.residual <= 1e-6

    def test_global_phase_invariance(self, dims222):
        u = haar_unitary(8, 19)
        r1 = sequential_residual(u, dims222, seed=4)
        r2 = sequential_residual(np.exp(0.4j) * u, dims222, seed=4)
        assert abs(r1.residual - r2.residual) <= 1e-12

    def test_rejects_non_unitary(self, dims222):
        with pytest.raises(ValidationError):
            sequential_residual(np.ones((8, 8), dtype=complex), dims222)

    def test_rejects_wrong_shape(self, dims222):
        with pytest.raises(ValueError):
            sequential_residual(np.eye(6, dtype=complex), dims222)

    def test_restart_accounting(self, dims222):
        u = haar_unitary(8, 23)
        r = sequential_residual(u, dims222, seed=5)
        assert r.restarts_used == RESTARTS
        assert r.iterations >= 1

    def test_nontrivial_dims(self):
        dims = Dims(2, 3, 2)
        u = planted_sequential(dims, 31)
        r = sequential_residual(u, dims, seed=31)
        assert r.residual <= 1e-6
