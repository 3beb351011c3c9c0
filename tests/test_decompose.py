import warnings

import numpy as np
import pytest

from disd import decompose
from disd.decompose import (
    RESTARTS,
    _env_v,
    _env_w,
    _polar_unitary,
    planted_sequential,
    sequential_residual,
    sequential_unitary,
)
from disd.qcore import Dims, ValidationError, haar_unitary
from oracles import env_v_einsum, env_w_einsum, polar_svd, sequential_search_einsum


def _dims_id(d):
    return "x".join(map(str, d.factors))


def _gemm_layout(u, dims):
    """U with rows (a, a', c') and columns (c, b, b'), primes marking inputs."""
    a, c, b = dims.factors
    return u.reshape(a, c, b, a, c, b).transpose(0, 3, 4, 1, 2, 5).reshape(a * a * c, c * b * b)


def _count_svd_calls(monkeypatch):
    """Wrap np.linalg.svd so that every call is recorded in the returned list."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _conditioned(n, kappa, seed):
    """An n x n matrix with singular values spread geometrically from 1 down to 1/kappa."""
    return (haar_unitary(n, seed) * np.geomspace(1.0, 1.0 / kappa, n)) @ haar_unitary(n, seed + 1)


# the benchmark's environments are 16 x 16 (V) and 32 x 32 (W)
_POLAR_CASES = {
    "zero": (np.zeros((16, 16), dtype=complex), "svd"),
    "rank-1": (np.outer(haar_unitary(16, 60)[:, 0], haar_unitary(16, 61)[0]), "svd"),
    "kappa-1e3": (_conditioned(16, 1e3, 62), "svd"),
    "kappa-1e6": (_conditioned(32, 1e6, 64), "svd"),
    "kappa-1": (_conditioned(32, 1.0, 66), "gram"),
    "kappa-10": (_conditioned(16, 10.0, 68), "gram"),
    "kappa-99": (_conditioned(32, 99.0, 70), "gram"),
}


_Z = np.diag([1.0, -1.0]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def _dressed(u, dims, seed):
    """(I_A x W1) u (V1 x I_B) for seeded Haar W1 and V1: sequential whenever u is."""
    w1 = haar_unitary(dims.c * dims.b, seed)
    v1 = haar_unitary(dims.a * dims.c, seed + 1)
    return (np.kron(np.eye(dims.a, dtype=complex), w1) @ u
            @ np.kron(v1, np.eye(dims.b, dtype=complex)))


def _cnot_swap_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return sequential_unitary(_CNOT @ _SWAP, np.kron(np.eye(2), x), Dims(2, 2, 2))


def _haar_case(dims, seed):
    return lambda: (haar_unitary(dims.total, 50 + seed), dims, seed, None)


_SEARCH_INPUTS = {
    **{f"{seed}-{_dims_id(dims)}": _haar_case(dims, seed)
       for dims, seed in [(Dims(2, 3, 2), 3), (Dims(2, 3, 2), 8), (Dims(3, 2, 4), 3),
                          (Dims(3, 2, 4), 8), (Dims(4, 4, 8), 3)]},
    # restart 0 reaches the ceiling at iteration 2 while restarts 1-4 are live; they leave
    "planted-4x4x8": lambda: (planted_sequential(Dims(4, 4, 8), 3), Dims(4, 4, 8), 3, (2, 1)),
    # restart 0's first environment of V is exactly zero and takes the SVD in a mixed stack
    "izz": lambda: (np.kron(np.eye(2, dtype=complex), np.kron(_Z, _Z)), Dims(2, 2, 2), 0, None),
    "dressed-planted": lambda: (_dressed(planted_sequential(Dims(2, 3, 2), 17), Dims(2, 3, 2), 100),
                                Dims(2, 3, 2), 17, None),
    # SWAP_AC then CNOT_CB: restart 0 stalls at F = 1/2, restart 1 reaches the ceiling and
    # restarts 2-4 leave the stack, so restarts_used is 2
    "swap-cnot": lambda: (sequential_unitary(_SWAP, _CNOT, Dims(2, 2, 2)), Dims(2, 2, 2), 0,
                          (2, 2)),
    # CNOT SWAP then X_B: restart 1 reaches the ceiling at iteration 2, and restart 0 runs on
    # to its own stop, below it, at iteration 3
    "cnot-swap-x": lambda: (_cnot_swap_x(), Dims(2, 2, 2), 0, (2, 2)),
}


class TestPolarUnitary:
    @pytest.mark.parametrize("case", list(_POLAR_CASES))
    def test_route_and_agreement_with_svd(self, monkeypatch, case):
        m, route = _POLAR_CASES[case]
        q_ref, trace_ref = polar_svd(m)
        calls = _count_svd_calls(monkeypatch)
        q, trace = _polar_unitary(m[None])
        assert calls == ([(1, *m.shape)] if route == "svd" else [])
        assert q.shape == (1, *m.shape) and trace.shape == (1,)
        assert np.abs(q[0] - q_ref).max() <= 1e-12
        assert abs(trace[0] - trace_ref) <= 1e-12
        assert np.abs(q[0].conj().T @ q[0] - np.eye(len(m))).max() <= 1e-12

    @pytest.mark.parametrize("d", [16, 32])
    def test_mixed_stack_sends_only_the_refused_members_to_the_svd(self, monkeypatch, d):
        # Gram-route members between zero, singular and kappa > 100 ones, in one stack
        members = [
            (_conditioned(d, 1.0, 80), "gram"),
            (np.zeros((d, d), dtype=complex), "svd"),
            (_conditioned(d, 10.0, 82), "gram"),
            (np.outer(haar_unitary(d, 84)[:, 0], haar_unitary(d, 85)[0]), "svd"),
            (_conditioned(d, 150.0, 86), "svd"),
            (_conditioned(d, 99.0, 88), "gram"),
            (_conditioned(d, 1e6, 90), "svd"),
        ]
        m = np.stack([member for member, _ in members])
        calls = _count_svd_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, trace = _polar_unitary(m)
        assert calls == [(sum(route == "svd" for _, route in members), d, d)]
        for k, (member, _) in enumerate(members):
            q_ref, trace_ref = polar_svd(member)
            assert np.abs(q[k] - q_ref).max() <= 1e-12
            assert abs(trace[k] - trace_ref) <= 1e-12
            assert np.abs(q[k].conj().T @ q[k] - np.eye(d)).max() <= 1e-12

    def test_generic_search_never_takes_the_svd_route(self, monkeypatch):
        # a guard that sent every step back to the SVD would pass every other test
        dims = Dims(4, 4, 8)
        u = haar_unitary(dims.total, 71)
        calls = _count_svd_calls(monkeypatch)
        r = sequential_residual(u, dims, seed=7)
        assert r.restarts_used == RESTARTS
        assert calls == []


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


class TestEnvironments:
    # asymmetric dims catch an axis-order slip in the GEMM layouts
    @pytest.mark.parametrize("dims", [Dims(2, 2, 2), Dims(3, 2, 2), Dims(2, 2, 3), Dims(5, 2, 3),
                                      Dims(3, 4, 2), Dims(4, 4, 8)], ids=_dims_id)
    def test_gemm_environments_match_einsum(self, dims):
        # a stack of three: one GEMM per side gives each member's environment
        u = haar_unitary(dims.total, 41)
        v = haar_unitary(dims.a * dims.c, [42, 44, 46])
        w = haar_unitary(dims.c * dims.b, [43, 45, 47])
        u6 = u.reshape(dims.factors * 2)
        uv = _gemm_layout(u, dims)
        env_v, env_w = _env_v(uv, w, dims), _env_w(uv, v, dims)
        assert env_v.shape == v.shape and env_w.shape == w.shape
        for k in range(3):
            assert np.abs(env_v[k] - env_v_einsum(u6, w[k], dims)).max() <= 1e-12
            assert np.abs(env_w[k] - env_w_einsum(u6, v[k], dims)).max() <= 1e-12

    @pytest.mark.parametrize("dims", [Dims(2, 3, 2), Dims(3, 2, 4)], ids=_dims_id)
    def test_environments_give_the_overlap_with_the_sequential_unitary(self, dims):
        u = haar_unitary(dims.total, 44)
        v = haar_unitary(dims.a * dims.c, 45)
        w = haar_unitary(dims.c * dims.b, 46)
        uv = _gemm_layout(u, dims)
        overlap = np.vdot(sequential_unitary(v, w, dims), u)
        assert abs(np.vdot(v, _env_v(uv, w[None], dims)[0]) - overlap) <= 1e-12
        assert abs(np.vdot(w, _env_w(uv, v[None], dims)[0]) - overlap) <= 1e-12

    # 4x4x8 is the benchmark's shape: there all but a few polar steps take the Gram route.
    # Each case gives the input, its dims, the search seed and, where the input was chosen
    # for it, the (iterations, restarts_used) it must reach
    @pytest.mark.parametrize("case", list(_SEARCH_INPUTS))
    def test_search_takes_the_einsum_iterates(self, case):
        u, dims, seed, expected = _SEARCH_INPUTS[case]()
        r = sequential_residual(u, dims, seed=seed)
        history, iterations, restarts_used = sequential_search_einsum(u, dims, seed)
        assert (r.iterations, r.restarts_used) == (iterations, restarts_used)
        assert expected is None or (iterations, restarts_used) == expected
        assert r.f_history.shape == history.shape
        assert np.abs(r.f_history - history).max() <= 1e-12


class TestSequentialResidual:
    @pytest.mark.parametrize("case, sizes", [
        ("planted-4x4x8", [5, 5, 5, 5]),
        ("cnot-swap-x", [5, 5, 5, 5, 1, 1]),
    ])
    def test_restarts_run_as_one_stack(self, monkeypatch, case, sizes):
        # each polar step takes one stack of the restarts still live. On the planted input
        # restart 0 reaches the ceiling at iteration 2 and restarts 1-4 leave with it; on
        # cnot-swap-x restart 1 reaches it at iteration 2, restarts 2-4 leave and restart 0
        # runs on alone. The search looks _polar_unitary up by name, as the tracer needs
        seen = []
        polar = decompose._polar_unitary

        def recorded(m):
            seen.append(len(m))
            return polar(m)

        monkeypatch.setattr(decompose, "_polar_unitary", recorded)
        u, dims, seed, _ = _SEARCH_INPUTS[case]()
        sequential_residual(u, dims, seed=seed)
        assert seen == sizes

    def test_identity_input(self, dims222):
        r = sequential_residual(np.eye(8, dtype=complex), dims222)
        assert r.residual <= 1e-10
        assert r.converged

    def test_zero_first_environment(self, dims222):
        # Tr(Z_B) = 0, so restart 0's first environment of V is exactly zero
        u = np.kron(np.eye(2, dtype=complex), np.kron(_Z, _Z))
        assert not _env_v(_gemm_layout(u, dims222), np.eye(4, dtype=complex)[None], dims222).any()
        # test_search_takes_the_einsum_iterates checks its iterates, as the "izz" input
        assert sequential_residual(u, dims222).residual <= 1e-12

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
                             ids=_dims_id)
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
        dressed = _dressed(u, dims222, 100)
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
