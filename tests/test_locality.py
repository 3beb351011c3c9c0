import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from disd.config import initial_from_config, model_from_config, parse_config
from disd.decompose import planted_sequential, sequential_residual
from disd import evolve as evolve_module
from disd import locality as locality_module
from disd.evolve import Chebyshev, Propagator, propagate, simulate_columns
from disd.locality import _source_stack, locality_columns, signaling_test_unitary, tau_estimate
from disd.model import (InitialSpec, ModelSpec, assemble_hamiltonian, build_canonical,
                        initial_state)
from disd.qcore import (Dims, ValidationError, derive_seed, haar_unitary, mi_and_entropies,
                        rdm_from_state, vn_entropy)
from oracles import evolved_states, mi_per_row, route_states, signaling_per_row
from test_model import cross_blocks


def signal(spec, init, times, direction, n_samples, seed):
    """One direction's signal column of the locality job."""
    return locality_columns(spec, init, times, n_samples, seed)[f"signal_{direction}"]


class TestMiTrajectory:
    def test_zero_at_start(self, spec233, init233):
        states = evolved_states(spec233, init233, [0.0])
        assert mi_and_entropies(states, spec233.dims)[0][0] <= 1e-12

    def test_decoupled_when_c2_zero(self, dims233, init233):
        spec = build_canonical(dims233, 4, 3.0, 0.0)
        states = evolved_states(spec, init233, np.linspace(0, 20, 60))
        assert mi_and_entropies(states, spec.dims)[0].max() <= 1e-10

    def test_correlations_appear_at_long_horizon(self, dims233, init233):
        spec = build_canonical(dims233, 1, 1.0, 0.2)
        states = evolved_states(spec, init233, np.linspace(0, 50, 400))
        assert mi_and_entropies(states, spec.dims)[0].max() > 0.01

    def test_bounded_by_smaller_subsystem(self, spec233, init233):
        states = evolved_states(spec233, init233, np.linspace(0, 30, 40))
        bound = 2 * min(np.log2(spec233.dims.a), np.log2(spec233.dims.b))
        assert mi_and_entropies(states, spec233.dims)[0].max() <= bound + 1e-9


class TestSignaling:
    def test_decoupled_b_to_a(self, dims233, init233):
        spec = build_canonical(dims233, 4, 3.0, 0.0)
        out = signal(spec, init233, np.linspace(0, 10, 20), "b_to_a", n_samples=16, seed=5)
        assert out.max() <= 1e-10

    def test_no_signaling_when_a_uncorrelated(self, dims233, init233):
        # I(A:CB) stays zero without the A-C coupling, so B cannot reach A
        spec = build_canonical(dims233, 4, 3.0, 0.0)
        times = np.linspace(0, 10, 20)
        d = dims233
        for s in evolved_states(spec, init233, times):
            s_a = vn_entropy(rdm_from_state(s, d.factors, (0,)))
            assert 2 * s_a <= 1e-10  # I(A:CB) = 2 S(A) for a pure global state
        out = signal(spec, init233, times, "b_to_a", n_samples=8, seed=1)
        assert out.max() <= 1e-10

    def test_canonical_signaling_appears(self, dims233, init233):
        spec = build_canonical(dims233, 1, 1.0, 0.2)
        out = signal(spec, init233, np.linspace(0, 50, 60), "b_to_a", n_samples=8, seed=2)
        assert out.max() > 1e-3

    def test_sample_max_nested_in_n_samples(self, spec233, init233):
        times = np.linspace(0, 5, 10)
        small = locality_columns(spec233, init233, times, n_samples=1, seed=9)
        large = locality_columns(spec233, init233, times, n_samples=8, seed=9)
        for direction in ("b_to_a", "a_to_b"):
            name = f"signal_{direction}"
            assert np.all(large[name] >= small[name] - 1e-15)
        assert np.array_equal(large["mi_ab_bits"], small["mi_ab_bits"])

    def test_deterministic_for_fixed_seed(self, spec233, init233):
        times = np.linspace(0, 5, 6)
        a = locality_columns(spec233, init233, times, n_samples=4, seed=3)
        b = locality_columns(spec233, init233, times, n_samples=4, seed=3)
        assert list(a) == ["signal_b_to_a", "signal_a_to_b", "mi_ab_bits"]
        assert all(np.array_equal(a[name], b[name]) for name in a)

    def test_global_phase_invariance(self, spec233, init233):
        times = np.linspace(0, 5, 6)
        shifted = dataclasses.replace(init233, alpha=init233.alpha * np.exp(0.3j))
        a = locality_columns(spec233, init233, times, n_samples=4, seed=3)
        b = locality_columns(spec233, shifted, times, n_samples=4, seed=3)
        assert all(np.abs(a[name] - b[name]).max() <= 1e-12 for name in a)

    def test_rejects_bad_direction(self, dims222, init222):
        with pytest.raises(ValueError, match="direction must be"):
            signaling_test_unitary(np.eye(dims222.total), init222, dims222, 0, "c_to_a")

    def test_rejects_zero_samples(self, spec233, init233, dims222, init222):
        with pytest.raises(ValueError, match="n_samples"):
            locality_columns(spec233, init233, [0.0], n_samples=0)
        with pytest.raises(ValueError, match="n_samples"):
            signaling_test_unitary(np.eye(dims222.total), init222, dims222, 0, "b_to_a",
                                   n_samples=0)


class TestSignalingOneShot:
    def test_sequential_unitary_blocks_b_to_a(self, dims222, init222):
        for seed in range(5):
            u = planted_sequential(dims222, seed)
            out = signaling_test_unitary(u, init222, dims222, 0, "b_to_a",
                                         n_samples=32, seed=seed)
            assert out <= 1e-10

    def test_sequential_unitary_is_one_directional(self, dims222, init222):
        forward = [signaling_test_unitary(planted_sequential(dims222, s), init222,
                                          dims222, 0, "a_to_b", n_samples=32, seed=s)
                   for s in range(5)]
        assert max(forward) > 1e-3

    def test_generic_unitary_signals_both_ways(self, dims222, init222):
        u = haar_unitary(dims222.total, 77)
        ba = signaling_test_unitary(u, init222, dims222, 0, "b_to_a", n_samples=16, seed=0)
        ab = signaling_test_unitary(u, init222, dims222, 0, "a_to_b", n_samples=16, seed=0)
        assert ba > 1e-3 and ab > 1e-3

    @pytest.mark.parametrize("entry", ["locality_columns", "signaling_test_unitary"])
    def test_rejects_amplitudes_of_the_wrong_length(self, spec233, init233, propagator_builds,
                                                    entry):
        # both entry points build the source bases, and check the amplitudes there as
        # initial_state does: alpha of length 1 would otherwise broadcast into a basis of
        # non-unit states, which propagate would refuse by their norms, not by the amplitudes
        short = InitialSpec(alpha=np.ones(1), chi=init233.chi)
        with pytest.raises(ValueError, match=r"^alpha has length \(1,\), expected 2$"):
            if entry == "locality_columns":
                locality_columns(spec233, short, [0.0, 1.0], n_samples=2)
            else:
                signaling_test_unitary(np.eye(spec233.dims.total), short, spec233.dims, 0,
                                       "b_to_a", n_samples=2)
        assert propagator_builds == []

    def test_the_one_shot_probe_is_the_job_at_one_time(self):
        # U(t) = V e^{-iEt} V+ applied once gives, at each time, the signal the job reads off
        # the evolved source basis at that time, in both directions
        root = Path(__file__).resolve().parent.parent
        cfg = parse_config(json.loads((root / "presets" / "ion-cage.json").read_text()))
        spec, init = model_from_config(cfg), initial_from_config(cfg)
        times = np.linspace(0, 5, 11)
        columns = locality_columns(spec, init, times, 16, 3)
        energies, v = np.linalg.eigh(assemble_hamiltonian(spec))
        for k, t in enumerate(times):
            u = (v * np.exp(-1j * energies * t)) @ v.conj().T
            for direction in ("b_to_a", "a_to_b"):
                got = signaling_test_unitary(u, init, spec.dims, spec.robust_index, direction,
                                             n_samples=16, seed=3)
                assert abs(got - columns[f"signal_{direction}"][k]) <= 1e-13, (t, direction)
        assert columns["signal_b_to_a"].max() > 1e-3

    @pytest.mark.parametrize("u, error, message", [
        (np.full((8, 8), np.nan), ValidationError,
         "input is not unitary: an entry has a part of magnitude nan > 1"),
        (np.zeros((8, 8)), ValidationError, r"input is not unitary: max \|U\+U - I\| = 1.000e\+00"),
        (2 * np.eye(8), ValidationError,
         r"input is not unitary: an entry has a part of magnitude 2.000e\+00 > 1"),
        (np.eye(4), ValueError, r"unitary has shape \(4, 4\), expected \(8, 8\)"),
    ], ids=["nan", "zero", "twice-identity", "wrong-shape"])
    def test_rejects_a_matrix_that_is_not_an_n_by_n_unitary(self, dims222, init222, u, error,
                                                           message):
        # the checks and messages of decompose.sequential_residual, before any reduced state
        with pytest.raises(error, match=f"^{message}$"):
            signaling_test_unitary(u, init222, dims222, 0, "b_to_a", n_samples=4)


class TestSamplerSanity:
    def test_local_unitary_preserves_target_spectrum(self, dims233, init233):
        # G on the source, as (G @ amplitudes) @ basis, is the Kronecker-lifted G of
        # signaling_per_row on the product state; at t = 0 it leaves the target's
        # reduced state and the source's spectrum as they were
        lifts = {"b_to_a": lambda g: np.kron(np.eye(dims233.a * dims233.c), g),
                 "a_to_b": lambda g: np.kron(g, np.eye(dims233.c * dims233.b))}
        cases = [(d, r) for d in ("b_to_a", "a_to_b") for r in (0, 2)]
        for direction, robust_index in cases:
            src, target = (2, 0) if direction == "b_to_a" else (0, 2)
            psi0 = initial_state(init233, dims233, robust_index)
            amplitudes, basis, keep = _source_stack(init233, dims233, robust_index, direction)
            assert keep == (target,)
            assert_allclose(amplitudes @ basis, psi0, rtol=0, atol=1e-15)
            base_src, base_target = (rdm_from_state(psi0, dims233.factors, (k,))
                                     for k in (src, target))
            for k in range(8):
                g = haar_unitary(len(amplitudes), derive_seed(3, "sanity", k))
                mod = (g @ amplitudes) @ basis
                assert_allclose(mod, lifts[direction](g) @ psi0, rtol=0, atol=1e-14)
                rho_src, rho_target = (rdm_from_state(mod, dims233.factors, (k,))
                                       for k in (src, target))
                assert_allclose(rho_target, base_target, rtol=0, atol=1e-14)
                assert_allclose(np.linalg.eigvalsh(rho_src), np.linalg.eigvalsh(base_src),
                                rtol=0, atol=1e-14)
                assert abs(vn_entropy(rho_src) - vn_entropy(base_src)) <= 1e-10


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
            mi = mi_and_entropies(evolved_states(spec, init233, times), spec.dims)[0]
            taus.append(tau_estimate(times, mi, 0.01))
        assert all(t is not None for t in taus)
        assert taus[0] < taus[1] < taus[2]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            tau_estimate([0.0], [0.0], 0.0)

    def test_rejects_series_of_another_length(self):
        with pytest.raises(ValueError, match="^times and mi_ab_bits must have the same length$"):
            tau_estimate([0.0, 1.0, 2.0], [0.0, 0.02], 0.01)


class TestOneEigensystem:
    def test_one_trajectory_serves_every_diagnostic(self, spec233, init233, propagator_builds):
        # the simulate job, the mutual information and the residuals, reads one trajectory,
        # and the locality job, both signals and its mutual information, diagonalizes its
        # model once
        times = np.linspace(0, 5, 12)
        _, simulated = simulate_columns(spec233, init233, times)
        n = spec233.dims.total
        assert propagator_builds == [(n, n)]
        columns = locality_columns(spec233, init233, times, n_samples=3, seed=1)
        assert propagator_builds == [(n, n)] * 2
        assert_allclose(columns["mi_ab_bits"], simulated["mi_ab_bits"], rtol=0, atol=1e-12)

    def test_signaling_evolves_on_the_trajectory_route(self, spec233, init233, propagator_builds,
                                                       monkeypatch):
        times = np.linspace(0, 5, 12)
        want = locality_columns(spec233, init233, times, n_samples=3, seed=1)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", np.inf)
        psi0 = initial_state(init233, spec233.dims, spec233.robust_index)
        assert isinstance(evolve_module._route(spec233, times, [1, 2])[0], Chebyshev)
        # psi0 alone runs as one recurrence; a stack of two copies of it takes 12 x 18 //
        # (2 x 18) = 6 rows a block, each recurrence from the last row of the one before, and
        # every column matches the one-recurrence evolution
        alone, twice = propagate(spec233, times, [psi0[None], np.stack([psi0] * 2)])
        assert [rows for rows, _ in alone] == [slice(0, 12)]
        blocks = [(rows, states.copy()) for rows, states in twice]
        assert [rows for rows, _ in blocks] == [slice(0, 6), slice(6, 12)]
        stacked = np.concatenate([states for _, states in blocks])
        whole = route_states(Chebyshev(spec233), psi0, times)
        for k in range(2):
            assert_allclose(stacked[:, k], whole, rtol=0, atol=1e-13)
        got = locality_columns(spec233, init233, times, n_samples=3, seed=1)
        assert len(propagator_builds) == 1  # the spectral job's own
        for name in want:
            assert_allclose(got[name], want[name], rtol=0, atol=1e-12)


def evolved(monkeypatch, route):
    """Lists that gain each stack ``route.blocks`` evolves and the size of each block it yields."""
    stacks, sizes = [], []
    blocks = route.blocks

    def counted(self, psi, times, max_rows):
        stacks.append(np.array(psi))
        for rows, states in blocks(self, psi, times, max_rows):
            sizes.append(states.size)
            yield rows, states

    monkeypatch.setattr(route, "blocks", counted)
    return stacks, sizes


def spied(monkeypatch, name):
    """A list that gains (args, result) of each call of ``locality.<name>`` during the test."""
    calls = []
    function = getattr(locality_module, name)

    def recorded(*args):
        calls.append((args, function(*args)))
        return calls[-1][1]

    monkeypatch.setattr(locality_module, name, recorded)
    return calls


def sample_states(calls, n_samples):
    """The (T, n_samples, d, d) target differences that spied ``max_trace_distance`` calls took.

    A row slice's sample slices come one after the other; they are joined by samples, then
    the row slices by rows.
    """
    rows, part = [], []
    for (diffs,), _ in calls:
        part.append(diffs)
        if sum(p.shape[1] for p in part) == n_samples:
            rows.append(np.concatenate(part, axis=1))
            part = []
    return np.concatenate(rows)


class TestSignalingByLinearity:
    def test_evolved_blocks_never_outgrow_the_trajectory(self, spec233, init233, monkeypatch,
                                                         job_route):
        # the d_B, then the d_A source basis states and nothing else evolve once at each time,
        # in blocks of at most the trajectory's T n numbers, on the spectral route and on the
        # Chebyshev route: psi0 is their G = I combination, never a row of a stack
        times = np.linspace(0, 5, 40)
        n = spec233.dims.total
        for eigh_cost, route in ((evolve_module.EIGH_FLOPS_PER_N3, Propagator),
                                 (np.inf, Chebyshev)):
            monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
            assert isinstance(job_route(locality_columns, spec233, init233, times), route)
            stacks, sizes = evolved(monkeypatch, route)
            locality_columns(spec233, init233, times, n_samples=64, seed=1)
            for stack, direction in zip(stacks, ("b_to_a", "a_to_b"), strict=True):
                basis = _source_stack(init233, spec233.dims, spec233.robust_index, direction)[1]
                assert np.array_equal(stack, basis)
            # 40 times x 18 numbers in blocks of 13 rows (B to A, d_B = 3) and 20 (d_A = 2)
            assert len(sizes) == 4 + 2
            assert max(sizes) <= min(evolve_module.BLOCK_NUMBERS, len(times) * n)
            assert sum(sizes) == len(times) * (spec233.dims.b + spec233.dims.a) * n

    @pytest.mark.parametrize("eigh_cost, route", [(evolve_module.EIGH_FLOPS_PER_N3, Propagator),
                                                  (np.inf, Chebyshev)])
    def test_sample_stacks_never_outgrow_the_trajectory(self, spec233, init233, monkeypatch,
                                                         job_route, eigh_cost, route):
        # 1000 samples against 5 times: no state, cross stack or stack of sample differences
        # holds more than the trajectory's 5 x 18 numbers; at 2x2x5 one row's cross states,
        # (2 x 5)^2 = 100 numbers, fill the trajectory's 5 x 20, so they go one row at a time
        times = np.linspace(0, 5, 5)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        spec225, init225, _ = oracle_case((2, 2, 5), 0.5)
        for spec, init, n_samples in ((spec233, init233, 1000), (spec225, init225, 2)):
            assert isinstance(job_route(locality_columns, spec, init, times), route)
            rdms = spied(monkeypatch, "rdm_from_state")
            samples = spied(monkeypatch, "max_trace_distance")
            locality_columns(spec, init, times, n_samples=n_samples, seed=1)
            budget = min(evolve_module.BLOCK_NUMBERS, len(times) * spec.dims.total)
            assert max(max(np.size(args[0]), out.size) for args, out in rdms) <= budget
            assert max(np.size(args[0]) for args, _ in samples) <= budget
            # every sample's target difference at every time, d_A^2 or d_B^2 numbers, went once
            d_a, _, d_b = spec.dims.factors
            total = len(times) * n_samples * (d_a ** 2 + d_b ** 2)
            assert sum(np.size(args[0]) for args, _ in samples) == total

    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf])
    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    def test_sliced_samples_give_the_unsliced_signal(self, spec233, init233, monkeypatch,
                                                     eigh_cost, direction):
        # 111 samples against 5 times: slices of the rows and of the samples give every
        # sample's target difference, and so the signal, to the bit as one GEMM of all 111
        # samples' q_s = w_s w_s+ - a a+ with each block's cross states does. 111 is one past a
        # multiple of both directions' slice sizes, 22 and 10: the samples are split evenly,
        # so no slice holds one lone sample, whose product BLAS would round by another kernel
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        times = np.linspace(0, 5, 5)
        dims = spec233.dims
        calls = spied(monkeypatch, "max_trace_distance")
        amplitudes, basis, keep = _source_stack(init233, dims, spec233.robust_index, direction)
        reduce = locality_module._signaling_reducer(amplitudes, keep, dims, direction, 111, 1,
                                                    budget=10 ** 9)
        (stream,) = propagate(spec233, times, [basis])
        whole = np.concatenate([reduce(states) for _, states in stream])
        assert all(args[0].shape[1] == 111 for args, _ in calls)
        unsliced = sample_states(calls, 111)
        calls.clear()
        got = signal(spec233, init233, times, direction, n_samples=111, seed=1)
        # the job's calls of this direction, whose differences are d_target x d_target
        d_target = dims.a if direction == "b_to_a" else dims.b
        calls = [call for call in calls if call[0][0].shape[-1] == d_target]
        assert all(args[0].shape[1] < 111 for args, _ in calls)  # the samples went in slices
        assert np.array_equal(sample_states(calls, 111), unsliced)
        assert np.array_equal(got, whole)

    def test_unitaries_are_drawn_a_budget_at_a_time(self, spec233, init233, monkeypatch):
        # 1000 samples against 5 times of dim 18: the source unitaries are drawn 90 // 3^2 = 10
        # (B to A) and 90 // 2^2 = 22 (A to B) at a time, bit for bit the draws of one call, so
        # no stack of them outgrows the trajectory's 5 x 18 numbers
        draws = []
        haar = locality_module.haar_unitary

        def recorded(dim, seeds):
            draws.append((dim, list(seeds), haar(dim, seeds)))
            return draws[-1][2]

        monkeypatch.setattr(locality_module, "haar_unitary", recorded)
        locality_columns(spec233, init233, np.linspace(0, 5, 5), n_samples=1000, seed=1)
        for direction, d_s, per in (("b_to_a", 3, 10), ("a_to_b", 2, 22)):
            mine = [(seeds, u) for dim, seeds, u in draws if dim == d_s]
            assert max(u.size for _, u in mine) <= 5 * 18
            lengths = [len(seeds) for seeds, _ in mine]
            assert lengths[:-1] == [per] * (len(lengths) - 1) and 0 < lengths[-1] <= per
            seeds = [s for part, _ in mine for s in part]
            assert seeds == [derive_seed(1, "signaling", direction, k) for k in range(1000)]
            assert np.array_equal(np.concatenate([u for _, u in mine]), haar(d_s, seeds))


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
        states = evolved_states(spec, init, times)
        expected = mi_per_row(states, spec.dims)
        assert_allclose(mi_and_entropies(states, spec.dims)[0], expected, rtol=0, atol=1e-12)
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
        got = signal(spec, init, times, direction, n_samples=5, seed=2)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    @pytest.mark.parametrize("factors, c2", ORACLE_CASES, ids=ORACLE_IDS)
    def test_signaling_on_the_chebyshev_route_matches_per_row_loop(self, factors, c2,
                                                                    direction, monkeypatch,
                                                                    job_route):
        # the oracle evolves every state over the whole grid by Chebyshev steps, while the
        # locality job takes the source basis in blocks, each from the one before
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", np.inf)
        spec, init, times = oracle_case(factors, c2)
        route = job_route(locality_columns, spec, init, times)
        assert isinstance(route, Chebyshev)
        evolve = lambda psi: route_states(route, psi, times)
        psi0 = initial_state(init, spec.dims, spec.robust_index)
        expected = signaling_per_row(evolve, psi0, evolve(psi0), spec.dims,
                                     direction, n_samples=5, seed=2)
        got = signal(spec, init, times, direction, n_samples=5, seed=2)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf])
    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    def test_fewer_samples_than_pair_weights(self, direction, eigh_cost, monkeypatch, job_route):
        # 3 samples against d_source^2 = 25 (B to A) or 4 (A to B) pair weights, on both routes
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        spec, init, times = oracle_case((2, 2, 5), 0.5)
        route = job_route(locality_columns, spec, init, times)
        assert isinstance(route, Chebyshev if eigh_cost == np.inf else Propagator)
        evolve = lambda psi: route_states(route, psi, times)
        psi0 = initial_state(init, spec.dims, spec.robust_index)
        expected = signaling_per_row(evolve, psi0, evolve(psi0), spec.dims,
                                     direction, n_samples=3, seed=2)
        assert expected.max() > 1e-3
        got = signal(spec, init, times, direction, n_samples=3, seed=2)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("direction", ["b_to_a", "a_to_b"])
    def test_one_shot_cross_states_outgrow_their_budget(self, dims222, init222, direction,
                                                        monkeypatch):
        # at 2x2x2 one row's cross states, (2 x 2)^2 = 16 numbers, outnumber the evolved
        # state's 8: they are formed whole, while the samples go 8 // 4 = 2 at a time
        u = haar_unitary(dims222.total, 8)
        psi0 = initial_state(init222, dims222, 0)
        evolve = lambda psi: (u @ psi)[None, :]
        expected = signaling_per_row(evolve, psi0, evolve(psi0), dims222, direction,
                                     n_samples=9, seed=3)
        rdms = spied(monkeypatch, "rdm_from_state")
        samples = spied(monkeypatch, "max_trace_distance")
        got = signaling_test_unitary(u, init222, dims222, 0, direction, n_samples=9, seed=3)
        assert [out.size for (_, dims, _), out in rdms if len(dims) == 4] == [16]
        assert [args[0].size for args, _ in samples] == [8] * 4 + [4]
        assert expected[0] > 1e-3
        assert abs(got - expected[0]) <= 1e-12

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
        got = signaling_test_unitary(u, init, dims, 0, direction, n_samples=5, seed=2)
        assert abs(got - expected[0]) <= 1e-12


def relabel_c(spec, r):
    """``spec`` with C relabelled so that its robust state, C index 0, sits at index r."""
    d_a, d_c, d_b = spec.dims.factors
    order = np.roll(np.arange(d_c), r)  # new C index k is old index order[k]; order[r] = 0
    h_ac = spec.h_ac.reshape(d_a, d_c, d_a, d_c)[:, order][..., order]
    h_cb = spec.h_cb.reshape(d_c, d_b, d_c, d_b)[order][:, :, order]
    return dataclasses.replace(spec, h_c=spec.h_c[np.ix_(order, order)],
                               h_ac=h_ac.reshape(d_a * d_c, -1), h_cb=h_cb.reshape(d_c * d_b, -1),
                               robust_index=r)


class TestRelabelledC:
    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("factors", [(2, 3, 4), (3, 4, 2)], ids=["2x3x4", "3x4x2"])
    def test_columns_do_not_move_with_the_robust_index(self, factors, eigh_cost, monkeypatch,
                                                         job_route):
        # the robust C state moved to each index r is the same physics: every column of the
        # locality job stays put. On the Chebyshev route, with the split priced free, the C-B
        # block goes as its two sectors at the first and the last r and as one GEMM between
        spec, init, _ = oracle_case(factors, 0.5)
        spec = dataclasses.replace(spec, c1=20.0)
        times = np.linspace(0, 10, 41)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        monkeypatch.setattr(evolve_module, "CHEB_TERM_FLOPS", 0.0)
        want = locality_columns(spec, init, times, n_samples=16, seed=3)
        assert want["mi_ab_bits"].max() > 1e-3 and want["signal_b_to_a"].max() > 1e-3
        d_c = factors[1]
        for r in range(d_c):
            moved = relabel_c(spec, r)
            route = job_route(locality_columns, moved, init, times)
            assert isinstance(route, Chebyshev if eigh_cost == np.inf else Propagator)
            if eigh_cost == np.inf:
                assert len(route._cb_t) == (2 if r in (0, d_c - 1) else 1)
            got = locality_columns(moved, init, times, n_samples=16, seed=3)
            for name in want:
                assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=f"{name}, r={r}")

    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("factors", [(2, 3, 4), (3, 4, 2)], ids=["2x3x4", "3x4x2"])
    def test_simulate_columns_do_not_move_with_the_robust_index(self, factors, eigh_cost,
                                                                 monkeypatch, job_route):
        # the same for the simulate job: its mutual information, entropies, residuals and
        # norm errors, and the product form's shift table, on the route forced as above
        spec, init, _ = oracle_case(factors, 0.5)
        spec = dataclasses.replace(spec, c1=20.0)
        times = np.linspace(0, 10, 41)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        monkeypatch.setattr(evolve_module, "CHEB_TERM_FLOPS", 0.0)
        pd, want = simulate_columns(spec, init, times)
        assert want["mi_ab_bits"].max() > 1e-3 and want["residual_eq4"].max() > 0.1
        d_c = factors[1]
        for r in range(d_c):
            moved = relabel_c(spec, r)
            route = job_route(simulate_columns, moved, init, times)
            assert isinstance(route, Chebyshev if eigh_cost == np.inf else Propagator)
            if eigh_cost == np.inf:
                assert len(route._cb_t) == (2 if r in (0, d_c - 1) else 1)
            moved_pd, got = simulate_columns(moved, init, times)
            assert_allclose(moved_pd.lambda_i0j, pd.lambda_i0j, rtol=0, atol=1e-12)
            for name in want:
                assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=f"{name}, r={r}")


def conjugate_locally(spec, init, seed, identity=""):
    """``spec`` and ``init`` under U_A x U_C x U_B, where U_C is 1 at the robust C index r and
    Haar on the others, so it fixes the robust state.

    The model is rebuilt from its conjugated matrices, so ``ModelSpec`` checks it afresh;
    alpha turns by U_A and chi by U_B. The sides named in ``identity`` ("A", "B") keep U = I.
    """
    d_a, d_c, d_b = spec.dims.factors
    u_a = np.eye(d_a) if "A" in identity else haar_unitary(d_a, derive_seed(seed, "U_A"))
    u_b = np.eye(d_b) if "B" in identity else haar_unitary(d_b, derive_seed(seed, "U_B"))
    others = np.delete(np.arange(d_c), spec.robust_index)
    u_c = np.eye(d_c, dtype=complex)
    u_c[np.ix_(others, others)] = haar_unitary(d_c - 1, derive_seed(seed, "U_C"))

    def turn(u, m):
        return u @ m @ u.conj().T

    moved = ModelSpec(dims=spec.dims, h_a=turn(u_a, spec.h_a), h_c=turn(u_c, spec.h_c),
                      h_b=turn(u_b, spec.h_b), h_ac=turn(np.kron(u_a, u_c), spec.h_ac),
                      h_cb=turn(np.kron(u_c, u_b), spec.h_cb), c1=spec.c1, c2=spec.c2,
                      robust_index=spec.robust_index)
    return moved, InitialSpec(alpha=u_a @ init.alpha, chi=u_b @ init.chi)


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("factors", [(2, 2, 2), (2, 3, 2), (3, 2, 4)],
                             ids=["2x2x2", "2x3x2", "3x2x4"])
    def test_planted_sequential_unitary_stays_sequential(self, factors, seed):
        # L = U_A x U_C x U_B takes (I_A x W)(V x I_B) to (I_A x W')(V' x I_B) with
        # V' = (U_A x U_C) V (U_A x U_C)+ and W' = (U_C x U_B) W (U_C x U_B)+: the conjugated
        # unitary still factors, and B still cannot signal to A through it
        dims = Dims(*factors)
        u_a, u_c, u_b = (haar_unitary(d, derive_seed(seed, "local", name))
                         for d, name in zip(factors, "ACB"))
        local = np.kron(np.kron(u_a, u_c), u_b)
        planted = planted_sequential(dims, seed)
        u = local @ planted @ local.conj().T
        assert np.abs(u - planted).max() > 0.1
        assert sequential_residual(u, dims).residual <= 1e-12
        init = InitialSpec(alpha=haar_unitary(dims.a, seed)[:, 0],
                           chi=haar_unitary(dims.b, seed)[:, 0])
        assert signaling_test_unitary(u, init, dims, 0, "b_to_a") <= 1e-12

    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("r", [0, 1], ids=["r0", "r1"])
    @pytest.mark.parametrize("factors", [(2, 3, 4), (3, 3, 5)], ids=["2x3x4", "3x3x5"])
    def test_simulate_job_is_invariant(self, factors, r, eigh_cost, monkeypatch, job_route):
        # the same physics in other local bases: the mutual information, both entropies and
        # the residual of the product form stay put at every time, and so do the dressed
        # energies as a set and sup |lambda_i0j|. Each cross entry of the conjugated h_cb is a
        # sum of terms with an exactly zero factor, so it stays exactly 0; on the Chebyshev
        # route, with the split priced free, the C-B block goes as its two sectors at r = 0
        # and as one dense GEMM at the middle index r = 1, in both bases
        spec, init, _ = oracle_case(factors, 0.5)
        spec = relabel_c(dataclasses.replace(spec, c1=20.0), r)
        moved, moved_init = conjugate_locally(spec, init, sum(factors))
        assert not cross_blocks(moved.h_cb, spec.dims, r).any()
        assert np.abs(moved.h_cb - spec.h_cb).max() > 0.1
        times = np.linspace(0, 10, 41)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        monkeypatch.setattr(evolve_module, "CHEB_TERM_FLOPS", 0.0)
        pd, want = simulate_columns(spec, init, times)
        assert want["mi_ab_bits"].max() > 1e-3 and want["residual_eq4"].max() > 1e-2
        for model, state in ((spec, init), (moved, moved_init)):
            route = job_route(simulate_columns, model, state, times)
            assert isinstance(route, Chebyshev if eigh_cost == np.inf else Propagator)
            if eigh_cost == np.inf:
                assert len(route._cb_t) == (2 if r == 0 else 1)
        moved_pd, got = simulate_columns(moved, moved_init, times)
        for name in ("mi_ab_bits", "entropy_a_bits", "entropy_b_bits", "residual_eq4"):
            assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)
        assert_allclose(np.sort(moved_pd.energies, axis=None), np.sort(pd.energies, axis=None),
                        rtol=0, atol=1e-12)
        assert abs(moved_pd.lambda_sup - pd.lambda_sup) <= 1e-12

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(factors=st.tuples(st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]),
                             st.sampled_from([2, 3, 4])),
           seed=st.integers(0, 2 ** 16), c1=st.floats(10.0, 60.0), data=st.data())
    def test_simulate_job_is_invariant_on_drawn_models(self, factors, seed, c1, data):
        # the parametrized test above over drawn models, robust indices and couplings, on the
        # route the count picks: the local bases move no column of the simulate job
        r = data.draw(st.integers(0, factors[1] - 1), label="robust_index")
        dims = Dims(*factors)
        rng = np.random.default_rng(seed)
        alpha, chi = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in factors[::2])
        init = InitialSpec(alpha=alpha / np.linalg.norm(alpha), chi=chi / np.linalg.norm(chi))
        spec = build_canonical(dims, seed, c1, 0.5, robust_index=r)
        moved, moved_init = conjugate_locally(spec, init, seed)
        times = np.linspace(0, 10, 41)
        _, want = simulate_columns(spec, init, times)
        _, got = simulate_columns(moved, moved_init, times)
        for name in ("mi_ab_bits", "entropy_a_bits", "entropy_b_bits", "residual_eq4"):
            assert_allclose(got[name], want[name], rtol=0, atol=1e-11, err_msg=name)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(factors=st.tuples(st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]),
                             st.sampled_from([2, 3, 4])),
           seed=st.integers(0, 2 ** 16), c1=st.floats(10.0, 60.0), data=st.data())
    def test_locality_job_is_invariant_on_drawn_models(self, factors, seed, c1, data):
        # the two parametrized tests below over drawn models, robust indices and couplings, on
        # the route the count picks: local unitaries on all three sides move no mutual
        # information, and on the target side and C alone they move neither signal's target
        r = data.draw(st.integers(0, factors[1] - 1), label="robust_index")
        dims = Dims(*factors)
        rng = np.random.default_rng(seed)
        alpha, chi = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in factors[::2])
        init = InitialSpec(alpha=alpha / np.linalg.norm(alpha), chi=chi / np.linalg.norm(chi))
        spec = build_canonical(dims, seed, c1, 0.5, robust_index=r)
        times = np.linspace(0, 10, 41)
        want = locality_columns(spec, init, times, n_samples=8, seed=1)
        for identity, names in (("", ["mi_ab_bits"]), ("B", ["signal_b_to_a", "mi_ab_bits"]),
                                ("A", ["signal_a_to_b", "mi_ab_bits"])):
            moved, moved_init = conjugate_locally(spec, init, seed, identity=identity)
            got = locality_columns(moved, moved_init, times, n_samples=8, seed=1)
            for name in names:
                assert_allclose(got[name], want[name], rtol=0, atol=1e-11,
                                err_msg=f"{name}, U = I on {identity or 'no side'}")

    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("r", [0, 1], ids=["r0", "r1"])
    @pytest.mark.parametrize("factors", [(2, 3, 4), (3, 3, 5)], ids=["2x3x4", "3x3x5"])
    def test_locality_mi_is_invariant(self, factors, r, eigh_cost, monkeypatch, job_route):
        # the locality job's mutual information, read off the evolved B source basis as chi @
        # phi, is that of the same physics in other local bases at every time; the sampled
        # signals are left out, as the seeded unitaries are not conjugated with the model
        spec, init, _ = oracle_case(factors, 0.5)
        spec = relabel_c(dataclasses.replace(spec, c1=20.0), r)
        moved, moved_init = conjugate_locally(spec, init, sum(factors))
        assert np.abs(moved.h_cb - spec.h_cb).max() > 0.1
        times = np.linspace(0, 10, 41)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        monkeypatch.setattr(evolve_module, "CHEB_TERM_FLOPS", 0.0)
        for model, state in ((spec, init), (moved, moved_init)):
            route = job_route(locality_columns, model, state, times)
            assert isinstance(route, Chebyshev if eigh_cost == np.inf else Propagator)
        want = locality_columns(spec, init, times, n_samples=8, seed=1)["mi_ab_bits"]
        got = locality_columns(moved, moved_init, times, n_samples=8, seed=1)["mi_ab_bits"]
        assert want.max() > 1e-3
        assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eigh_cost", [evolve_module.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("r", [0, 1], ids=["r0", "r1"])
    @pytest.mark.parametrize("factors", [(2, 3, 4), (3, 3, 5)], ids=["2x3x4", "3x3x5"])
    def test_signals_are_invariant_on_the_target_side(self, factors, r, eigh_cost, monkeypatch,
                                                        job_route):
        # U_target x U_C with the source side left as I commutes with every sampled G on the
        # source, so each sample's target state only turns by U_target and its trace distance
        # stays put, to roundoff: the seeded unitaries need no conjugating. A reduction of the
        # target state that depended on the target's basis, or on C's, would move the signal
        spec, init, _ = oracle_case(factors, 0.5)
        spec = relabel_c(dataclasses.replace(spec, c1=20.0), r)
        times = np.linspace(0, 10, 41)
        monkeypatch.setattr(evolve_module, "EIGH_FLOPS_PER_N3", eigh_cost)
        monkeypatch.setattr(evolve_module, "CHEB_TERM_FLOPS", 0.0)
        want = locality_columns(spec, init, times, n_samples=8, seed=1)
        for source, name, other in (("B", "signal_b_to_a", "signal_a_to_b"),
                                    ("A", "signal_a_to_b", "signal_b_to_a")):
            moved, moved_init = conjugate_locally(spec, init, sum(factors), identity=source)
            assert np.abs(moved.h_ac - spec.h_ac).max() > 0.1
            assert np.abs(moved.h_cb - spec.h_cb).max() > 0.1
            route = job_route(locality_columns, moved, moved_init, times)
            assert isinstance(route, Chebyshev if eigh_cost == np.inf else Propagator)
            got = locality_columns(moved, moved_init, times, n_samples=8, seed=1)
            assert want[name].max() > 1e-3
            assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)
            # the other signal's source side turned, and its seeded unitaries did not
            assert np.abs(got[other] - want[other]).max() > 1e-3
