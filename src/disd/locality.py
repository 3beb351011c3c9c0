"""Information-transfer diagnostics between the outer subsystems A and B.

Two operational probes: the A:B mutual information along a trajectory
(reading out one side reveals nothing about the other iff it vanishes), and
a signaling test that applies sampled Haar unitaries to one side at t = 0
and measures how far the other side's reduced state can be pushed. The
correlation onset time is the first threshold crossing of the mutual
information, linearly interpolated.

The global state is pure, so S(AB) = S(C) and the mutual information is
I(A:B) = S(A) + S(B) - S(C): no d_A*d_B reduced state is formed, and every
term is computed for a block of sample times in one stacked call.

Signaling uses linearity twice. A unitary G on the source side maps the
initial state to sum_j w_j phi_j, w = G @ amplitudes, over the d_s source
basis states phi_j, so only those evolve. The target's reduced state is then
quadratic in w: sum_jk w_j conj(w_k) Tr_rest |phi_j(t)><phi_k(t)|. So the
d_s^2 cross reduced states of the evolved basis, formed once per time, give
every sample's target state by one GEMM with the pair weights w_j conj(w_k);
no sample state is ever formed. Per time that costs d_s^2 d_t n for the
cross states and n_samples d_s^2 d_t^2 for the samples.
"""

from __future__ import annotations

import numpy as np

from .evolve import BLOCK_NUMBERS, Trajectory
from .model import InitialSpec, initial_state, place_robust
from .qcore import (Dims, ValidationError, derive_seed, haar_unitary, max_trace_distance,
                    rdm_from_state, vn_entropy)

__all__ = [
    "mi_and_entropies",
    "signaling_test",
    "signaling_test_unitary",
    "tau_estimate",
]


def mi_and_entropies(states: np.ndarray,
                     dims: Dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I(A:B), S(A) and S(B) in bits of each pure state, a row of ``states`` (T, n).

    S(A), S(C) and S(B) are one stacked call each, and I(A:B) = S(A)+S(B)-S(C).
    """
    s_a, s_c, s_b = (vn_entropy(rdm_from_state(states, dims.factors, (k,))) for k in range(3))
    mi = s_a + s_b - s_c
    lo = mi.min(initial=0.0)
    if lo < -1e-9:
        raise ValidationError(f"mutual information {lo:.3e} below -1e-9")
    return np.maximum(mi, 0.0), s_a, s_b


def _source_stack(init: InitialSpec, dims: Dims, robust_index: int, direction: str):
    """(amplitudes, basis, keep): G on the source makes psi0 into (G @ amplitudes) @ basis."""
    if direction == "b_to_a":  # basis rows alpha x |r> x |j>
        amplitudes, ab, keep = init.chi, init.alpha[:, None] * np.eye(dims.b)[:, None], (0,)
    elif direction == "a_to_b":  # basis rows |i> x |r> x chi
        amplitudes, ab, keep = init.alpha, np.eye(dims.a)[:, :, None] * init.chi, (2,)
    else:
        raise ValueError(f"direction must be 'b_to_a' or 'a_to_b', got {direction!r}")
    return amplitudes, place_robust(ab, dims, robust_index), keep


def _signaling_curves(chunks, amplitudes: np.ndarray, keep: tuple[int], dims: Dims,
                      direction: str, n_samples: int, seed: int, budget: int) -> np.ndarray:
    """Per-row max target disturbance of the sample states (G_s @ amplitudes) @ phi.

    Sample s's state is sum_j w_sj phi_j with w_s = G_s @ amplitudes, so its target
    state is sum_jk w_sj conj(w_sk) Tr_rest |phi_j><phi_k|: one GEMM of the pair weights
    w_sj conj(w_sk) with the d_s^2 cross reduced states, batched over a slice of rows.
    ``chunks`` yields (phi, ref) for consecutive rows: the evolved source basis, shape
    (rows, d_s, n), and the unmodified states, shape (rows, n). No stack of cross states,
    rows x (d_s d_t)^2 numbers, and no stack of sample target states, rows x samples x
    d_t^2, holds more than ``budget`` numbers, except one row's cross states, taken whole.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d_s, d_t = len(amplitudes), dims.factors[keep[0]]
    seeds = [derive_seed(seed, "signaling", direction, k) for k in range(n_samples)]
    weights = haar_unitary(d_s, seeds) @ amplitudes
    pairs = (weights[:, :, None] * weights[:, None, :].conj()).reshape(n_samples, d_s ** 2)
    per = max(1, min(n_samples, budget // d_t ** 2))
    step = max(1, min(budget // (d_s * d_t) ** 2, budget // (per * d_t ** 2)))
    # even slices: none is a lone sample (for per >= 3), whose product BLAS would round by
    # another kernel, so the slicing leaves each sample's target state as it is, to the bit
    slices = np.array_split(pairs, -(-n_samples // per))
    out = []
    for phi, ref in chunks:
        ref_rdms = rdm_from_state(ref, dims.factors, keep)[:, None]
        for i in range(0, len(phi), step):
            rows = phi[i:i + step]
            m = len(rows)
            cross = rdm_from_state(rows.reshape(m, -1), (d_s, *dims.factors),
                                   (0, 1 + keep[0]))  # (m, (j, a), (k, b))
            cross = cross.reshape(m, d_s, d_t, d_s, d_t).transpose(0, 1, 3, 2, 4)
            cross = cross.reshape(m, d_s ** 2, d_t ** 2)
            rdms = ((p @ cross).reshape(m, -1, d_t, d_t) for p in slices)
            out.append(np.max([max_trace_distance(r, ref_rdms[i:i + step]) for r in rdms], axis=0))
    return np.concatenate(out)


def signaling_test(traj: Trajectory, direction: str, n_samples: int = 64,
                   seed: int = 0, on_rows=None) -> np.ndarray:
    """Max reduced-state disturbance of the target side under sampled source unitaries.

    For each of ``n_samples`` Haar unitaries G on the source subsystem (B for
    direction "b_to_a"), the trajectory's initial state is modified by G at
    t = 0 and evolved over the trajectory's times, and the trace distance
    between the target's reduced states and the trajectory's own is
    recorded; the per-time maximum over samples is returned. Sample k's
    unitary depends only on (seed, direction, k), so enlarging n_samples
    refines the same family. Only the d_source source basis states evolve, in
    one stack with the trajectory's own state on its route
    (``Trajectory.evolve``), whose rows in each block are the reference.
    ``on_rows``, if given, is called with those rows of each block, (rows, n),
    so a caller reduces them in the same pass. Every sample's target state is
    the GEMM of its pair weights with the cross reduced states of those basis
    states (see the module docstring). They go a few times and a few samples at
    a time, so that neither a stack of cross states (d_source^2 d_target^2
    numbers a time) nor a stack of sample target states (d_target^2 a sample
    and time) holds more numbers than a block may, min(BLOCK_NUMBERS, T n),
    whatever ``n_samples`` is. The one exception: where a single time's cross
    states outnumber that, they are formed one time at a time. The maximum
    over samples is ``qcore.max_trace_distance``, which runs ``eigvalsh`` only
    on the samples that a Frobenius-norm bracket of the trace norm leaves in
    the running; it equals the maximum of every sample's trace distance bit
    for bit.
    """
    model = traj.model
    amplitudes, basis, keep = _source_stack(traj.init, model.dims, model.robust_index, direction)

    def chunks():
        for _, states in traj.evolve(basis):
            if on_rows is not None:
                on_rows(states[:, 0])
            yield states[:, 1:], states[:, 0]

    return _signaling_curves(chunks(), amplitudes, keep, model.dims, direction, n_samples, seed,
                             budget=min(BLOCK_NUMBERS, traj.psi0.size * len(traj.times)))


def signaling_test_unitary(u: np.ndarray, init: InitialSpec, dims: Dims, robust_index: int,
                           direction: str, n_samples: int = 64, seed: int = 0) -> float:
    """Signaling probe when the dynamics is one global unitary ``u`` applied once.

    The same probe as :func:`signaling_test` at the one time, with the evolved
    state ``u @ psi0`` as its trajectory: no stack of sample target states
    holds more numbers than that state, and the cross states, d_source^2
    d_target^2 numbers, are formed whole even where they outnumber it.
    """
    psi0 = initial_state(init, dims, robust_index)  # checks the amplitudes against dims
    amplitudes, basis, keep = _source_stack(init, dims, robust_index, direction)
    u = np.asarray(u, dtype=complex)
    chunk = ((basis @ u.T)[None], (u @ psi0)[None])
    return float(_signaling_curves([chunk], amplitudes, keep, dims, direction, n_samples, seed,
                                   budget=dims.total)[0])


def tau_estimate(times, mi_ab_bits, threshold_bits: float) -> float | None:
    """First time the mutual information crosses the threshold, or None.

    Linear interpolation between the bracketing samples; returns the first
    sample time if the series already starts at or above the threshold.
    """
    if not threshold_bits > 0:
        raise ValueError("threshold_bits must be positive")
    t = np.asarray(times, dtype=float)
    m = np.asarray(mi_ab_bits, dtype=float)
    if t.shape != m.shape:
        raise ValueError("times and mi_ab_bits must have the same length")
    above = np.flatnonzero(m >= threshold_bits)
    if above.size == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(t[0])
    frac = (threshold_bits - m[k - 1]) / (m[k] - m[k - 1])
    return float(t[k - 1] + frac * (t[k] - t[k - 1]))
