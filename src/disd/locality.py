"""Information-transfer diagnostics between the outer subsystems A and B.

The locality job, :func:`locality_columns`, reads two operational probes off
one evolution: the A:B mutual information (reading out one side reveals
nothing about the other iff it vanishes), and the signal in each direction,
how far sampled Haar unitaries applied to one side at t = 0 can push the
other side's reduced state. The correlation onset time is the first threshold
crossing of the mutual information, linearly interpolated.

Signaling uses linearity twice. A unitary G on the source side maps the
initial state to sum_j w_j phi_j, w = G @ a, over the d_s source basis states
phi_j and the source amplitudes a, so only those evolve: psi0 is the G = I
member, w = a. The target's reduced state is then quadratic in w: sum_jk w_j
conj(w_k) Tr_rest |phi_j(t)><phi_k(t)|. So the d_s^2 cross reduced states of
the evolved basis, formed once per time, give each sample's difference from
psi0's target state by one GEMM, D_s = q_s @ cross with q_s = w_s w_s+ - a a+.
Per time that costs d_s^2 d_t n for the cross states and n_samples d_s^2 d_t^2
for the samples.
"""

from __future__ import annotations

import sys

import numpy as np

from .evolve import block_budget, propagate
from .model import InitialSpec, ModelSpec, initial_state, place_robust
from .qcore import (_BRIEF, Dims, _check_seed, _is_integer, check_unitary, derive_seed,
                    haar_unitary, max_trace_distance, mi_and_entropies, rdm_from_state)

__all__ = [
    "check_n_samples",
    "check_threshold_bits",
    "locality_columns",
    "signaling_test_unitary",
    "tau_estimate",
]

MAX_SAMPLES = 100_000  # cap on n_samples; each sample combines the evolved source basis


def check_n_samples(n_samples: int) -> None:
    """ValueError unless n_samples is an integer, not a bool, in [1, MAX_SAMPLES]."""
    if not (_is_integer(n_samples) and 1 <= n_samples <= MAX_SAMPLES):
        raise ValueError(f"n_samples must be an integer in [1, {MAX_SAMPLES}], "
                         f"got {_BRIEF.repr(n_samples)}")


def check_threshold_bits(threshold_bits: float) -> None:
    """ValueError unless threshold_bits is a positive finite number; a bool is not one."""
    if not ((_is_integer(threshold_bits) or isinstance(threshold_bits, (float, np.floating)))
            and 0 < threshold_bits <= sys.float_info.max):  # exact for a huge int, false for nan
        raise ValueError(f"threshold_bits must be a positive finite number, "
                         f"got {_BRIEF.repr(threshold_bits)}")


def _source_stack(init: InitialSpec, dims: Dims, robust_index: int, direction: str):
    """(amplitudes, basis, keep): G on the source makes psi0 into (G @ amplitudes) @ basis."""
    initial_state(init, dims, robust_index)  # checks the amplitudes against dims
    if direction == "b_to_a":  # basis rows alpha x |r> x |j>
        amplitudes, ab, keep = init.chi, init.alpha[:, None] * np.eye(dims.b)[:, None], (0,)
    elif direction == "a_to_b":  # basis rows |i> x |r> x chi
        amplitudes, ab, keep = init.alpha, np.eye(dims.a)[:, :, None] * init.chi, (2,)
    else:
        raise ValueError(f"direction must be 'b_to_a' or 'a_to_b', got {direction!r}")
    return amplitudes, place_robust(ab, dims, robust_index), keep


def _signaling_reducer(amplitudes: np.ndarray, keep: tuple, dims: Dims, direction: str,
                       n_samples: int, seed: int, budget: int):
    """The reducer of the evolved source basis of ``direction`` (``_source_stack``).

    ``reduce(phi)`` gives each row's max target disturbance, where ``phi`` is a
    block of the evolved basis, shape (rows, d_s, n): sample s's difference D_s
    = q_s @ cross (module docstring), q_s formed once, over a slice of rows.
    The unitaries G_s are drawn max(1, budget // d_s^2) at a time; the q_s hold
    n_samples d_s^2 numbers. No stack of cross states, rows x (d_s d_t)^2
    numbers, and no stack of differences, rows x samples x d_t^2, holds more
    than ``budget`` numbers, except one row's cross states, taken whole. The
    maximum over samples is ``qcore.max_trace_distance``, bit for bit that of
    every sample's trace distance.
    """
    d_s, d_t = len(amplitudes), dims.factors[keep[0]]
    seeds = [derive_seed(seed, "signaling", direction, k) for k in range(n_samples)]
    draw = max(1, budget // d_s ** 2)
    weights = np.concatenate([haar_unitary(d_s, seeds[i:i + draw]) @ amplitudes
                              for i in range(0, n_samples, draw)])
    q = (weights[:, :, None] * weights[:, None, :].conj()).reshape(n_samples, d_s ** 2)
    q -= np.outer(amplitudes, amplitudes.conj()).reshape(-1)  # less the G = I sample's
    per = max(1, min(n_samples, budget // d_t ** 2))
    step = max(1, min(budget // (d_s * d_t) ** 2, budget // (per * d_t ** 2)))
    # even slices: none is a lone sample (for per >= 3), whose product BLAS would round by
    # another kernel, so the slicing leaves each sample's difference as it is, to the bit
    slices = np.array_split(q, -(-n_samples // per))

    def reduce(phi: np.ndarray) -> np.ndarray:
        out = []
        for i in range(0, len(phi), step):
            m = min(step, len(phi) - i)
            cross = rdm_from_state(phi[i:i + m].reshape(m, -1), (d_s, *dims.factors),
                                   (0, 1 + keep[0]))  # (m, (j, a), (k, b))
            cross = cross.reshape(m, d_s, d_t, d_s, d_t).swapaxes(2, 3).reshape(m, d_s ** 2, -1)
            diffs = ((part @ cross).reshape(m, -1, d_t, d_t) for part in slices)
            out.append(np.max([max_trace_distance(d) for d in diffs], axis=0))
        return np.concatenate(out)

    return reduce


def locality_columns(spec: ModelSpec, init: InitialSpec, times, n_samples: int = 64,
                     seed: int = 0) -> dict[str, np.ndarray]:
    """The locality job on ``times``: ``signal_b_to_a``, ``signal_a_to_b`` and ``mi_ab_bits``.

    A signal is, at each time, the largest trace distance by which one of
    ``n_samples`` Haar unitaries on the source side (B for "b_to_a"), applied
    at t = 0, moves the target's reduced state off the unmodified one. Sample
    k's unitary depends only on (seed, direction, k), so enlarging n_samples
    refines the same family. ``mi_ab_bits`` is I(A:B) of the unmodified state.
    One ``propagate`` call serves the job with two streams: the d_B source
    basis states phi of the B->A pass, which give the mutual information of
    psi0 = chi @ phi, then, once that stream is spent, the d_A ones of the A->B
    pass. Each block is reduced as it arrives. Besides the q_s, no stack the
    job forms holds more than ``evolve.block_budget(times, n)`` numbers, except
    where one time's cross states outnumber it (see ``_signaling_reducer``).
    n_samples and the seed are checked first, before any propagation.
    """
    check_n_samples(n_samples)
    _check_seed(seed)
    dims = spec.dims
    sources = {d: _source_stack(init, dims, spec.robust_index, d) for d in ("b_to_a", "a_to_b")}
    streams = propagate(spec, times, [basis for _, basis, _ in sources.values()])
    columns = {"signal_b_to_a": [], "signal_a_to_b": [], "mi_ab_bits": []}
    for (direction, (amplitudes, _, keep)), stream in zip(sources.items(), streams):
        reduce = _signaling_reducer(amplitudes, keep, dims, direction, n_samples, seed,
                                    block_budget(times, dims.total))
        for _, states in stream:
            columns[f"signal_{direction}"].append(reduce(states))
            if direction == "b_to_a":
                columns["mi_ab_bits"].append(mi_and_entropies(init.chi @ states, dims)[0])
    return {name: np.concatenate(parts) for name, parts in columns.items()}


def signaling_test_unitary(u: np.ndarray, init: InitialSpec, dims: Dims, robust_index: int,
                           direction: str, n_samples: int = 64, seed: int = 0) -> float:
    """The signal of ``direction`` when the dynamics is one global unitary ``u`` applied once.

    The probe of :func:`locality_columns` at the one time, on the source basis
    states evolved by ``u``: no stack of differences D_s = q_s @ cross outgrows
    one state; the cross states, d_source^2 d_target^2 numbers, may.
    """
    check_n_samples(n_samples)
    amplitudes, basis, keep = _source_stack(init, dims, robust_index, direction)
    u = check_unitary(u, dims.total)
    reduce = _signaling_reducer(amplitudes, keep, dims, direction, n_samples, seed,
                                budget=dims.total)
    return float(reduce((basis @ u.T)[None])[0])


def tau_estimate(times, mi_ab_bits, threshold_bits: float) -> float | None:
    """First time the mutual information crosses the threshold, or None.

    Linear interpolation between the bracketing samples; returns the first
    sample time if the series already starts at or above the threshold.
    """
    check_threshold_bits(threshold_bits)
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
