"""Information-transfer diagnostics between the outer subsystems A and B.

Two operational probes: the A:B mutual information along a trajectory
(reading out one side reveals nothing about the other iff it vanishes), and
a signaling test that applies sampled Haar unitaries to one side at t = 0
and measures how far the other side's reduced state can be pushed. The
correlation onset time is the first threshold crossing of the mutual
information, linearly interpolated.

The global state is pure, so S(AB) = S(C) and the mutual information is
I(A:B) = S(A) + S(B) - S(C): no d_A*d_B reduced state is formed, and every
term is computed for all sample times in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import Trajectory
from .qcore import (
    Dims,
    ValidationError,
    derive_seed,
    haar_unitary,
    rdm_from_state,
    trace_distance,
    vn_entropy,
)

__all__ = [
    "LocalityReport",
    "locality_report",
    "mi_and_entropies",
    "mi_trajectory",
    "signaling_test",
    "signaling_test_unitary",
    "tau_estimate",
]

DIRECTIONS = ("b_to_a", "a_to_b")


@dataclass(frozen=True, eq=False)
class LocalityReport:
    """Per-time locality metrics plus the estimated correlation onset time."""

    times: np.ndarray
    mi_ab_bits: np.ndarray
    signal_b_to_a: np.ndarray
    signal_a_to_b: np.ndarray
    tau_estimate: float | None


def mi_and_entropies(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I(A:B), S(A) and S(B) in bits at each trajectory time.

    S(A), S(C) and S(B) are one stacked call each, and I(A:B) = S(A)+S(B)-S(C).
    """
    factors = traj.model.dims.factors
    s_a, s_c, s_b = (vn_entropy(rdm_from_state(traj.states, factors, (k,))) for k in range(3))
    mi = s_a + s_b - s_c
    lo = mi.min(initial=0.0)
    if lo < -1e-9:
        raise ValidationError(f"mutual information {lo:.3e} below -1e-9")
    return np.maximum(mi, 0.0), s_a, s_b


def mi_trajectory(traj: Trajectory) -> np.ndarray:
    """A:B mutual information in bits at each trajectory time, S(A)+S(B)-S(C)."""
    return mi_and_entropies(traj)[0]


def _apply_local(psi: np.ndarray, g: np.ndarray, dims: Dims, factor: int) -> np.ndarray:
    t = psi.reshape(dims.factors)
    t = np.moveaxis(np.tensordot(g, t, axes=(1, factor)), 0, factor)
    return t.reshape(-1)


def _direction_layout(direction: str, dims: Dims) -> tuple[int, int, tuple[int]]:
    """(source factor index, source dim, target keep tuple) for a direction."""
    if direction == "b_to_a":
        return 2, dims.b, (0,)
    if direction == "a_to_b":
        return 0, dims.a, (2,)
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def _signaling_curves(evolve, psi0: np.ndarray, ref_states: np.ndarray, dims: Dims,
                      direction: str, n_samples: int, seed: int) -> np.ndarray:
    """Per-row max target disturbance; ``evolve`` maps a state to a stack of rows."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    src, src_dim, keep = _direction_layout(direction, dims)
    ref_rdms = rdm_from_state(ref_states, dims.factors, keep)
    out = np.zeros(len(ref_rdms))
    # one sample at a time: stacking the samples too would hold n_samples
    # trajectories at once
    for k in range(n_samples):
        g = haar_unitary(src_dim, derive_seed(seed, "signaling", direction, k))
        mod_states = evolve(_apply_local(psi0, g, dims, src))
        rdms = rdm_from_state(mod_states, dims.factors, keep)
        out = np.maximum(out, trace_distance(rdms, ref_rdms))
    return out


def signaling_test(traj: Trajectory, direction: str, n_samples: int = 64,
                   seed: int = 0) -> np.ndarray:
    """Max reduced-state disturbance of the target side under sampled source unitaries.

    For each of ``n_samples`` Haar unitaries G on the source subsystem (B for
    direction "b_to_a"), the trajectory's initial state is modified by G at
    t = 0 and evolved over the trajectory's times, and the trace distance
    between the target's reduced states and the trajectory's own is
    recorded; the per-time maximum over samples is returned. Sample k's
    unitary depends only on (seed, direction, k), so enlarging n_samples
    refines the same family.
    """
    return _signaling_curves(traj.evolve, traj.psi0, traj.states, traj.model.dims,
                             direction, n_samples, seed)


def signaling_test_unitary(u: np.ndarray, psi0: np.ndarray, dims: Dims,
                           direction: str, n_samples: int = 64, seed: int = 0) -> float:
    """Signaling probe when the dynamics is a single global unitary applied once."""
    u = np.asarray(u, dtype=complex)
    evolve = lambda psi: (u @ psi)[None, :]
    return float(_signaling_curves(evolve, psi0, evolve(psi0), dims, direction, n_samples, seed)[0])


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


def locality_report(traj: Trajectory, n_samples: int = 64, threshold_bits: float = 0.01,
                    seed: int = 0) -> LocalityReport:
    """Mutual information, both signaling directions, and the onset estimate of one trajectory."""
    mi = mi_trajectory(traj)
    return LocalityReport(
        times=traj.times, mi_ab_bits=mi,
        signal_b_to_a=signaling_test(traj, "b_to_a", n_samples, seed),
        signal_a_to_b=signaling_test(traj, "a_to_b", n_samples, seed),
        tau_estimate=tau_estimate(traj.times, mi, threshold_bits),
    )
