"""Information-transfer diagnostics between the outer subsystems A and B.

Two operational probes: the A:B mutual information along a trajectory
(reading out one side reveals nothing about the other iff it vanishes), and
a signaling test that applies sampled Haar unitaries to one side at t = 0
and measures how far the other side's reduced state can be pushed. The
correlation onset time is the first threshold crossing of the mutual
information, linearly interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import Propagator, Trajectory
from .model import InitialSpec, ModelSpec, assemble_hamiltonian, initial_state
from .qcore import Dims, derive_seed, haar_unitary, mutual_information, rdm_from_state, trace_distance

__all__ = [
    "LocalityReport",
    "locality_report",
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
    threshold_bits: float
    n_samples: int
    seed: int


def mi_trajectory(traj: Trajectory) -> np.ndarray:
    """A:B mutual information in bits at each trajectory time."""
    dims = traj.model.dims
    return np.array([mutual_information(rdm_from_state(s, dims.factors, (0, 2)), dims.a, dims.b)
                     for s in traj.states])


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
    src, src_dim, keep = _direction_layout(direction, dims)
    ref_rdms = [rdm_from_state(s, dims.factors, keep) for s in ref_states]
    out = np.zeros(len(ref_rdms))
    for k in range(n_samples):
        g = haar_unitary(src_dim, derive_seed(seed, "signaling", direction, k))
        mod_states = evolve(_apply_local(psi0, g, dims, src))
        for idx, s in enumerate(mod_states):
            d = trace_distance(rdm_from_state(s, dims.factors, keep), ref_rdms[idx])
            if d > out[idx]:
                out[idx] = d
    return out


def signaling_test(spec: ModelSpec, init: InitialSpec, times, direction: str,
                   n_samples: int = 64, seed: int = 0) -> np.ndarray:
    """Max reduced-state disturbance of the target side under sampled source unitaries.

    For each of ``n_samples`` Haar unitaries G on the source subsystem (B for
    direction "b_to_a"), the initial state is modified by G at t = 0, both
    variants are evolved, and the trace distance between the target's reduced
    states is recorded; the per-time maximum over samples is returned. Sample
    k's unitary depends only on (seed, direction, k), so enlarging n_samples
    refines the same family.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    times = np.asarray(times, dtype=float)
    psi0 = initial_state(init, spec.dims)
    prop = Propagator(assemble_hamiltonian(spec))
    evolve = lambda psi: prop.evolve_many(psi, times)
    return _signaling_curves(evolve, psi0, evolve(psi0), spec.dims, direction, n_samples, seed)


def signaling_test_unitary(u: np.ndarray, psi0: np.ndarray, dims: Dims,
                           direction: str, n_samples: int = 64, seed: int = 0) -> float:
    """Signaling probe when the dynamics is a single global unitary applied once."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
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


def locality_report(spec: ModelSpec, init: InitialSpec, times,
                    n_samples: int = 64, threshold_bits: float = 0.01,
                    seed: int = 0) -> LocalityReport:
    """Mutual information, both signaling directions, and the onset estimate."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    times = np.asarray(times, dtype=float)
    dims = spec.dims
    psi0 = initial_state(init, dims)
    prop = Propagator(assemble_hamiltonian(spec))
    evolve = lambda psi: prop.evolve_many(psi, times)
    states = evolve(psi0)
    mi = mi_trajectory(Trajectory(times=times, states=states, model=spec))
    sig_ba = _signaling_curves(evolve, psi0, states, dims, "b_to_a", n_samples, seed)
    sig_ab = _signaling_curves(evolve, psi0, states, dims, "a_to_b", n_samples, seed)
    return LocalityReport(
        times=times, mi_ab_bits=mi, signal_b_to_a=sig_ba, signal_a_to_b=sig_ab,
        tau_estimate=tau_estimate(times, mi, threshold_bits),
        threshold_bits=threshold_bits, n_samples=n_samples, seed=seed,
    )
