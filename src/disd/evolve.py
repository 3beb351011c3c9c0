"""Exact propagation and the dressed product-form approximation.

When the C-B coupling dominates and the initial C state is robust, the
evolved state stays close to a product of phase-dressed factors: each A
amplitude carries its free A phase plus the first-order shift from the A-C
coupling, the C factor stays pinned to the robust state with a single phase,
and each B amplitude carries the C-B eigenphase, its free B phase, and a
second-order shift ``lambda_i0j`` that couples the A label to the B label.
That i-dependence of the B phases is the only channel through which A-B
correlations build up, so ``sup |lambda_i0j|`` sets the correlation onset
timescale, while the dropped state correction sets the residual between the
exact and approximate states. Both shrink like 1/c1 at fixed c2.

Second-order corrections are computed by Rayleigh-Schrodinger theory with
unperturbed operator ``c1 * (I_A x h_cb)`` and perturbation
``c2 * (h_ac x I_B)``. Denominators closer to zero than ``1e-8 * c1`` are
skipped, counted, and surfaced, never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InitialSpec, ModelSpec, assemble_hamiltonian, initial_state
from .qcore import ValidationError, basis_vector, check_hermitian, eigh_ordered, spectral_norm

__all__ = [
    "PerturbationData",
    "Propagator",
    "Trajectory",
    "perturbation_data",
    "product_approx",
    "propagate",
    "residuals_along",
]

COMMUTATOR_TOL = 1e-8
NORM_DRIFT_TOL = 1e-8
PHASE_ERROR_TOL = 1e-8  # bound on eps * max|E| * max|t|, the phase error of e^{-iEt}


class Propagator:
    """Spectral propagator for a fixed Hermitian H: psi(t) = V e^{-i L t} V+ psi0.

    The eigendecomposition happens once at construction; instances are
    immutable afterwards and safe to share across concurrent readers.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=complex)
        check_hermitian(h, name="Hamiltonian")
        self._evals, self._vecs = np.linalg.eigh(h)
        self._vecs_h = self._vecs.conj().T

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a single state to time t."""
        coeff = self._vecs_h @ np.asarray(psi, dtype=complex)
        return self._vecs @ (np.exp(-1j * self._evals * t) * coeff)

    def evolve_many(self, psi: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Stack of evolved states, one row per time; rows at t = 0 are psi exactly."""
        psi = np.asarray(psi, dtype=complex)
        times = np.asarray(times, float)
        phases = np.exp(-1j * np.outer(times, self._evals))
        states = (phases * (self._vecs_h @ psi)) @ self._vecs.T
        states[times == 0] = psi
        return states


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The product state of ``init`` under one model, at strictly increasing times.

    It keeps the model's ``eigensystem``, so :meth:`evolve` carries any other
    state over the same times without a second diagonalization.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n_times, total_dim)
    model: ModelSpec
    init: InitialSpec
    psi0: np.ndarray
    eigensystem: Propagator

    def evolve(self, psi: np.ndarray) -> np.ndarray:
        """States of ``psi`` evolved under the same model, one row per trajectory time."""
        return self.eigensystem.evolve_many(psi, self.times)


@dataclass(frozen=True, eq=False)
class PerturbationData:
    """Eigenbases and phase tables for the product-form approximation.

    ``a_vals`` are the first-order A shifts (eigenvalues of the robust block
    of c2 * h_ac); ``b_vals`` are the robust-sector eigenvalues of c1 * h_cb;
    ``lambda_i0j`` is the real d_A x d_B table of second-order shifts and
    ``lambda_sup`` its largest magnitude. ``gap_warnings`` lists skipped
    near-degenerate denominators as (b_index, perp_index, gap) tuples.
    """

    spec: ModelSpec
    a_vals: np.ndarray
    a_vecs: np.ndarray
    b_vals: np.ndarray
    b_vecs: np.ndarray
    lambda0: float
    lambda_i0j: np.ndarray
    lambda_sup: float
    h_a_diag: np.ndarray
    h_b_diag: np.ndarray
    gap_warnings: list


def propagate(spec: ModelSpec, init: InitialSpec, times) -> Trajectory:
    """Exact evolution of the product state of ``init``: the one route from a model to states.

    The eigenvalues of H carry an absolute error of about eps * ||H||, so the
    phases e^{-iEt} carry about eps * ||H|| * t. A grid with eps * max|E| *
    max|t| above 1e-8 would leave fewer than eight correct digits in them,
    and raises ``ValidationError`` before any state is computed.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D sequence")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    psi0 = initial_state(init, spec.dims)
    prop = Propagator(assemble_hamiltonian(spec))
    phase_error = np.finfo(float).eps * np.abs(prop._evals).max() * np.abs(times).max()
    if not phase_error <= PHASE_ERROR_TOL:
        raise ValidationError(f"phases lose their precision: eps*max|E|*max|t| = "
                              f"{phase_error:.3e} > {PHASE_ERROR_TOL:.1e}")
    states = prop.evolve_many(psi0, times)
    drift = float(np.abs(np.linalg.norm(states, axis=1) - 1.0).max())
    if drift > NORM_DRIFT_TOL:
        raise ValidationError(f"propagation norm drift {drift:.3e} > {NORM_DRIFT_TOL:.1e}")
    return Trajectory(times=times, states=states, model=spec, init=init, psi0=psi0,
                      eigensystem=prop)


def _comm_norm(x: np.ndarray, y: np.ndarray) -> float:
    return spectral_norm(x @ y - y @ x)


def perturbation_data(spec: ModelSpec) -> PerturbationData:
    """Eigenbases, phase tables, and second-order shifts for one model.

    Every ``ModelSpec`` has the robust block structure of ``h_cb``; this
    also requires the commutation constraints that make every phase in the
    approximation well defined: ``[h_a, A0] ~ 0``, ``[h_b, B0] ~ 0``, and
    the robust C state an approximate eigenvector of ``h_c`` (all to 1e-8).
    Degenerate blocks of A0 (B0) are resolved by diagonalizing h_a (h_b)
    inside the block, so the c2 = 0 limit reproduces the exact free phases.

    Denominators below ``1e-8 * c1`` in magnitude are skipped; scaling the
    cutoff with c1 keeps the set of skipped denominators invariant under
    coupling sweeps.
    """
    d_a, d_c, d_b = spec.dims.factors
    r = spec.robust_index
    e0 = basis_vector(d_c, r)

    a0 = spec.c2 * spec.robust_block_a()
    b0_shape = spec.robust_block_b()

    c_a = _comm_norm(spec.h_a, a0)
    if c_a > COMMUTATOR_TOL:
        raise ValidationError(f"[h_a, A0] norm {c_a:.3e} > {COMMUTATOR_TOL:.1e}")
    c_b = _comm_norm(spec.h_b, b0_shape)
    if c_b > COMMUTATOR_TOL:
        raise ValidationError(f"[h_b, B0] norm {c_b:.3e} > {COMMUTATOR_TOL:.1e}")
    hc_e0 = spec.h_c @ e0
    lambda0 = float(np.real(np.vdot(e0, hc_e0)))
    leak = float(np.linalg.norm(hc_e0 - lambda0 * e0))
    if leak > COMMUTATOR_TOL:
        raise ValidationError(
            f"robust state is not an eigenvector of h_c: leakage {leak:.3e} > {COMMUTATOR_TOL:.1e}")

    a_vals, a_vecs = eigh_ordered(a0, secondary=spec.h_a)
    b_shape_vals, b_vecs = eigh_ordered(b0_shape, secondary=spec.h_b)
    b_vals = spec.c1 * b_shape_vals

    h_a_diag = np.real(np.diagonal(a_vecs.conj().T @ spec.h_a @ a_vecs)).copy()
    h_b_diag = np.real(np.diagonal(b_vecs.conj().T @ spec.h_b @ b_vecs)).copy()

    # Eigensystem of c1 * h_cb on the sector orthogonal to the robust C state.
    # Together with the robust-sector pairs (b_vals, |0>|j>) this is the full
    # eigensystem, because validated robustness makes the two blocks exact.
    qc = np.delete(np.eye(d_c, dtype=complex), r, axis=1)
    emb = np.kron(qc, np.eye(d_b, dtype=complex))
    perp_block = emb.conj().T @ spec.h_cb @ emb
    perp_vals, perp_vecs_small = np.linalg.eigh(perp_block)
    e_perp = spec.c1 * perp_vals
    perp_vecs = emb @ perp_vecs_small

    # Matrix elements <i'| x <phi_m| (c2 h_ac x I_B) |i> x |0, j>. Robust-sector
    # intermediate states with j' != j drop out exactly (the element carries a
    # delta in j), so only the orthogonal sector contributes to the sum.
    t4 = (spec.c2 * spec.h_ac).reshape(d_a, d_c, d_a, d_c)
    m1 = np.einsum("xcy,yi->ixc", t4[:, :, :, r], a_vecs)
    g = np.einsum("xp,ixc->ipc", a_vecs.conj(), m1)
    pv = perp_vecs.reshape(d_c, d_b, perp_vecs.shape[1])
    me = np.einsum("cbm,ipc,bj->ipjm", pv.conj(), g, b_vecs, optimize=True)

    gaps = b_vals[:, None] - e_perp[None, :]
    ok = np.abs(gaps) >= 1e-8 * spec.c1
    warnings = [(int(j), int(m), float(gaps[j, m]))
                for j, m in np.argwhere(~ok)]
    if spec.c2 != 0 and gaps.size > 0 and not ok.any():
        raise ValidationError("all denominators degenerate: perturbation theory undefined")

    weights = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=ok)
    lam = np.einsum("ipjm,jm->ij", np.abs(me) ** 2, weights)
    lambda_sup = float(np.abs(lam).max()) if lam.size else 0.0

    return PerturbationData(
        spec=spec, a_vals=a_vals, a_vecs=a_vecs, b_vals=b_vals, b_vecs=b_vecs,
        lambda0=lambda0, lambda_i0j=lam, lambda_sup=lambda_sup,
        h_a_diag=h_a_diag, h_b_diag=h_b_diag, gap_warnings=warnings,
    )


def product_approx(init: InitialSpec, pd: PerturbationData, times) -> np.ndarray:
    """Phase-dressed product-form states of ``pd.spec``, one row per time (unit norm).

    The B phases carry the second-order shift table, which depends on the A
    label, so each row is generally A-B correlated even though it never
    leaves the robust C state.
    """
    spec = pd.spec
    if init.robust_index != spec.robust_index:
        raise ValueError("initial robust_index differs from the model's")
    dims = spec.dims
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    alpha, chi = init.amplitudes(dims)
    a_amp = pd.a_vecs.conj().T @ alpha
    b_amp = pd.b_vecs.conj().T @ chi
    phase_a = np.exp(-1j * t * (pd.h_a_diag + pd.a_vals))
    phase_b = np.exp(-1j * t * (pd.b_vals + pd.h_b_diag))
    m = ((a_amp * phase_a)[:, :, None]
         * (b_amp * phase_b)[:, None, :]
         * np.exp(-1j * t[:, :, None] * pd.lambda_i0j))
    m = m * np.exp(-1j * t[:, :, None] * pd.lambda0)
    ab = pd.a_vecs @ m @ pd.b_vecs.T
    psi = np.zeros((len(t), dims.a, dims.c, dims.b), dtype=complex)
    psi[:, :, spec.robust_index, :] = ab
    return psi.reshape(len(t), -1)


def residuals_along(traj: Trajectory, pd: PerturbationData) -> np.ndarray:
    """Approximation residual at every sample time of an exact trajectory.

    Each entry is the phase-aligned distance min over a global phase of
    || psi_exact - e^{i phi} psi_approx ||, i.e. sqrt(2 - 2 |<approx|exact>|).
    It is evaluated as a vector norm at the optimal phase rather than through
    the overlap, which would floor the result at sqrt(machine eps). The
    product form starts from the trajectory's own ``init``; ``pd`` must be
    built from the trajectory's own model.
    """
    if pd.spec is not traj.model:
        raise ValueError("perturbation data was built from a different model")
    approx = product_approx(traj.init, pd, traj.times)
    exact = traj.states
    ov = np.einsum("ki,ki->k", approx.conj(), exact)
    mag = np.abs(ov)
    phase = np.divide(ov, mag, out=np.ones_like(ov), where=mag > 0)
    return np.linalg.norm(exact - phase[:, None] * approx, axis=1)
