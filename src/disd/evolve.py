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

import functools
from dataclasses import dataclass

import numpy as np

from .model import InitialSpec, ModelSpec, assemble_hamiltonian, hamiltonian_blocks, initial_state
from .qcore import ValidationError, basis_vector, check_hermitian, eigh_ordered, spectral_norm

__all__ = [
    "Chebyshev",
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

CHEB_TOL = 1e-15  # last kept Chebyshev coefficient; the FFT noise floor is ~1e-16
CHEB_Z_MAX = 20.0  # largest half-width * dt of one Chebyshev step; longer intervals are sub-stepped
_CHEB_POINTS = 256  # FFT samples; at z <= CHEB_Z_MAX the terms stop by k = 50
# One complex eigh of H takes as long as EIGH_FLOPS_PER_N3 * n^3 flops of Chebyshev steps.
# Fitted at n = 512 (8x4x16, 200 steps to t = 20, c1 = 50), the measured crossover, on one
# OpenBLAS 0.3.31 thread of a 2-vCPU Xeon VM: eigh took 0.22-0.25 s while the steps ran
# at 12-14 Gflop/s, so eigh_s * rate / n^3 = 21-24. (At n = 1024: 1.6 s against 0.3 s.)
EIGH_FLOPS_PER_N3 = 21.0


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
        self.max_abs_energy = float(np.abs(self._evals).max())

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


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """a_k with e^{-izx} = sum_k a_k T_k(x) on [-1, 1].

    By Jacobi-Anger the FFT of e^{-iz cos(theta)} gives (-i)^k J_k(z), so
    a_0 = J_0(z) and a_k = 2 (-i)^k J_k(z). The series is cut at the first
    k > |z| with |a_k| < CHEB_TOL.
    """
    theta = 2 * np.pi * np.arange(_CHEB_POINTS) / _CHEB_POINTS
    c = np.fft.fft(np.exp(-1j * z * np.cos(theta)))[:_CHEB_POINTS // 2] / _CHEB_POINTS
    a = np.concatenate((c[:1], 2 * c[1:]))
    k = np.arange(a.size)
    return a[:np.argmax((k > abs(z)) & (np.abs(a) < CHEB_TOL))]


class Chebyshev:
    """Matrix-free propagator: Chebyshev steps of e^{-iH dt} between consecutive grid times.

    H = on_ac x I_B + I_A x on_cb (``model.hamiltonian_blocks``), so H @ psi
    is two reshaped GEMMs and H is never formed or diagonalized. By Weyl's
    inequality the spectrum of H lies in [lo, hi], the sums of the blocks'
    extreme eigenvalues; H = center + half * X puts that of X in [-1, 1].
    A step of length dt is e^{-i center dt} times the Chebyshev series of
    e^{-i z X}, z = half * dt. An interval with |z| > CHEB_Z_MAX is split into
    equal sub-steps, so no step sums more than about 50 terms.
    """

    def __init__(self, spec: ModelSpec):
        self._dims = spec.dims
        on_ac, on_cb = hamiltonian_blocks(spec)
        ac, cb = np.linalg.eigvalsh(on_ac), np.linalg.eigvalsh(on_cb)
        self.lo, self.hi = float(ac[0] + cb[0]), float(ac[-1] + cb[-1])
        self.max_abs_energy = max(abs(self.lo), abs(self.hi))
        self._center = (self.lo + self.hi) / 2
        self._half = (self.hi - self.lo) / 2
        # the blocks of 2X, the operator of the recurrence; a zero half-width
        # gives z = 0, where no step applies it
        scale = 2 / self._half if self._half > 0 else 0.0
        self._ac = (on_ac - (ac[0] + ac[-1]) / 2 * np.eye(len(ac))) * scale
        self._cb_t = ((on_cb - (cb[0] + cb[-1]) / 2 * np.eye(len(cb))) * scale).T.copy()

    def _x2(self, v: np.ndarray) -> np.ndarray:
        """2X @ v for a stack of rows v, shape (k, n): one GEMM per block."""
        d_a, d_c, d_b = self._dims.factors
        k = len(v)
        on_ac = self._ac @ v.reshape(k, d_a * d_c, d_b)
        on_cb = v.reshape(k, d_a, d_c * d_b) @ self._cb_t
        return on_ac.reshape(k, -1) + on_cb.reshape(k, -1)

    def _plans(self, times: np.ndarray) -> list[tuple[int, np.ndarray] | None]:
        """(sub-steps, coefficients of one sub-step) from each grid time's predecessor.

        The first time's predecessor is t = 0; a time t = 0 needs no step (None).
        """
        plans = []
        for t, dt in zip(times, np.diff(times, prepend=0.0)):
            m = max(1, int(np.ceil(abs(self._half * dt) / CHEB_Z_MAX)))
            sub = dt / m
            plans.append(None if t == 0 else (m, np.exp(-1j * self._center * sub)
                                             * _chebyshev_coefficients(self._half * sub)))
        return plans

    def terms(self, times: np.ndarray) -> int:
        """Chebyshev terms that :meth:`evolve_many` sums on ``times``, over all its sub-steps."""
        return sum(m * len(coeffs) for m, coeffs in filter(None, self._plans(times)))

    def evolve_many(self, psi: np.ndarray, times) -> np.ndarray:
        """Stack of evolved states, one row per time; rows at t = 0 are psi exactly.

        Each row is stepped from the previous one (the first from psi at t = 0),
        so any strictly increasing grid works.
        """
        psi = np.asarray(psi, dtype=complex)
        times = np.asarray(times, dtype=float)
        states = np.empty((len(times), psi.size), dtype=complex)
        cur = psi[None, :]
        for row, plan in enumerate(self._plans(times)):
            if plan is None:
                cur = psi[None, :]
            else:
                m, coeffs = plan
                for _ in range(m):
                    cur = self._step(cur, coeffs)
            states[row] = cur[0]
        return states

    def _step(self, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """sum_k coeffs[k] T_k(X) v by the three-term recurrence T_{k+1} = 2X T_k - T_{k-1}."""
        out = coeffs[0] * v
        if len(coeffs) > 1:
            prev, cur = v, self._x2(v) / 2
            out += coeffs[1] * cur
            for a in coeffs[2:]:
                prev, cur = cur, self._x2(cur) - prev
                out += a * cur
        return out


def _phase_error(max_abs_energy: float, times: np.ndarray) -> float:
    """eps * max|E| * max|t|: the absolute error of the phases e^{-iEt} on this grid."""
    return np.finfo(float).eps * max_abs_energy * np.abs(times).max()


def _route(spec: ModelSpec, times: np.ndarray) -> Propagator | Chebyshev:
    """The cheaper way to propagate ``spec`` over ``times``, by operation count.

    Each Chebyshev term costs 8 n (d_A d_C + d_C d_B) real flops (two complex
    block GEMMs); one ``eigh`` of H costs about EIGH_FLOPS_PER_N3 * n^3. Each
    interval takes at least one term, so the step count alone can rule the
    Chebyshev route out before its term count is worked out. The Chebyshev
    route also needs its spectral bounds to pass the phase guard: where they
    do not, the tighter eigenvalues of the spectral route may still pass it.
    """
    d_a, d_c, d_b = spec.dims.factors
    n = spec.dims.total
    per_term = 8 * n * (d_a * d_c + d_c * d_b)
    eigh_cost = EIGH_FLOPS_PER_N3 * n ** 3
    if per_term * (len(times) - 1) < eigh_cost:
        cheb = Chebyshev(spec)
        if (_phase_error(cheb.max_abs_energy, times) <= PHASE_ERROR_TOL
                and per_term * cheb.terms(times) < eigh_cost):
            return cheb
    return Propagator(assemble_hamiltonian(spec))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The product state of ``init`` under one model, at strictly increasing times.

    Its ``eigensystem`` is the model's spectral ``Propagator``, built on first
    use (or kept from a spectral ``propagate``), so :meth:`evolve` carries any
    number of other states over the same times with one diagonalization.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n_times, total_dim)
    model: ModelSpec
    init: InitialSpec
    psi0: np.ndarray

    @functools.cached_property
    def eigensystem(self) -> Propagator:
        return Propagator(assemble_hamiltonian(self.model))

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

    C starts in the model's robust state. The states come from matrix-free
    ``Chebyshev`` steps when these cost fewer operations than one ``eigh`` of
    H, else from the spectral ``Propagator`` (see ``_route``). The phases
    e^{-iEt} carry an absolute error of about eps * max|E| * t, with max|E|
    from the eigenvalues or from the Chebyshev spectral bounds. A grid with
    eps * max|E| * max|t| above 1e-8 would leave fewer than eight correct
    digits in them, and raises ``ValidationError`` before any state is
    computed.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D sequence")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    psi0 = initial_state(init, spec.dims, spec.robust_index)
    prop = _route(spec, times)
    phase_error = _phase_error(prop.max_abs_energy, times)
    if not phase_error <= PHASE_ERROR_TOL:
        raise ValidationError(f"phases lose their precision: eps*max|E|*max|t| = "
                              f"{phase_error:.3e} > {PHASE_ERROR_TOL:.1e}")
    states = prop.evolve_many(psi0, times)
    drift = float(np.abs(np.linalg.norm(states, axis=1) - 1.0).max())
    if drift > NORM_DRIFT_TOL:
        raise ValidationError(f"propagation norm drift {drift:.3e} > {NORM_DRIFT_TOL:.1e}")
    traj = Trajectory(times=times, states=states, model=spec, init=init, psi0=psi0)
    if isinstance(prop, Propagator):
        vars(traj)["eigensystem"] = prop  # already built: fill the cache of the lazy property
    return traj


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
    dims = spec.dims
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    a_amp = pd.a_vecs.conj().T @ init.alpha
    b_amp = pd.b_vecs.conj().T @ init.chi
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
