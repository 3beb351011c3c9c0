"""Numerical test for the sequential two-slice form of a global unitary.

A unitary U on A x C x B is "sequential" when it factors as an A-C
interaction followed by a C-B interaction,

    U = (I_A x W_CB) (V_AC x I_B),

with no direct A-B piece. This module recovers the factors by alternating
maximization of the normalized trace fidelity

    F(V, W) = |tr((V x I)+ (I x W)+ U)| / (d_A d_C d_B)

over unitaries V and W. With one factor fixed the optimum for the other is
closed form: the polar unitary factor of an environment contraction of U
(a unitary Procrustes step), so F never decreases and the iteration stops at
a stationary point. Multiple restarts guard against bad basins. The residual
1 - F is a certificate only in one direction: small means sequential, large
means no sequential form was found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import Dims, ValidationError, derive_seed, haar_unitary

__all__ = [
    "DecompositionResult",
    "planted_sequential",
    "sequential_residual",
    "sequential_unitary",
]

UNITARY_TOL = 1e-9
GAIN_TOL = 1e-12  # a restart stops once an iteration gains less fidelity than this
RESTARTS = 5  # starts of the alternating search; the best one wins
MAX_ITERS = 200  # alternating-polar iterations per restart


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Best factorization found: residual 1 - F plus the recovered factors."""

    residual: float
    v_ac: np.ndarray
    w_cb: np.ndarray
    iterations: int
    converged: bool
    restarts_used: int
    f_history: np.ndarray


def sequential_unitary(v_ac: np.ndarray, w_cb: np.ndarray, dims: Dims) -> np.ndarray:
    """Compose (I_A x W)(V x I_B) on the full space."""
    return np.kron(np.eye(dims.a, dtype=complex), w_cb) @ np.kron(v_ac, np.eye(dims.b, dtype=complex))


def planted_sequential(dims: Dims, seed: int) -> np.ndarray:
    """Sequential unitary from seeded Haar factors, for recovery tests."""
    v = haar_unitary(dims.a * dims.c, derive_seed(seed, "plant", "v"))
    w = haar_unitary(dims.c * dims.b, derive_seed(seed, "plant", "w"))
    return sequential_unitary(v, w, dims)


def _polar_unitary(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Unitary polar factor Q of m and tr(Q+ m), the sum of m's singular values."""
    u, s, vh = np.linalg.svd(m)
    return u @ vh, float(s.sum())


def _env_v(u6: np.ndarray, w: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr_B[(I_A x W)+ U], the environment of V: tr(V+ env) = tr(X+ U)."""
    a, c, b = dims.factors
    return np.einsum("pqcb,apqldb->acld", w.reshape(c, b, c, b).conj(), u6).reshape(a * c, a * c)


def _env_w(u6: np.ndarray, v: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr_A[U (V x I_B)+], the environment of W: tr(W+ env) = tr(X+ U)."""
    a, c, b = dims.factors
    return np.einsum("acbxyk,adxy->cbdk", u6, v.reshape(a, c, a, c).conj()).reshape(c * b, c * b)


def sequential_residual(u: np.ndarray, dims: Dims, seed: int = 0) -> DecompositionResult:
    """Alternating-polar search for the best sequential factorization of u.

    Restart 0 of ``RESTARTS`` starts from identity factors (exact for inputs
    already of the form V x I_B); the others start from seeded Haar factors.
    Each restart alternates the two closed-form updates until the fidelity
    gain drops below 1e-12 or ``MAX_ITERS`` is reached; the best restart
    wins. The search stops early once F is within 1e-12 of its ceiling.
    """
    u = np.asarray(u, dtype=complex)
    n = dims.total
    if u.shape != (n, n):
        raise ValueError(f"unitary has shape {u.shape}, expected ({n}, {n})")
    # the entries of a unitary have real and imaginary parts in [-1, 1]; checking
    # them first rejects non-finite input (nan > tol is false) and keeps U+U finite
    part = float(np.maximum(np.abs(u.real), np.abs(u.imag)).max())
    if not part <= 1 + UNITARY_TOL:
        raise ValidationError(f"input is not unitary: an entry has a part of magnitude {part:.3e} > 1")
    dev = float(np.abs(u.conj().T @ u - np.eye(n)).max())
    if dev > UNITARY_TOL:
        raise ValidationError(f"input is not unitary: max |U+U - I| = {dev:.3e}")

    u6 = u.reshape(dims.factors * 2)
    best = None
    restarts_used = 0
    for r in range(RESTARTS):
        if r == 0:
            v = np.eye(dims.a * dims.c, dtype=complex)
            w = np.eye(dims.c * dims.b, dtype=complex)
        else:
            v = haar_unitary(dims.a * dims.c, derive_seed(seed, "restart", r, "v"))
            w = haar_unitary(dims.c * dims.b, derive_seed(seed, "restart", r, "w"))
        f = float(abs(np.vdot(w, _env_w(u6, v, dims)))) / n
        history = [f]
        converged = False
        iters = 0
        for it in range(MAX_ITERS):
            v, _ = _polar_unitary(_env_v(u6, w, dims))
            w, trace = _polar_unitary(_env_w(u6, v, dims))
            # W is the polar factor of its environment, so tr(X+ U) = sum(sigma) >= 0
            f_new = trace / n
            history.append(f_new)
            iters = it + 1
            if f_new - f < GAIN_TOL:
                converged = True
                f = max(f, f_new)
                break
            f = f_new
        restarts_used += 1
        if best is None or f > best[0]:
            best = (f, v, w, iters, converged, np.asarray(history))
        if best[0] >= 1.0 - 1e-12:
            break

    f, v, w, iters, converged, history = best
    return DecompositionResult(
        residual=max(0.0, 1.0 - f), v_ac=v, w_cb=w, iterations=iters,
        converged=converged, restarts_used=restarts_used, f_history=history,
    )
