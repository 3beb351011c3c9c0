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

from .qcore import Dims, check_unitary, derive_seed, haar_unitary

__all__ = [
    "DecompositionResult",
    "planted_sequential",
    "sequential_residual",
    "sequential_unitary",
]

GAIN_TOL = 1e-12  # a restart stops once an iteration gains less fidelity than this
# A polar step takes the Gram route while kappa(m)^2 = lambda_max / lambda_min of m+ m
# is at most this (kappa <= 100). Its error against the SVD grows like eps * kappa^2:
# in Q, at most 1.2e-13 at kappa = 100, 1e-11 at 1e3 and 1e-9 at 1e4 (random 16 x 16
# and 32 x 32 matrices), so beyond 100 the 1e-12 agreement would not hold.
GRAM_KAPPA2 = 1e4
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
    """Unitary polar factor Q of m and tr(Q+ m), the sum of m's singular values.

    With m+ m = V diag(lambda) V+, Q = m V diag(lambda)^(-1/2) V+ and
    tr(Q+ m) = sum(sqrt(lambda)): one Hermitian eigendecomposition, cheaper
    than an SVD. That Gram route is taken when m is well conditioned, lambda_min
    > 0 and lambda_max <= ``GRAM_KAPPA2`` * lambda_min (kappa(m) <= 100), where Q
    is within 1.2e-13 of the SVD's U V+ and unitary to 1e-12. A zero, singular or
    ill-conditioned m takes the SVD, m = U diag(sigma) V+, with Q = U V+.
    """
    lam, vec = np.linalg.eigh(m.conj().T @ m)
    if lam[0] > 0 and lam[-1] <= GRAM_KAPPA2 * lam[0]:
        root = np.sqrt(lam)
        return ((m @ vec) / root) @ vec.conj().T, float(root.sum())
    u, s, vh = np.linalg.svd(m)
    return u @ vh, float(s.sum())


def _env_v(uv: np.ndarray, w: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr_B[(I_A x W)+ U], the environment of V: tr(V+ env) = tr(X+ U); one GEMM on uv."""
    a, c, b = dims.factors
    wt = w.conj().reshape(c, b, c, b).transpose(0, 1, 3, 2).reshape(c * b * b, c)
    return (uv @ wt).reshape(a, a, c, c).transpose(0, 3, 1, 2).reshape(a * c, a * c)


def _env_w(uv: np.ndarray, v: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr_A[U (V x I_B)+], the environment of W: tr(W+ env) = tr(X+ U); one GEMM on uv.T."""
    a, c, b = dims.factors
    vt = v.conj().reshape(a, c, a, c).transpose(0, 2, 3, 1).reshape(a * a * c, c)
    return (uv.T @ vt).reshape(c, b, b, c).transpose(0, 1, 3, 2).reshape(c * b, c * b)


def sequential_residual(u: np.ndarray, dims: Dims, seed: int = 0) -> DecompositionResult:
    """Alternating-polar search for the best sequential factorization of u.

    Restart 0 of ``RESTARTS`` starts from identity factors (exact for inputs
    already of the form V x I_B); the others start from seeded Haar factors.
    Each restart alternates the two closed-form updates until the fidelity
    gain drops below 1e-12 or ``MAX_ITERS`` is reached; the best restart
    wins. The search stops early once F is within 1e-12 of its ceiling.

    It holds one extra n x n complex copy of U, ``uv``, with rows (a, a', c')
    and columns (c, b, b'), primes marking inputs: each environment is one GEMM.
    """
    n = dims.total
    u = check_unitary(u, n)

    a, c, b = dims.factors
    uv = u.reshape(a, c, b, a, c, b).transpose(0, 3, 4, 1, 2, 5).reshape(a * a * c, c * b * b)
    best = None
    restarts_used = 0
    for r in range(RESTARTS):
        if r == 0:
            v = np.eye(a * c, dtype=complex)
            w = np.eye(c * b, dtype=complex)
        else:
            v = haar_unitary(a * c, derive_seed(seed, "restart", r, "v"))
            w = haar_unitary(c * b, derive_seed(seed, "restart", r, "w"))
        f = float(abs(np.vdot(w, _env_w(uv, v, dims)))) / n
        history = [f]
        for iters in range(1, MAX_ITERS + 1):
            v, _ = _polar_unitary(_env_v(uv, w, dims))
            w, trace = _polar_unitary(_env_w(uv, v, dims))
            # W is the polar factor of its environment, so tr(X+ U) = sum(sigma) >= 0
            history.append(trace / n)
            converged = history[-1] - f < GAIN_TOL
            f = max(f, history[-1])
            if converged:
                break
        restarts_used += 1
        if best is None or f > best[0]:
            best = (f, v, w, iters, converged, np.asarray(history))
        if best[0] >= 1.0 - 1e-12:
            break

    f, v, w, iters, converged, history = best
    return DecompositionResult(residual=max(0.0, 1.0 - f), v_ac=v, w_cb=w, iterations=iters,
                               converged=converged, restarts_used=restarts_used, f_history=history)
