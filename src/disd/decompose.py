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
a stationary point. Multiple restarts, run together as one stack, guard
against bad basins. The residual 1 - F is a certificate only in one
direction: small means sequential, large means no sequential form was found.
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
RESTARTS = 5  # starts of the alternating search, run as one stack; the best one wins
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


def _polar_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary polar factors Q of a stack m (k, d, d), and each tr(Q+ m) = sum(sigma(m)).

    With m+ m = V diag(lambda) V+, Q = m V diag(lambda)^(-1/2) V+ and
    tr(Q+ m) = sum(sqrt(lambda)): one stacked Hermitian eigendecomposition of the k
    Gram matrices, cheaper than SVDs. A member takes that Gram route when it is well
    conditioned, lambda_min > 0 and lambda_max <= ``GRAM_KAPPA2`` * lambda_min
    (kappa(m) <= 100), where Q is within 1.2e-13 of the SVD's U V+ and unitary to
    1e-12. The zero, singular or ill-conditioned members that this guard refuses take
    one stacked SVD, m = U diag(sigma) V+ with Q = U V+; their lambda is replaced by 1
    before the square root, so it reaches neither that nor a division.
    """
    lam, vec = np.linalg.eigh(m.conj().transpose(0, 2, 1) @ m)
    gram = (lam[:, 0] > 0) & (lam[:, -1] <= GRAM_KAPPA2 * lam[:, 0])
    root = np.sqrt(np.where(gram[:, None], lam, 1.0))
    q = ((m @ vec) / root[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    trace = root.sum(axis=1)
    if not gram.all():
        u, s, vh = np.linalg.svd(m[~gram])
        q[~gram] = u @ vh
        trace[~gram] = s.sum(axis=1)
    return q, trace


def _env_v(uv: np.ndarray, w: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr_B[(I_A x W)+ U] for each W of a stack w (k, d_C d_B, d_C d_B): V's environments.

    tr(V+ env) = tr(X+ U) for X = (I_A x W)(V x I_B); one GEMM of width k d_C on uv.
    """
    a, c, b = dims.factors
    k = len(w)
    wt = w.conj().reshape(k, c, b, c, b).transpose(1, 2, 4, 0, 3).reshape(c * b * b, k * c)
    env = (uv @ wt).reshape(a, a, c, k, c).transpose(3, 0, 4, 1, 2)
    return env.reshape(k, a * c, a * c)


def _env_w(uv: np.ndarray, v: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr_A[U (V x I_B)+] for each V of a stack v (k, d_A d_C, d_A d_C): W's environments.

    tr(W+ env) = tr(X+ U) for X = (I_A x W)(V x I_B); one GEMM of width k d_C on uv.T.
    """
    a, c, b = dims.factors
    k = len(v)
    vt = v.conj().reshape(k, a, c, a, c).transpose(1, 3, 4, 0, 2).reshape(a * a * c, k * c)
    env = (uv.T @ vt).reshape(c, b, b, k, c).transpose(3, 0, 1, 4, 2)
    return env.reshape(k, c * b, c * b)


def _starts(dim: int, seed: int, side: str) -> np.ndarray:
    """One side's factors at the ``RESTARTS`` starts: restart 0's identity, then seeded Haar."""
    draws = haar_unitary(dim, [derive_seed(seed, "restart", r, side) for r in range(1, RESTARTS)])
    return np.concatenate([np.eye(dim, dtype=complex)[None], draws])


def sequential_residual(u: np.ndarray, dims: Dims, seed: int = 0) -> DecompositionResult:
    """Alternating-polar search for the best sequential factorization of u.

    Restart 0 of ``RESTARTS`` starts from identity factors (exact for inputs
    already of the form V x I_B); the others start from seeded Haar factors.
    Each restart alternates the two closed-form updates until the fidelity
    gain drops below ``GAIN_TOL`` or ``MAX_ITERS`` is reached. The restarts
    run as one stack: an iteration makes one environment GEMM per side and one
    stacked polar step per side for every restart still live, and a restart
    leaves the stack at its own stop. Once a restart stops at F >= 1 - 1e-12,
    every later one leaves at once, while earlier ones run to their own stop.
    The outcome is that of running the restarts one at a time and stopping
    after the first to reach that ceiling: the best restart up to it wins,
    the first on a tie, and ``restarts_used`` counts up to it.

    It holds one extra n x n complex copy of U, ``uv``, with rows (a, a', c')
    and columns (c, b, b'), primes marking inputs.
    """
    n = dims.total
    u = check_unitary(u, n)

    a, c, b = dims.factors
    uv = u.reshape(a, c, b, a, c, b).transpose(0, 3, 4, 1, 2, 5).reshape(a * a * c, c * b * b)
    v, w = _starts(a * c, seed, "v"), _starts(c * b, seed, "w")
    f = np.abs(np.einsum("kij,kij->k", w.conj(), _env_w(uv, v, dims))) / n
    history = np.empty((RESTARTS, MAX_ITERS + 1))
    history[:, 0] = f
    iterations = np.zeros(RESTARTS, dtype=int)
    converged = np.zeros(RESTARTS, dtype=bool)
    live = np.arange(RESTARTS)
    for it in range(1, MAX_ITERS + 1):
        v[live], _ = _polar_unitary(_env_v(uv, w[live], dims))
        w[live], trace = _polar_unitary(_env_w(uv, v[live], dims))
        # W is the polar factor of its environment, so tr(X+ U) = sum(sigma) >= 0
        f_new = trace / n
        history[live, it] = f_new
        iterations[live] = it
        stop = f_new - f[live] < GAIN_TOL
        converged[live] = stop
        f[live] = np.maximum(f[live], f_new)
        ended, live = live[stop], live[~stop]
        top = ended[f[ended] >= 1.0 - 1e-12]
        if top.size:
            live = live[live < top[0]]
        if not live.size:
            break

    top = np.flatnonzero(f >= 1.0 - 1e-12)
    restarts_used = int(top[0]) + 1 if top.size else RESTARTS
    r = int(np.argmax(f[:restarts_used]))
    return DecompositionResult(residual=max(0.0, 1.0 - float(f[r])), v_ac=v[r], w_cb=w[r],
                               iterations=int(iterations[r]), converged=bool(converged[r]),
                               restarts_used=restarts_used,
                               f_history=history[r, :iterations[r] + 1])
