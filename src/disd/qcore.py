"""Dense complex linear algebra for small multipartite Hilbert spaces.

Partial traces, ordered eigendecompositions, entropies, distances, and
reproducible Haar sampling, all as pure functions on numpy arrays.
Subsystem order is fixed to A, C, B throughout the package; a composite basis
index decomposes as ``idx = a * (d_c * d_b) + c * d_b + b``. Units: hbar = 1,
energies dimensionless, entropies in bits (log base 2).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_MAX_DIM",
    "Dims",
    "ValidationError",
    "basis_vector",
    "check_hermitian",
    "check_state",
    "derive_seed",
    "eigh_ordered",
    "haar_unitary",
    "mutual_information",
    "partial_trace",
    "random_hermitian",
    "rdm_from_state",
    "spectral_norm",
    "trace_distance",
    "vn_entropy",
]

#: Largest total Hilbert-space dimension this package will handle.
DEFAULT_MAX_DIM = 4096

_EIG_FLOOR = 1e-14   # eigenvalues at or below this contribute zero entropy
_NEG_EIG_TOL = 1e-10  # tolerated magnitude of negative density eigenvalues
_MASK64 = (1 << 64) - 1


class ValidationError(ValueError):
    """A numerical contract was violated (non-Hermitian input, norm drift, ...)."""


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions (d_A, d_C, d_B) fixing all tensor shapes."""

    a: int
    c: int
    b: int

    MAX_TOTAL: ClassVar[int] = DEFAULT_MAX_DIM

    def __post_init__(self) -> None:
        for name, d in (("a", self.a), ("c", self.c), ("b", self.b)):
            if not isinstance(d, (int, np.integer)) or d < 2:
                raise ValueError(f"dims.{name} must be an integer >= 2, got {d!r}")
        if self.total > self.MAX_TOTAL:
            raise ValueError(
                f"total dimension {self.total} exceeds the cap {self.MAX_TOTAL}"
            )

    @property
    def total(self) -> int:
        return self.a * self.c * self.b

    @property
    def factors(self) -> tuple[int, int, int]:
        return (self.a, self.c, self.b)


# ---------------------------------------------------------------------------
# deterministic seeding
# ---------------------------------------------------------------------------

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int | str) -> int:
    """Derive a 64-bit sub-seed from a master seed and a component path.

    The mix is a splitmix64 chain: ``state = splitmix64(master)`` followed by
    ``state = splitmix64(state ^ part)`` for each part in order. String parts
    are first reduced to 64 bits with blake2b. The result depends only on the
    arguments, never on how many other sub-seeds were drawn, so concurrent
    consumers can derive their own streams without coordination.
    """
    state = _splitmix64(int(master) & _MASK64)
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            part = int.from_bytes(digest, "big")
        state = _splitmix64(state ^ (int(part) & _MASK64))
    return state


# ---------------------------------------------------------------------------
# construction and validation helpers
# ---------------------------------------------------------------------------

def basis_vector(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def check_hermitian(m: np.ndarray, tol: float = 1e-12, name: str = "matrix") -> None:
    """Raise ValidationError unless max |M - M+| <= tol entrywise."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > tol:
        raise ValidationError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")


def check_state(psi: np.ndarray, tol: float = 1e-10) -> None:
    """Raise ValidationError unless | ||psi|| - 1 | <= tol."""
    err = abs(float(np.linalg.norm(psi)) - 1.0)
    if err > tol:
        raise ValidationError(f"state norm off by {err:.3e} > {tol:.1e}")


# ---------------------------------------------------------------------------
# partial traces
# ---------------------------------------------------------------------------

def partial_trace(rho: np.ndarray, dims: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Reduced density operator on a subset of tensor factors.

    Parameters
    ----------
    rho : square array on the full product space.
    dims : factor dimensions in tensor order; their product must equal
        ``rho.shape[0]``.
    keep : indices of the factors to keep. Factor order is preserved.
    """
    dims = [int(d) for d in dims]
    keep_set = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep_set:
        raise ValueError("keep set must not be empty")
    if any(k < 0 or k >= n for k in keep_set):
        raise ValueError(f"keep indices {keep_set} out of range for {n} factors")
    total = math.prod(dims)
    rho = np.asarray(rho)
    if rho.shape != (total, total):
        raise ValueError(f"rho shape {rho.shape} inconsistent with dims {dims}")
    t = rho.reshape(dims + dims)
    m = n
    for ax in range(n - 1, -1, -1):
        if ax in keep_set:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + m)
        m -= 1
    d_keep = math.prod(dims[k] for k in keep_set)
    return t.reshape(d_keep, d_keep)


def rdm_from_state(psi: np.ndarray, dims: Sequence[int],
                   keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix of a pure state without forming the full projector."""
    dims = [int(d) for d in dims]
    keep_set = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep_set:
        raise ValueError("keep set must not be empty")
    psi_t = np.asarray(psi).reshape(dims)
    drop = [ax for ax in range(n) if ax not in keep_set]
    t = np.tensordot(psi_t, psi_t.conj(), axes=(drop, drop))
    d_keep = math.prod(dims[k] for k in keep_set)
    return t.reshape(d_keep, d_keep)


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------

def eigh_ordered(h: np.ndarray, secondary: np.ndarray | None = None,
                 deg_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic ordering convention.

    Eigenvalues come out descending and each eigenvector is rescaled so that
    its first component of magnitude above 1e-12 is real and positive. When
    ``secondary`` is given, eigenvector blocks whose eigenvalues are closer
    than ``deg_tol * max(1, spread)`` are additionally rotated to diagonalize
    the secondary operator inside the block; this pins the basis where ``h``
    alone is degenerate and cannot.
    """
    evals, vecs = np.linalg.eigh(h)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    vecs = vecs[:, order]

    if secondary is not None and len(evals) > 1:
        scale = max(1.0, float(abs(evals[0] - evals[-1])))
        start = 0
        for k in range(1, len(evals) + 1):
            at_end = k == len(evals)
            if not at_end and abs(evals[k - 1] - evals[k]) <= deg_tol * scale:
                continue
            if k - start > 1:
                sub = vecs[:, start:k]
                block = sub.conj().T @ secondary @ sub
                block = (block + block.conj().T) / 2.0
                b_vals, b_vecs = np.linalg.eigh(block)
                sub_order = np.argsort(-b_vals, kind="stable")
                vecs[:, start:k] = sub @ b_vecs[:, sub_order]
            start = k

    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        j = nz[0] if len(nz) else 0
        ph = col[j] / abs(col[j]) if abs(col[j]) > 0 else 1.0
        vecs[:, k] = col * np.conj(ph)
    return evals, vecs


def vn_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, never negative.

    Eigenvalues at or below 1e-14 contribute zero; negatives larger than
    -1e-10 are clamped to zero, anything more negative raises. Roundoff
    eigenvalues slightly above 1 would otherwise yield a tiny negative sum,
    so the result is clamped at zero as well.
    """
    evals = np.linalg.eigvalsh(np.asarray(rho))
    lo = float(evals.min()) if evals.size else 0.0
    if lo < -_NEG_EIG_TOL:
        raise ValidationError(f"entropy input has eigenvalue {lo:.3e} < -{_NEG_EIG_TOL:.1e}")
    p = np.clip(evals, 0.0, None)
    p = p[p > _EIG_FLOOR]
    if p.size == 0:
        return 0.0
    return max(0.0, float(-(p * np.log2(p)).sum()))


def mutual_information(rho_ab: np.ndarray, d_a: int, d_b: int) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits, clamped at zero."""
    rho_ab = np.asarray(rho_ab)
    if rho_ab.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"rho_ab shape {rho_ab.shape} does not match d_a*d_b = {d_a * d_b}")
    s_a = vn_entropy(partial_trace(rho_ab, (d_a, d_b), (0,)))
    s_b = vn_entropy(partial_trace(rho_ab, (d_a, d_b), (1,)))
    s_ab = vn_entropy(rho_ab)
    mi = s_a + s_b - s_ab
    if mi < -1e-9:
        raise ValidationError(f"mutual information {mi:.3e} below -1e-9")
    return max(mi, 0.0)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma; in [0, 1] for density matrices."""
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    evals = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.abs(evals).sum())


# ---------------------------------------------------------------------------
# seeded random sampling
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, bitwise reproducible for a given seed.

    QR decomposition of a seeded complex Gaussian matrix, with the diagonal
    of R normalized to unit modulus so the distribution is exactly Haar.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Seeded GUE-like Hermitian matrix; ``seed`` may be an int or a Generator."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return (g + g.conj().T) / 2.0
