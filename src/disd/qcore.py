"""Dense complex linear algebra for small multipartite Hilbert spaces.

Reduced states of pure states, ordered eigendecompositions, entropies,
distances, and reproducible Haar sampling, all as pure functions on numpy arrays.
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
    "Dims",
    "ValidationError",
    "check_hermitian",
    "check_unitary",
    "derive_seed",
    "eigh_ordered",
    "haar_unitary",
    "max_trace_distance",
    "mi_and_entropies",
    "random_hermitian",
    "rdm_from_state",
    "spectral_norm",
    "vn_entropy",
]

_HERMITIAN_TOL = 1e-12  # entrywise max |M - M+| accepted as Hermitian
UNITARY_TOL = 1e-9  # entrywise max |U+U - I| accepted as unitary
_DEGENERACY_TOL = 1e-10  # relative eigenvalue gap below which eigh_ordered sees a block
_EIG_FLOOR = 1e-14   # eigenvalues at or below this contribute zero entropy
_NEG_EIG_TOL = 1e-10  # tolerated magnitude of negative density eigenvalues
_BRACKET_SLACK = 1e-9  # relative widening of the trace-norm upper bound, for roundoff
_MASK64 = (1 << 64) - 1


class ValidationError(ValueError):
    """A numerical contract was violated (non-Hermitian input, norm drift, ...)."""


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions (d_A, d_C, d_B) fixing all tensor shapes."""

    a: int
    c: int
    b: int

    #: Largest total Hilbert-space dimension this package will handle.
    MAX_TOTAL: ClassVar[int] = 4096

    def __post_init__(self) -> None:
        for name, d in (("a", self.a), ("c", self.c), ("b", self.b)):
            if not isinstance(d, (int, np.integer)) or d < 2:
                raise ValueError(f"dims.{name} must be an integer >= 2, got {d!r}")
            object.__setattr__(self, name, int(d))  # a numpy product could wrap past the cap
        if self.total > self.MAX_TOTAL:
            raise ValueError(f"total dimension {self.total} exceeds the cap {self.MAX_TOTAL}")

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

def spectral_norm(m: np.ndarray) -> float:
    """The largest singular value of m, numpy's SVD norm; a non-finite entry raises
    ``ValidationError`` before LAPACK sees it."""
    return float(np.linalg.norm(_finite(m, "spectral-norm input"), 2))


def _norm_and_unit(v: np.ndarray) -> tuple[float, np.ndarray]:
    """||v|| and v / ||v||, neither overflowing nor underflowing for finite entries.

    The real and imaginary parts are divided by the largest of them first,
    which puts them in [-1, 1]. A zero vector, or one with an infinite or nan
    entry, comes back as (that largest part, v).
    """
    v = np.asarray(v, dtype=complex)
    scale = float(np.abs(np.stack([v.real, v.imag])).max(initial=0.0))
    if not 0 < scale < np.inf:
        return scale, v
    unit = v.real / scale + 1j * (v.imag / scale)
    norm = float(np.linalg.norm(unit))
    return scale * norm, unit / norm


def _finite(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` as an array, or ValidationError naming its first non-finite entry: LAPACK sees none."""
    m = np.asarray(m)
    if not np.isfinite(m).all():
        where = tuple(np.argwhere(~np.isfinite(m))[0].tolist())
        raise ValidationError(f"{name} has a non-finite entry {m[where]} at {where}")
    return m


def check_hermitian(m: np.ndarray, name: str = "matrix") -> None:
    """Raise ValidationError unless every entry is finite and max |M - M+| <= 1e-12 entrywise."""
    m = _finite(m, name)  # before any arithmetic: inf - inf would warn
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > _HERMITIAN_TOL:
        raise ValidationError(
            f"{name} is not Hermitian: max deviation {dev:.3e} > {_HERMITIAN_TOL:.1e}")


def check_unitary(u: np.ndarray, n: int) -> np.ndarray:
    """``u`` as complex: ValueError unless n x n, ValidationError unless U+U = I to UNITARY_TOL."""
    u = np.asarray(u, dtype=complex)
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
    return u


# ---------------------------------------------------------------------------
# reduced states
# ---------------------------------------------------------------------------

def rdm_from_state(psi: np.ndarray, dims: Sequence[int],
                   keep: Iterable[int]) -> np.ndarray:
    """Reduced density matrix of a pure state without forming the full projector.

    ``psi`` may carry leading batch axes, shape ``(..., n)``; the result then
    has shape ``(..., d_keep, d_keep)``, one reduced state per input state.
    """
    dims = [int(d) for d in dims]
    keep_set = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep_set:
        raise ValueError("keep set must not be empty")
    psi = np.asarray(psi)
    batch = psi.shape[:-1]
    drop = [ax for ax in range(n) if ax not in keep_set]
    d_keep = math.prod(dims[k] for k in keep_set)
    lead = len(batch)
    psi_t = psi.reshape(batch + tuple(dims))
    psi_t = psi_t.transpose(list(range(lead)) + [lead + ax for ax in keep_set + drop])
    m = psi_t.reshape(batch + (d_keep, -1))
    return m @ m.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------

def eigh_ordered(h: np.ndarray,
                 secondary: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a deterministic ordering convention.

    Eigenvalues come out descending and each eigenvector is rescaled so that
    its first component of magnitude above 1e-12 is real and positive. When
    ``secondary`` is given, eigenvector blocks whose eigenvalues are closer
    than ``1e-10 * max(1, spread)`` are additionally rotated to diagonalize
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
            if not at_end and abs(evals[k - 1] - evals[k]) <= _DEGENERACY_TOL * scale:
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
        j = np.flatnonzero(np.abs(col) > 1e-12)[0]  # a unit column has such an entry
        vecs[:, k] = col * np.conj(col[j] / abs(col[j]))
    return evals, vecs


def vn_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits, never negative.

    ``rho`` is one matrix ``(d, d)`` or a stack ``(..., d, d)``; the result is
    a float or an array of the stack's leading shape. A non-finite entry
    raises before ``eigvalsh``. Eigenvalues at or below 1e-14 contribute zero;
    negatives larger than -1e-10 are clamped to zero, anything more negative
    raises, anywhere in the stack. Roundoff eigenvalues slightly above 1 would
    otherwise yield a tiny negative sum, so each result is clamped at zero.
    """
    evals = np.linalg.eigvalsh(_finite(rho, "entropy input"))
    lo = float(evals.min(initial=0.0))
    if lo < -_NEG_EIG_TOL:
        raise ValidationError(f"entropy input has eigenvalue {lo:.3e} < -{_NEG_EIG_TOL:.1e}")
    p = np.where(evals > _EIG_FLOOR, evals, 1.0)  # log2(1) = 0: dropped terms add nothing
    s = -(p * np.log2(p)).sum(axis=-1)
    s = np.where(s > 0.0, s, 0.0)
    return float(s) if s.ndim == 0 else s


def mi_and_entropies(states: np.ndarray,
                     dims: Dims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I(A:B), S(A) and S(B) in bits of each pure state, a row of ``states`` (T, n).

    A pure state has S(AB) = S(C), so I(A:B) = S(A) + S(B) - S(C) and no d_A*d_B
    reduced state is formed: S(A), S(C) and S(B) are one stacked call each.
    """
    s_a, s_c, s_b = (vn_entropy(rdm_from_state(states, dims.factors, (k,))) for k in range(3))
    mi = s_a + s_b - s_c
    lo = mi.min(initial=0.0)
    if lo < -1e-9:
        raise ValidationError(f"mutual information {lo:.3e} below -1e-9")
    return np.maximum(mi, 0.0), s_a, s_b


def max_trace_distance(diffs: np.ndarray) -> float | np.ndarray:
    """The largest trace distance of a stack of differences, diagonalizing fewer of them.

    ``diffs`` is a stack ``(..., k, d, d)`` of Hermitian D = rho - sigma. The
    result, of leading shape ``(...)`` (a float when that is empty), is the
    maximum over k of half the trace norm of D, bit for bit that of one
    ``eigvalsh`` of every D (the ``trace_distance`` oracle of
    ``tests/oracles.py``); a non-finite entry raises ValidationError first.
    For D with trace tau and Frobenius norm F, 2F^2 - tau^2 <= ||D||_1^2 <=
    d F^2 (the lower bound from F^2 <= P^2 + N^2, P and N the positive and
    negative eigenvalue mass). A D whose upper bound, widened by 1e-9 for
    double-precision roundoff, lies below another's lower bound cannot hold
    the maximum, so only the others go to ``eigvalsh``.
    """
    diffs = _finite(np.ascontiguousarray(diffs), "trace-distance input")  # see the real view
    if diffs.ndim < 3 or diffs.shape[-1] != diffs.shape[-2]:
        raise ValueError(f"expected a stack (..., k, d, d), got shape {diffs.shape}")
    parts = diffs.view(diffs.real.dtype)  # each row's real and imaginary parts, side by side
    f2 = np.einsum("...ij,...ij->...", parts, parts)
    tau = np.einsum("...ii->...", diffs).real
    lower = (2.0 * f2 - tau ** 2).max(axis=-1, keepdims=True)
    keep = diffs.shape[-1] * f2 * (1.0 + _BRACKET_SLACK) >= lower
    dist = np.zeros(keep.shape)
    dist[keep] = 0.5 * np.abs(np.linalg.eigvalsh(diffs[keep])).sum(axis=-1)
    d = dist.max(axis=-1)
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# seeded random sampling
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, seed: int | Sequence[int]) -> np.ndarray:
    """Haar-distributed unitary, bitwise reproducible for a given seed.

    QR decomposition of a seeded complex Gaussian matrix, with the diagonal
    of R normalized to unit modulus so the distribution is exactly Haar.
    ``seed`` may also be a 1-D sequence of k seeds: the result is then the
    stack (k, dim, dim) of the unitaries those seeds give one at a time, bit
    for bit, from one Gaussian generator per seed and one stacked QR.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    axes = np.ndim(seed)
    if axes > 1:
        raise ValueError(f"seed must be an integer or a 1-D sequence, got {axes} axes")
    seeds = seed if axes else [seed]
    z = np.empty((len(seeds), dim, dim), dtype=complex)
    for out, s in zip(z, seeds):
        rng = np.random.default_rng(s)
        out[...] = (rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z if axes else z[0])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_hermitian(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Seeded GUE-like Hermitian matrix; ``seed`` may be an int or a Generator."""
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return (g + g.conj().T) / 2.0
