"""Tripartite model construction: Hamiltonian terms, couplings, initial states.

The Hamiltonian on A x C x B is assembled as

    H = h_a x I x I  +  I x h_c x I  +  I x I x h_b
        + c2 * (h_ac x I_B)  +  c1 * (I_A x h_cb)

with no direct A-B term. The stored interaction matrices h_ac and h_cb are
unit-spectral-norm "shapes"; the scalars c1 > 0 and c2 >= 0 carry the
strengths, so the ratio c2/c1 is well defined and sweepable. A distinguished
C basis index ``robust_index`` marks the C state that the dominant C-B
coupling must leave invariant: every cross block <j| h_cb |0>_C with
j != robust_index vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    _BRIEF,
    Dims,
    ValidationError,
    _is_integer,
    _norm_and_unit,
    check_hermitian,
    derive_seed,
    eigh_ordered,
    random_hermitian,
    spectral_norm,
)

__all__ = [
    "InitialSpec",
    "ModelSpec",
    "assemble_hamiltonian",
    "build_canonical",
    "check_amplitudes",
    "check_couplings",
    "check_robust_index",
    "hamiltonian_blocks",
    "initial_state",
    "place_robust",
    "robust_sectors",
]

SHAPE_NORM_TOL = 1e-9
ROBUST_TOL = 1e-12
UNIT_NORM_TOL = 1e-10


def check_couplings(c1: float, c2: float) -> None:
    """ValueError unless c1 is positive and c2 non-negative, both finite."""
    if not 0 < c1 < np.inf:
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    if not 0 <= c2 < np.inf:
        raise ValueError(f"c2 must be non-negative and finite, got {c2}")


def check_robust_index(robust_index: int, d_c: int) -> None:
    """ValueError unless robust_index is an integer, not a bool, with 0 <= robust_index < d_c;
    a float or a bool would reach numpy as an index, and a negative index would wrap."""
    if not _is_integer(robust_index):
        raise ValueError(f"robust_index must be an integer, got {_BRIEF.repr(robust_index)}")
    if not 0 <= robust_index < d_c:
        raise ValueError(f"robust_index {_BRIEF.repr(robust_index)} out of range for d_c = {d_c}")


def check_amplitudes(alpha: np.ndarray, chi: np.ndarray, dims: Dims) -> None:
    """ValueError unless alpha has shape (d_A,) and chi (d_B,)."""
    for name, v, dim in (("alpha", alpha, dims.a), ("chi", chi, dims.b)):
        if v.shape != (dim,):
            raise ValueError(f"{name} has length {v.shape}, expected {dim}")


def robust_sectors(m: np.ndarray, dims: Dims, robust_index: int) -> list[np.ndarray]:
    """The diagonal blocks of a (d_C d_B)^2 operator m on C x B that make up all of it.

    Where every cross block <j|m|r>_C and <r|m|j>_C, j != r = ``robust_index``, is exactly
    zero, m is the direct sum of its robust sector <r|m|r>_C, d_B x d_B, and its orthogonal
    sector, (d_C - 1) d_B square, and both come back, so that a spectral quantity of m is
    taken over two smaller matrices; otherwise the list holds m alone.
    """
    t = m.reshape(dims.c, dims.b, dims.c, dims.b)
    others = np.delete(np.arange(dims.c), robust_index)
    if t[others][:, :, robust_index].any() or t[robust_index][:, others].any():
        return [m]
    orthogonal = t[np.ix_(others, range(dims.b), others, range(dims.b))]
    return [t[robust_index, :, robust_index], orthogonal.reshape((dims.c - 1) * dims.b, -1)]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """One model instance: five Hermitian terms plus coupling scalars.

    ``h_a``, ``h_c``, ``h_b`` act on the single factors; ``h_ac`` on A x C;
    ``h_cb`` on C x B. Construction checks the whole model contract, so every
    instance is valid, including one made by ``dataclasses.replace``: first
    every term's shape, then hermiticity and finite entries, the couplings
    (``check_couplings``), the robust index (``check_robust_index``), the unit
    shape norms (that of ``h_cb`` over its ``robust_sectors``) and robustness.
    A wrong shape, coupling or robust index raises ValueError; a term that
    breaks the contract, ValidationError.
    Each term accepted within 1e-12 of Hermitian is stored as its Hermitian
    part, m/2 + m+/2 where m differs from m+ and m bit for bit elsewhere, so
    every route through H (``eigh`` reads one triangle, the Chebyshev steps
    both) sees one exactly Hermitian operator at any coupling strength.
    """

    dims: Dims
    h_a: np.ndarray
    h_c: np.ndarray
    h_b: np.ndarray
    h_ac: np.ndarray
    h_cb: np.ndarray
    c1: float
    c2: float
    robust_index: int = 0

    def __post_init__(self):
        d = self.dims
        sizes = {"h_a": d.a, "h_c": d.c, "h_b": d.b, "h_ac": d.a * d.c, "h_cb": d.c * d.b}
        for name, n in sizes.items():
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {(n, n)}")
        for name in sizes:
            m = getattr(self, name)
            check_hermitian(m, name=name)
            object.__setattr__(self, name, np.where(m == m.conj().T, m, 0.5 * m + 0.5 * m.conj().T))
        check_couplings(self.c1, self.c2)
        r = self.robust_index
        check_robust_index(r, d.c)
        for name, blocks in (("h_ac", [self.h_ac]), ("h_cb", robust_sectors(self.h_cb, d, r))):
            s = max(map(spectral_norm, blocks))
            if abs(s - 1.0) > SHAPE_NORM_TOL:
                raise ValidationError(f"{name} shape norm {s:.12f} deviates from 1 by more than {SHAPE_NORM_TOL:.1e}")
        # the robust C state is invariant: every cross block <j| h_cb |r>_C, j != r, vanishes
        cross = np.delete(self.h_cb.reshape(d.c, d.b, d.c, d.b)[:, :, r], r, axis=0)
        violation = float(np.abs(cross).max())
        if violation > ROBUST_TOL:
            raise ValidationError(
                f"h_cb violates the robust-state block structure: "
                f"max cross-block entry {violation:.3e} > {ROBUST_TOL:.1e}"
            )

    def robust_block_b(self) -> np.ndarray:
        """The d_B x d_B block <0| h_cb |0>_C at the robust index."""
        d = self.dims
        t = self.h_cb.reshape(d.c, d.b, d.c, d.b)
        return t[self.robust_index, :, self.robust_index, :]

    def robust_block_a(self) -> np.ndarray:
        """The d_A x d_A block <0| h_ac |0>_C at the robust index."""
        d = self.dims
        t = self.h_ac.reshape(d.a, d.c, d.a, d.c)
        return t[:, self.robust_index, :, self.robust_index]


@dataclass(frozen=True)
class InitialSpec:
    """Unit A and B amplitudes of a product initial state; the model fixes the C state.

    Construction checks that each vector has unit norm to 1e-10, so every
    instance is valid, including one made by ``dataclasses.replace``.
    """

    alpha: np.ndarray
    chi: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "chi"):
            v = np.asarray(getattr(self, name), dtype=complex)
            object.__setattr__(self, name, v)
            err = abs(_norm_and_unit(v)[0] - 1.0)
            if not err <= UNIT_NORM_TOL:
                raise ValidationError(f"{name} norm off by {err:.3e}")


def _unit_shape(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    s = spectral_norm(m)
    return m / s if s > 0 else m


def build_canonical(dims: Dims, seed: int, c1: float, c2: float,
                    robust_index: int = 0) -> ModelSpec:
    """Seeded random instance of the canonical model family.

    The family is built so that the structural assumptions hold exactly:

    * ``h_cb`` is block diagonal in the C basis, ``|r><r| x B0`` on the robust
      sector plus an independent random Hermitian on the orthogonal sector,
      so the robust state is exactly invariant;
    * ``h_ac`` is a generic random Hermitian on A x C (it may push C out of
      the robust state, which is exactly the small correction the product
      approximation drops);
    * ``h_a`` is diagonal in the eigenbasis of the robust block of ``h_ac``;
    * ``h_c`` has the robust state as an eigenvector;
    * ``h_b`` is diagonal in the eigenbasis of B0.

    All five matrices are normalized to unit spectral norm; the couplings
    live in ``c1`` and ``c2`` alone; ``h_cb`` is divided by the larger norm
    of its two ``robust_sectors``, the norm of their direct sum. The same
    seed always returns bitwise identical matrices, independent of the
    couplings.
    """
    rng = np.random.default_rng(derive_seed(seed, "canonical-model"))
    d_a, d_c, d_b = dims.factors

    check_robust_index(robust_index, d_c)
    others = np.delete(np.arange(d_c), robust_index)  # the C states orthogonal to the robust one

    b0 = random_hermitian(d_b, rng)
    h_perp = random_hermitian((d_c - 1) * d_b, rng)
    h_cb = np.zeros((d_c, d_b, d_c, d_b), dtype=complex)
    h_cb[robust_index, :, robust_index] = b0
    h_cb[np.ix_(others, range(d_b), others, range(d_b))] = h_perp.reshape(d_c - 1, d_b, d_c - 1, d_b)
    h_cb = h_cb.reshape(d_c * d_b, d_c * d_b)
    h_cb /= max(map(spectral_norm, robust_sectors(h_cb, dims, robust_index)))

    h_ac = _unit_shape(random_hermitian(d_a * d_c, rng))

    a0_shape = h_ac.reshape(d_a, d_c, d_a, d_c)[:, robust_index, :, robust_index]
    _, a_vecs = eigh_ordered(a0_shape)
    h_a = _unit_shape((a_vecs * rng.standard_normal(d_a)) @ a_vecs.conj().T)

    lam0 = rng.standard_normal()
    m_c = random_hermitian(d_c - 1, rng)
    h_c = np.zeros((d_c, d_c), dtype=complex)
    h_c[robust_index, robust_index] = lam0
    h_c[np.ix_(others, others)] = m_c
    h_c = _unit_shape(h_c)

    b0_eff = h_cb.reshape(d_c, d_b, d_c, d_b)[robust_index, :, robust_index, :]
    _, b_vecs = eigh_ordered(b0_eff)
    h_b = _unit_shape((b_vecs * rng.standard_normal(d_b)) @ b_vecs.conj().T)

    return ModelSpec(dims=dims, h_a=h_a, h_c=h_c, h_b=h_b, h_ac=h_ac, h_cb=h_cb,
                     c1=float(c1), c2=float(c2), robust_index=robust_index)


def hamiltonian_blocks(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of H = on_ac x I_B + I_A x on_cb.

    ``on_ac = h_a x I_C + c2 * h_ac`` is (d_A d_C)^2 and
    ``on_cb = h_c x I_B + I_C x h_b + c1 * h_cb`` is (d_C d_B)^2: every term
    of H acts on A x C or on C x B, and none on A x B.
    """
    d = spec.dims
    i_c = np.eye(d.c, dtype=complex)
    i_b = np.eye(d.b, dtype=complex)
    on_ac = np.kron(spec.h_a, i_c) + spec.c2 * spec.h_ac
    on_cb = np.kron(spec.h_c, i_b) + np.kron(i_c, spec.h_b) + spec.c1 * spec.h_cb
    return on_ac, on_cb


def assemble_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Full Hamiltonian on A x C x B; contains no A-B cross term by construction.

    H = on_ac x I_B + I_A x on_cb is written into one n x n array through two
    reshaped views of it: on_cb on the d_A diagonal blocks, then on_ac added on
    the diagonals strided by d_B, so no other n x n array is formed.
    """
    d = spec.dims
    on_ac, on_cb = hamiltonian_blocks(spec)
    m = d.c * d.b
    h = np.zeros((d.total, d.total), dtype=complex)
    a, b = np.arange(d.a), np.arange(d.b)
    h.reshape(d.a, m, d.a, m)[a, :, a] = on_cb
    h.reshape(d.a * d.c, d.b, d.a * d.c, d.b)[:, b, :, b] += on_ac
    return h


def place_robust(ab: np.ndarray, dims: Dims, robust_index: int) -> np.ndarray:
    """A x B amplitudes, shape (..., d_A, d_B), with C in |robust_index>: flat states (..., n)."""
    psi = np.zeros((*ab.shape[:-2], *dims.factors), dtype=complex)
    psi[..., robust_index, :] = ab
    return psi.reshape(*ab.shape[:-2], dims.total)


def initial_state(init: InitialSpec, dims: Dims, robust_index: int) -> np.ndarray:
    """Product state (sum_i alpha_i |i>_A) x |robust_index>_C x |chi>_B as a flat vector."""
    check_amplitudes(init.alpha, init.chi, dims)
    check_robust_index(robust_index, dims.c)
    return place_robust(np.outer(init.alpha, init.chi), dims, robust_index)
