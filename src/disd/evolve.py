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

from .model import (InitialSpec, ModelSpec, assemble_hamiltonian, hamiltonian_blocks, initial_state,
                    robust_sectors)
from .qcore import ValidationError, check_hermitian, eigh_ordered, mi_and_entropies, spectral_norm

__all__ = [
    "Chebyshev",
    "PerturbationData",
    "Propagator",
    "block_budget",
    "perturbation_data",
    "product_approx",
    "propagate",
    "simulate_columns",
]

COMMUTATOR_TOL = 1e-8
NORM_DRIFT_TOL = 1e-8
PHASE_ERROR_TOL = 1e-8  # bound on eps * max|E| * max|t|, the phase error of e^{-iEt}

CHEB_TOL = 1e-15  # last kept Chebyshev coefficient; the FFT noise floor is ~1e-16
CHEB_Z_MAX = 150.0  # largest half-width * (t - t_anchor) one recurrence serves; longer sub-step
_CHEB_POINTS = 512  # FFT samples; at z <= CHEB_Z_MAX the terms stop by k = 210
_CHEB_CHUNK = 32  # terms a recurrence buffers before it adds them to the rows that use them
# cos(2 pi j / _CHEB_POINTS) over the first quarter of the circle, in long double (80-bit on
# x86): the series of _chebyshev_coefficients need their arguments past double precision
_CHEB_QUARTER = np.cos(2 * np.arccos(np.longdouble(-1)) / _CHEB_POINTS
                       * np.arange(_CHEB_POINTS // 4 + 1))
# The count of ``_route`` in flops at the rate of the Chebyshev GEMMs, fitted on 200 steps to
# t = 20 at c1 = 50, dims 8x4x{6..32}, 1 to 41 states, one OpenBLAS 0.3.31 thread of a 2-vCPU
# Xeon VM: past 13 us a term the Chebyshev GEMMs ran at 26 Gflop/s, the spectral evolve (one
# large GEMM) at 38, and eigh took 1.0-1.4 ns * n^3 from n = 256 up. CHANGES.md has the ladder.
EIGH_FLOPS_PER_N3 = 33.0
EVOLVE_FLOPS_PER_N2 = 5.5
CHEB_TERM_FLOPS = 3.5e5
# The most complex numbers a block of evolved rows holds (16 MiB): a block of a k-state stack
# over T times takes at most min(BLOCK_NUMBERS, T n) of them, whole rows, at least one, so a
# job's peak memory does not grow with its run length. A Chebyshev recurrence that outgrows the
# limit is cut, at the cost of a few more terms: every row of a recurrence is live until its
# last term.
BLOCK_NUMBERS = 2 ** 20


class Propagator:
    """Spectral propagator for a fixed Hermitian H: psi(t) = V e^{-i L t} V+ psi0.

    The eigendecomposition happens once at construction; instances are
    immutable afterwards and safe to share across concurrent readers.
    """

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=complex)
        check_hermitian(h, name="Hamiltonian")
        self._evals, self._vecs = np.linalg.eigh(h)

    def apply(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Evolve a single state to time t.

        It stays because ``CLASS_METHODS`` in ``bench/tracer.py`` names it, its one caller
        outside the tests.
        """
        return self.evolve_many(psi, [t])[0]

    def evolve_many(self, psi: np.ndarray, times) -> np.ndarray:
        """psi, (n,) or (k, n), at each time: (T, n) or (T, k, n); rows at t = 0 are psi exactly."""
        psi = np.asarray(psi, dtype=complex)
        times = np.asarray(times, float)
        phases = np.exp(-1j * np.outer(times, self._evals))[:, None, :]
        coeff = (self._vecs.T @ psi.T.conj()).T.conj()  # V+ psi through a transposed view of V
        terms = (phases * coeff.reshape(-1, phases.shape[-1])).reshape(-1, phases.shape[-1])
        states = (terms @ self._vecs.T).reshape(len(times), *psi.shape)
        states[times == 0] = psi
        return states

    def blocks(self, psi: np.ndarray, times: np.ndarray, max_rows: int):
        """(rows, states) of psi, (k, n), over ``times``, ``max_rows`` rows a block.

        Each block is one :meth:`evolve_many` call from psi itself, at its own times.
        """
        for start in range(0, len(times), max_rows):
            rows = slice(start, start + max_rows)
            yield rows, self.evolve_many(psi, times[rows])


def _chebyshev_coefficients(z) -> tuple[np.ndarray, np.ndarray]:
    """The series a_k with e^{-izx} = sum_k a_k T_k(x) on [-1, 1], for one z or an array of z.

    By Jacobi-Anger the FFT of e^{-iz cos(theta)} gives (-i)^k J_k(z), so
    a_0 = J_0(z) and a_k = 2 (-i)^k J_k(z); one batched FFT serves every z.
    Each series is cut at its first k > |z| with |a_k| < CHEB_TOL, which is
    its length. Returns (a, lengths): ``a`` has shape (*z.shape, K), K the
    longest length, with zeros past each series' own length. A z whose series
    does not fall below CHEB_TOL within the _CHEB_POINTS // 2 coefficients
    (|z| above about 190) raises ``ValueError``.

    The arguments z cos(theta) are formed in long double. Rounded to double,
    they would move the coefficients at z = 150 by 1.6e-15 (by 6e-15 with
    cos(theta) from pi rounded to double), more than CHEB_TOL, so the cut
    would fall short of it; these stay within 1e-16 of the exact series. Only
    the samples over the first quarter of the circle are computed; the
    others follow by symmetry.
    """
    z = np.asarray(z, dtype=float)
    x = np.multiply.outer(z.astype(np.longdouble), _CHEB_QUARTER)
    hi = x.astype(float)
    lo = (x - hi).astype(float)  # e^{-ix} = e^{-i hi} (1 - i lo) to roundoff, as |lo| < 1e-13
    quarter = np.empty(hi.shape, dtype=complex)
    np.cos(hi, out=quarter.real)
    np.negative(np.sin(hi, out=hi), out=quarter.imag)
    quarter -= 1j * lo * quarter
    q = _CHEB_POINTS // 4
    samples = np.empty((*z.shape, _CHEB_POINTS), dtype=complex)
    samples[..., :q + 1] = quarter
    samples[..., q:2 * q + 1] = quarter[..., ::-1].conj()  # cos(pi - theta) = -cos(theta)
    samples[..., 2 * q + 1:] = samples[..., 2 * q - 1:0:-1]  # cos(2 pi - theta) = cos(theta)
    a = np.fft.fft(samples)[..., :_CHEB_POINTS // 2] / _CHEB_POINTS
    a[..., 1:] *= 2
    k = np.arange(a.shape[-1])
    cut = (k > np.abs(z)[..., None]) & (np.abs(a) < CHEB_TOL)
    if not cut.any(axis=-1).all():
        raise ValueError(f"no Chebyshev series of {_CHEB_POINTS} points converges at "
                         f"|z| = {np.abs(z).max():.6g}")
    lengths = np.argmax(cut, axis=-1)
    a[k >= lengths[..., None]] = 0
    return a[..., :lengths.max(initial=0)], lengths


class Chebyshev:
    """Matrix-free propagator: one Chebyshev recurrence serves every grid time of a block.

    H = on_ac x I_B + I_A x on_cb (``model.hamiltonian_blocks``), so H @ psi
    is reshaped GEMMs and H is never formed or diagonalized. By Weyl's
    inequality the spectrum of H lies in [lo, hi], the sums of the blocks'
    extreme eigenvalues, so ``max_abs_energy`` = max(|lo|, |hi|) >= max|E|: the
    bound that the phase guard of ``_route`` reads for both routes. H = center +
    half * X puts the spectrum of X in [-1, 1].
    Then e^{-iH delta} v = e^{-i center delta} sum_k a_k(z) T_k(X) v with
    z = half * delta: the vectors T_k(X) v do not depend on delta, only the
    coefficients do (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984).
    So one three-term recurrence from an anchor state gives every following
    grid row within |z| <= CHEB_Z_MAX of it, each with its own coefficients,
    and the last of those rows anchors the next block; rows at t = 0 are then
    set to psi, as in the spectral route. A row farther than that from its
    predecessor is reached in equal sub-steps, so no recurrence sums more
    than about 210 terms. The terms are added _CHEB_CHUNK at a time, each
    chunk only to the rows whose series reach it and in row slices no larger
    than the term buffer, so the sums need no block-sized temporary.
    :meth:`blocks` yields each recurrence's rows as it ends, so a caller never
    holds more than one of them. ``_route`` plans the recurrences of each stack
    to price them against ``eigh``, and the streams run exactly those plans.

    Where the cross blocks of on_cb are exactly zero (``model.robust_sectors``,
    at any r), its extreme eigenvalues come from its two sectors; elsewhere
    from one dense ``eigvalsh``. There, when r is the first or the last C
    index, so that each sector is one range of columns, and the 16 (d_C - 1)
    d_B^2 d_A flops a state this saves outweigh one more call, half of
    CHEB_TERM_FLOPS, on_cb is applied as two GEMMs, one a sector; otherwise
    as one dense GEMM. Both give 2X to 1e-13 relative.

    A half-width below the smallest normal double (``subnormal``) would
    overflow 2 / half, so X is not formed and ``_route`` takes the spectral
    route for such a model.
    """

    def __init__(self, spec: ModelSpec):
        self._dims = spec.dims
        d_a, d_c, d_b = spec.dims.factors
        on_ac, on_cb = hamiltonian_blocks(spec)
        r = spec.robust_index
        ac = np.linalg.eigvalsh(on_ac)
        spectra = [np.linalg.eigvalsh(block) for block in robust_sectors(on_cb, spec.dims, r)]
        cb = (min(v[0] for v in spectra), max(v[-1] for v in spectra))
        # Python floats: sums past the largest double are inf without a numpy warning
        self.lo, self.hi = float(ac[0]) + float(cb[0]), float(ac[-1]) + float(cb[-1])
        self.max_abs_energy = max(abs(self.lo), abs(self.hi))
        self._center = (self.lo + self.hi) / 2
        self._half = (self.hi - self.lo) / 2
        self.subnormal = 0 < self._half < np.finfo(float).tiny  # 2 / half would overflow
        split = (len(spectra) == 2 and r in (0, d_c - 1)
                 and 16 * (d_c - 1) * d_b ** 2 * d_a > CHEB_TERM_FLOPS / 2)
        # the blocks of 2X, the operator of the recurrence; a zero half-width gives z = 0,
        # where no series applies it, and a subnormal one forms none either
        scale = 2 / self._half if self._half > 0 and not self.subnormal else 0.0
        self._ac = (on_ac - (ac[0] + ac[-1]) / 2 * np.eye(len(ac))) * scale
        cb_t = ((on_cb - (cb[0] + cb[-1]) / 2 * np.eye(len(on_cb))) * scale).T
        # (columns, block) of the transposed C-B block: the whole block, or its two sectors
        robust = slice(r * d_b, (r + 1) * d_b)
        orthogonal = slice(d_b, None) if r == 0 else slice(None, r * d_b)
        sectors = [robust, orthogonal] if split else [slice(None)]
        self._cb_t = [(cols, cb_t[cols, cols].copy()) for cols in sectors]

    def _slot(self, v: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """The views of v, (n,) or (k, n), that :meth:`_apply` reads or writes.

        The column slices of each C-B sector of its (k d_A, d_C d_B) rows, its
        (k, d_A d_C, d_B) A-C view and its flat row. A v that 2X writes must be
        C-contiguous, so that these are views of it. ``_block`` forms them once
        for each slot of its term buffer.
        """
        d_a, d_c, d_b = self._dims.factors
        rows = v.reshape(-1, d_c * d_b)
        sectors = [rows[:, cols] for cols, _ in self._cb_t]
        return sectors, v.reshape(-1, d_a * d_c, d_b), v.reshape(-1)

    def _apply(self, src: tuple, dst: tuple, product: np.ndarray) -> None:
        """2X on the ``_slot`` views: dst = 2X src, with the A-C GEMM written into ``product``.

        Each block of the C-B GEMM writes its columns of dst, and the A-C GEMM is added to them.
        """
        for cols, (_, block), out in zip(src[0], self._cb_t, dst[0]):
            np.matmul(cols, block, out=out)
        np.matmul(self._ac, src[1], out=product)
        np.add(dst[1], product, out=dst[1])

    def _plans(self, times: np.ndarray, max_rows: int) -> list[tuple[int, slice, np.ndarray]]:
        """(sub-steps, rows, coefficients) of each recurrence of a stack over ``times``.

        A recurrence starts from psi (the first) or the last row computed, and
        serves the consecutive rows, one at t = 0 like any other, at delta =
        t - t_anchor with |half * delta| <= CHEB_Z_MAX, up to ``max_rows`` of
        them. Row rows[j] takes coefficients[j], the series of e^{-i half delta
        X} times e^{-i center delta}, padded with zeros to the recurrence's
        longest. A uniform grid repeats its offsets from block to block, so each
        distinct delta is worked out once a call: the deltas a recurrence meets
        first go to one batched FFT, and later recurrences reuse their rows. A
        row out of that reach is served alone, in ``sub-steps`` equal steps of
        coefficients[0]. ``_route`` prices these plans, and :meth:`blocks` runs them.
        """
        plans, anchor, row, known = [], 0.0, 0, {}
        while row < len(times):
            dt, end = times[row] - anchor, row + 1
            steps = max(1, int(np.ceil(abs(self._half * dt) / CHEB_Z_MAX)))
            if steps > 1:
                deltas = np.array([dt / steps])
            else:
                while (end < len(times) and end - row < max_rows
                       and abs(self._half * (times[end] - anchor)) <= CHEB_Z_MAX):
                    end += 1
                deltas = times[row:end] - anchor
            new = deltas[[d not in known for d in deltas.tolist()]]  # increasing, so distinct
            if new.size:
                series, lengths = _chebyshev_coefficients(self._half * new)
                # phase times series, in that order: a complex product's last bit depends on it
                np.multiply(np.exp(-1j * self._center * new)[:, None], series, out=series)
                known.update((d, s[:n]) for d, s, n in zip(new.tolist(), series, lengths))
            rows = [known[d] for d in deltas.tolist()]
            coeffs = np.zeros((len(rows), max(map(len, rows))), dtype=complex)
            for out, series in zip(coeffs, rows):
                out[:len(series)] = series
            plans.append((steps, slice(row, end), coeffs))
            anchor, row = times[end - 1], end
        return plans

    def blocks(self, psi: np.ndarray, times: np.ndarray, plans: list):
        """(rows, states) of psi, (n,) or (k, n), over ``times``: one recurrence a block.

        The recurrences are ``plans``, those of ``_plans(times, max_rows)``, run
        in grid order, so any strictly increasing grid works, a stack (k, n) all
        together; rows at t = 0 are set to psi, as in ``Propagator.evolve_many``.
        Every block is a view of one buffer that the next overwrites: reduce it,
        or copy it.
        """
        anchor = psi = np.asarray(psi, dtype=complex)
        buffer = np.empty((max((rows.stop - rows.start for _, rows, _ in plans), default=0),
                           *psi.shape), dtype=complex)
        for steps, rows, coeffs in plans:
            block = buffer[:rows.stop - rows.start]
            for _ in range(steps - 1):  # the first sub-steps of a long interval
                anchor = self._block(anchor, coeffs, block)[0].copy()
            anchor = self._block(anchor, coeffs, block)[-1].copy()
            block[times[rows] == 0] = psi
            yield rows, block

    def _block(self, v: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out[j] = sum_k coeffs[j, k] T_k(X) v for every row j, by one recurrence.

        T_{k+1} = 2X T_k - T_{k-1}. The terms are written into a buffer of at
        most _CHEB_CHUNK of them after the two carried from the chunk before.
        A row's series ends at its own length, and the rows are in grid order,
        so the rows that a chunk reaches are mostly the last ones: each chunk is
        added from the first row with a nonzero coefficient in it, in row slices
        no longer than that buffer or the block. The views that 2X takes of each
        buffered term are formed once, its A-C GEMM goes into one more stack,
        and each T_k is updated in place. So the recurrence holds at most
        2 (_CHEB_CHUNK + 2) + 1 stacks like v whatever its length and its number
        of rows.
        """
        length = coeffs.shape[1]
        size = min(length, _CHEB_CHUNK)
        buf = np.empty((size + 2, *v.shape), dtype=complex)
        slots = [self._slot(term) for term in buf]  # the views of every term, once a recurrence
        product = np.empty_like(slots[0][1])
        chunk = buf[2:].reshape(size, -1)
        part = np.empty((min(size + 2, len(out)), chunk.shape[1]), dtype=complex)
        rows = out.reshape(len(out), -1)
        out[...] = 0
        for start in range(0, length, size):
            m = min(size, length - start)
            for i in range(2, m + 2):  # buf[i] is T_k
                k = start + i - 2
                if k == 0:
                    buf[i] = v
                    continue
                self._apply(slots[i - 1], slots[i], product)
                term = slots[i][2]
                if k == 1:
                    term /= 2
                else:
                    np.subtract(term, slots[i - 2][2], out=term)
            series = coeffs[:, start:start + m]
            for lo in range(int(np.argmax(series.any(axis=1))), len(series), len(part)):
                hi = min(lo + len(part), len(series))
                rows[lo:hi] += np.matmul(series[lo:hi], chunk[:m], out=part[:hi - lo])
            buf[:2] = buf[m:m + 2]
        return out


def _check_phases(max_abs_energy: float, times, what: str) -> None:
    """Raise ``ValidationError`` unless eps * max|E| * max|t|, the error of e^{-iEt}, is <= 1e-8."""
    err = np.finfo(float).eps * max_abs_energy * np.abs(times).max()
    if not err <= PHASE_ERROR_TOL:
        raise ValidationError(f"{what}: eps*max|E|*max|t| = {err:.3e} > {PHASE_ERROR_TOL:.1e}")


def _time_grid(times) -> np.ndarray:
    """``times`` as floats; ValueError unless a non-empty, finite, strictly increasing 1-D grid."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")
    return times


def block_budget(times: np.ndarray, n: int) -> int:
    """min(BLOCK_NUMBERS, T n): the most numbers a block of evolved rows over ``times`` holds."""
    return min(BLOCK_NUMBERS, len(times) * n)


def _route(spec: ModelSpec, times: np.ndarray, stacks) -> tuple[Propagator | Chebyshev, list]:
    """The cheaper way to evolve ``spec`` over ``times``, by a fitted count, and its plans.

    ``stacks`` holds the size k of each stack the job evolves. A block of a
    stack takes ``block_budget`` // (k n) whole rows, at least one, so a stack
    of more numbers than the budget goes one row a block. Each stack is priced
    over those blocks, and the route comes with one plan per stack, which
    :func:`propagate` hands to that stack's stream: on the Chebyshev route the
    recurrences of ``Chebyshev._plans`` that the count priced, on the spectral
    route the rows a block.
    The spectral route costs EIGH_FLOPS_PER_N3 * n^3 (assembly and ``eigh``)
    plus EVOLVE_FLOPS_PER_N2 * n^2 per state and time. A Chebyshev term, one
    2X, costs two complex block GEMMs, 8 n (d_A d_C + d_C d_B) real flops, per
    state plus CHEB_TERM_FLOPS, and 8 n per state in each row's sum. A series
    at z is cut past the first k > |z| (unless |z| < 1e-14), so half * max|t|
    terms a stack bound the plans from below and can rule them out unplanned.
    The phase guard runs first, on ``Chebyshev.max_abs_energy`` >= max|E|: a
    grid that fails it is refused before any plan or ``eigh``.
    A term is priced at the dense C-B GEMM also where ``Chebyshev`` splits that
    block: the rates were fitted on dense terms, and a split-aware price would
    need them fitted again.
    """
    cheb = Chebyshev(spec)
    _check_phases(cheb.max_abs_energy, times, "phases lose their precision")
    d_a, d_c, d_b = spec.dims.factors
    n = spec.dims.total
    rows = [max(1, block_budget(times, n) // (k * n)) for k in stacks]
    per_term = [k * 8 * n * (d_a * d_c + d_c * d_b) + CHEB_TERM_FLOPS for k in stacks]
    spectral = (EIGH_FLOPS_PER_N3 * n + EVOLVE_FLOPS_PER_N2 * len(times) * sum(stacks)) * n ** 2
    if not cheb.subnormal and sum(per_term) * cheb._half * np.abs(times).max() < spectral:
        plans = [cheb._plans(times, r) for r in rows]
        if sum(steps * ((c.shape[1] - 1) * cost + 8 * n * k * c.size)
               for k, cost, plan in zip(stacks, per_term, plans)
               for steps, _, c in plan) < spectral:
            return cheb, plans
    return Propagator(assemble_hamiltonian(spec)), rows


@dataclass(frozen=True, eq=False)
class PerturbationData:
    """Eigenbases |a_i> of A0 = c2 <r|h_ac|r> and |b_j> of B0 = <r|h_cb|r>, and one energy table.

    In the product form the basis pair (i, j) evolves with one real rate,
    ``energies[i, j]`` = E_ij = eps^A_i + eps^B_j + lambda_i0j + lambda0, where
    eps^A_i = <a_i|h_a + A0|a_i>, eps^B_j = <b_j|h_b + c1 B0|b_j> and lambda0 =
    <r|h_c|r> at the robust C index r. ``lambda_i0j`` is the real d_A x d_B
    table of second-order shifts and ``lambda_sup`` its largest magnitude.
    ``gap_warnings`` lists skipped near-degenerate denominators as
    (b_index, perp_index, gap) tuples.
    """

    spec: ModelSpec
    a_vecs: np.ndarray
    b_vecs: np.ndarray
    energies: np.ndarray
    lambda_i0j: np.ndarray
    lambda_sup: float
    gap_warnings: list

    def check_phases(self, times) -> None:
        """The phase guard of :func:`propagate` on these energies; it needs no state."""
        _check_phases(np.abs(self.energies).max(), times,
                      f"product-form phases lose their precision at c1 = {self.spec.c1:.3e}")


def row_norms(states: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex (T, n) array with contiguous rows, with no copy of it.

    Each row's norm comes from the real and imaginary parts of a real view.
    """
    parts = states.view(float)
    return np.sqrt(np.einsum("ki,ki->k", parts, parts))


def propagate(spec: ModelSpec, times, stacks) -> list:
    """Exact evolution of each stack (k, n) of unit states: one lazy stream of blocks per stack.

    Before any stream starts, the grid is checked, then each stack's shape, then each row's
    norm: a row whose norm is not 1 within NORM_DRIFT_TOL, or is NaN, raises ``ValueError``
    naming its stack, the row and the norm. Then one route, ``Chebyshev`` or the spectral
    ``Propagator``, is picked by the count of ``_route`` over the blocks of exactly these
    stacks, and each stream runs the plan that the count priced for its stack, planned
    once. Its phase guard comes first: the phases e^{-iEt} carry an absolute error of about
    eps * max|E| * t, and a grid with eps * max|E| * max|t| above 1e-8 (max|E| from the
    Chebyshev spectral bounds) raises ``ValidationError`` before either route is built. A
    stream yields (rows, states): ``rows`` slices the times, and ``states``, (rows, k, n),
    holds at most ``block_budget(times, n)`` numbers in whole rows, at least one, valid until
    the next block is asked for. A Chebyshev block is one recurrence, cut only where its rows
    would outgrow that limit; a spectral one takes as many rows as the limit allows. Each
    state of a block must keep unit norm within NORM_DRIFT_TOL, or ``ValidationError`` is
    raised; a NaN norm fails too.
    """
    times = _time_grid(times)
    for shape in map(np.shape, stacks):
        if len(shape) != 2 or shape[0] < 1 or shape[1] != spec.dims.total:
            raise ValueError(f"a stack must have shape (k, {spec.dims.total}) with k >= 1, "
                             f"got {shape}")
    for index, stack in enumerate(stacks):
        for row, norm in enumerate(np.linalg.norm(stack, axis=1)):
            if not abs(norm - 1.0) <= NORM_DRIFT_TOL:
                raise ValueError(f"stack {index}, row {row}: norm {norm:.6g} is not 1 "
                                 f"within {NORM_DRIFT_TOL:.1e}")
    route, plans = _route(spec, times, [len(stack) for stack in stacks])
    return [_stream(route.blocks(stack, times, plan)) for stack, plan in zip(stacks, plans)]


def _stream(blocks):
    """The (rows, states) of ``blocks``, each block norm-checked before it is yielded."""
    for rows, states in blocks:
        drift = float(np.abs(row_norms(states.reshape(-1, states.shape[-1])) - 1.0).max())
        if not drift <= NORM_DRIFT_TOL:
            raise ValidationError(f"propagation norm drift {drift:.3e} > {NORM_DRIFT_TOL:.1e}")
        yield rows, states


def perturbation_data(spec: ModelSpec) -> PerturbationData:
    """Eigenbases, dressed energies, and second-order shifts for one model.

    Every ``ModelSpec`` has the robust block structure of ``h_cb``; this
    also requires the commutation constraints that make every phase in the
    approximation well defined: ``[h_a, A0] ~ 0`` and ``[h_b, B0] ~ 0``, each
    as ||[X, Y]|| <= 1e-8 ||X|| ||Y|| so that no coupling strength moves the
    bar, and the robust C state an eigenvector of ``h_c`` to 1e-8.
    Degenerate blocks of A0 (B0) are resolved by diagonalizing h_a (h_b)
    inside the block, so the c2 = 0 limit reproduces the exact free phases.

    Denominators below ``1e-8 * c1`` in magnitude are skipped; scaling the
    cutoff with c1 keeps the set of skipped denominators invariant under
    coupling sweeps. A c1 so small for c2 that the second-order shifts
    overflow raises ``ValidationError``; at c2 = 0 they are exactly 0.
    The shift table is summed over the orthogonal C states first (the comment
    on ``lam``), so no array of the matrix elements themselves is formed.
    """
    d_a, d_c, d_b = spec.dims.factors
    r = spec.robust_index
    others = np.delete(np.arange(d_c), r)  # the C states orthogonal to the robust one

    a0_shape, b0_shape = spec.robust_block_a(), spec.robust_block_b()
    # the bound is scale-free, so [h_a, c2 A0] is checked as [h_a, A0]; c2 = 0 leaves no A0
    checks = [("[h_a, A0]", spec.h_a, a0_shape)] if spec.c2 > 0 else []
    for name, x, y in checks + [("[h_b, B0]", spec.h_b, b0_shape)]:
        comm = spectral_norm(x @ y - y @ x)
        bound = COMMUTATOR_TOL * spectral_norm(x) * spectral_norm(y)
        if comm > bound:
            raise ValidationError(
                f"{name} norm {comm:.3e} > {COMMUTATOR_TOL:.0e} ||X|| ||Y|| = {bound:.3e}")
    lambda0 = float(spec.h_c[r, r].real)
    leak = float(np.linalg.norm(spec.h_c[others, r]))
    if leak > COMMUTATOR_TOL:
        raise ValidationError(
            f"robust state is not an eigenvector of h_c: leakage {leak:.3e} > {COMMUTATOR_TOL:.1e}")

    a_vals, a_vecs = eigh_ordered(spec.c2 * a0_shape, secondary=spec.h_a)
    b_shape_vals, b_vecs = eigh_ordered(b0_shape, secondary=spec.h_b)
    b_vals = spec.c1 * b_shape_vals

    # Eigenpairs (c1 perp_vals, |phi_m>) of c1 * h_cb on the sector orthogonal to the robust
    # C state. Together with the robust-sector pairs (b_vals, |r>|j>) these are all of its
    # eigenpairs, because validated robustness makes the two blocks exact.
    h_perp = spec.h_cb.reshape(d_c, d_b, d_c, d_b)[np.ix_(others, range(d_b), others, range(d_b))]
    perp_vals, phi = np.linalg.eigh(h_perp.reshape((d_c - 1) * d_b, -1))

    # Matrix elements <a_p| x <phi_m| (c2 h_ac x I_B) |a_i> x |r, b_j>: a sum over the
    # orthogonal C states c of a_part[c, p, i] = <a_p, c|c2 h_ac|a_i, r> times cb_part[c, j,
    # m] = <phi_m|c, b_j>. Robust-sector intermediate states with j' != j drop out exactly
    # (the element carries a delta in j), so only the orthogonal sector contributes.
    h_ac = spec.c2 * spec.h_ac.reshape(d_a, d_c, d_a, d_c)[..., r][:, others]
    a_part = np.tensordot(np.tensordot(h_ac, a_vecs.conj(), (0, 0)), a_vecs, (1, 0))  # (c, p, i)
    cb_part = np.tensordot(b_vecs, phi.reshape(d_c - 1, d_b, -1).conj(), (0, 1))  # (j, c, m)
    cb_part = cb_part.transpose(1, 0, 2)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        gaps = b_vals[:, None] - spec.c1 * perp_vals[None, :]
        ok = np.abs(gaps) >= 1e-8 * spec.c1
        weights = np.divide(1.0, gaps, out=np.zeros_like(gaps), where=ok)
        # lambda_ij = sum_pm |sum_c a_part[c, p, i] cb_part[c, j, m]|^2 weights[j, m] = sum_cc'
        # g[i, c, c'] k[c, c', j]: g sums a_part conj(a_part) over p, k cb_part conj(cb_part)
        # weights over m. At c2 = 0 every shift is exactly 0, even where the weights overflow
        lam = np.zeros((d_a, d_b))
        if spec.c2 > 0:
            g = np.einsum("api,bpi->iab", a_part, a_part.conj())
            k = np.einsum("ajm,bjm->abj", cb_part * weights, cb_part.conj())
            lam = np.tensordot(g, k, 2).real
    if not np.isfinite(lam).all():
        raise ValidationError(f"c1 = {spec.c1:.3e} is too small for c2 = {spec.c2:.3e}: "
                              f"the second-order shifts overflow")
    warnings = [(int(j), int(m), float(gaps[j, m])) for j, m in np.argwhere(~ok)]
    if spec.c2 != 0 and gaps.size > 0 and not ok.any():
        raise ValidationError("all denominators degenerate: perturbation theory undefined")

    eps_a = np.real(np.diagonal(a_vecs.conj().T @ spec.h_a @ a_vecs)) + a_vals
    eps_b = b_vals + np.real(np.diagonal(b_vecs.conj().T @ spec.h_b @ b_vecs))
    return PerturbationData(
        spec=spec, a_vecs=a_vecs, b_vecs=b_vecs,
        energies=eps_a[:, None] + eps_b[None, :] + lam + lambda0,
        lambda_i0j=lam, lambda_sup=float(np.abs(lam).max()), gap_warnings=warnings,
    )


def product_approx(init: InitialSpec, pd: PerturbationData, times) -> np.ndarray:
    """Phase-dressed product-form A x B amplitudes of ``pd.spec``, (T, d_A, d_B), unit norm.

    Row t is sum_ij c_ij e^{-i E_ij t} |a_i>|b_j>, with E_ij = ``pd.energies[i, j]``: the
    state never leaves the robust C state, where ``model.place_robust`` would put it, but the
    second-order shift depends on both labels, so each row is generally A-B correlated. The
    phase guard of :func:`propagate` applies to these energies: lambda_i0j grows like c2^2 /
    c1, so a small c1 can leave fewer than eight correct digits, which raises ``ValidationError``.
    """
    pd.check_phases(times)
    t = np.asarray(times, dtype=float).reshape(-1, 1, 1)
    amp = np.outer(pd.a_vecs.conj().T @ init.alpha, pd.b_vecs.conj().T @ init.chi)
    return pd.a_vecs @ (amp * np.exp(-1j * t * pd.energies)) @ pd.b_vecs.T


_SIMULATE_COLUMNS = ("mi_ab_bits", "entropy_a_bits", "entropy_b_bits", "residual_eq4", "norm_error")


def simulate_columns(spec: ModelSpec, init: InitialSpec,
                     times) -> tuple[PerturbationData, dict[str, np.ndarray]]:
    """The simulate job on ``times``: the model's ``PerturbationData`` and five columns.

    One value per time: ``mi_ab_bits``, ``entropy_a_bits`` and ``entropy_b_bits`` of the
    exact state, ``residual_eq4`` (``_residuals``) and ``norm_error``, | ||psi|| - 1 |. The
    grid is checked and the product form's phase guard runs before any propagation; then
    one evolve pass reduces each block as it arrives, the residual last, as it consumes it.
    """
    times = _time_grid(times)
    pd = perturbation_data(spec)
    pd.check_phases(times)  # before any propagation
    (stream,) = propagate(spec, times, [initial_state(init, spec.dims, spec.robust_index)[None]])
    parts = []
    for rows, states in stream:
        psi = states[:, 0]
        mi = mi_and_entropies(psi, spec.dims)
        norm_error = np.abs(row_norms(psi) - 1.0)
        residual = _residuals(product_approx(init, pd, times[rows]), psi, spec.robust_index)
        parts.append((*mi, residual, norm_error))
    return pd, dict(zip(_SIMULATE_COLUMNS, map(np.concatenate, zip(*parts))))


def _residuals(ab: np.ndarray, psi: np.ndarray, robust_index: int) -> np.ndarray:
    """Each row's min over a global phase of || psi - e^{i phi} place_robust(ab) ||; consumes both.

    That is sqrt(2 - 2 |<ab|psi_r>|), taken as a vector norm at the optimal phase, since the
    overlap would floor it at sqrt(machine eps). The overlap needs only psi_r, the robust C
    slice of ``psi``, (T, n) with contiguous rows; e^{i phi} ab is subtracted from that slice
    in place, so each row of ``psi`` becomes the difference.
    """
    robust = psi.reshape(*ab.shape[:2], -1, ab.shape[2])[:, :, robust_index]
    ov = np.einsum("tab,tab->t", ab.conj(), robust)
    mag = np.abs(ov)
    ab *= np.divide(ov, mag, out=np.ones_like(ov), where=mag > 0)[:, None, None]
    robust -= ab
    return row_norms(psi)
