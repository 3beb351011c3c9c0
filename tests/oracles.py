"""Independent oracles for the test suite.

These recompute quantities along different numerical routes than the package
(full-space eigendecompositions, direct definitions), so agreement between
the two sides is evidence, not tautology.
"""

import math
from fractions import Fraction

import numpy as np

from disd.decompose import GAIN_TOL, MAX_ITERS, RESTARTS
from disd.evolve import propagate
from disd.model import initial_state
from disd.qcore import (
    ValidationError,
    derive_seed,
    haar_unitary,
    rdm_from_state,
    vn_entropy,
)


def partial_trace(rho, dims, keep):
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


def mutual_information(rho_ab, d_a, d_b):
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


def trace_distance(rho, sigma):
    """Half the trace norm of rho - sigma; in [0, 1] for density matrices.

    Both arguments are one matrix ``(d, d)`` or equal-shaped stacks
    ``(..., d, d)``; the result is a float or an array of the leading shape.
    ``qcore.max_trace_distance`` of the one stack of differences rho - sigma must equal
    the maximum of these bit for bit.
    """
    rho = np.asarray(rho)
    sigma = np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    d = 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def psi0_stream(spec, init, times):
    """The one stream of ``propagate`` on the product state of ``init`` alone, the stack (1, n)."""
    return propagate(spec, times, [initial_state(init, spec.dims, spec.robust_index)[None]])[0]


def evolved_states(spec, init, times):
    """Every block of :func:`psi0_stream` collected into one array, each block copied: (T, n)."""
    return np.concatenate([block[:, 0].copy() for _, block in psi0_stream(spec, init, times)])


def route_states(route, psi, times):
    """Every block of ``route.blocks(psi, times, len(times))`` collected: (T, n) or (T, k, n)."""
    times = np.asarray(times, dtype=float)
    return np.concatenate([block.copy() for _, block in route.blocks(psi, times, len(times))])


def chebyshev_operator(spec, center, half):
    """2X = 2 (H - center) / half, the operator of the Chebyshev recurrence, as a dense matrix.

    H is formed from ``np.kron`` of the model's five terms over the whole A x C x B space,
    not from ``model.hamiltonian_blocks``.
    """
    i_a, i_c, i_b = (np.eye(d) for d in spec.dims.factors)
    h = (np.kron(np.kron(spec.h_a, i_c), i_b) + np.kron(np.kron(i_a, spec.h_c), i_b)
         + np.kron(np.kron(i_a, i_c), spec.h_b) + spec.c2 * np.kron(spec.h_ac, i_b)
         + spec.c1 * np.kron(i_a, spec.h_cb))
    return 2 * (h - center * np.eye(len(h))) / half


def _ordered_eigh_desc(h):
    """Descending eigendecomposition, plain argsort; no phase convention."""
    evals, vecs = np.linalg.eigh(h)
    order = np.argsort(-evals, kind="stable")
    return evals[order], vecs[:, order]


def rs2_table_bruteforce(spec, gap_tol=None):
    """Second-order shift table from a dense sum over the full tripartite space.

    Builds the unperturbed operator c1 * (I_A x h_cb) on the whole A x C x B
    space, eigendecomposes it densely, and for each target |i>_A |0>_C |j>_B
    sums |<n|V|target>|^2 / (E_target - E_n) over every eigenvector with a
    denominator at least gap_tol in magnitude.
    """
    dims = spec.dims
    d_a, d_c, d_b = dims.factors
    r = spec.robust_index
    if gap_tol is None:
        gap_tol = 1e-8 * spec.c1

    h0 = spec.c1 * np.kron(np.eye(d_a), spec.h_cb)
    v = spec.c2 * np.kron(spec.h_ac, np.eye(d_b))
    evals, evecs = np.linalg.eigh(h0)

    a0 = spec.c2 * spec.h_ac.reshape(d_a, d_c, d_a, d_c)[:, r, :, r]
    _, a_vecs = _ordered_eigh_desc(a0)
    b_shape = spec.h_cb.reshape(d_c, d_b, d_c, d_b)[r, :, r, :]
    b_shape_vals, b_vecs = _ordered_eigh_desc(b_shape)

    e0 = np.zeros(d_c)
    e0[r] = 1.0

    table = np.zeros((d_a, d_b))
    for i in range(d_a):
        for j in range(d_b):
            target = np.kron(np.kron(a_vecs[:, i], e0), b_vecs[:, j])
            e_t = spec.c1 * b_shape_vals[j]
            amps = evecs.conj().T @ (v @ target)
            gaps = e_t - evals
            ok = np.abs(gaps) >= gap_tol
            table[i, j] = float(np.sum(np.abs(amps[ok]) ** 2 / gaps[ok]))
    return table


def dense_exponential(h, t):
    """e^{-iHt} as a matrix: a 30-term Taylor series, scaled and squared.

    No eigendecomposition is involved: the series runs on -iHt / 2^s with
    ||Ht|| / 2^s <= 1/2, and the result is squared s times.
    """
    a = -1j * t * np.asarray(h, dtype=complex)
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1e-300)))) + 1)
    a = a / 2 ** s
    u = term = np.eye(len(a), dtype=complex)
    for k in range(1, 30):
        term = term @ a / k
        u = u + term
    for _ in range(s):
        u = u @ u
    return u


def expm_longdouble(h, t):
    """e^{-iHt} in extended precision (np.clongdouble): Taylor series, scaled and squared.

    H is taken exactly as given, in doubles. The series runs on -iHt / 2^s with
    ||Ht||_1 / 2^s <= 1/2 until its terms fall below the long double epsilon, and the
    result is squared s times. Each squaring about doubles the error it carries, so
    at ||Ht|| ~ 1e5 the result is good to about 2^17 long double epsilons, 1e-14, far
    below the eps * max|E| * t that double precision phases allow there.
    """
    a = -1j * np.longdouble(t) * np.asarray(h, dtype=np.clongdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    a = a / np.longdouble(2) ** s
    u = term = np.eye(len(a), dtype=np.clongdouble)
    k = 0
    while np.abs(term).max() > np.finfo(np.longdouble).eps / 16:
        k += 1
        term = term @ a / k
        u = u + term
    for _ in range(s):
        u = u @ u
    return u


def chebyshev_series_exact(z, count):
    """The first ``count`` a_k of e^{-izx} = sum_k a_k T_k(x), from the power series of J_k.

    a_0 = J_0(z), a_k = 2 (-i)^k J_k(z), with J_k(z) = sum_m (-1)^m (z/2)^(2m+k) / (m! (m+k)!)
    summed in integer fixed point with 600 binary places, so the cancellation of terms
    up to e^|z| costs nothing and each term is off by at most 2^-600. The sum stops
    once its terms shrink and the next is below 2^-140 (about 1e-42): past
    m (m + k) > (z/2)^2 they alternate and shrink, so the first term left out bounds
    the truncation at any z.
    """
    half = Fraction(z) / 2
    num, den = half.numerator ** 2, half.denominator ** 2  # (z/2)^2 = num / den
    one = 1 << 600
    out = np.empty(count, dtype=complex)
    for k in range(count):
        term = int(half ** k * one / math.factorial(k))
        j, m = 0, 0
        while m * (m + k) * den <= num or abs(term) >= one >> 140:
            j += term
            m += 1
            term = -term * num // (den * m * (m + k))
        out[k] = (1 if k == 0 else 2) * (1, -1j, -1, 1j)[k % 4] * (j / one)  # (-i)^k exactly
    return out


def mi_per_row(states, dims):
    """A:B mutual information one state at a time, through the d_A*d_B reduced state."""
    return np.array([mutual_information(rdm_from_state(s, dims.factors, (0, 2)), dims.a, dims.b)
                     for s in states])


def signaling_per_row(evolve, psi0, ref_states, dims, direction, n_samples, seed):
    """Per-row max target disturbance by a double loop over samples and rows.

    The source unitary acts through a dense Kronecker product and each reduced
    state is a partial trace of the full projector.
    """
    if direction == "b_to_a":
        src_dim, keep = dims.b, (0,)
        lift = lambda g: np.kron(np.eye(dims.a * dims.c), g)
    else:
        src_dim, keep = dims.a, (2,)
        lift = lambda g: np.kron(g, np.eye(dims.c * dims.b))

    def target(s):
        return partial_trace(np.outer(s, s.conj()), dims.factors, keep)

    out = np.zeros(len(ref_states))
    for k in range(n_samples):
        g = haar_unitary(src_dim, derive_seed(seed, "signaling", direction, k))
        for idx, s in enumerate(evolve(lift(g) @ psi0)):
            out[idx] = max(out[idx], trace_distance(target(s), target(ref_states[idx])))
    return out


def energy_table(spec, pd):
    """Dressed energies E_ij = eps^A_i + eps^B_j + lambda_i0j + lambda0 from the spec.

    Only the bases |a_i>, |b_j> and the second-order table are read from
    ``pd``: eps^A_i = <a_i|h_a + c2 A0|a_i>, eps^B_j = <b_j|h_b + c1 B0|b_j>
    and lambda0 = <r|h_c|r> are rebuilt from the model's own matrices.
    """
    r = spec.robust_index
    h_a = spec.h_a + spec.c2 * spec.robust_block_a()
    h_b = spec.h_b + spec.c1 * spec.robust_block_b()
    eps_a = np.array([np.vdot(v, h_a @ v).real for v in pd.a_vecs.T])
    eps_b = np.array([np.vdot(v, h_b @ v).real for v in pd.b_vecs.T])
    return eps_a[:, None] + eps_b[None, :] + pd.lambda_i0j + spec.h_c[r, r].real


def residuals_per_row(spec, init, pd, times, states):
    """Phase-aligned residual one time at a time, from the scalar product form.

    Each product-form state is built for a single time t from
    :func:`energy_table`, and the distance to the exact state is taken at
    the phase of their overlap.
    """
    dims = spec.dims
    a_amp = pd.a_vecs.conj().T @ init.alpha
    b_amp = pd.b_vecs.conj().T @ init.chi
    energies = energy_table(spec, pd)
    out = np.empty(len(times))
    for k, t in enumerate(times):
        m = np.outer(a_amp, b_amp) * np.exp(-1j * t * energies)
        psi = np.zeros((dims.a, dims.c, dims.b), dtype=complex)
        psi[:, spec.robust_index, :] = pd.a_vecs @ m @ pd.b_vecs.T
        approx = psi.reshape(-1)
        ov = np.vdot(approx, states[k])
        phase = ov / abs(ov) if abs(ov) > 0 else 1.0
        out[k] = np.linalg.norm(states[k] - phase * approx)
    return out


def env_v_einsum(u6, w, dims):
    """Tr_B[(I_A x W)+ U] as one einsum over the 6-index U (rows a c b, columns a' c' b')."""
    a, c, b = dims.factors
    return np.einsum("pqcb,apqldb->acld", w.reshape(c, b, c, b).conj(), u6).reshape(a * c, a * c)


def env_w_einsum(u6, v, dims):
    """Tr_A[U (V x I_B)+] as one einsum over the 6-index U (rows a c b, columns a' c' b')."""
    a, c, b = dims.factors
    return np.einsum("acbxyk,adxy->cbdk", u6, v.reshape(a, c, a, c).conj()).reshape(c * b, c * b)


def polar_svd(m):
    """Unitary polar factor U V+ of m = U diag(sigma) V+ and tr(Q+ m) = sum(sigma), by SVD."""
    p, s, qh = np.linalg.svd(m)
    return p @ qh, float(s.sum())


def sequential_search_einsum(u, dims, seed):
    """The alternating-polar search on the einsum environments, every polar step by SVD.

    Same starts, stopping rule and best-restart choice as
    ``sequential_residual``; returns the best restart's fidelity history,
    its iteration count and the number of restarts run.
    """
    n = dims.total
    u6 = np.asarray(u, dtype=complex).reshape(dims.factors * 2)
    best = None
    for r in range(RESTARTS):
        if r == 0:
            v = np.eye(dims.a * dims.c, dtype=complex)
            w = np.eye(dims.c * dims.b, dtype=complex)
        else:
            v = haar_unitary(dims.a * dims.c, derive_seed(seed, "restart", r, "v"))
            w = haar_unitary(dims.c * dims.b, derive_seed(seed, "restart", r, "w"))
        f = float(abs(np.vdot(w, env_w_einsum(u6, v, dims)))) / n
        history = [f]
        iters = 0
        for it in range(MAX_ITERS):
            v, _ = polar_svd(env_v_einsum(u6, w, dims))
            w, trace = polar_svd(env_w_einsum(u6, v, dims))
            f_new = trace / n
            history.append(f_new)
            iters = it + 1
            if f_new - f < GAIN_TOL:
                f = max(f, f_new)
                break
            f = f_new
        if best is None or f > best[0]:
            best = (f, np.asarray(history), iters)
        if best[0] >= 1.0 - 1e-12:
            break
    return best[1], best[2], r + 1


def spearman_rank(x, y):
    """Spearman rank correlation for sequences without ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    n = len(x)
    d = rx - ry
    return float(1.0 - 6.0 * np.sum(d * d) / (n * (n * n - 1)))


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])
