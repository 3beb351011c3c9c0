"""Independent oracles for the test suite.

These recompute quantities along different numerical routes than the package
(full-space eigendecompositions, direct definitions), so agreement between
the two sides is evidence, not tautology.
"""

import math

import numpy as np

from disd.qcore import (
    ValidationError,
    derive_seed,
    haar_unitary,
    rdm_from_state,
    trace_distance,
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


def residuals_per_row(spec, init, pd, times, states):
    """Phase-aligned residual one time at a time, from the scalar product form.

    Each product-form state is built for a single time t, and the distance to
    the exact state is taken at the phase of their overlap.
    """
    dims = spec.dims
    a_amp = pd.a_vecs.conj().T @ init.alpha
    b_amp = pd.b_vecs.conj().T @ init.chi
    out = np.empty(len(times))
    for k, t in enumerate(times):
        phase_a = np.exp(-1j * t * (pd.h_a_diag + pd.a_vals))
        phase_b = np.exp(-1j * t * (pd.b_vals + pd.h_b_diag))
        m = ((a_amp * phase_a)[:, None] * (b_amp * phase_b)[None, :]
             * np.exp(-1j * t * pd.lambda_i0j) * np.exp(-1j * t * pd.lambda0))
        psi = np.zeros((dims.a, dims.c, dims.b), dtype=complex)
        psi[:, spec.robust_index, :] = pd.a_vecs @ m @ pd.b_vecs.T
        approx = psi.reshape(-1)
        ov = np.vdot(approx, states[k])
        phase = ov / abs(ov) if abs(ov) > 0 else 1.0
        out[k] = np.linalg.norm(states[k] - phase * approx)
    return out


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
