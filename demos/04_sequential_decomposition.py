#!/usr/bin/env python3
"""Test global unitaries for the sequential two-slice form.

A unitary built as an A-C slice followed by a C-B slice is recovered to
machine precision by the alternating polar search, and such dynamics can
never signal from B to A. Generic unitaries sit far from any sequential
form, and signal in both directions.
"""

import numpy as np

import disd
from disd.decompose import planted_sequential, sequential_residual
from disd.locality import signaling_test_unitary

dims = disd.Dims(2, 2, 2)
init = disd.InitialSpec(alpha=np.array([1.0, 1.0]) / np.sqrt(2),
                        chi=np.array([1.0, 1.0j]) / np.sqrt(2))
robust_index = 0  # C starts in |0>

print("planted sequential unitaries:")
for seed in range(4):
    u = planted_sequential(dims, seed)
    r = sequential_residual(u, dims, seed=seed)
    ba = signaling_test_unitary(u, init, dims, robust_index, "b_to_a", n_samples=32, seed=seed)
    ab = signaling_test_unitary(u, init, dims, robust_index, "a_to_b", n_samples=32, seed=seed)
    print(f"  seed {seed}: residual = {r.residual:.2e}  ({r.iterations} iters, "
          f"converged={r.converged})   signal B->A = {ba:.1e}   A->B = {ab:.3f}")

print()
print("generic (Haar) unitaries:")
for seed in range(4):
    u = disd.haar_unitary(dims.total, seed)
    r = sequential_residual(u, dims, seed=seed)
    ba = signaling_test_unitary(u, init, dims, robust_index, "b_to_a", n_samples=32, seed=seed)
    print(f"  seed {seed}: residual = {r.residual:.3f}   signal B->A = {ba:.3f}")

print()
print("recovered factors rebuild the planted unitary up to a global phase:")
u = planted_sequential(dims, 11)
r = sequential_residual(u, dims, seed=11)
rebuilt = np.kron(np.eye(2), r.w_cb) @ np.kron(r.v_ac, np.eye(2))
ov = np.trace(rebuilt.conj().T @ u) / dims.total
print(f"  |overlap| = {abs(ov):.12f}   max |rebuilt - phase * u| = "
      f"{np.abs(rebuilt * np.conj(ov) / abs(ov) - u).max():.2e}")
