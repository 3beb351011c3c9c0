#!/usr/bin/env python3
"""Build a canonical model instance and inspect its guaranteed structure.

The canonical family pins everything the rest of the toolkit relies on: the
C-B coupling never moves the robust C state, the single-factor terms commute
with the relevant interaction blocks, and all shapes carry unit spectral
norm so c1 and c2 alone set the strengths.
"""

import numpy as np

import disd
from disd.qcore import vn_entropy

dims = disd.Dims(2, 3, 3)
spec = disd.build_canonical(dims, seed=1, c1=8.0, c2=0.3)

print("dims:", dims.factors, "total:", dims.total)
print("couplings: c1 =", spec.c1, " c2 =", spec.c2, " ratio =", spec.c2 / spec.c1)

report = disd.validate_robustness(spec.h_cb, dims, spec.robust_index)
print(f"robustness: passed={report.passed}  max cross-block entry = {report.max_violation:.2e}")

for name in ("h_a", "h_c", "h_b", "h_ac", "h_cb"):
    print(f"  |{name}|_2 = {disd.spectral_norm(getattr(spec, name)):.12f}")

h = disd.assemble_hamiltonian(spec)
print("assembled H:", h.shape, " hermiticity dev:", np.abs(h - h.conj().T).max())

# the same seed always reproduces the same instance, bit for bit
again = disd.build_canonical(dims, seed=1, c1=8.0, c2=0.3)
print("bitwise reproducible:", all(
    np.array_equal(getattr(spec, n), getattr(again, n))
    for n in ("h_a", "h_c", "h_b", "h_ac", "h_cb")))

init = disd.InitialSpec(alpha=np.ones(2) / np.sqrt(2), chi=np.ones(3) / np.sqrt(3))
psi0 = disd.initial_state(init, dims, spec.robust_index)
# I(A:B) = S(A) + S(B) - S(AB), each from a reduced state of psi0
s_a, s_b, s_ab = (vn_entropy(disd.rdm_from_state(psi0, dims.factors, keep))
                  for keep in ((0,), (2,), (0, 2)))
print("initial state: norm =", np.linalg.norm(psi0), " I(A:B) =", s_a + s_b - s_ab, "bits")
