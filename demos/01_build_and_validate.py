#!/usr/bin/env python3
"""Build a canonical model instance and inspect its guaranteed structure.

The canonical family pins everything the rest of the toolkit relies on: the
C-B coupling never moves the robust C state, the single-factor terms commute
with the relevant interaction blocks, and all shapes carry unit spectral
norm so c1 and c2 alone set the strengths.
"""

import dataclasses

import numpy as np

import disd
from disd.qcore import ValidationError, vn_entropy

dims = disd.Dims(2, 3, 3)
spec = disd.build_canonical(dims, seed=1, c1=8.0, c2=0.3)

print("dims:", dims.factors, "total:", dims.total)
print("couplings: c1 =", spec.c1, " c2 =", spec.c2, " ratio =", spec.c2 / spec.c1)

# h_cb never moves the robust C state: its cross blocks <j| h_cb |r>_C, j != r, are exactly 0
others = [j for j in range(dims.c) if j != spec.robust_index]
cross = spec.h_cb.reshape(dims.c, dims.b, dims.c, dims.b)[others, :, spec.robust_index]
print("max cross-block entry of h_cb:", np.abs(cross).max())

# every ModelSpec checks this when it is built: a unit-norm h_cb whose only cross-block
# entry is <1, 0| h_cb |0, 1> = 1e-3 is refused
planted = np.zeros_like(spec.h_cb)
planted[0, 0] = 1.0
planted[dims.b, 1] = planted[1, dims.b] = 1e-3
try:
    dataclasses.replace(spec, h_cb=planted)
except ValidationError as exc:
    print("rejected:", exc)
else:
    raise SystemExit("a model with a cross-block entry of 1e-3 was accepted")

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
