"""Tripartite A+C+B dynamics toolkit.

Build constrained three-body Hamiltonians with a dominant C-B coupling and a
robust C state, evolve pure states exactly, construct the phase-dressed
product-form approximation with its second-order shift table, quantify A-B
information transfer (mutual information and sampled signaling), and test
whether a global unitary factors into an A-C slice followed by a C-B slice.
"""

from .qcore import (
    Dims,
    haar_unitary,
    rdm_from_state,
    spectral_norm,
)
from .model import (
    InitialSpec,
    assemble_hamiltonian,
    build_canonical,
    initial_state,
    validate_robustness,
)
from .evolve import simulate_columns
from .locality import tau_estimate

__version__ = "0.1.0"
