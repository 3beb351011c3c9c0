"""Tripartite A+C+B dynamics toolkit.

Build constrained three-body Hamiltonians with a dominant C-B coupling and a
robust C state, evolve pure states exactly, construct the phase-dressed
product-form approximation with its second-order shift table, quantify A-B
information transfer (mutual information and sampled signaling), and test
whether a global unitary factors into an A-C slice followed by a C-B slice.
"""

from .qcore import (
    DEFAULT_MAX_DIM,
    Dims,
    ValidationError,
    basis_vector,
    check_hermitian,
    check_state,
    derive_seed,
    eigh_ordered,
    haar_unitary,
    mutual_information,
    partial_trace,
    random_hermitian,
    rdm_from_state,
    spectral_norm,
    trace_distance,
    vn_entropy,
)
from .model import (
    InitialSpec,
    ModelSpec,
    RobustnessReport,
    assemble_hamiltonian,
    build_canonical,
    initial_state,
    validate_robustness,
)
from .evolve import (
    PerturbationData,
    Propagator,
    Trajectory,
    approx_residual,
    perturbation_data,
    product_approx,
    propagate,
    residuals_along,
)
from .locality import (
    LocalityReport,
    locality_report,
    mi_trajectory,
    signaling_test,
    signaling_test_unitary,
    tau_estimate,
)
from .decompose import (
    DecompositionResult,
    planted_sequential,
    sequential_residual,
    sequential_unitary,
)
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"
