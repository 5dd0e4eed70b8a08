"""Quantum gradient of the logarithm-determinant from simulated probe
circuits, with independent classical oracles for every quantum readout."""

from .errors import (
    AliasedReadout,
    FamilySizeMismatch,
    FlatDistribution,
    IllConditioned,
    IndexOutOfRange,
    NearZeroEigenvalue,
    NonFiniteInput,
    NonHermitianInput,
    NonUnitaryMember,
    NotInGroundRegister,
    NumericalFailure,
    ProbabilityOutOfRange,
    QgldError,
    RoundingFloor,
    SingularMatrix,
    UnnormalizedPhi,
    UnnormalizedTarget,
)
from .linalg import (
    Spectrum,
    eig_hermitian,
    inverse,
    low_rank_update_eigh,
    relevance_order,
)
from .statevector import ControlledFamily
from .qgpe import (
    GradientEncoding,
    PerturbationDirection,
    build_delta,
    eigenbasis_families,
    evolution_family,
    probe_distributions,
    suggest_gradient_bound,
)
from .lanczos import (
    LanczosFactorization,
    assemble_and_solve,
    build_factorization,
    run_rqbl,
)
from .expectation import (
    DenseSource,
    adapt_degenerate_eigenvectors,
    InverseExpectationReport,
    InverseExpectationRequest,
    RqblSource,
    classical_reference_expectation,
    eigenvalue_gradient_probe,
    eigenvalue_gradient_probes,
    logdet_directional_derivatives,
    logdet_gradient_entry,
    qgld_expectation,
    qgld_expectation_sweep,
    sampled_qgld,
    sigma_qgld_expectation,
)
from .kernel import KernelModel, gaussian_kernel_matrix, kernel_fit, kernel_predict

__version__ = "0.1.0"
