"""Principal eigenvalues of the zero-flux Laplacian with sign-changing
weights, and optimization of the weight over rearrangement classes."""

from .errors import (
    ConstantField,
    EigenweightError,
    InputError,
    IndivisibleStripes,
    InvalidSpec,
    IterationLimit,
    LengthMismatch,
    MeasureMismatch,
    NegativeInitial,
    NoPositivePart,
    NotAdmissible,
    NotAdmissibleClass,
    ParseError,
    SingularSystem,
    SolverError,
    TooLarge,
    UnstableStep,
    ValidationError,
    ZeroWeightIntegral,
)
from .grid import (
    Grid,
    assemble_stiffness,
    build_grid,
    integrate,
)
from .logistic import Trajectory, simulate_logistic
from .optimize import (
    MonotonicityReport,
    OptimizationResult,
    check_monotone_x1,
    count_comonotone_violations,
    minimize_lambda1,
    oscillating_arrangement,
)
from .rearrange import (
    MajorizationReport,
    RearrangementClass,
    check_majorization,
    comonotone_arrangement,
    decreasing_rearrangement,
    distribution_function,
    equimeasurable,
    monotone_x1_rearrangement,
)
from .spectral import (
    EigenPair,
    SignedSpectrum,
    SolveStats,
    WeightField,
    mu1_derivative,
    mu1_extended,
    principal_eigenpair,
    project_mean_zero,
    rayleigh_quotient,
    signed_spectrum,
    solution_operator,
    weight_field,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "build_grid", "assemble_stiffness", "integrate",
    "WeightField", "EigenPair", "SolveStats", "SignedSpectrum",
    "weight_field",
    "project_mean_zero", "solution_operator", "principal_eigenpair",
    "signed_spectrum", "rayleigh_quotient", "mu1_derivative", "mu1_extended",
    "RearrangementClass", "MajorizationReport", "distribution_function",
    "decreasing_rearrangement", "equimeasurable", "check_majorization",
    "comonotone_arrangement", "monotone_x1_rearrangement",
    "OptimizationResult", "MonotonicityReport", "minimize_lambda1",
    "check_monotone_x1", "count_comonotone_violations",
    "oscillating_arrangement",
    "Trajectory", "simulate_logistic",
    "EigenweightError", "InputError", "SolverError", "InvalidSpec",
    "LengthMismatch", "ZeroWeightIntegral", "NotAdmissible", "NoPositivePart",
    "ConstantField", "TooLarge", "SingularSystem", "IterationLimit",
    "MeasureMismatch", "NotAdmissibleClass", "IndivisibleStripes",
    "NegativeInitial", "UnstableStep", "ParseError", "ValidationError",
    "__version__",
]
