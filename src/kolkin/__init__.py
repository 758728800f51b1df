"""Gaussian-parametrix machinery for degenerate kinetic Kolmogorov equations.

Builds the frozen-coefficient Gaussian kernel and its correction series for
operators L = A + Y with a hypoelliptic linear drift Y = d/dt + <Bx, grad>
and measurable-in-time, Holder-in-space diffusion coefficients; solves the
terminal-value Cauchy problem by the variation-of-constants representation;
estimates anisotropic/intrinsic Holder norms by sampling; cross-checks
everything against a Monte Carlo oracle; and fits the sharp blow-up
exponents of the solution's derivatives near the terminal time.
"""

from .cauchy import (
    SolutionSample,
    SolverConfig,
    potential_source,
    residual_check,
    samples_to_csv,
    solve_point,
)
from .coefficients import CoefficientField, ellipticity_check, make_coefficients
from .errors import (
    DatumEvaluationError,
    EmptyInterval,
    HormanderViolation,
    InvalidData,
    InvalidScale,
    IoError,
    KolkinError,
    MissingDerivative,
    NotCanonicalForm,
    NumericalDivergence,
    SingularCovariance,
    StructuralError,
)
from .holder import (
    NormEstimate,
    SamplerSpec,
    TaylorCheck,
    anisotropic_norm_est,
    intrinsic_norm_est,
    lie_seminorm_est,
    taylor_remainder_check,
    weighted_sup_norm,
)
from .kernels import (
    CovarianceMatrix,
    KernelEvaluation,
    frozen_covariance,
    parametrix,
    reference_covariance,
)
from .levi import LeviConfig, fundamental_solution, phi_eval
from .problems import CauchyProblem, Datum, Source, make_datum, make_source
from .report import CheckRecord, VerificationReport, emit_report
from .sde import (
    McEstimate,
    PathBundle,
    SdeConfig,
    feynman_kac_estimate,
    simulate_paths,
    terminal_to_csv,
)
from .structure import (
    DriftStructure,
    anisotropic_norm,
    block_structure,
    controllability_gramian_rank,
    dilation,
    kalman_rank,
    matrix_exp,
)
from .suites import (
    FitResult,
    SuiteConfig,
    fit_blowup_exponent,
    load_suite_config,
    named_suite,
    random_canonical_drift,
    run_verification_suite,
)

__version__ = "0.1.0"
