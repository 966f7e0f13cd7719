"""Randomized Kaczmarz with a mismatched adjoint.

Row-action solver using oblique projections (update direction taken from a
surrogate adjoint V^T instead of A^T), exact convergence-rate diagnostics,
error-floor estimation for noisy right-hand sides, range-restricted analysis
for underdetermined systems, and simplex-constrained optimization of the
row-selection probabilities.
"""

__version__ = "0.6.0"

from .diagnostics import (  # noqa: E402
    RateDiagnostics,
    ScalingPair,
    asymptotic_rate,
    compute_diagnostics,
    contraction_lambda,
    expectation_norm,
    expected_fixed_point_error,
    inconsistent_bound,
    noise_gamma,
    restricted_diagnostics,
    scaling,
)
from .probopt import (  # noqa: E402
    Objective,
    ProbOptConfig,
    ProbOptResult,
    StepSchedule,
    optimize_probabilities,
    project_simplex,
    subgradient_norm,
    supergradient_lambda,
)
from .sampling import DiscreteSampler, replicate_rng  # noqa: E402
from .solver import (  # noqa: E402
    SolverConfig,
    StepRule,
    SystemPair,
    Trace,
    make_system,
    rkma_step,
    run,
    run_replicates,
)
