"""Randomized Kaczmarz with a mismatched adjoint.

Row-action solver using oblique projections (update direction taken from a
surrogate adjoint V^T instead of A^T), exact convergence-rate diagnostics,
error-floor estimation for noisy right-hand sides, range-restricted analysis
for underdetermined systems, and simplex-constrained optimization of the
row-selection probabilities.
"""

__version__ = "0.30.0"

from .diagnostics import (  # noqa: E402
    RateDiagnostics,
    compute_diagnostics,
    inconsistent_bound,
    noise_gamma,
)
from .probopt import (  # noqa: E402
    Objective,
    ProbOptConfig,
    ProbOptResult,
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
    run,
    run_replicates,
)
