"""Hard-edge smallest-eigenvalue statistics of complex Wishart matrices.

The package evaluates the gap probability F(s) = P(lambda_min >= endpoint)
of the Laguerre unitary ensemble, both at finite matrix order and in the
hard-edge limit, as spectrally convergent Fredholm determinants; measures
the convergence rates connecting the two (including the first-order
correction built from the limit density and the optimally tuned scaling
that removes it); and cross-checks everything against an independent
Monte Carlo sampler.
"""

__version__ = "0.1.0"

from .distributions import (
    DistributionTable,
    TableRow,
    finite_cdf,
    finite_table,
    limit_cdf,
    limit_density,
    limit_table,
)
from .errors import (
    AccuracyError,
    DomainError,
    HardEdgeError,
    NumericError,
)
from .expansion import (
    ExpansionReport,
    conjecture_residual,
    expansion_rate,
    fit_slope,
    kernel_expansion_rate,
    mehler_heine_residual,
    optimal_rate,
    optimal_scaling_residual,
    rate_report,
    uncorrected_difference,
)
from .fredholm import (
    DeterminantResult,
    gram_det,
    log_derivative,
    nystrom_det,
    resolvent_quadratic_form,
)
from .kernels import (
    KernelSpec,
    bessel_spec,
    finite_spec,
    kernel_expansion_residual,
    kernel_matrix,
)
from .montecarlo import (
    SampleBatch,
    analytic_smallest_cdf,
    ks_compare,
    ks_validate,
    sample_smallest,
)
from .quadrature import QuadratureRule, gauss_jacobi, scale_rule
from .specfun import (
    bessel_entire,
    bessel_pair,
    laguerre,
)

__all__ = [
    "__version__",
    "AccuracyError",
    "DistributionTable",
    "DeterminantResult",
    "DomainError",
    "ExpansionReport",
    "HardEdgeError",
    "KernelSpec",
    "NumericError",
    "QuadratureRule",
    "SampleBatch",
    "TableRow",
    "analytic_smallest_cdf",
    "bessel_entire",
    "bessel_pair",
    "bessel_spec",
    "conjecture_residual",
    "expansion_rate",
    "finite_cdf",
    "finite_spec",
    "finite_table",
    "fit_slope",
    "gauss_jacobi",
    "gram_det",
    "kernel_expansion_rate",
    "kernel_expansion_residual",
    "kernel_matrix",
    "ks_compare",
    "ks_validate",
    "laguerre",
    "limit_cdf",
    "limit_density",
    "limit_table",
    "log_derivative",
    "mehler_heine_residual",
    "nystrom_det",
    "optimal_rate",
    "optimal_scaling_residual",
    "rate_report",
    "resolvent_quadratic_form",
    "sample_smallest",
    "scale_rule",
    "uncorrected_difference",
]
