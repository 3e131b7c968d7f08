"""decilab: a numerical laboratory for decimated linear processes.

Decimated linear processes are moving averages of one shared white-noise
stream evaluated only at multiples of a growing decimation factor. The
package provides exact simulation of such arrays, exact second- and
fourth-order moments of their squares, the limiting covariance of
normalized square-sums, a spectral-density-at-origin estimator built from
windowed coefficients, and a seeded Monte Carlo harness that checks the
distributional claims at desk scale.
"""

from .kernels import (
    ConditionReport,
    DecimatedFamily,
    FamilyLevel,
    TimeKernel,
    check_condition_c,
    eval_response,
    make_scaled_window_family,
    read_kernel,
    two_frequency_demo_family,
)
from .moments import (
    GammaMatrix,
    MomentReport,
    a_term,
    b_term,
    case_constant,
    cov_exact,
    cov_of_square_sums,
    gamma_limit,
    gamma_matrix,
    limit_cross_cov,
)
from .montecarlo import (
    NormalityReport,
    convergence_sweep,
    empirical_cov,
    normality_report,
    replicate_sums,
)
from .simulate import (
    NoiseSpec,
    ar1_kernel,
    mix_seed,
    noise_values,
    simulate_decimated,
    simulate_linear_process,
    windowed_coefficients,
)
from .specdens import (
    SpecEstimate,
    asymptotic_sigma2,
    check_rate_condition,
    estimate_f0,
    leakage_integral,
)
from .windows import Window, make_bspline_window

__version__ = "0.1.0"
