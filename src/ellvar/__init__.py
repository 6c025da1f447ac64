"""Analytic VaR and expected shortfall for linear portfolios under elliptic laws."""

from . import elliptic, errors, linalg, mc, mixture, portfolio, specfun, student

from .elliptic import (
    DensityGenerator,
    EllipticModel,
    big_g,
    clear_quantile_cache,
    expected_shortfall,
    marginal_tail,
    marginal_tail_expectation,
    quantile_multiplier,
    solve_quantile,
    var,
)
from .errors import (
    BracketError,
    DimensionError,
    DivergentTailError,
    DomainError,
    EllvarError,
    NotPositiveDefiniteError,
    NumericalError,
    QuadratureError,
    UnsupportedGeneratorError,
)
from .linalg import cholesky, estimate_moments, quadratic_form, validate_symmetric
from .mc import (
    EmpiricalEstimate,
    SimulationSpec,
    ValidationRow,
    empirical_var_es,
    simulate_pnl,
    validate_model,
)
from .mixture import MixtureModel, mixture_expected_shortfall, mixture_var
from .portfolio import (
    IncrementalVar,
    Position,
    RiskReport,
    business_unit_deltas,
    delta_equivalents,
    equity_deltas,
    incremental_var,
    risk_report,
)
from .specfun import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    beta,
    hyp2f1,
    hyp2f1_log,
    integrate_semi_infinite,
    log_gamma,
    reg_inc_beta,
)
from .student import (
    StudentParams,
    dispersion_from_covariance,
    gaussian_generator,
    student_big_g,
    student_es_multiplier,
    student_expected_shortfall,
    student_generator,
    student_quantile,
    student_tail_expectation,
    student_var,
)

__version__ = "0.1.0"

# every public name is declared once, in its module's __all__
__all__ = sorted(
    name
    for module in (elliptic, errors, linalg, mc, mixture, portfolio, specfun, student)
    for name in module.__all__
)
