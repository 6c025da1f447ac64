"""Analytic VaR and expected shortfall for linear portfolios under elliptic laws."""

from . import elliptic, errors, linalg, mc, mixture, portfolio, specfun, student
# each module's __all__ decides what it exports
from .elliptic import *  # noqa: F403
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .mc import *  # noqa: F403
from .mixture import *  # noqa: F403
from .portfolio import *  # noqa: F403
from .specfun import *  # noqa: F403
from .student import *  # noqa: F403

__version__ = "0.1.0"

# every public name is declared once, in its module's __all__
__all__ = sorted(
    name
    for module in (elliptic, errors, linalg, mc, mixture, portfolio, specfun, student)
    for name in module.__all__
)
