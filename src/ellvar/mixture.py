"""Finite mixtures of elliptic models.

VaR no longer has a closed form under a mixture: it is the root of

    sum_j beta_j * G_j((delta.mu_j + V) / vol_j) = alpha,

and ES assembles componentwise from the same thresholds.  Both are
computed by the engine's one path over component rows
(``elliptic._rows_var`` and ``elliptic._rows_es``), the path every model
takes, so a single-component mixture gives its component's numbers bit
for bit.  The construction is validated against Monte Carlo in the
tests.

``weighted_components`` reads any model as a list of weighted
components; a plain elliptic model is one component of weight one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .elliptic import EllipticModel, _check_alpha, _component_rows, _rows_es, _rows_var
from .elliptic import marginal_tail  # noqa: F401  wrapped by bench/tracing.py
from .elliptic import marginal_tail_expectation  # noqa: F401  wrapped by bench/tracing.py
from .errors import DimensionError, DomainError
from .linalg import quadratic_form  # noqa: F401  wrapped by bench/tracing.py

__all__ = ["MixtureModel", "mixture_var", "mixture_expected_shortfall"]

_WEIGHT_TOL = 1e-12


@dataclass(eq=False)
class MixtureModel:
    """Convex combination of elliptic component models on a common space.

    Each component is an EllipticModel (a StudentParams among them); a
    mixture of mixtures is rejected at construction.
    """

    components: Sequence[tuple[float, EllipticModel]]

    def __post_init__(self):
        comps = [(float(w), m) for w, m in self.components]
        if not comps:
            raise DomainError("mixture needs at least one component")
        for w, m in comps:
            if not (math.isfinite(w) and w > 0.0):
                raise DomainError(f"mixture weights must be positive, got {w!r}")
            if not isinstance(m, EllipticModel):
                # a nested MixtureModel included: components are elliptic laws
                raise DomainError(
                    f"mixture components must be elliptic models, got {type(m).__name__}"
                )
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise DomainError(f"mixture weights sum to {total!r}, not 1")
        dims = {m.dimension for _, m in comps}
        if len(dims) != 1:
            raise DimensionError(f"components disagree on dimension: {sorted(dims)}")
        self.components = tuple(comps)

    @property
    def dimension(self) -> int:
        return self.components[0][1].dimension


def weighted_components(model) -> tuple[tuple[float, EllipticModel], ...]:
    """Any accepted model as (weight, EllipticModel) pairs.

    This is the one place a model's type is examined: a mixture is its
    components, and an EllipticModel (a StudentParams among them) is a
    single component of weight one.
    """
    if isinstance(model, MixtureModel):
        return model.components
    if isinstance(model, EllipticModel):
        return ((1.0, model),)
    raise DomainError(f"unsupported model type {type(model).__name__}")


def mixture_var(mixture: MixtureModel, delta, alpha: float) -> float:
    """VaR of delta . X when X is drawn from a mixture of elliptic laws.

    The root of the mixture tail equation, held to a relative tail
    residual of 1e-10; one component takes the closed form.
    """
    alpha = _check_alpha(alpha)
    _, rows = _component_rows(mixture.components, delta)
    return _rows_var(rows, alpha)[0]


def mixture_expected_shortfall(
    mixture: MixtureModel, delta, alpha: float, var: float | None = None
) -> float:
    """ES of delta . X under the mixture, at the mixture-wide VaR threshold.

    Pass ``var`` to reuse this mixture's already-solved VaR at alpha;
    otherwise it is solved here.  Each component contributes its partial
    tail expectation and a location correction at the common threshold.
    """
    alpha = _check_alpha(alpha)
    _, rows = _component_rows(mixture.components, delta)
    if var is None:
        return _rows_es(rows, alpha, _rows_var(rows, alpha)[1])
    return _rows_es(rows, alpha, [(mean + float(var)) / vol for _, _, mean, vol in rows])
