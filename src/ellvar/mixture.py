"""Finite mixtures of elliptic models.

VaR no longer has a closed form under a mixture: it is the root of

    sum_j beta_j * G_j((delta.mu_j + V) / vol_j) = alpha,

and ES assembles componentwise from the same thresholds.  A mixture is
its ``components``, the (weight, EllipticModel) pairs every model reads
as, so ``mixture_var`` is the engine's ``var`` itself and both numbers
take the engine's one path over component rows (``elliptic._rows_var``
and ``elliptic._rows_es``).  A single-component mixture therefore gives
its component's numbers bit for bit.  The construction is validated
against Monte Carlo in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .elliptic import EllipticModel, _check_alpha, _component_rows, _rows_es
from .elliptic import expected_shortfall
from .elliptic import marginal_tail  # noqa: F401  wrapped by bench/tracing.py
from .elliptic import marginal_tail_expectation  # noqa: F401  wrapped by bench/tracing.py
from .elliptic import var as mixture_var
from .errors import DimensionError, DomainError, _check_real
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
        try:
            pairs = [(w, m) for w, m in self.components]
        except (TypeError, ValueError):
            raise DomainError("mixture components must be (weight, model) pairs") from None
        if not pairs:
            raise DomainError("mixture needs at least one component")
        comps = [(_check_real(w, "mixture weight", 0.0), m) for w, m in pairs]
        for _, m in comps:
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


def mixture_expected_shortfall(mixture, delta, alpha: float, var: float | None = None) -> float:
    """ES of delta . X under the mixture, at the mixture-wide VaR threshold.

    Without ``var`` this is ``expected_shortfall``.  Pass ``var`` to reuse
    this mixture's already-solved VaR at alpha; it must be finite.  Each
    component contributes its partial tail expectation and a location
    correction at the common threshold.
    """
    if var is None:
        return expected_shortfall(mixture, delta, alpha)
    alpha = _check_alpha(alpha)
    var = _check_real(var, "var")
    _, rows = _component_rows(mixture, delta)
    return _rows_es(rows, alpha, [(mean + var) / vol for _, _, mean, vol in rows])
