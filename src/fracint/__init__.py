"""Riemann-Liouville fractional integrals by four named routes on two numerical cores.

The core objects are the gamma function, the monotone transform pair that
removes the kernel singularity, the bounded adaptive core (routes ``direct``
and ``transformed``) and the strip-sum core (routes ``stieltjes`` and
``cavalieri``), the operator abstraction with its closed-form power oracle
and composition law, and the strip geometry that makes the integral's area
interpretation computable.
"""

import importlib

from .errors import (
    BudgetExhaustedError,
    DomainError,
    FracintError,
    NonMonotoneError,
    NumericalError,
    PoleError,
)
# bound here, so that the name is the function and not its submodule
from .gamma import gamma, recip_gamma

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "CavalieriRegion",
    "DomainError",
    "FracintError",
    "FractionalOperator",
    "Integrand",
    "NonMonotoneError",
    "NumericalError",
    "PoleError",
    "QuadratureResult",
    "StripGeometry",
    "TransformPair",
    "TranslationReport",
    "adaptive_quadrature",
    "build_strips",
    "cauchy_repeated",
    "cavalieri_sum",
    "chebyshev_nodes",
    "compose",
    "direct_rl",
    "gamma",
    "make_partition",
    "make_transform",
    "power_integrand",
    "power_oracle",
    "recip_gamma",
    "region_family",
    "stieltjes_integral",
    "stieltjes_sum",
    "transformed_riemann",
    "translate_check",
]

# each export not bound above, by its home module; every one of them loads numpy
_LAZY = {
    "integrand": ("Integrand", "power_integrand"),
    "transforms": ("TransformPair", "make_transform"),
    "quadrature": ("CavalieriRegion", "adaptive_quadrature", "stieltjes_integral"),
    "engines": (
        "QuadratureResult", "cauchy_repeated", "cavalieri_sum", "direct_rl", "make_partition",
        "stieltjes_sum", "transformed_riemann",
    ),
    "operator": ("FractionalOperator", "chebyshev_nodes", "compose", "power_oracle"),
    "strips": ("StripGeometry", "TranslationReport", "build_strips", "region_family", "translate_check"),
}
_HOMES = {name: home for home, names in _LAZY.items() for name in names}


def __getattr__(name):
    """An export, read from its home module on every access (PEP 562).

    The first access imports the home module, so ``import fracint`` loads no numpy
    until a name that needs it is used.  Nothing is kept here: a name rebound in its
    home module reads the same through the package, and so does the original once it
    is put back.
    """
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
