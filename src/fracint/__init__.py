"""Riemann-Liouville fractional integrals by four named routes on two numerical cores.

The core objects are the gamma function, the monotone transform pair that
removes the kernel singularity, the bounded adaptive core (routes ``direct``
and ``transformed``) and the strip-sum core (routes ``stieltjes`` and
``cavalieri``), the operator abstraction with its closed-form power oracle
and composition law, and the strip geometry that makes the integral's area
interpretation computable.
"""

from .errors import (
    BudgetExhaustedError,
    DomainError,
    FracintError,
    NonMonotoneError,
    NumericalError,
    PoleError,
)
from .gamma import gamma, recip_gamma
from .integrand import Integrand, power_integrand
from .transforms import TransformPair, make_transform
from .quadrature import CavalieriRegion, adaptive_quadrature, stieltjes_integral
from .engines import (
    QuadratureResult,
    cauchy_repeated,
    cavalieri_sum,
    direct_rl,
    make_partition,
    stieltjes_sum,
    transformed_riemann,
)
from .operator import FractionalOperator, chebyshev_nodes, compose, power_oracle
from .strips import StripGeometry, TranslationReport, build_strips, region_family, translate_check

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
