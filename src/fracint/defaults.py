"""The library's default settings and route names.

Their one home, free of numpy, so that the command line builds its parser and
prints its help without importing numpy.
"""

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-10
DEFAULT_BUDGET = 10_000  # adaptive evaluations of one apply

DEFAULT_SUM_N = 100_000  # strips of the sum routes
DEFAULT_COMPOSE_GRID = 256  # Chebyshev nodes of a composition

ROUTES = ("direct", "stieltjes", "cavalieri", "transformed")  # the numeric routes
METHODS = ROUTES + ("oracle",)
