"""Exception hierarchy.

Domain errors map to CLI exit code 2, numerical failures to exit code 3.
"""


class FracintError(Exception):
    """Base class for all library errors."""


class DomainError(FracintError):
    """Invalid input: out-of-range argument or bad configuration."""


class PoleError(DomainError):
    """Gamma evaluated at zero or a negative integer."""


class NonMonotoneError(DomainError):
    """Operation requires a strictly monotone integrand."""


class NumericalError(FracintError):
    """A numerical routine failed to deliver the requested accuracy."""


class BudgetExhaustedError(NumericalError):
    """Adaptive quadrature ran out of its evaluation budget.

    Carries the best estimate found so far.
    """

    def __init__(self, message, value, error_estimate, evaluations):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations
