"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors exit with 2, numerical
failures with 3.
"""


class LorentzLabError(Exception):
    pass


class UsageError(LorentzLabError, ValueError):
    """Caller passed arguments that can never be valid."""


class DomainError(LorentzLabError, ValueError):
    """Arguments are well formed but violate a mathematical precondition."""


class NotSpacelikeError(DomainError):
    """Induced metric failed to be positive definite."""


class NumericalError(LorentzLabError, RuntimeError):
    """A numerical procedure failed to converge or broke down."""


class EigenSolveError(NumericalError):
    """Eigenvalue iteration failed to reach the requested residual."""
