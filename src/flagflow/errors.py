"""Error types shared across the package.

DomainError marks input rejected on mathematical grounds; the CLI maps it
to exit code 3. BudgetExceeded guards input sizes and exhaustive enumerations.
Internal consistency failures raise plain AssertionError (CLI exit 4).
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceeded(DomainError):
    """An exhaustive enumeration hit its configured budget."""
