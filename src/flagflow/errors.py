"""Error types shared across the package.

DomainError marks input rejected on mathematical grounds; the CLI maps it
to exit code 3. BudgetExceeded guards input sizes and exhaustive enumerations.
Internal consistency failures raise plain AssertionError (CLI exit 4).
Messages show a value through brief(), which never echoes a long one;
all_digits() lifts the int-string digit limit where exact values are
read or written in full. plain() is the one converter of exact values to
JSON text: the CLI's JSON writer and the oracle's counterexamples use it.
"""

import contextlib
import sys
from fractions import Fraction


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceeded(DomainError):
    """An exhaustive enumeration hit its configured budget."""


def brief(value) -> str:
    """A value as a message shows it: in full when short, else by its size.

    Text over 40 characters keeps its first 20. A number is sized by its bit
    length before str(), which raises past 4300 digits; 128 bits is under 40
    digits.
    """
    if isinstance(value, str):
        return value if len(value) <= 40 else f"{value[:20]}... ({len(value)} characters)"
    bits = sum(x.bit_length() for x in value.as_integer_ratio())
    return str(value) if bits <= 128 else f"<{bits}-bit number>"


@contextlib.contextmanager
def all_digits():
    """Lift Python's 4300-digit limit on int-string conversion for a block, so
    that exact values are read and written in full, at any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def plain(value):
    """A value as JSON holds it: a rational as "p/q", a tuple or list as a list,
    JSON's scalars as they are; anything else raises TypeError, as json.dumps'
    default must. A rational past 4300 digits needs all_digits()."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")
