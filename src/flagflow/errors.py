"""Error types shared across the package, and the converters of exact values.

DomainError marks input rejected on mathematical grounds; the CLI maps it
to exit code 3. BudgetExceeded guards input sizes and exhaustive enumerations.
Internal consistency failures raise plain AssertionError (CLI exit 4).
Exact values leave through three converters: brief() shows one in a message,
never a long one; plain() writes one as JSON text, in full at any length;
normal_float() is the one float rule. all_digits() lifts the digit limit.
"""

import contextlib
import sys
from fractions import Fraction


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceeded(DomainError):
    """An exhaustive enumeration hit its configured budget."""


def brief(value) -> str:
    """A value as a message shows it: in full when short, else by its size. Text is
    measured and cut as it prints, a non-printable character escaped as repr()
    escapes it: over 40 characters it keeps its first 20. A number over 128 bits is
    shown by its bit length, never by str(), which raises past 4300 digits."""
    if isinstance(value, str):
        if not value.isprintable():
            value = "".join(c if c.isprintable() else repr(c)[1:-1] for c in value)
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
    """A value as JSON holds it: a rational as "p/q" at any length, a tuple or list
    as a list, JSON's scalars as they are; anything else raises TypeError, as
    json.dumps' default must. The digit limit is lifted only when str() refuses."""
    if isinstance(value, Fraction):
        try:
            return str(value)
        except ValueError:  # past 4300 digits
            with all_digits():
                return str(value)
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def normal_float(exact, value=None) -> float:
    """float(exact), or the float given for it, refused with OverflowError past the
    normal range: above it, or nonzero (read exactly) and below sys.float_info.min."""
    value = float(exact) if value is None else value  # float() raises above the range
    if not sys.float_info.min <= abs(value) <= sys.float_info.max and exact:
        raise OverflowError(f"{brief(exact)} is past the normal float range")
    return value
