"""Error types shared across the package, and the converters of exact values.

DomainError marks input rejected on mathematical grounds; the CLI maps it
to exit code 3. BudgetExceeded guards input sizes and exhaustive enumerations.
Internal consistency failures raise plain AssertionError (CLI exit 4).
Exact values leave through three converters: brief() shows one in a message,
never a long one; plain() writes a rational as JSON text, in full at any length;
normal_float() is the one float rule. all_digits() lifts the digit limit.
"""

import contextlib
import decimal
import functools
import re
import sys
from fractions import Fraction

# split_digits beats str(), which is quadratic below Python 3.12, past this many bits
SPLIT_BITS = 60_000 if sys.version_info < (3, 12) else float("inf")


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetExceeded(DomainError):
    """An exhaustive enumeration hit its configured budget."""


def brief(value) -> str:
    """A value as a message shows it: in full when short, else by its size. Text (a
    value's repr() or text already rendered) is escaped once, as repr() escapes, and cut
    as it prints: over 40 characters, to the whole characters and escapes in its first
    20. A number over 128 bits shows its bit length; str() raises past 4300 digits."""
    if isinstance(value, str):
        if not value.isprintable():
            value = "".join(c if c.isprintable() else repr(c)[1:-1] for c in value)
        if len(value) <= 40:
            return value
        kept = re.match(r"(?:\\(?:x.{2}|u.{4}|U.{8}|[^xuU])|[^\\])*", value[:20])
        return f"{kept[0]}... ({len(value)} characters)"
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


def split_digits(n: int) -> str:
    """str(n) at any length, written by halves through decimal as CPython 3.12's
    Lib/_pylong.py does (gh-90716); Decimal(int) and str(Decimal) have no digit limit."""
    D = decimal.Decimal

    @functools.cache
    def power(w):  # 2^w
        return D(2) ** w if w <= 128 else power(w >> 1) * power(w - (w >> 1))

    def inner(n, w):  # n >= 0 of at most w bits, as hi * 2^half + lo
        if w <= 128:
            return D(n)
        half = w >> 1
        hi = n >> half
        return inner(n - (hi << half), half) + inner(hi, w - half) * power(half)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return "-" * (n < 0) + str(inner(abs(n), n.bit_length()))


def plain(value) -> str:
    """A rational as JSON holds it, "p/q" at any length: json.dumps' default, which
    json calls on no tuple, list or scalar. Anything else raises TypeError, as that
    hook must. The digit limit is lifted only when str() refuses."""
    if isinstance(value, Fraction):
        p, q = value.as_integer_ratio()
        if max(p.bit_length(), q.bit_length()) > SPLIT_BITS:
            return split_digits(p) if q == 1 else f"{split_digits(p)}/{split_digits(q)}"
        try:
            return str(value)
        except ValueError:  # past 4300 digits
            with all_digits():
                return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def normal_float(exact, value=None) -> float:
    """float(exact), or the float given for it, refused with OverflowError past the
    normal range: above it, or nonzero (read exactly) and below sys.float_info.min."""
    value = float(exact) if value is None else value  # float() raises above the range
    if not sys.float_info.min <= abs(value) <= sys.float_info.max and exact:
        raise OverflowError(f"{brief(exact)} is past the normal float range")
    return value
