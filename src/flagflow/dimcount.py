"""Dimensions of irreducible representations, two independent ways.

weyl_dim evaluates the Weyl product formula

    dim V(lambda) = prod_{beta > 0} <lambda + rho, h_beta^v> / <rho, h_beta^v>

in integers: the product of the numerators over the product of the
denominators, divided once (the quotient must be exact; anything else is
an internal error). gt_count recounts the same dimension in type A by
exhaustively summing Gelfand-Tsetlin patterns over interlacing rows, giving
an oracle that shares no code path with the product formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

from .errors import BudgetExceeded, DomainError, brief
from .rootsys import RootSystem, Weight, pairing, require_rank, rho_pairing

DEFAULT_GT_BUDGET = 10 ** 6


def _require_dominant_integral(rs: RootSystem, weight: Weight) -> tuple[int, ...]:
    require_rank(rs, weight)
    coords = tuple(int(m) for m in weight)
    if coords != tuple(weight) or min(coords) < 0:
        raise DomainError(
            f"weight ({', '.join(brief(Fraction(x)) for x in weight)}) "
            "is not dominant integral")
    return coords


def weyl_dim(rs: RootSystem, weight: Weight) -> int:
    """dim V(lambda) by the Weyl product formula, in integers."""
    shifted = tuple(m + 1 for m in _require_dominant_integral(rs, weight))  # lambda + rho
    roots = range(len(rs.positive_roots))
    value, rest = divmod(prod(pairing(rs, shifted, idx) for idx in roots),
                         prod(rho_pairing(rs, idx) for idx in roots))
    if rest or value <= 0:
        raise AssertionError("Weyl product did not reduce to a positive integer")
    return value


def gt_count(rs: RootSystem, weight: Weight, budget: int = DEFAULT_GT_BUDGET) -> int:
    """dim V(lambda) in type A by counting Gelfand-Tsetlin patterns.

    The top row is the partition lambda_j = sum_{i>=j} m_i (length
    rank+1, last entry 0); each following row interlaces the one above.
    The count is exhaustive: the patterns below a row sum those below each
    row interlacing it, each distinct row counted once. More patterns than
    the budget (default 10^6) raise BudgetExceeded.
    """
    if rs.family != "A":
        raise DomainError(
            f"Gelfand-Tsetlin enumeration is defined for type A only (got {rs.family})")
    m = _require_dominant_integral(rs, weight)
    exceeded = BudgetExceeded(f"Gelfand-Tsetlin enumeration exceeded budget {brief(budget)}")

    @cache
    def below(row: tuple[int, ...]) -> int:
        # the rows interlacing this one take each y_i in [row[i+1], row[i]]. Each completes
        # a pattern, so more of them than the budget are refused before they are listed
        pairs = list(zip(row, row[1:]))
        count = prod(a - b + 1 for a, b in pairs)
        if count > budget:
            raise exceeded
        if len(row) > 2:  # a row of two has one pattern per row below it
            count = 0
            for nxt in product(*(range(b, a + 1) for a, b in pairs)):
                count += below(nxt)
                if count > budget:
                    raise exceeded
        return count

    return below(tuple(sum(m[j:]) for j in range(rs.rank + 1)))
