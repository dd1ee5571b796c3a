"""Dimensions of irreducible representations, two independent ways.

weyl_dim evaluates the Weyl product formula

    dim V(lambda) = prod_{beta > 0} <lambda + rho, h_beta^v> / <rho, h_beta^v>

exactly (the rational product must reduce to an integer; anything else is
an internal error). gt_count recounts the same dimension in type A by
exhaustively enumerating Gelfand-Tsetlin patterns, giving an oracle that
shares no code path with the product formula.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import BudgetExceeded, DomainError
from .rootsys import RootSystem, Weight, pairing, rho_pairing

DEFAULT_GT_BUDGET = 10 ** 6


def _require_dominant_integral(rs: RootSystem, weight: Weight) -> tuple[int, ...]:
    if len(weight) != rs.rank:
        raise DomainError(
            f"weight has {len(weight)} coordinates; expected {rs.rank}")
    coords = []
    for m in weight:
        f = Fraction(m)
        if f.denominator != 1 or f < 0:
            raise DomainError(
                f"weight {tuple(str(Fraction(x)) for x in weight)} "
                "is not dominant integral")
        coords.append(int(f))
    return tuple(coords)


def weyl_dim(rs: RootSystem, weight: Weight) -> int:
    """dim V(lambda) by the Weyl product formula, exact."""
    _require_dominant_integral(rs, weight)
    shifted = tuple(Fraction(m) + 1 for m in weight)  # lambda + rho
    value = Fraction(1)
    for idx in range(len(rs.positive_roots)):
        value *= pairing(rs, shifted, idx) / rho_pairing(rs, idx)
    assert value.denominator == 1 and value > 0, "Weyl product did not reduce to a positive integer"
    return int(value)


def gt_count(rs: RootSystem, weight: Weight, budget: int = DEFAULT_GT_BUDGET) -> int:
    """dim V(lambda) in type A by Gelfand-Tsetlin pattern enumeration.

    The top row is the partition lambda_j = sum_{i>=j} m_i (length
    rank+1, last entry 0); each following row interlaces the one above.
    Enumeration is exhaustive by design. The completed-pattern budget
    (default 10^6) guards against blowup; exceeding it raises
    BudgetExceeded.
    """
    if rs.family != "A":
        raise DomainError(
            f"Gelfand-Tsetlin enumeration is defined for type A only (got {rs.family})")
    m = _require_dominant_integral(rs, weight)
    top = tuple(sum(m[j:]) for j in range(rs.rank + 1))

    count = 0

    def descend(row: tuple[int, ...]) -> None:
        nonlocal count
        if len(row) == 1:
            count += 1
            if count > budget:
                raise BudgetExceeded(
                    f"Gelfand-Tsetlin enumeration exceeded budget {budget}")
            return
        # every choice interlaces, and interlacing forces y non-increasing
        for nxt in product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))):
            descend(nxt)

    descend(top)
    return count
