"""Flag-variety data attached to a subset Theta of the simple roots.

The variety X_P for P = P_Theta has Picard group indexed by the
complement Sigma \\ Theta: Schubert divisors D_alpha and rational curves
P^1_alpha for alpha outside Theta. Divisor classes are coefficient
tuples over the complement, kept in ascending Bourbaki-index order
everywhere (class vectors, divisor vectors, JSON arrays).

A complementary root pairs with a class, and with delta_P, only through its
coroot row restricted to the complement: its T-root (Alekseevsky-Perelomov,
Invariant Kahler-Einstein metrics on compact homogeneous spaces, 1986). The
flow kernel groups the roots by their pair (P_beta(0), a_beta) of these
pairings, so there are at most as many groups as T-roots, and fewer for a
class proportional to the Fano class.

The eigenvalue bound reads M = dim V(delta_P) (Borel-Weil). delta_P lies in the
span of the complement's fundamental weights, so it pairs to zero with every
Levi coroot, and each Levi factor <delta_P + rho, h^v> / <rho, h^v> of Weyl's
product is 1. Over the complementary roots alone,

    M = prod_beta (a_beta + <rho, h_beta^v>) / prod_beta <rho, h_beta^v>,
    a_beta = <delta_P, h_beta^v>,

and build_flag computes these constants once per flag, in integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, brief
from .rootsys import RootSystem, Weight, fund_coords, pairing, rho_pairing

# coefficients of sum d_alpha * D_alpha, aligned with ParabolicFlag.complement
DivisorClass = tuple[Fraction, ...]


class ParabolicFlag(namedtuple("ParabolicFlag", (
        "rs",               # RootSystem
        "theta",            # 1-based simple-root indices, ascending
        "complement",       # Sigma \ Theta, ascending
        "comp_pos_roots",   # indices into rs.positive_roots
        "delta_p",          # anticanonical weight, fundamental-weight coords
        "fano",             # l_alpha = <delta_P, h_alpha^v>, per complement
        "n",                # complex dimension = #comp_pos_roots
        "a",                # a_beta = <delta_P, h_beta^v>, per comp_pos_roots
        "rho_product",      # prod_beta <rho, h_beta^v> over comp_pos_roots
        "delta_dim",        # M = dim V(delta_P)
        "eigen_ratio"))):   # 2M/(M-1): lambda_1 <= R times this (bounds_report)
    """Data of X_P: complementary roots, delta_P, Fano coefficients and the
    constants that every flow on X_P reads."""
    __slots__ = ()


def build_flag(rs: RootSystem, theta) -> ParabolicFlag:
    """Build the flag data for Theta, a collection of 1-based indices.

    Theta must be a proper subset of the simple roots; Theta = Sigma is
    rejected because X_P would be a point.
    """
    th = tuple(sorted({int(i) for i in theta}))
    for i in th:
        if not 1 <= i <= rs.rank:
            raise DomainError(
                f"simple-root index {brief(i)} out of range 1..{rs.rank}")
    if len(th) == rs.rank:
        raise DomainError("flag variety is a point (Theta is the full simple set)")
    complement = tuple(i for i in range(1, rs.rank + 1) if i not in th)

    comp = tuple(
        idx for idx, k in enumerate(rs.positive_roots)
        if any(k[i - 1] > 0 for i in complement)
    )
    total = [0] * rs.rank
    for idx in comp:
        for i, c in enumerate(rs.positive_roots[idx]):
            total[i] += c
    delta_p = fund_coords(rs, tuple(total))
    if any(delta_p[i - 1] for i in th):
        raise AssertionError("delta_P has support on Theta")
    fano = tuple(delta_p[a - 1] for a in complement)
    a = tuple(pairing(rs, delta_p, idx) for idx in comp)
    # fano is a at the simple roots of the complement, so this covers it too
    if not all(x > 0 for x in a):
        raise AssertionError("delta_P does not pair positively with a complementary root")
    rhos = [rho_pairing(rs, idx) for idx in comp]
    rho_product = math.prod(rhos)
    m, rest = divmod(math.prod(x + r for x, r in zip(a, rhos)), rho_product)
    # every a_beta > 0, so V(delta_P) is not trivial
    if rest or m <= 1:
        raise AssertionError("Weyl product over the complementary roots is not an integer > 1")
    return ParabolicFlag(rs, th, complement, comp, delta_p, fano, len(comp), a, rho_product,
                         m, Fraction(2 * m, m - 1))


def require_length(flag: ParabolicFlag, coeffs) -> None:
    """A class or divisor has one coefficient per complement index."""
    if len(coeffs) != len(flag.complement):
        raise DomainError(
            f"{len(coeffs)} coefficients given; "
            f"expected {len(flag.complement)} (one per complement index)")


def char_of_divisor(flag: ParabolicFlag, coeffs: DivisorClass) -> Weight:
    """Character chi_D = sum d_alpha * w_alpha of D = sum d_alpha * D_alpha."""
    require_length(flag, coeffs)
    out = [Fraction(0)] * flag.rs.rank
    for a, c in zip(flag.complement, coeffs):
        out[a - 1] = Fraction(c)
    return tuple(out)


def canonical_divisor(flag: ParabolicFlag) -> tuple[int, ...]:
    """K_{X_P} = -sum l_alpha * D_alpha."""
    return tuple(-l for l in flag.fano)


def is_ample(flag: ParabolicFlag, coeffs: DivisorClass) -> bool:
    """Ample (equivalently very ample for integral classes): all d_alpha > 0."""
    require_length(flag, coeffs)
    return all(c > 0 for c in coeffs)


def require_ample(flag: ParabolicFlag, coeffs: DivisorClass) -> None:
    if not is_ample(flag, coeffs):
        raise DomainError(
            "divisor is not ample: every Schubert coefficient must be positive")


def is_integral(coeffs: DivisorClass) -> bool:
    return all(Fraction(c).denominator == 1 for c in coeffs)
