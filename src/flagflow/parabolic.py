"""Flag-variety data attached to a subset Theta of the simple roots.

The variety X_P for P = P_Theta has Picard group indexed by the
complement Sigma \\ Theta: Schubert divisors D_alpha and rational curves
P^1_alpha for alpha outside Theta. Divisor classes are coefficient
tuples over the complement, kept in ascending Bourbaki-index order
everywhere (class vectors, divisor vectors, JSON arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dimcount import weyl_dim
from .errors import DomainError
from .rootsys import RootSystem, Weight, fund_coords

# coefficients of sum d_alpha * D_alpha, aligned with ParabolicFlag.complement
DivisorClass = tuple[Fraction, ...]


@dataclass(frozen=True)
class ParabolicFlag:
    """Immutable data of X_P: complementary roots, delta_P, Fano coefficients."""

    rs: RootSystem
    theta: tuple[int, ...]          # 1-based simple-root indices, ascending
    complement: tuple[int, ...]     # Sigma \ Theta, ascending
    comp_pos_roots: tuple[int, ...]  # indices into rs.positive_roots
    delta_p: tuple[int, ...]        # anticanonical weight, fundamental-weight coords
    fano: tuple[int, ...]           # l_alpha = <delta_P, h_alpha^v>, per complement
    n: int                          # complex dimension = #comp_pos_roots

    @cached_property
    def delta_dim(self) -> int:
        """M = dim V(delta_P), computed on first use and kept on this flag."""
        m = weyl_dim(self.rs, self.delta_p)
        # delta_P pairs positively with every complementary root, so V(delta_P) is not trivial
        assert m > 1, "dim V(delta_P) = 1 leaves the eigenvalue bound undefined"
        return m


def build_flag(rs: RootSystem, theta) -> ParabolicFlag:
    """Build the flag data for Theta, a collection of 1-based indices.

    Theta must be a proper subset of the simple roots; Theta = Sigma is
    rejected because X_P would be a point.
    """
    th = tuple(sorted({int(i) for i in theta}))
    for i in th:
        if not 1 <= i <= rs.rank:
            raise DomainError(
                f"simple-root index {i} out of range 1..{rs.rank}")
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
    assert all(delta_p[i - 1] == 0 for i in th), \
        "delta_P has support on Theta"
    fano = tuple(delta_p[a - 1] for a in complement)
    assert all(la > 0 for la in fano), "Fano coefficient not positive"
    return ParabolicFlag(rs, th, complement, comp, delta_p, fano, len(comp))


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
