"""Closed-form Kahler-Ricci flow on a flag variety.

The flow of a homogeneous metric stays homogeneous and moves the class
linearly: lambda_t = sum_alpha (b_alpha - t * l_alpha) * w_alpha, where
b_alpha is the integral of omega_0 / 2pi over the curve P^1_alpha and
l_alpha are the Fano coefficients. Against each complementary positive
root beta this is the affine form

    P_beta(t) = <lambda_t, h_beta^v>,  slope -a_beta,  a_beta = <delta_P, h_beta^v>,

and every quantity below is exact arithmetic in these forms:

    T          = min_alpha b_alpha / l_alpha      (singular time)
    R(t)       = sum_beta a_beta / P_beta(t)      (Chern scalar curvature)
    |Ric|^2(t) = sum_beta (a_beta / P_beta(t))^2
    Vol(t)     = (2 pi)^n * prod_beta P_beta(t) / <rho, h_beta^v>

Curvature evaluators reject t = T (blowup); volume allows it (the limit
is the collapsed value, 0 whenever some P_beta(T) = 0, which always
happens because the minimizing alpha is itself a complementary root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .parabolic import DivisorClass, ParabolicFlag, char_of_divisor, require_length
from .rootsys import pairing, rho_pairing

# Kahler class coefficients b_alpha > 0, aligned with flag.complement
KahlerClass = tuple[Fraction, ...]

RM_BOUND_SYMBOLIC = "C(n)/(T-t)"


@dataclass(frozen=True)
class FlowSolution:
    """Immutable trajectory data; evaluators are pure functions of (fs, t)."""

    flag: ParabolicFlag
    b0: KahlerClass
    T: Fraction
    p_const: tuple[Fraction, ...]   # P_beta(0), per comp_pos_roots
    p_slope: tuple[int, ...]        # always -a_beta
    a: tuple[int, ...]              # <delta_P, h_beta^v>, per comp_pos_roots
    einstein: bool                  # b proportional to the Fano coefficients
    v0: Fraction                    # volume coefficient at t = 0


@dataclass(frozen=True)
class BoundsReport:
    """Exact two-sided bounds at one time, with one verdict per bound."""

    R: Fraction
    R_lower: Fraction               # 1/(T-t)
    R_upper: Fraction               # n/(T-t)
    ricci_norm_sq: Fraction
    ricci_norm_sq_lower: Fraction   # R^2/n
    ricci_norm_sq_upper: Fraction   # R^2
    vol_coeff: Fraction
    vol_coeff_lower: Fraction       # (1-t/T)^n * vol(0)
    vol_coeff_upper: Fraction       # (1-t/T) * vol(0)
    lambda1_lower: Fraction         # 2/C(omega_0)
    lambda1_upper: Fraction         # 2R * M/(M-1), M = dim V(delta_P)
    r_upper_attained: bool          # exact equality R = n/(T-t), the Einstein case
    rm_bound: str = RM_BOUND_SYMBOLIC

    def verdicts(self) -> dict[str, bool]:
        """Whether each two-sided bound holds, by bound name."""
        ric = self.ricci_norm_sq
        return {
            "scalar_bounds": self.R_lower <= self.R <= self.R_upper,
            "ricci_bounds": self.ricci_norm_sq_lower <= ric <= self.ricci_norm_sq_upper,
            "volume_sandwich": self.vol_coeff_lower <= self.vol_coeff <= self.vol_coeff_upper,
        }

    @property
    def within(self) -> bool:
        return all(self.verdicts().values())


def make_flow(flag: ParabolicFlag, b: KahlerClass) -> FlowSolution:
    """Solve the flow for the initial class sum b_alpha * w_alpha."""
    require_length(flag, b)
    b = tuple(Fraction(x) for x in b)
    if any(x <= 0 for x in b):
        raise DomainError("initial class not Kahler: all b_alpha must be positive")
    rs = flag.rs
    lam0 = char_of_divisor(flag, b)
    p_const = tuple(pairing(rs, lam0, idx) for idx in flag.comp_pos_roots)
    a = tuple(pairing(rs, flag.delta_p, idx) for idx in flag.comp_pos_roots)
    assert all(x > 0 for x in a), "delta_P does not pair positively with a complementary root"
    T = min(x / l for x, l in zip(b, flag.fano))
    ratios = {x / l for x, l in zip(b, flag.fano)}
    return FlowSolution(flag, b, T, p_const, tuple(-x for x in a), a, len(ratios) == 1,
                        _volume_coeff(flag, p_const))


def _check_time(fs: FlowSolution, t, allow_T: bool = False) -> Fraction:
    t = Fraction(t)
    if t < 0:
        raise DomainError(f"negative time t = {t}")
    if t > fs.T or (t == fs.T and not allow_T):
        raise DomainError(f"past singular time: t = {t}, T = {fs.T}")
    return t


def p_values(fs: FlowSolution, t: Fraction) -> tuple[Fraction, ...]:
    """All P_beta(t)."""
    return tuple(c + s * t for c, s in zip(fs.p_const, fs.p_slope))


def class_at(fs: FlowSolution, t) -> KahlerClass:
    """Class coefficients b_alpha - t * l_alpha, each still positive."""
    t = _check_time(fs, t)
    return tuple(x - t * l for x, l in zip(fs.b0, fs.flag.fano))


def _rates(fs: FlowSolution, ps) -> list[Fraction]:
    """a_beta / P_beta, the terms of R."""
    return [a / p for a, p in zip(fs.a, ps)]


def _volume_coeff(flag: ParabolicFlag, ps) -> Fraction:
    """prod_beta P_beta / prod_beta <rho, h_beta^v>, one exact division."""
    rho_prod = math.prod(rho_pairing(flag.rs, idx) for idx in flag.comp_pos_roots)
    return math.prod(ps) / rho_prod


def scalar_curvature(fs: FlowSolution, t) -> Fraction:
    return sum(_rates(fs, p_values(fs, _check_time(fs, t))), Fraction(0))


def ricci_norm_sq(fs: FlowSolution, t) -> Fraction:
    return sum((x * x for x in _rates(fs, p_values(fs, _check_time(fs, t)))), Fraction(0))


def volume(fs: FlowSolution, t) -> Fraction:
    """The coefficient of Vol(t) = coeff * (2 pi)^n; t = T is allowed (continuous limit)."""
    t = _check_time(fs, t, allow_T=True)
    return _volume_coeff(fs.flag, p_values(fs, t))


def bounds_report(fs: FlowSolution, t) -> BoundsReport:
    """Evaluate every bound along the flow exactly at t.

    The P_beta(t) are evaluated once; vol(0) is fs.v0 and M = dim V(delta_P)
    is computed once per flag.
    """
    t = _check_time(fs, t)
    n = fs.flag.n
    m = fs.flag.delta_dim
    gap = fs.T - t
    ps = p_values(fs, t)
    rates = _rates(fs, ps)
    r = sum(rates, Fraction(0))
    shrink = 1 - t / fs.T
    return BoundsReport(
        R=r,
        R_lower=1 / gap,
        R_upper=Fraction(n) / gap,
        ricci_norm_sq=sum((x * x for x in rates), Fraction(0)),
        ricci_norm_sq_lower=r * r / n,
        ricci_norm_sq_upper=r * r,
        vol_coeff=_volume_coeff(fs.flag, ps),
        vol_coeff_lower=shrink ** n * fs.v0,
        vol_coeff_upper=shrink * fs.v0,
        lambda1_lower=2 / ricci_lower_constant(fs),
        lambda1_upper=2 * r * m / (m - 1),
        r_upper_attained=(r * gap == n),
    )


def ricci_lower_constant(fs: FlowSolution) -> Fraction:
    """C(omega_0) = max_alpha 2 b_alpha / l_alpha; Ric >= 1/C for all t in [0,T)."""
    return max(2 * x / l for x, l in zip(fs.b0, fs.flag.fano))


def diameter_bound(fs: FlowSolution) -> tuple[float, Fraction]:
    """Myers bound pi * sqrt((2n-1) * C(omega_0)), uniform in t.

    Returns (float value, exact radicand). The radicand is divided by 4^k
    before it becomes a float, so only a value past the float range raises
    OverflowError; k = 0 whenever the radicand itself fits.
    """
    radicand = (2 * fs.flag.n - 1) * ricci_lower_constant(fs)
    bits = radicand.numerator.bit_length() - radicand.denominator.bit_length()
    k = max(0, (bits - 1000) // 2)
    return math.ldexp(math.pi * math.sqrt(radicand / 4 ** k), k), radicand


def lambda1_bounds(fs: FlowSolution, t) -> tuple[Fraction, Fraction]:
    """Two-sided bound on the first nonzero Laplace eigenvalue at time t.

    Lower 2/C(omega_0) by Lichnerowicz; upper 2 R(t) M/(M-1) where
    M = dim V(delta_P). Both are read off bounds_report.
    """
    rep = bounds_report(fs, t)
    return rep.lambda1_lower, rep.lambda1_upper


def flow_of_divisor(flag: ParabolicFlag, coeffs: DivisorClass) -> FlowSolution:
    """The flow started at the class of an ample divisor (b = d)."""
    return make_flow(flag, coeffs)
