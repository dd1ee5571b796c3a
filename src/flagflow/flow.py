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

make_flow pairs each complementary root once with den * lambda_0, den the
common denominator of the class: P_beta(0) = N_beta / den, with integers N_beta.
a_beta comes from the flag: build_flag pairs delta_P with each root once. The
kernel's groups g are the distinct pairs (N_beta, a_beta), with multiplicities
m_g, in order of first occurrence. Roots with one T-root (the pairing row
restricted to the complement; Alekseevsky-Perelomov) share a pair, so groups
never outnumber T-roots; a class proportional to the Fano class groups by
a_beta alone, and has fewer. Over the groups the same quantities read

    R = sum_g m_g a_g / P_g,   |Ric|^2 = sum_g m_g (a_g / P_g)^2,
    Vol = (2 pi)^n * prod_g P_g^(m_g) / prod_beta <rho, h_beta^v>,

which is the one kernel behind scalar_curvature, ricci_norm_sq, volume and
bounds_report. At t = u/v every P_g(t) is M_g / L over the one integer
L = lcm(den, v). When the entries of the class share one denominator, den
is that denominator and the N_g are about as long as the numerators. Sums
and products fold the integers left to right, unreduced, over a running
denominator and reduce once, at the end.

p_const, p_slope and a stay per root: the oracle's per-root reference reads
them.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import DomainError, brief, normal_float
from .parabolic import ParabolicFlag, require_length
from .rootsys import pairing

# Kahler class coefficients b_alpha > 0, aligned with flag.complement
KahlerClass = tuple[Fraction, ...]

RM_BOUND_SYMBOLIC = "C(n)/(T-t)"


class _DataclassFields:
    """The dataclass protocol's fields of a namedtuple, built on first read and then
    bound on the class in this descriptor's place, so later reads cost nothing."""

    def __get__(self, obj, cls):
        import dataclasses
        fields = dataclasses.make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        cls.__dataclass_fields__ = fields
        return fields


class FlowSolution(namedtuple("FlowSolution", (
        "flag", "b0", "T",
        "C",            # C(omega_0) = max_alpha 2 b_alpha / l_alpha
        "p_const",      # P_beta(0), per comp_pos_roots
        "p_slope",      # always -a_beta
        "a",            # <delta_P, h_beta^v>, per comp_pos_roots
        "einstein",     # b proportional to the Fano coefficients
        "v0",           # volume coefficient at t = 0
        "den",          # common denominator of b
        # (N_g, a_g, m_g) per distinct pair (den * P_beta(0), a_beta), with P_g(0) = N_g / den
        "groups"))):
    """Immutable trajectory data; evaluators are pure functions of (fs, t). A namedtuple
    like the other records, so no start-up imports dataclasses; it still carries the
    dataclass fields, built on first use, because the negative controls corrupt one
    field with dataclasses.replace."""
    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()


class BoundsReport(namedtuple("BoundsReport", (
        "R",
        "R_lower",              # 1/(T-t)
        "R_upper",              # n/(T-t)
        "ricci_norm_sq",
        "ricci_norm_sq_lower",  # R^2/n
        "ricci_norm_sq_upper",  # R^2
        "vol_coeff",
        "vol_coeff_lower",      # (1-t/T)^n * vol(0)
        "vol_coeff_upper",      # (1-t/T) * vol(0)
        "lambda1_lower",        # 2/C(omega_0)
        "lambda1_upper",        # 2R * M/(M-1), M = dim V(delta_P)
        "r_upper_attained",     # exact equality R = n/(T-t), the Einstein case
        "rm_bound"), defaults=(RM_BOUND_SYMBOLIC,))):
    """Exact two-sided bounds at one time, with one verdict per bound; every
    value but the last two is a Fraction."""
    __slots__ = ()

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
    den = math.lcm(*(x.denominator for x in b))
    lam0 = [0] * flag.rs.rank  # den * lambda_0, integers
    for i, x in zip(flag.complement, b):
        lam0[i - 1] = x.numerator * (den // x.denominator)
    nums = [pairing(flag.rs, lam0, idx) for idx in flag.comp_pos_roots]  # den * P_beta(0)
    groups = tuple((*pair, m) for pair, m in Counter(zip(nums, flag.a)).items())
    ratios = {x / l for x, l in zip(b, flag.fano)}
    v0 = _volume(flag, groups, den, [num for num, _, _ in groups])
    return FlowSolution(flag, b, min(ratios), 2 * max(ratios),
                        tuple(Fraction(x, den) for x in nums), tuple(-x for x in flag.a),
                        flag.a, len(ratios) == 1, v0, den, groups)


def _check_time(fs: FlowSolution, t, allow_T: bool = False) -> Fraction:
    if not isinstance(t, Fraction):
        t = Fraction(t)
    if t.numerator < 0:
        raise DomainError(f"negative time t = {brief(t)}")
    # the sign of t - T, denominators being positive
    past = t.numerator * fs.T.denominator - fs.T.numerator * t.denominator
    if past > 0 or (past == 0 and not allow_T):
        raise DomainError(f"past singular time: t = {brief(t)}, T = {brief(fs.T)}")
    return t


def class_at(fs: FlowSolution, t) -> KahlerClass:
    """Class coefficients b_alpha - t * l_alpha, each still positive."""
    t = _check_time(fs, t)
    return tuple(x - t * l for x, l in zip(fs.b0, fs.flag.fano))


def _numerators(fs: FlowSolution, t: Fraction) -> tuple[int, list[int]]:
    """(L, [M_g]) with P_g(t) = M_g / L over the groups, L = lcm(den, den(t))."""
    L = math.lcm(fs.den, t.denominator)
    scale, shift = L // fs.den, t.numerator * (L // t.denominator)
    return L, [num * scale - a * shift for num, a, _ in fs.groups]


def _rate_sum(groups, L: int, ms: list[int], k: int) -> Fraction:
    """sum_g m_g * (a_g / P_g)^k for k = 1 (R) or k = 2 (|Ric|^2)."""
    num, den = 0, 1
    for (_, a, m), x in zip(groups, ms):
        num, den = num * x ** k + m * a ** k * den, den * x ** k
    return Fraction(num * L ** k, den)


def _volume(flag: ParabolicFlag, groups, L: int, ms: list[int]) -> Fraction:
    """prod_g P_g^(m_g) / prod_beta <rho, h_beta^v>."""
    prod = math.prod(x ** m for (_, _, m), x in zip(groups, ms))
    return Fraction(prod, L ** flag.n * flag.rho_product)


def scalar_curvature(fs: FlowSolution, t) -> Fraction:
    return _rate_sum(fs.groups, *_numerators(fs, _check_time(fs, t)), 1)


def ricci_norm_sq(fs: FlowSolution, t) -> Fraction:
    return _rate_sum(fs.groups, *_numerators(fs, _check_time(fs, t)), 2)


def volume(fs: FlowSolution, t) -> Fraction:
    """The coefficient of Vol(t) = coeff * (2 pi)^n; t = T is allowed (continuous limit)."""
    return _volume(fs.flag, fs.groups, *_numerators(fs, _check_time(fs, t, allow_T=True)))


def bounds_report(fs: FlowSolution, t) -> BoundsReport:
    """Evaluate every bound along the flow exactly at t.

    The P_g(t) are evaluated once; vol(0) is fs.v0, C(omega_0) is fs.C and
    2M/(M-1), M = dim V(delta_P), is the flag's eigen_ratio.
    """
    t = _check_time(fs, t)
    L, ms = _numerators(fs, t)
    n = fs.flag.n
    r = _rate_sum(fs.groups, L, ms, 1)
    r_sq = r ** 2  # a power of a reduced fraction needs no gcd, unlike r * r
    gap = fs.T - t
    shrink = gap / fs.T  # 1 - t/T
    r_upper = n / gap
    return BoundsReport(
        R=r,
        R_lower=1 / gap,
        R_upper=r_upper,
        ricci_norm_sq=_rate_sum(fs.groups, L, ms, 2),
        ricci_norm_sq_lower=r_sq / n,
        ricci_norm_sq_upper=r_sq,
        vol_coeff=_volume(fs.flag, fs.groups, L, ms),
        vol_coeff_lower=shrink ** n * fs.v0,
        vol_coeff_upper=shrink * fs.v0,
        lambda1_lower=2 / fs.C,
        lambda1_upper=r * fs.flag.eigen_ratio,
        r_upper_attained=(r == r_upper),  # reduced fractions compare without a gcd
    )


def diameter_bound(fs: FlowSolution) -> tuple[float, Fraction]:
    """Myers bound pi * sqrt((2n-1) * C(omega_0)), uniform in t.

    Returns (float value, exact radicand). The radicand is scaled near 1 by an
    exact 4^k, k of either sign, and the root back by 2^k; powers of 2 commute
    with rounding, so no normal float value changes. Past that range it raises OverflowError.
    """
    radicand = (2 * fs.flag.n - 1) * fs.C
    k = (radicand.numerator.bit_length() - radicand.denominator.bit_length()) // 2
    value = math.ldexp(math.pi * math.sqrt(radicand / Fraction(4) ** k), k)
    return normal_float(radicand, value), radicand


def lambda1_bounds(fs: FlowSolution, t) -> tuple[Fraction, Fraction]:
    """Two-sided bound on the first nonzero Laplace eigenvalue at time t.

    Lower 2/C(omega_0) by Lichnerowicz; upper 2 R(t) M/(M-1) where
    M = dim V(delta_P). Both are read off bounds_report.
    """
    rep = bounds_report(fs, t)
    return rep.lambda1_lower, rep.lambda1_upper


# the flow started at the class of an ample divisor (b = d)
flow_of_divisor = make_flow
