"""Numerical invariants of ample divisor classes on a flag variety.

For D = sum d_alpha * D_alpha ample:

    tau(D)    = max_alpha l_alpha / d_alpha       (nef value)
    T(D)      = 1 / tau(D)                        (how long D + t*K stays ample)
    C(D)      = 2 * max_alpha d_alpha / l_alpha
    degree(D) = n! * prod_beta <chi_D, h_beta^v> / <rho, h_beta^v>

The Seshadri / Gromov-width / ball-embedding upper bounds are stated for
the Borel case (Theta empty) only and are refused elsewhere rather than
extrapolated. The Kahler-ball radius bound 2*pi*T(D) is irrational; it
is carried as the symbolic string "pi*p/q" with p/q = 2*T(D) exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .dimcount import weyl_dim
from .errors import DomainError
from .flow import FlowSolution, flow_of_divisor, scalar_curvature
from .parabolic import (
    DivisorClass,
    ParabolicFlag,
    char_of_divisor,
    is_integral,
    require_ample,
)


@dataclass(frozen=True)
class BorelBounds:
    """Section-5 style bounds, defined only when Theta is empty."""

    seshadri_upper: Fraction        # 2 T(D)
    gromov_width_upper: Fraction    # 2 T(D)
    kahler_radius_upper: str        # symbolic, pi * (2 T(D))
    sympl_radius_upper: Fraction    # 2 pi (2n) / R_c1 with R_c1 = 2 pi R(0)


@dataclass(frozen=True)
class InvariantReport:
    tau: Fraction
    T_script: Fraction
    C_script: Fraction
    degree: Fraction
    dimV: int | None                # lattice-point count; None unless D integral
    lambda1_lower: Fraction         # 2 / C(D)
    lambda1_upper: Fraction | None  # 2n * dimV / (dimV - 1); None unless D integral
    borel: BorelBounds | None       # present iff Theta is empty


@dataclass(frozen=True)
class LctReport:
    bound: Fraction                 # m / C(mD) <= lct(X, D)
    klt: bool                       # C(mD) < m
    lc: bool                        # C(mD) <= m


def nef_value(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    require_ample(flag, coeffs)
    return max(Fraction(l) / Fraction(c) for l, c in zip(flag.fano, coeffs))


def script_T(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    return 1 / nef_value(flag, coeffs)


def script_C(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    require_ample(flag, coeffs)
    return 2 * max(Fraction(c) / Fraction(l) for l, c in zip(flag.fano, coeffs))


def _degree(fs: FlowSolution) -> Fraction:
    return factorial(fs.flag.n) * fs.v0


def degree(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    """n! times the volume coefficient of the flow started at D."""
    require_ample(flag, coeffs)
    return _degree(flow_of_divisor(flag, coeffs))


def lct_lower(flag: ParabolicFlag, coeffs: DivisorClass, m: int) -> LctReport:
    """Log canonical threshold bound m / C(mD), with klt and lc verdicts.

    Stated for the Borel case; mD must be integral and ample.
    """
    if flag.theta:
        raise DomainError(
            "log canonical threshold bound is stated for the Borel case only "
            "(Theta must be empty)")
    if m < 1:
        raise DomainError(f"multiple m must be a positive integer (got {m})")
    scaled = tuple(Fraction(c) * m for c in coeffs)
    if not is_integral(scaled):
        raise DomainError(f"m*D is not integral for m = {m}")
    require_ample(flag, scaled)
    c_md = script_C(flag, scaled)
    return LctReport(bound=Fraction(m) / c_md, klt=c_md < m, lc=c_md <= m)


def invariants_of(flag: ParabolicFlag, coeffs: DivisorClass) -> InvariantReport:
    require_ample(flag, coeffs)
    coeffs = tuple(Fraction(c) for c in coeffs)
    fs = flow_of_divisor(flag, coeffs)
    tau = nef_value(flag, coeffs)
    t_script = 1 / tau
    c_script = script_C(flag, coeffs)
    dim_v = None
    lambda1_upper = None
    if is_integral(coeffs):
        dim_v = weyl_dim(flag.rs, char_of_divisor(flag, coeffs))
        assert dim_v > 1, "ample class with a one-dimensional section space"
        lambda1_upper = Fraction(2 * flag.n * dim_v, dim_v - 1)
    borel = None
    if not flag.theta:
        r0 = scalar_curvature(fs, 0)
        borel = BorelBounds(
            seshadri_upper=2 * t_script,
            gromov_width_upper=2 * t_script,
            kahler_radius_upper=f"pi*{2 * t_script}",
            sympl_radius_upper=Fraction(2 * flag.n) / r0,
        )
    return InvariantReport(
        tau=tau,
        T_script=t_script,
        C_script=c_script,
        degree=_degree(fs),
        dimV=dim_v,
        lambda1_lower=2 / c_script,
        lambda1_upper=lambda1_upper,
        borel=borel,
    )
