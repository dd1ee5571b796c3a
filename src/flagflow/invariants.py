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

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .dimcount import weyl_dim
from .errors import DomainError, brief, plain
from .flow import FlowSolution, make_flow, scalar_curvature
from .parabolic import (
    DivisorClass,
    ParabolicFlag,
    char_of_divisor,
    is_integral,
    require_ample,
)


class BorelBounds(namedtuple("BorelBounds", (
        "seshadri_upper",       # 2 T(D)
        "gromov_width_upper",   # 2 T(D)
        "kahler_radius_upper",  # str, symbolic: pi * (2 T(D))
        "sympl_radius_upper"))):  # 2 pi (2n) / R_c1 with R_c1 = 2 pi R(0)
    """Section-5 style bounds, defined only when Theta is empty."""
    __slots__ = ()


class InvariantReport(namedtuple("InvariantReport", (
        "tau",
        "T_script",
        "C_script",
        "degree",
        "dimV",                 # int lattice-point count; None unless D integral
        "lambda1_lower",        # 2 / C(D)
        "lambda1_upper",        # 2n * dimV / (dimV - 1); None unless D integral
        "borel"))):             # BorelBounds, present iff Theta is empty, else None
    """The invariants of one ample class; the rationals are Fractions."""
    __slots__ = ()


class LctReport(namedtuple("LctReport", (
        "bound",                # m / C(mD) <= lct(X, D), a Fraction
        "klt",                  # C(mD) < m
        "lc"))):                # C(mD) <= m
    """The log canonical threshold bound of m * D, with its two verdicts."""
    __slots__ = ()


def nef_value(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    require_ample(flag, coeffs)
    return max(l / Fraction(c) for l, c in zip(flag.fano, coeffs))


def script_T(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    return 1 / nef_value(flag, coeffs)


def script_C(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    require_ample(flag, coeffs)
    return 2 * max(Fraction(c) / l for l, c in zip(flag.fano, coeffs))


def _degree(fs: FlowSolution) -> Fraction:
    return factorial(fs.flag.n) * fs.v0


def degree(flag: ParabolicFlag, coeffs: DivisorClass) -> Fraction:
    """n! times the volume coefficient of the flow started at D."""
    require_ample(flag, coeffs)
    return _degree(make_flow(flag, coeffs))


def lct_lower(flag: ParabolicFlag, coeffs: DivisorClass, m: int) -> LctReport:
    """Log canonical threshold bound m / C(mD), with klt and lc verdicts.

    Stated for the Borel case; mD must be integral and ample.
    """
    if flag.theta:
        raise DomainError(
            "log canonical threshold bound is stated for the Borel case only "
            "(Theta must be empty)")
    if m < 1:
        raise DomainError(f"multiple m must be a positive integer (got {brief(m)})")
    scaled = tuple(Fraction(c) * m for c in coeffs)
    if not is_integral(scaled):
        raise DomainError(f"m*D is not integral for m = {brief(m)}")
    c_md = script_C(flag, scaled)
    return LctReport(bound=Fraction(m) / c_md, klt=c_md < m, lc=c_md <= m)


def invariants_of(flag: ParabolicFlag, coeffs: DivisorClass) -> InvariantReport:
    require_ample(flag, coeffs)
    fs = make_flow(flag, coeffs)
    dim_v = None
    lambda1_upper = None
    if is_integral(coeffs):
        dim_v = weyl_dim(flag.rs, char_of_divisor(flag, coeffs))
        if dim_v <= 1:
            raise AssertionError("ample class with a one-dimensional section space")
        lambda1_upper = Fraction(2 * flag.n * dim_v, dim_v - 1)
    borel = None
    if not flag.theta:
        borel = BorelBounds(
            seshadri_upper=2 * fs.T,
            gromov_width_upper=2 * fs.T,
            kahler_radius_upper="pi*" + plain(2 * fs.T),
            sympl_radius_upper=Fraction(2 * flag.n) / scalar_curvature(fs, 0),
        )
    return InvariantReport(
        tau=1 / fs.T,
        T_script=fs.T,
        C_script=fs.C,
        degree=_degree(fs),
        dimV=dim_v,
        lambda1_lower=2 / fs.C,
        lambda1_upper=lambda1_upper,
        borel=borel,
    )
