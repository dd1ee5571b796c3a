"""Flow trajectories: closed forms, frozen values, bound chains, rejections."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflow import (
    DomainError,
    RM_BOUND_SYMBOLIC,
    bounds_report,
    build_flag,
    build_root_system,
    canonical_divisor,
    class_at,
    diameter_bound,
    flow_of_divisor,
    fund_coords,
    lambda1_bounds,
    make_flow,
    p_values,
    pairing,
    ricci_lower_constant,
    ricci_norm_sq,
    rho,
    scalar_curvature,
    volume,
    weyl_dim,
)


def a2_full_flow():
    flag = build_flag(build_root_system("A", 2), ())
    return make_flow(flag, (Fraction(1), Fraction(2)))


def p1_flow(b=Fraction(2)):
    flag = build_flag(build_root_system("A", 1), ())
    return make_flow(flag, (b,))


def test_a2_full_flag_frozen_trajectory():
    fs = a2_full_flow()
    assert fs.T == Fraction(1, 2)
    assert not fs.einstein
    assert scalar_curvature(fs, Fraction(0)) == Fraction(13, 3)
    assert ricci_norm_sq(fs, Fraction(0)) == Fraction(61, 9)
    assert class_at(fs, Fraction(1, 4)) == (Fraction(1, 2), Fraction(3, 2))
    assert volume(fs, Fraction(0)) == Fraction(3)
    assert volume(fs, fs.T) == Fraction(0)


def test_a2_consumption_rates_and_slopes():
    fs = a2_full_flow()
    assert all(slope == -a for slope, a in zip(fs.p_slope, fs.a))
    assert all(a >= 1 for a in fs.a)
    for p in p_values(fs, Fraction(1, 4)):
        assert p > 0


def test_p1_is_einstein_with_unit_singular_time():
    fs = p1_flow()
    assert fs.einstein
    assert fs.T == Fraction(1)
    for k in range(4):
        t = Fraction(k, 5)
        assert scalar_curvature(fs, t) * (fs.T - t) == fs.flag.n


def test_einstein_detection_on_full_flag():
    flag = build_flag(build_root_system("A", 2), ())
    assert make_flow(flag, (Fraction(2), Fraction(2))).einstein
    assert not make_flow(flag, (Fraction(1), Fraction(2))).einstein


def test_single_complement_flags_are_always_einstein():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert make_flow(p2, (Fraction(7, 3),)).einstein


def test_make_flow_rejections():
    flag = build_flag(build_root_system("A", 2), ())
    with pytest.raises(DomainError, match="Kahler"):
        make_flow(flag, (Fraction(-1), Fraction(2)))
    with pytest.raises(DomainError, match="Kahler"):
        make_flow(flag, (Fraction(0), Fraction(1)))
    with pytest.raises(DomainError):
        make_flow(flag, (Fraction(1),))


def test_time_domain_guards():
    fs = a2_full_flow()
    with pytest.raises(DomainError, match="negative time"):
        scalar_curvature(fs, Fraction(-1, 10))
    with pytest.raises(DomainError, match="singular time"):
        scalar_curvature(fs, fs.T)
    with pytest.raises(DomainError, match="singular time"):
        class_at(fs, Fraction(1))
    assert volume(fs, fs.T) == 0
    with pytest.raises(DomainError, match="singular time"):
        volume(fs, fs.T + Fraction(1, 100))


def test_bounds_report_frozen_values_at_quarter_time():
    fs = a2_full_flow()
    rep = bounds_report(fs, Fraction(1, 4))
    gap = fs.T - Fraction(1, 4)
    assert rep.R_lower == 1 / gap
    assert rep.R_upper == fs.flag.n / gap
    assert rep.R_lower <= rep.R <= rep.R_upper
    assert rep.ricci_norm_sq_lower == rep.R * rep.R / fs.flag.n
    assert rep.ricci_norm_sq_upper == rep.R * rep.R
    assert rep.vol_coeff == Fraction(3, 4)
    assert rep.vol_coeff_lower == Fraction(3) * Fraction(1, 2) ** 3
    assert rep.vol_coeff_upper == Fraction(3) * Fraction(1, 2)
    assert rep.within
    assert not rep.r_upper_attained
    assert rep.rm_bound == RM_BOUND_SYMBOLIC
    # one verdict per bound; within is their conjunction
    assert rep.verdicts() == dict.fromkeys(
        ("scalar_bounds", "ricci_bounds", "volume_sandwich"), True)
    off = dataclasses.replace(rep, R=rep.R_upper + 1)
    assert off.verdicts() == {
        "scalar_bounds": False, "ricci_bounds": True, "volume_sandwich": True}
    assert not off.within


def test_einstein_report_attains_upper_scalar_bound():
    rep = bounds_report(p1_flow(), Fraction(1, 3))
    assert rep.r_upper_attained
    assert rep.within


def test_ricci_lower_constant_and_diameter():
    fs = a2_full_flow()
    assert ricci_lower_constant(fs) == Fraction(2)
    value, radicand = diameter_bound(fs)
    assert radicand == Fraction(10)
    assert value == pytest.approx(3.141592653589793 * 10 ** 0.5)
    p1 = p1_flow()
    assert diameter_bound(p1)[1] == Fraction(2)


def test_lambda1_frozen_bounds():
    fs = a2_full_flow()
    lo, hi = lambda1_bounds(fs, Fraction(0))
    assert lo == Fraction(1)
    assert hi == Fraction(9)
    p2 = build_flag(build_root_system("A", 2), (2,))
    lo2, hi2 = lambda1_bounds(make_flow(p2, (Fraction(1),)), Fraction(0))
    assert hi2 == Fraction(40, 3)


def test_bounds_report_carries_the_lambda1_bounds():
    fs = a2_full_flow()
    for t in (Fraction(0), Fraction(1, 7), Fraction(2, 5)):
        rep = bounds_report(fs, t)
        assert (rep.lambda1_lower, rep.lambda1_upper) == lambda1_bounds(fs, t)
        assert rep.lambda1_upper == 2 * rep.R * Fraction(27, 26)  # M = dim V(2 rho) = 27


def test_flow_of_divisor_matches_direct_construction():
    p2 = build_flag(build_root_system("A", 2), (2,))
    fs = flow_of_divisor(p2, (Fraction(1),))
    assert fs.T == Fraction(1, 3)
    assert class_at(fs, Fraction(1, 4)) == (Fraction(1, 4),)


positive_scale = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12)
unit_interval = st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=20)


@settings(max_examples=40)
@given(s=positive_scale, u=unit_interval)
def test_einstein_closure_normalizes_scalar_curvature(s, u):
    for family, rank, theta in [("A", 2, ()), ("B", 2, ()), ("A", 3, (2,))]:
        flag = build_flag(build_root_system(family, rank), theta)
        b0 = tuple(s * ell for ell in flag.fano)
        fs = make_flow(flag, b0)
        assert fs.einstein
        assert fs.T == s
        t = u * fs.T
        assert scalar_curvature(fs, t) * (fs.T - t) == flag.n


@settings(max_examples=40)
@given(
    t1=st.fractions(min_value=0, max_value=Fraction(2, 5), max_denominator=20),
    t2=st.fractions(min_value=0, max_value=Fraction(2, 5), max_denominator=20),
)
def test_scalar_curvature_strictly_increasing(t1, t2):
    fs = a2_full_flow()
    lo, hi = sorted((t1, t2))
    if lo != hi:
        assert scalar_curvature(fs, lo) < scalar_curvature(fs, hi)


def test_integral_lie_data_are_ints():
    rs = build_root_system("B", 3)
    flag = build_flag(rs, (2,))
    fs = make_flow(flag, (Fraction(1, 2), Fraction(3)))
    values = [
        *flag.delta_p, *fund_coords(rs, rs.positive_roots[-1]), *canonical_divisor(flag),
        *fs.a, *fs.p_slope, weyl_dim(rs, flag.delta_p), pairing(rs, rho(rs), 0),
    ]
    assert all(type(x) is int for x in values)
    # a rational weight still pairs to a Fraction
    assert type(pairing(rs, (Fraction(1, 2), 0, 0), 0)) is Fraction
