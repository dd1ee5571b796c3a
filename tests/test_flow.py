"""Flow trajectories: closed forms, frozen values, bound chains, rejections."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflow import (
    DomainError,
    FlowSolution,
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
    pairing,
    ricci_norm_sq,
    rho,
    rho_pairing,
    scalar_curvature,
    volume,
    weyl_dim,
)


def p_values(fs, t):
    """All P_beta(t), one per complementary root: the per-root reference."""
    return tuple(c + s * t for c, s in zip(fs.p_const, fs.p_slope))


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


def test_flow_solution_keeps_the_dataclass_protocol():
    # a namedtuple that carries dataclass fields, so the negative controls can corrupt
    # one field with dataclasses.replace
    fs = a2_full_flow()
    assert dataclasses.is_dataclass(FlowSolution) and dataclasses.is_dataclass(fs)
    assert tuple(f.name for f in dataclasses.fields(fs)) == FlowSolution._fields
    moved = dataclasses.replace(fs, T=fs.T / 2)
    assert type(moved) is FlowSolution and moved.T == fs.T / 2
    assert moved._replace(T=fs.T) == fs
    with pytest.raises(TypeError):
        dataclasses.replace(fs, speed=1)
    with pytest.raises(AttributeError):
        fs.T = Fraction(1)
    # built once, then bound on the class in the descriptor's place
    assert FlowSolution.__dataclass_fields__ is fs.__dataclass_fields__
    assert vars(FlowSolution)["__dataclass_fields__"] is fs.__dataclass_fields__


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
    off = rep._replace(R=rep.R_upper + 1)
    assert off.verdicts() == {
        "scalar_bounds": False, "ricci_bounds": True, "volume_sandwich": True}
    assert not off.within


def test_einstein_report_attains_upper_scalar_bound():
    rep = bounds_report(p1_flow(), Fraction(1, 3))
    assert rep.r_upper_attained
    assert rep.within


def test_ricci_lower_constant_and_diameter():
    fs = a2_full_flow()
    assert fs.C == Fraction(2)
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


# (family, rank, Theta, bits of the independent class): Borel, odd-numbered
# Theta and one-element complements. At 200 bits the per-root reference for
# A20 and D16 Borel takes 4-6 s; 64 bits already gives over 200k bits of P_g(t)
# numerators there, each folded as one unreduced integer.
LARGE_SHAPES = {
    "E8-borel": ("E", 8, (), 200),
    "A20-borel": ("A", 20, (), 64),
    "D16-borel": ("D", 16, (), 64),
    "E8-odd": ("E", 8, (1, 3, 5, 7), 200),
    "A20-odd": ("A", 20, tuple(range(1, 21, 2)), 200),
    "D16-odd": ("D", 16, tuple(range(1, 17, 2)), 200),
    "E8-{8}": ("E", 8, tuple(range(1, 8)), 200),
    "D16-{16}": ("D", 16, tuple(range(1, 16)), 200),
}


def shared_16_bit_class(size, bits, rng):
    """Numerators below 2^16 over one denominator near 2^16, as a benchmark flow sends."""
    den = rng.randint(2 ** 15, 2 ** 16)
    return tuple(Fraction(rng.randint(1, 2 ** 16), den) for _ in range(size))


def independent_class(size, bits, rng):
    """Numerators and denominators of the given bit length, each drawn on its own."""
    return tuple(
        Fraction(rng.getrandbits(bits) | 1, rng.getrandbits(bits) | 1) for _ in range(size))


@pytest.mark.parametrize("make_class", [shared_16_bit_class, independent_class],
                         ids=["shared-16-bit", "independent"])
@pytest.mark.parametrize("shape", LARGE_SHAPES)
def test_grouped_kernel_matches_the_per_root_sums(shape, make_class):
    """R, |Ric|^2 and vol of bounds_report, against sums and products over every root."""
    family, rank, theta, bits = LARGE_SHAPES[shape]
    flag = build_flag(build_root_system(family, rank), theta)
    fs = make_flow(flag, make_class(len(flag.complement), bits, random.Random(1)))
    t = fs.T / 3
    ps = p_values(fs, t)
    rho_prod = math.prod(rho_pairing(flag.rs, idx) for idx in flag.comp_pos_roots)
    rep = bounds_report(fs, t)
    assert rep.R == sum((a / p for a, p in zip(fs.a, ps)), Fraction(0))
    assert rep.ricci_norm_sq == sum(((a / p) ** 2 for a, p in zip(fs.a, ps)), Fraction(0))
    assert rep.vol_coeff == math.prod(ps) / rho_prod
    assert fs.v0 == math.prod(fs.p_const) / rho_prod


def troots(flag):
    """(T-root, multiplicity) pairs: the pairing rows restricted to the complement."""
    rows = flag.rs.pairing_rows
    return list(Counter(
        tuple(rows[idx][a - 1] for a in flag.complement) for idx in flag.comp_pos_roots).items())


def reference_groups(fs):
    """The distinct (den * P_beta(0), a_beta) pairs, counted in order of first occurrence."""
    pairs = Counter((fs.den * c, a) for c, a in zip(fs.p_const, fs.a))
    return [(num, a, m) for (num, a), m in pairs.items()]


def test_troot_group_counts():
    rng = random.Random(5)
    for family, rank, complement, n, count in [
        ("E", 8, {8}, 57, 2), ("E", 8, {1, 8}, 90, 6), ("A", 20, {5, 15}, 140, 3),
        ("D", 16, {16}, 120, 1),
        ("E", 8, {2, 4, 6, 8}, 115, 33), ("A", 20, set(range(2, 21, 2)), 200, 55),
        ("D", 16, set(range(2, 17, 2)), 232, 64),
        ("E", 8, set(range(1, 9)), 120, 120), ("A", 20, set(range(1, 21)), 210, 210),
        ("D", 16, set(range(1, 17)), 240, 240),
    ]:
        rs = build_root_system(family, rank)
        flag = build_flag(rs, set(range(1, rank + 1)) - complement)
        rows = troots(flag)
        assert len(rows) == count, (family, rank, complement)
        assert sum(m for _, m in rows) == n
        for b in (flag.fano, tuple(Fraction(rng.randint(1, 99), rng.randint(1, 99))
                                   for _ in complement)):
            fs = make_flow(flag, b)
            assert list(fs.groups) == reference_groups(fs), (family, rank, complement, b)
            assert len(fs.groups) <= count
            assert sum(m for _, _, m in fs.groups) == n


def test_fano_class_groups_by_a_alone():
    """Borel E8, A20 and D16: a_beta = 2 ht(h_beta^v) takes 29, 20 and 29 values."""
    for family, rank, count in [("E", 8, 29), ("A", 20, 20), ("D", 16, 29)]:
        flag = build_flag(build_root_system(family, rank), ())
        fs = make_flow(flag, flag.fano)
        assert len(fs.groups) == len(set(fs.a)) == count, family
        assert list(fs.groups) == reference_groups(fs)
        assert all(2 * num == fs.den * flag.fano[0] * a for num, a, _ in fs.groups)


def test_kernel_data_follow_the_groups():
    flag = build_flag(build_root_system("E", 8), tuple(range(1, 8)))
    fs = make_flow(flag, (Fraction(5, 6),))
    # P_g(0) = N_g / den, a_g and m_g for the two T-roots of E8 / P_{8}
    assert fs.den == 6
    assert [(num, a, m) for num, a, m in fs.groups] == [
        (5 * row[0], flag.fano[0] * row[0], m) for row, m in troots(flag)]
    assert sorted(m for _, _, m in fs.groups) == [1, 56]


def reference_bounds_report(fs, t):
    """Every bounds_report field by the formula, evaluated afresh: the reference."""
    t = Fraction(t)
    n, gap = fs.flag.n, fs.T - t
    r = scalar_curvature(fs, t)
    m = weyl_dim(fs.flag.rs, fs.flag.delta_p)
    return {
        "R": r, "R_lower": 1 / gap, "R_upper": n / gap,
        "ricci_norm_sq": ricci_norm_sq(fs, t),
        "ricci_norm_sq_lower": r * r / n, "ricci_norm_sq_upper": r * r,
        "vol_coeff": volume(fs, t),
        "vol_coeff_lower": (1 - t / fs.T) ** n * volume(fs, 0),
        "vol_coeff_upper": (1 - t / fs.T) * volume(fs, 0),
        "lambda1_lower": 2 / max(2 * x / l for x, l in zip(fs.b0, fs.flag.fano)),
        "lambda1_upper": 2 * r * m / (m - 1),
        "r_upper_attained": r == n / gap,
        "rm_bound": RM_BOUND_SYMBOLIC,
    }


@pytest.mark.parametrize("family, rank, theta", [
    ("A", 2, ()), ("G", 2, ()), ("B", 3, (1,)), ("E", 8, ()), ("A", 20, ()), ("D", 16, ()),
], ids=["A2", "G2", "B3-{1}", "E8-borel", "A20-borel", "D16-borel"])
def test_bounds_report_matches_the_formulas(family, rank, theta):
    rng = random.Random(11)
    flag = build_flag(build_root_system(family, rank), theta)
    for _ in range(3):
        b = tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in flag.complement)
        fs = make_flow(flag, b)
        assert fs.C == max(2 * x / l for x, l in zip(b, flag.fano))
        for t in (0, fs.T / 7, fs.T / 2, fs.T * 9 / 10):
            rep = bounds_report(fs, t)
            assert rep._asdict() == reference_bounds_report(fs, t), (b, t)


def test_times_are_read_alike_and_checked_against_zero_and_T():
    fs = a2_full_flow()  # T = 1/2
    for evaluate in (scalar_curvature, ricci_norm_sq, bounds_report, class_at):
        with pytest.raises(DomainError, match="singular time"):
            evaluate(fs, fs.T)
        with pytest.raises(DomainError, match="singular time"):
            evaluate(fs, "1/2")
        with pytest.raises(DomainError, match="negative time t = -1/7"):
            evaluate(fs, Fraction(-1, 7))
        with pytest.raises(DomainError, match="negative time t = -1$"):
            evaluate(fs, -1)
        assert evaluate(fs, 0) == evaluate(fs, "0") == evaluate(fs, Fraction(0))
        assert evaluate(fs, "1/3") == evaluate(fs, Fraction(1, 3))
    assert volume(fs, fs.T) == volume(fs, "1/2") == 0
    with pytest.raises(DomainError, match=r"t = 51/100, T = 1/2"):
        volume(fs, "51/100")
    with pytest.raises(DomainError, match="negative time"):
        volume(fs, Fraction(-1, 10 ** 9))
