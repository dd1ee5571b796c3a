"""Parabolic quotient data: complement roots, index coefficients, ample test."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagflow import (
    DomainError,
    build_flag,
    build_root_system,
    canonical_divisor,
    char_of_divisor,
    gt_count,
    is_ample,
    is_integral,
    pairing,
    require_ample,
    rho_pairing,
    weyl_dim,
)
from flagflow.oracle import DEFAULT_TYPES
from flagflow.rootsys import _coroots

TYPES_RANK_LE_6 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6),
    ("C", 3), ("C", 4), ("C", 5), ("C", 6),
    ("D", 4), ("D", 5), ("D", 6),
    ("E", 6), ("F", 4), ("G", 2),
]


def proper_theta_subsets(rank):
    for size in range(rank):
        yield from itertools.combinations(range(1, rank + 1), size)


def iter_flags_up_to_rank(max_rank):
    for family, rank in TYPES_RANK_LE_6:
        if rank > max_rank:
            continue
        rs = build_root_system(family, rank)
        for theta in proper_theta_subsets(rank):
            yield build_flag(rs, theta)


def test_projective_plane_data():
    flag = build_flag(build_root_system("A", 2), (2,))
    assert flag.complement == (1,)
    assert flag.n == 2
    assert flag.delta_p == (Fraction(3), Fraction(0))
    assert flag.fano == (3,)
    roots = [flag.rs.positive_roots[i] for i in flag.comp_pos_roots]
    assert roots == [(1, 0), (1, 1)]


def test_full_flag_of_a2():
    flag = build_flag(build_root_system("A", 2), ())
    assert flag.complement == (1, 2)
    assert flag.n == 3
    assert flag.delta_p == (Fraction(2), Fraction(2))
    assert flag.fano == (2, 2)


def test_three_dim_quadric_has_index_three():
    flag = build_flag(build_root_system("B", 2), (2,))
    assert flag.n == 3
    assert flag.fano == (3,)


def test_full_theta_rejected_as_point():
    rs = build_root_system("A", 2)
    with pytest.raises(DomainError, match="point"):
        build_flag(rs, (1, 2))


def test_theta_indices_validated():
    rs = build_root_system("A", 2)
    with pytest.raises(DomainError):
        build_flag(rs, (0,))
    with pytest.raises(DomainError):
        build_flag(rs, (3,))
    # duplicates collapse; order does not matter
    assert build_flag(rs, (2, 2)) == build_flag(rs, (2,))


def test_char_of_divisor_places_coefficients_on_complement():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert char_of_divisor(p2, (Fraction(2),)) == (Fraction(2), Fraction(0))
    full = build_flag(build_root_system("A", 2), ())
    assert char_of_divisor(full, (Fraction(2), Fraction(2))) == (Fraction(2), Fraction(2))


def test_char_of_divisor_rejects_length_mismatch():
    p2 = build_flag(build_root_system("A", 2), (2,))
    with pytest.raises(DomainError):
        char_of_divisor(p2, (Fraction(1), Fraction(1)))


def test_canonical_divisor_examples():
    p1 = build_flag(build_root_system("A", 1), ())
    assert canonical_divisor(p1) == (Fraction(-2),)
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert canonical_divisor(p2) == (Fraction(-3),)
    full = build_flag(build_root_system("A", 2), ())
    assert canonical_divisor(full) == (Fraction(-2), Fraction(-2))


def test_char_of_minus_canonical_is_delta_p():
    for flag in iter_flags_up_to_rank(6):
        minus_k = tuple(-c for c in canonical_divisor(flag))
        assert char_of_divisor(flag, minus_k) == flag.delta_p


def test_index_coefficients_are_integers_at_least_two():
    for flag in iter_flags_up_to_rank(6):
        assert all(isinstance(c, int) and c >= 2 for c in flag.fano)


def test_delta_p_vanishes_exactly_on_theta():
    for flag in iter_flags_up_to_rank(6):
        for i in range(flag.rs.rank):
            if (i + 1) in flag.theta:
                assert flag.delta_p[i] == 0
            else:
                assert flag.delta_p[i] > 0


def test_dimension_counts_roots_outside_the_levi():
    for flag in iter_flags_up_to_rank(5):
        theta0 = [i - 1 for i in flag.theta]
        sub = tuple(
            tuple(flag.rs.cartan[i][j] for j in theta0) for i in theta0
        )
        levi_count = len(_coroots(sub))
        assert flag.n == len(flag.rs.positive_roots) - levi_count


def constant_flags(family, rank):
    """Every proper Theta up to rank 7; past it, the Borel and the odd Theta."""
    rs = build_root_system(family, rank)
    thetas = proper_theta_subsets(rank) if rank <= 7 else [(), range(1, rank + 1, 2)]
    return [build_flag(rs, theta) for theta in thetas]


def gt_counted(flag):
    """Type A flags whose M is recounted by gt_count: every proper Theta up to A5,
    then the Borel and the odd Theta up to A7 (every Theta of A7 takes half a minute)."""
    family, rank = flag.rs.family, flag.rs.rank
    odd = tuple(range(1, rank + 1, 2))
    return family == "A" and (rank <= 5 or rank <= 7 and flag.theta in ((), odd))


@pytest.mark.parametrize("family,rank", [
    *DEFAULT_TYPES, ("A", 5), ("A", 6), ("A", 7),
    ("F", 4), ("E", 6), ("E", 7), ("E", 8), ("A", 20), ("D", 16), ("A", 70),
])
def test_flag_constants_match_independent_references(family, rank):
    # each constant of build_flag against the formula that defines it: pairings with
    # delta_P and rho one root at a time, Weyl's product over every positive root and,
    # in type A, a count of Gelfand-Tsetlin patterns
    for flag in constant_flags(family, rank):
        rs, roots = flag.rs, flag.comp_pos_roots
        assert flag.a == tuple(pairing(rs, flag.delta_p, idx) for idx in roots)
        assert flag.rho_product == math.prod(rho_pairing(rs, idx) for idx in roots)
        m = weyl_dim(rs, flag.delta_p)
        assert flag.delta_dim == m
        assert flag.eigen_ratio == Fraction(2 * m, m - 1)
        if gt_counted(flag):
            assert flag.delta_dim == gt_count(rs, flag.delta_p, budget=2 * m)


def test_ample_and_integral_predicates():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert is_ample(p2, (Fraction(1, 2),))
    assert not is_ample(p2, (Fraction(0),))
    assert is_integral((Fraction(4),))
    assert not is_integral((Fraction(1, 2),))
    with pytest.raises(DomainError, match="ample"):
        require_ample(p2, (Fraction(-1),))


coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(coeffs=st.tuples(coeff, coeff))
def test_ample_iff_character_positive_on_complement(coeffs):
    flag = build_flag(build_root_system("B", 2), ())
    chi = char_of_divisor(flag, coeffs)
    expected = all(chi[i - 1] > 0 for i in flag.complement)
    assert is_ample(flag, coeffs) == expected
