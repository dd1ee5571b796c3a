"""Root-system construction: counts, pairing table, ordering, rejection paths."""

from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagflow import (
    DomainError,
    build_root_system,
    fund_coords,
    pairing,
    rho,
    rho_pairing,
    validate_type,
)
from flagflow.rootsys import RANK_RANGE, _coroots

CLASSICAL_COUNTS = [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10), ("A", 5, 15), ("A", 6, 21),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16), ("B", 5, 25), ("B", 6, 36),
    ("C", 3, 9), ("C", 4, 16), ("C", 5, 25), ("C", 6, 36),
    ("D", 4, 12), ("D", 5, 20), ("D", 6, 30),
    ("E", 6, 36), ("E", 7, 63), ("E", 8, 120),
    ("F", 4, 24), ("G", 2, 6),
]

TYPES_RANK_LE_6 = [(f, r) for f, r, _ in CLASSICAL_COUNTS if r <= 6]


def symmetrizers(cartan):
    """Coprime positive integers d with a_ij * d_j = a_ji * d_i: half the
    squared root lengths, the reference for the pairing rows."""
    l = len(cartan)
    vals = [1] + [0] * (l - 1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(l):
            if j != i and cartan[i][j] != 0 and vals[j] == 0:
                # d_j = d_i * a_ji / a_ij: rescale the values so far to make it integral
                num = vals[i] * cartan[j][i]
                scale = abs(cartan[i][j]) // gcd(num, cartan[i][j])
                vals = [v * scale for v in vals]
                vals[j] = num * scale // cartan[i][j]
                queue.append(j)
    assert all(v > 0 for v in vals), "Dynkin graph not connected"
    g = gcd(*vals)
    d = tuple(v // g for v in vals)
    assert all(
        cartan[i][j] * d[j] == cartan[j][i] * d[i]
        for i in range(l) for j in range(l)
    ), "symmetrizer does not symmetrize the Cartan matrix"
    return d


@pytest.mark.parametrize("family,rank,count", CLASSICAL_COUNTS)
def test_positive_root_count_matches_classical_table(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_6)
def test_cartan_matrix_shape(family, rank):
    rs = build_root_system(family, rank)
    for i in range(rank):
        assert rs.cartan[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan[i][j] <= 0


def test_frozen_cartan_data_for_multiply_laced_types():
    b2 = build_root_system("B", 2)
    assert b2.cartan == ((2, -2), (-1, 2))
    assert symmetrizers(b2.cartan) == (2, 1)
    g2 = build_root_system("G", 2)
    assert g2.cartan == ((2, -1), (-3, 2))
    assert symmetrizers(g2.cartan) == (1, 3)
    assert symmetrizers(build_root_system("C", 3).cartan) == (1, 1, 2)
    assert symmetrizers(build_root_system("F", 4).cartan) == (2, 2, 1, 1)


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_6)
def test_simple_roots_pair_as_kronecker_delta(family, rank):
    rs = build_root_system(family, rank)
    for j in range(rank):
        basis = tuple(int(i == j) for i in range(rank))
        idx = rs.positive_roots.index(basis)
        assert rs.pairing_rows[idx] == basis


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_6)
def test_pairing_rows_are_nonnegative_with_support_of_root(family, rank):
    rs = build_root_system(family, rank)
    for k, row in zip(rs.positive_roots, rs.pairing_rows):
        for kj, rj in zip(k, row):
            assert rj >= 0
            assert (rj > 0) == (kj > 0)


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_6)
def test_sum_of_positive_roots_is_twice_rho(family, rank):
    rs = build_root_system(family, rank)
    total = tuple(sum(k[i] for k in rs.positive_roots) for i in range(rank))
    assert fund_coords(rs, total) == tuple(Fraction(2) for _ in range(rank))


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_6)
def test_roots_ordered_by_height_then_lex(family, rank):
    rs = build_root_system(family, rank)
    keys = [(sum(k), k) for k in rs.positive_roots]
    assert keys == sorted(keys)


COXETER_NUMBERS = [
    *(("A", r, r + 1) for r in range(1, 7)),
    *(("B", r, 2 * r) for r in range(2, 7)),
    *(("C", r, 2 * r) for r in range(3, 7)),
    *(("D", r, 2 * r - 2) for r in range(4, 7)),
    ("E", 6, 12), ("E", 7, 18), ("E", 8, 30), ("F", 4, 12), ("G", 2, 6),
]


@pytest.mark.parametrize("family,rank,coxeter", COXETER_NUMBERS)
def test_highest_root_height_is_coxeter_number_minus_one(family, rank, coxeter):
    assert sum(build_root_system(family, rank).positive_roots[-1]) == coxeter - 1


# family -> the order of its Weyl group at rank r, in closed form
WEYL_ORDERS = {
    "A": lambda r: factorial(r + 1), "B": lambda r: 2 ** r * factorial(r),
    "C": lambda r: 2 ** r * factorial(r), "D": lambda r: 2 ** (r - 1) * factorial(r),
    "E": {6: 51840, 7: 2903040, 8: 696729600}.get, "F": lambda r: 1152, "G": lambda r: 12,
}


@pytest.mark.parametrize("family,rank", [
    *((family, rank) for family, (lo, hi) in RANK_RANGE.items() for rank in sorted({lo, hi})),
    ("E", 7),
])
def test_root_heights_give_the_weyl_group_order(family, rank):
    # Macdonald: |W| is the product of (ht + 1) / ht over the positive roots, so every
    # root's height is checked, not only the number of roots
    heights = [sum(root) for root in build_root_system(family, rank).positive_roots]
    assert Fraction(prod(h + 1 for h in heights), prod(heights)) == WEYL_ORDERS[family](rank)


@pytest.mark.parametrize("family,rank", [("A", 65), ("B", 33), ("C", 33), ("D", 34)])
def test_highest_root_of_height_65_is_reached(family, rank):
    rs = build_root_system(family, rank)
    assert sum(rs.positive_roots[-1]) == 65
    assert len(rs.positive_roots) == {"A": 2145, "B": 1089, "C": 1089, "D": 1122}[family]


PAIRING_REFERENCE_TYPES = [
    *((f, r) for f, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for r in range(lo, 13)),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 20), ("D", 16),
]


@pytest.mark.parametrize("family,rank", PAIRING_REFERENCE_TYPES)
def test_pairing_rows_match_the_squared_length_formula(family, rank):
    # <w_j, h_beta^v> = k_j d_j / d_beta with d_beta = sum_ij k_i k_j a_ij d_j / 2:
    # an independent reference for the coroots built by reflections
    rs = build_root_system(family, rank)
    a, d = rs.cartan, symmetrizers(rs.cartan)
    for k, row in zip(rs.positive_roots, rs.pairing_rows):
        two_d_beta = sum(k[i] * k[j] * a[i][j] * d[j]
                         for i in range(rank) for j in range(rank))
        assert row == tuple(Fraction(2 * k[j] * d[j], two_d_beta) for j in range(rank))


@pytest.mark.parametrize("cartan", [
    ((2, -2), (-2, 2)),                       # affine A1
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2
    ((2, -3), (-3, 2)),                       # hyperbolic
])
def test_non_finite_cartan_matrix_is_rejected(cartan):
    with pytest.raises(AssertionError, match="not finite type"):
        _coroots(cartan)


@pytest.mark.parametrize("name", [
    *(f"A{r}" for r in range(2, 9)), *(f"B{r}" for r in range(2, 9)),
    *(f"C{r}" for r in range(3, 9)), *(f"D{r}" for r in range(4, 9)),
    "E6", "E7", "E8", "F4", "G2",
])
def test_cartan_matrix_and_root_count_match_sympy(name):
    # sympy's A1 cartan_matrix() raises IndexError, so A starts at rank 2
    cartan_type = pytest.importorskip("sympy.liealgebras.cartan_type").CartanType(name)
    rs = build_root_system(name[0], int(name[1:]))
    theirs = cartan_type.cartan_matrix()
    assert rs.cartan == tuple(
        tuple(int(x) for x in theirs.row(i)) for i in range(theirs.rows))
    assert len(rs.positive_roots) == len(cartan_type.positive_roots())


# family -> (lo, hi), the admitted ranks, and the closed-form count of positive roots
ADMITTED = {
    "A": (1, 70, lambda r: r * (r + 1) // 2), "B": (2, 50, lambda r: r * r),
    "C": (3, 50, lambda r: r * r), "D": (4, 50, lambda r: r * (r - 1)),
    "E": (6, 8, None), "F": (4, 4, None), "G": (2, 2, None),
}


@pytest.mark.parametrize("family", ADMITTED)
def test_each_family_admits_exactly_its_rank_range(family):
    lo, hi, _ = ADMITTED[family]
    shown = f"{{{lo}}}" if lo == hi else f"{{{lo},...,{hi}}}"
    for rank in (lo, hi):
        validate_type(family, rank)
    for rank in (lo - 1, hi + 1):
        with pytest.raises(DomainError) as refused:
            validate_type(family, rank)
        assert str(refused.value) == f"family {family} requires rank in {shown} (got {rank})"


@pytest.mark.parametrize("family", "ABCD")
def test_the_largest_classical_ranks_keep_within_2500_positive_roots(family):
    _, hi, count = ADMITTED[family]
    assert len(build_root_system(family, hi).positive_roots) == count(hi) <= 2500
    assert count(hi + 1) > 2500


def test_construction_is_deterministic():
    first = tuple(_coroots(build_root_system("F", 4).cartan))
    second = tuple(_coroots(build_root_system("F", 4).cartan))
    assert first == second == build_root_system("F", 4).positive_roots


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1),
])
def test_invalid_rank_rejected_with_named_constraint(family, rank):
    with pytest.raises(DomainError, match="rank"):
        build_root_system(family, rank)


def test_unknown_family_rejected():
    with pytest.raises(DomainError, match="family"):
        build_root_system("H", 3)


def test_pairing_rejects_out_of_range_index():
    rs = build_root_system("A", 2)
    with pytest.raises(DomainError, match="out of range"):
        pairing(rs, rho(rs), 3)
    with pytest.raises(DomainError, match="out of range"):
        rho_pairing(rs, -1)


def test_a2_pairing_examples():
    rs = build_root_system("A", 2)
    w1 = (Fraction(1), Fraction(0))
    i_a1 = rs.positive_roots.index((1, 0))
    i_a12 = rs.positive_roots.index((1, 1))
    assert pairing(rs, w1, i_a1) == 1
    assert pairing(rs, w1, i_a12) == 1
    assert pairing(rs, rho(rs), i_a12) == 2


def test_rho_pairing_equals_row_sum():
    rs = build_root_system("G", 2)
    for idx in range(len(rs.positive_roots)):
        assert rho_pairing(rs, idx) == pairing(rs, rho(rs), idx)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@given(
    lam=st.tuples(rationals, rationals, rationals),
    mu=st.tuples(rationals, rationals, rationals),
    a=rationals,
    b=rationals,
)
def test_pairing_is_bilinear_in_the_weight(lam, mu, a, b):
    rs = build_root_system("B", 3)
    combo = tuple(a * x + b * y for x, y in zip(lam, mu))
    for idx in range(len(rs.positive_roots)):
        assert pairing(rs, combo, idx) == a * pairing(rs, lam, idx) + b * pairing(rs, mu, idx)


def test_empty_cartan_matrix_has_no_roots():
    assert tuple(_coroots(())) == ()
