"""Dimension counts: product formula, pattern enumeration, budget guard."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflow import (
    BudgetExceeded,
    DomainError,
    build_flag,
    build_root_system,
    gt_count,
    invariants_of,
    rho,
    weyl_dim,
)
from flagflow.dimcount import DEFAULT_GT_BUDGET
from flagflow.errors import brief

KNOWN_DIMS = [
    ("A", 1, (1,), 2),
    ("A", 1, (3,), 4),
    ("A", 2, (1, 0), 3),
    ("A", 2, (0, 1), 3),
    ("A", 2, (1, 1), 8),
    ("A", 2, (2, 2), 27),
    ("A", 3, (0, 1, 0), 6),
    ("A", 3, (1, 0, 0), 4),
    ("B", 2, (1, 0), 5),
    ("B", 2, (0, 1), 4),
    ("G", 2, (1, 0), 7),
    ("G", 2, (0, 1), 14),
]


@pytest.mark.parametrize("family,rank,weight,dim", KNOWN_DIMS)
def test_weyl_dimension_on_known_representations(family, rank, weight, dim):
    rs = build_root_system(family, rank)
    assert weyl_dim(rs, weight) == dim


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_zero_weight_gives_trivial_representation(family, rank):
    rs = build_root_system(family, rank)
    assert weyl_dim(rs, (0,) * rank) == 1
    if family == "A":
        assert gt_count(rs, (0,) * rank) == 1


def test_weyl_dim_of_rho_and_two_rho_in_rank_three():
    rs = build_root_system("A", 3)
    assert weyl_dim(rs, tuple(rho(rs))) == 64
    rs2 = build_root_system("A", 2)
    assert weyl_dim(rs2, (1, 1)) == 8
    assert weyl_dim(rs2, (2, 2)) == 27


@pytest.mark.parametrize("family,rank", [
    ("A", 20), ("B", 12), ("C", 12), ("D", 16),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
])
def test_weyl_dim_of_rho_and_delta_p_past_rank_six(family, rank):
    """dim V(k rho) = (k+1)^|Phi+|; in the Borel case delta_P = 2 rho."""
    rs = build_root_system(family, rank)
    assert weyl_dim(rs, rho(rs)) == 2 ** len(rs.positive_roots)
    flag = build_flag(rs, ())
    assert flag.delta_dim == 3 ** flag.n


def test_weyl_dim_rejects_non_dominant_or_non_integral():
    rs = build_root_system("A", 2)
    with pytest.raises(DomainError):
        weyl_dim(rs, (-1, 0))
    with pytest.raises(DomainError):
        weyl_dim(rs, (Fraction(1, 2), 0))
    # the entries are shown as numbers; they were shown as the strings ('1', '-1')
    with pytest.raises(DomainError, match=r"^weight \(1, -1\) is not dominant integral$"):
        weyl_dim(rs, (1, -1))
    with pytest.raises(DomainError, match=r"^weight \(1/2, <130-bit number>\) is not"):
        weyl_dim(rs, (Fraction(1, 2), 2 ** 128))


def test_gt_count_matches_weyl_dim_on_small_grid():
    for rank in (1, 2):
        rs = build_root_system("A", rank)
        for weight in itertools.product(range(3), repeat=rank):
            assert gt_count(rs, weight) == weyl_dim(rs, weight)


def test_gt_count_rejects_non_type_a():
    rs = build_root_system("B", 2)
    with pytest.raises(DomainError, match="type A"):
        gt_count(rs, (1, 0))


def test_gt_count_budget_raises_named_error():
    rs = build_root_system("A", 2)
    with pytest.raises(BudgetExceeded):
        gt_count(rs, (1, 1), budget=5)
    assert gt_count(rs, (1, 1), budget=8) == 8


def test_budget_exceeded_is_a_domain_error():
    assert issubclass(BudgetExceeded, DomainError)


# dimV = dim V(chi_D) counts the lattice points of the divisor polytope Delta(D)
def test_lattice_count_on_projective_spaces():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert invariants_of(p2, (Fraction(1),)).dimV == 3
    assert invariants_of(p2, (Fraction(2),)).dimV == 6
    p1 = build_flag(build_root_system("A", 1), ())
    for m in range(1, 6):
        assert invariants_of(p1, (Fraction(m),)).dimV == m + 1


def test_lattice_count_on_full_flag():
    full = build_flag(build_root_system("A", 2), ())
    assert invariants_of(full, (Fraction(1), Fraction(1))).dimV == 8


def test_lattice_count_requires_integral_ample():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert invariants_of(p2, (Fraction(1, 2),)).dimV is None
    with pytest.raises(DomainError):
        invariants_of(p2, (Fraction(-1),))


small = st.integers(min_value=0, max_value=4)


@settings(max_examples=40)
@given(weight=st.tuples(small, small), bump=st.integers(min_value=0, max_value=1))
def test_weyl_dim_weakly_increasing_in_each_coordinate(weight, bump):
    rs = build_root_system("A", 2)
    base = weyl_dim(rs, weight)
    bigger = (weight[0] + bump, weight[1] + (1 - bump))
    assert weyl_dim(rs, bigger) >= base


def _a7_sums_of_two_fundamental_weights():
    for i, j in itertools.combinations_with_replacement(range(7), 2):
        weight = [0] * 7
        weight[i] += 1
        weight[j] += 1
        yield tuple(weight)


@pytest.mark.parametrize("rank, weights", [
    (4, list(itertools.product(range(3), repeat=4))),
    (5, list(itertools.product(range(2), repeat=5))),
    (7, list(_a7_sums_of_two_fundamental_weights())),
], ids=["A4-coords-le-2", "A5-coords-le-1", "A7-two-fundamental"])
def test_gt_count_matches_weyl_dim_past_rank_three(rank, weights):
    """141 weights in all; the largest dimension is 59049, of A4's (2, 2, 2, 2)."""
    rs = build_root_system("A", rank)
    for weight in weights:
        assert gt_count(rs, weight) == weyl_dim(rs, weight), weight


def enumerated(rs, weight, budget):
    """The pattern-by-pattern loop that gt_count's row recursion replaced, kept as
    its reference: it counts each completed pattern and raises past the budget."""
    top = tuple(sum(weight[j:]) for j in range(rs.rank + 1))
    exceeded = BudgetExceeded(f"Gelfand-Tsetlin enumeration exceeded budget {brief(budget)}")
    if prod(a - b + 1 for a, b in zip(top, top[1:])) > budget:
        raise exceeded
    count = 0

    def descend(row):
        nonlocal count
        if len(row) == 1:
            count += 1
            if count > budget:
                raise exceeded
            return
        ranges = (range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))
        for nxt in itertools.product(*ranges):
            descend(nxt)

    descend(top)
    return count


def outcome(count, rs, weight, budget):
    """The value counted, or the refusal's message."""
    try:
        return count(rs, weight, budget)
    except BudgetExceeded as exc:
        return f"BudgetExceeded: {exc}"


def assert_parity(cases):
    for rank, weight, budget in cases:
        rs = build_root_system("A", rank)
        assert (outcome(gt_count, rs, weight, budget)
                == outcome(enumerated, rs, weight, budget)), (weight, budget)


def weights(ranks, top):
    for rank in ranks:
        for weight in itertools.product(range(top + 1), repeat=rank):
            yield rank, weight, weyl_dim(build_root_system("A", rank), weight)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_gt_count_matches_the_pattern_loop_at_the_default_budget(rank):
    """Every weight with coordinates <= 3; A4's largest, 3 rho, is refused."""
    assert_parity((rank, weight, DEFAULT_GT_BUDGET)
                  for weight in itertools.product(range(4), repeat=rank))


def test_gt_count_matches_the_pattern_loop_at_tight_budgets():
    """Budgets count - 1, count and 0 on A1-A3 weights with coordinates <= 3, and
    every budget up to count + 1 on the A1-A2 ones and on A3's with coordinates
    <= 1, so the running count is refused at each of its steps: 668 cases."""
    cases = {(rank, weight, budget) for rank, weight, dim in weights([1, 2, 3], 3)
             for budget in (dim - 1, dim, 0)}
    cases |= {(rank, weight, budget)
              for rank, weight, dim in [*weights([1, 2], 3), *weights([3], 1)]
              for budget in range(dim + 2)}
    assert len(cases) == 668
    assert_parity(sorted(cases))


def test_gt_count_refuses_a_row_of_two_past_the_budget():
    # answered by a - b + 1 before the budget check, (10**7,) returned 10000001
    assert_parity((1, (top,), DEFAULT_GT_BUDGET) for top in (999_999, 10 ** 6, 10 ** 7))
