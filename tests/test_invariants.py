"""Cone invariants: nef value, degree, thresholds, spectral gap estimates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflow import (
    DomainError,
    build_flag,
    build_root_system,
    class_at,
    degree,
    flow_of_divisor,
    invariants_of,
    lct_lower,
    nef_value,
    scalar_curvature,
    script_C,
    script_T,
    weyl_dim,
)


def p1():
    return build_flag(build_root_system("A", 1), ())


def p2():
    return build_flag(build_root_system("A", 2), (2,))


def a2_full():
    return build_flag(build_root_system("A", 2), ())


def test_nef_value_frozen_examples():
    assert nef_value(p2(), (Fraction(1),)) == 3
    assert nef_value(p2(), (Fraction(2),)) == Fraction(3, 2)
    assert script_T(p2(), (Fraction(1),)) == Fraction(1, 3)
    assert script_C(p2(), (Fraction(1),)) == Fraction(2, 3)


def test_anticanonical_has_nef_value_one():
    for flag in (p1(), p2(), a2_full(), build_flag(build_root_system("B", 2), (2,))):
        d = tuple(Fraction(ell) for ell in flag.fano)
        assert nef_value(flag, d) == 1
        assert script_T(flag, d) == 1


def test_degree_frozen_examples():
    assert degree(p2(), (Fraction(1),)) == 1
    assert degree(p2(), (Fraction(2),)) == 4
    full = a2_full()
    anti = tuple(Fraction(ell) for ell in full.fano)
    assert degree(full, anti) == 48


def test_degree_requires_ample():
    with pytest.raises(DomainError, match="ample"):
        degree(p2(), (Fraction(0),))


def test_divisor_class_moves_linearly_and_respects_cone():
    d = (Fraction(1), Fraction(2))
    fs = flow_of_divisor(a2_full(), d)
    assert class_at(fs, Fraction(0)) == d
    assert class_at(fs, Fraction(1, 4)) == (Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(DomainError, match="past singular time"):
        class_at(fs, Fraction(1, 2))


def test_lct_lower_frozen_examples():
    rep = lct_lower(p1(), (Fraction(1),), 1)
    assert rep.bound == 1
    assert not rep.klt
    assert rep.lc
    rep2 = lct_lower(p1(), (Fraction(1, 2),), 2)
    assert rep2.bound == 2
    assert rep2.klt and rep2.lc
    rep3 = lct_lower(a2_full(), (Fraction(1), Fraction(1)), 1)
    assert rep3.bound == 1
    assert not rep3.klt
    assert rep3.lc


def test_lct_lower_guards():
    with pytest.raises(DomainError, match="Borel"):
        lct_lower(p2(), (Fraction(1),), 1)
    with pytest.raises(DomainError, match="integral"):
        lct_lower(p1(), (Fraction(1, 3),), 2)
    with pytest.raises(DomainError):
        lct_lower(p1(), (Fraction(1),), 0)


def test_invariant_report_for_projective_plane_hyperplane():
    rep = invariants_of(p2(), (Fraction(1),))
    assert rep.tau == 3
    assert rep.T_script == Fraction(1, 3)
    assert rep.C_script == Fraction(2, 3)
    assert rep.degree == 1
    assert rep.dimV == 3
    assert rep.lambda1_lower == 3
    assert rep.lambda1_upper == 6
    assert rep.borel is None


def test_invariant_report_borel_case_unit_line_bundle():
    rep = invariants_of(p1(), (Fraction(1),))
    assert rep.borel is not None
    assert rep.borel.seshadri_upper == 1
    assert rep.borel.gromov_width_upper == 1
    assert rep.borel.sympl_radius_upper == 1
    assert rep.borel.kahler_radius_upper == "pi*1"


def test_non_integral_class_has_no_section_count():
    rep = invariants_of(p2(), (Fraction(1, 2),))
    assert rep.dimV is None
    assert rep.lambda1_upper is None
    assert rep.lambda1_lower == 2 / rep.C_script


def test_report_tau_times_T_is_one():
    for flag, d in [
        (p2(), (Fraction(5),)),
        (a2_full(), (Fraction(2), Fraction(3))),
    ]:
        rep = invariants_of(flag, d)
        assert rep.tau * rep.T_script == 1


def test_flow_started_at_divisor_agrees_with_cone_data():
    flag = a2_full()
    d = (Fraction(3), Fraction(1))
    fs = flow_of_divisor(flag, d)
    assert fs.T == script_T(flag, d)
    assert max(Fraction(2) * b / ell for b, ell in zip(fs.b0, flag.fano)) == script_C(flag, d)


def test_two_lambda1_upper_bounds_are_incomparable():
    # flow-based form at the hyperplane class sits strictly above the
    # section-count form, so neither dominates the other in general
    rep = invariants_of(p2(), (Fraction(1),))
    flow_form = Fraction(40, 3)
    assert rep.lambda1_upper == 6
    assert flow_form > rep.lambda1_upper
    assert rep.lambda1_lower <= rep.lambda1_upper
    assert rep.lambda1_lower <= flow_form


def test_lambda1_forms_agree_on_anticanonical_class():
    for flag in (p1(), p2(), a2_full()):
        d = tuple(Fraction(ell) for ell in flag.fano)
        rep = invariants_of(flag, d)
        fs = flow_of_divisor(flag, d)
        m = weyl_dim(flag.rs, flag.delta_p)
        flow_form = 2 * scalar_curvature(fs, Fraction(0)) * Fraction(m, m - 1)
        assert flow_form == rep.lambda1_upper


def test_scalar_curvature_at_start_bounded_by_dimension_over_T():
    for flag, d in [
        (p2(), (Fraction(1),)),
        (a2_full(), (Fraction(1), Fraction(2))),
        (build_flag(build_root_system("G", 2), (1,)), (Fraction(2),)),
    ]:
        fs = flow_of_divisor(flag, d)
        assert scalar_curvature(fs, Fraction(0)) <= Fraction(flag.n) / script_T(flag, d)


k_scale = st.integers(min_value=1, max_value=5)
pos = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)


@settings(max_examples=40)
@given(k=k_scale, c1=pos, c2=pos)
def test_scale_laws_for_cone_invariants(k, c1, c2):
    flag = a2_full()
    d = (c1, c2)
    kd = (k * c1, k * c2)
    assert nef_value(flag, kd) == nef_value(flag, d) / k
    assert script_T(flag, kd) == k * script_T(flag, d)
    assert script_C(flag, kd) == k * script_C(flag, d)
    assert degree(flag, kd) == k ** flag.n * degree(flag, d)
