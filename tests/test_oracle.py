"""Consistency suite: identity checks, brute-force nef, negative controls.

The negative controls replace one stored field of a trajectory with a
corrupted value and assert that the identity checks catch it, so the checks
are known to compare two independently derived quantities.
"""

import dataclasses
from fractions import Fraction

from flagflow import (
    SuiteConfig,
    brute_nef,
    build_flag,
    build_root_system,
    check_nef_consistency,
    check_ricci_identity,
    check_scalar_volume_identity,
    check_scale_laws,
    check_trajectory_bounds,
    check_weyl_gt_grid,
    make_flow,
    run_suite,
)

BOUND_NAMES = (
    "scalar_bounds", "ricci_bounds", "volume_sandwich",
    "monotone_scalar", "volume_zero_at_T",
)


def a2_flow(b=(Fraction(1), Fraction(2))):
    flag = build_flag(build_root_system("A", 2), ())
    return make_flow(flag, b)


def corrupt_rates(fs):
    return dataclasses.replace(fs, a=(fs.a[0] + 1,) + fs.a[1:])


def corrupt_slopes(fs):
    return dataclasses.replace(fs, p_slope=(fs.p_slope[0] - 1,) + fs.p_slope[1:])


def test_identity_checks_pass_on_honest_trajectory():
    fs = a2_flow()
    assert check_scalar_volume_identity(fs).passed
    exact, fd = check_ricci_identity(fs)
    assert exact.passed and fd.passed
    assert exact.counterexample is None


def test_trajectory_bounds_pass_and_cover_all_names():
    fs = a2_flow()
    outcomes = check_trajectory_bounds(fs, samples=10)
    for name in BOUND_NAMES:
        assert outcomes[name].passed
    assert "einstein_closure" not in outcomes
    ke = make_flow(fs.flag, (Fraction(2), Fraction(2)))
    ke_outcomes = check_trajectory_bounds(ke, samples=10)
    assert ke_outcomes["einstein_closure"].passed


def test_trajectory_bounds_report_each_failed_verdict(monkeypatch):
    import flagflow.oracle as oracle

    honest = oracle.bounds_report
    monkeypatch.setattr(oracle, "bounds_report",
                        lambda fs, t: dataclasses.replace(honest(fs, t), vol_coeff=Fraction(0)))
    outcomes = check_trajectory_bounds(a2_flow(), samples=4)
    assert not outcomes["volume_sandwich"].passed
    ce = outcomes["volume_sandwich"].counterexample
    assert ce["check"] == "volume_sandwich" and ce["vol_coeff"] == "0" and ce["b"] == ["1", "2"]
    assert outcomes["scalar_bounds"].passed and outcomes["ricci_bounds"].passed


def test_corrupted_consumption_rates_are_caught():
    bad = corrupt_rates(a2_flow())
    out = check_scalar_volume_identity(bad)
    assert not out.passed
    assert out.counterexample is not None
    assert out.counterexample["check"] == "scalar_volume_identity"
    assert out.counterexample["family"] == "A"
    assert "t" in out.counterexample and "residual" in out.counterexample
    exact, _ = check_ricci_identity(bad)
    assert not exact.passed
    assert exact.counterexample["check"] == "ricci_identity_exact"


def test_corrupted_slopes_are_caught():
    bad = corrupt_slopes(a2_flow())
    assert not check_scalar_volume_identity(bad).passed
    exact, fd = check_ricci_identity(bad)
    assert not exact.passed
    assert not fd.passed
    assert fd.counterexample["check"] == "ricci_identity_fd"


def test_counterexamples_serialize_to_plain_strings():
    bad = corrupt_rates(a2_flow())
    ce = check_scalar_volume_identity(bad).counterexample
    assert ce["b"] == ["1", "2"]
    assert all(isinstance(v, (str, int, list)) for v in ce.values())


def test_brute_nef_frozen_values():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert brute_nef(p2, (Fraction(1),)) == 3
    assert brute_nef(p2, (Fraction(2),)) == Fraction(3, 2)
    assert brute_nef(p2, (Fraction(3),)) == 1
    assert brute_nef(p2, (Fraction(1, 2),)) == 6


def test_brute_nef_inconclusive_returns_none():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert brute_nef(p2, (Fraction(101),)) is None
    assert brute_nef(p2, (Fraction(3),), max_q=2) is None


def test_nef_consistency_check_passes():
    p2 = build_flag(build_root_system("A", 2), (2,))
    out = check_nef_consistency(p2, (Fraction(2),), max_q=64)
    assert out["nef_brute_match"].passed
    assert out["flow_nef_consistency"].passed


def test_scale_laws_check():
    full = build_flag(build_root_system("A", 2), ())
    assert check_scale_laws(full, (Fraction(1), Fraction(2)), 3).passed


def test_weyl_gt_grid_small():
    assert check_weyl_gt_grid(max_coord=1).passed


def test_small_suite_passes_and_counts_instances():
    cfg = SuiteConfig(types=(("A", 1), ("A", 2)), classes_per_flag=1)
    rep = run_suite(cfg)
    # one flag for A1, three for A2; each runs one Einstein plus one random class
    assert rep.instances == 8
    assert rep.exact_ok and rep.fd_ok
    assert rep.first_counterexample is None
    for name in ("scalar_volume_identity", "ricci_identity_exact",
                 "ricci_identity_fd", "nef_brute_match",
                 "flow_nef_consistency", "scale_laws", "weyl_gt_grid"):
        assert rep.checks[name]["fail"] == 0
        assert rep.checks[name]["pass"] > 0


def test_suite_is_deterministic_for_a_seed():
    cfg = SuiteConfig(types=(("A", 2), ("B", 2)), classes_per_flag=2, seed=7)
    first = run_suite(cfg).as_dict()
    second = run_suite(cfg).as_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_different_seeds_draw_different_classes():
    cfg = SuiteConfig(types=(("A", 2),), classes_per_flag=3, seed=1)
    other = dataclasses.replace(cfg, seed=2)
    assert run_suite(cfg).exact_ok and run_suite(other).exact_ok


def test_exact_checks_survive_a_coarse_fd_step():
    exact, _fd = check_ricci_identity(a2_flow(), fd_step=1e-2)
    assert exact.passed
