"""Consistency suite: identity checks, brute-force nef, negative controls.

The negative controls replace one stored field of a trajectory with a
corrupted value and assert that the identity checks catch it, so the checks
are known to compare two independently derived quantities.
"""

import bisect
import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import flagflow.oracle as oracle
from flagflow import (
    CheckOutcome,
    SuiteConfig,
    bounds_report,
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
    ricci_norm_sq,
    run_suite,
    scalar_curvature,
    volume,
)
from flagflow.errors import all_digits
from flagflow.oracle import _counterexample, _proper_subsets

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
    outcomes = check_trajectory_bounds(fs)
    for name in BOUND_NAMES:
        assert outcomes[name].passed
    assert "einstein_closure" not in outcomes
    ke = make_flow(fs.flag, (Fraction(2), Fraction(2)))
    ke_outcomes = check_trajectory_bounds(ke)
    assert ke_outcomes["einstein_closure"].passed


def test_trajectory_bounds_report_each_failed_verdict(monkeypatch):
    import flagflow.oracle as oracle

    honest = oracle.bounds_report
    monkeypatch.setattr(oracle, "bounds_report",
                        lambda fs, t: honest(fs, t)._replace(vol_coeff=Fraction(0)))
    outcomes = check_trajectory_bounds(a2_flow())
    assert not outcomes["volume_sandwich"].passed
    ce = outcomes["volume_sandwich"].counterexample
    assert ce["check"] == "volume_sandwich" and ce["vol_coeff"] == "0" and ce["b"] == ["1", "2"]
    assert outcomes["scalar_bounds"].passed and outcomes["ricci_bounds"].passed


def reference_trajectory_bounds(fs):
    """check_trajectory_bounds as a loop over bounds_report at each of the ten sampled
    times: the reference."""
    outcomes = {}

    def fail(name, t, **extra):
        outcomes.setdefault(name, CheckOutcome(False, _counterexample(
            fs.flag, b=fs.b0, check=name, t=t, **extra)))

    prev_r = None
    for t in (fs.T * j / 10 for j in range(10)):
        rep = bounds_report(fs, t)
        r = rep.R
        for name, holds in rep.verdicts().items():
            if not holds:
                fail(name, t, **rep._asdict())
        if prev_r is not None and not r > prev_r:
            fail("monotone_scalar", t, R=r, previous=prev_r)
        if fs.einstein and not rep.r_upper_attained:
            fail("einstein_closure", t, R_times_gap=r * (fs.T - t), n=fs.flag.n)
        prev_r = r
    vol_at_T = volume(fs, fs.T)
    if vol_at_T != 0:
        fail("volume_zero_at_T", fs.T, vol=vol_at_T)
    for name in BOUND_NAMES + ("einstein_closure",) * fs.einstein:
        outcomes.setdefault(name, CheckOutcome(True))
    return outcomes


def regrouped(fs, a, p_const):
    """fs with these per-root rates and constants, slopes -a, and the kernel's groups and
    volume at 0 to match, so that the per-root sums and the kernel agree on the changed
    flow."""
    nums = [int(c * fs.den) for c in p_const]
    groups = tuple((*pair, m) for pair, m in Counter(zip(nums, a)).items())
    fs = dataclasses.replace(fs, a=tuple(a), p_slope=tuple(-x for x in a),
                             p_const=tuple(p_const), groups=groups)
    return dataclasses.replace(fs, v0=volume(fs, 0))


def suite_flows(seed, monkeypatch):
    """The trajectories that run_suite(SuiteConfig(seed=seed)) checks, in order."""
    import flagflow.oracle as oracle

    flows = []
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "check_trajectory_bounds", lambda fs: flows.append(fs) or {})
        run_suite(SuiteConfig(seed=seed))
    assert len(flows) == 244
    return flows


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_bound_chain_matches_the_report_loop(seed, monkeypatch):
    """Every instance of the suite: the same outcomes as bounds_report at every
    sampled time."""
    for fs in suite_flows(seed, monkeypatch):
        assert check_trajectory_bounds(fs) == reference_trajectory_bounds(fs), fs.flag.theta


# changes that the kernel and the per-root sums both see; between them they break
# each side of every bound but monotone_scalar, which holds on any flow whose slopes
# are -a (dR/dt = |Ric|^2)
CONSISTENT = {
    "T lowered": lambda fs: dataclasses.replace(fs, T=fs.T * 2 / 3),
    "T raised": lambda fs: dataclasses.replace(fs, T=fs.T * 1001 / 1000),
    "root doubled": lambda fs: regrouped(fs, fs.a + fs.a[:1], fs.p_const + fs.p_const[:1]),
    "rate negated": lambda fs: regrouped(fs, (-fs.a[0],) + fs.a[1:], fs.p_const),
}


def test_integer_bound_chain_matches_the_report_loop_on_changed_flows(monkeypatch):
    """The suite's instances changed consistently: the same failures and
    counterexamples as bounds_report at every sampled time."""
    failed = Counter()
    for honest in suite_flows(0, monkeypatch):
        for change, corrupt in CONSISTENT.items():
            fs = corrupt(honest)
            outcomes = check_trajectory_bounds(fs)
            assert outcomes == reference_trajectory_bounds(fs), (change, fs.flag.theta)
            failed.update(name for name, out in outcomes.items() if not out.passed)
    assert set(failed) == {*BOUND_NAMES, "einstein_closure"} - {"monotone_scalar"}, failed


def shifted_report(**shift):
    """A corruption that adds shift to bounds_report's fields, as the oracle sees them."""

    def corrupt(fs, monkeypatch):
        import flagflow.oracle as oracle

        honest = oracle.bounds_report

        def report(fs, t):
            rep = honest(fs, t)
            return rep._replace(**{k: getattr(rep, k) + v for k, v in shift.items()})

        monkeypatch.setattr(oracle, "bounds_report", report)
        return fs

    return corrupt


# bound name -> a corruption of the Einstein flow on A2 Borel that it must catch; the
# report's verdict is wrong on honest values, or its value differs from the oracle's
TARGETED = {
    "scalar_bounds": shifted_report(R_lower=Fraction(1000)),
    "ricci_bounds": shifted_report(ricci_norm_sq=Fraction(1, 7)),
    "volume_sandwich": lambda fs, mp: dataclasses.replace(
        fs, p_slope=(fs.p_slope[0] + 1,) + fs.p_slope[1:]),
    "monotone_scalar": lambda fs, mp: dataclasses.replace(fs, p_slope=(0,) * len(fs.a)),
    "einstein_closure": lambda fs, mp: corrupt_rates(fs),
    "volume_zero_at_T": lambda fs, mp: dataclasses.replace(fs, T=fs.T / 2),
}


@pytest.mark.parametrize("name", sorted(TARGETED))
def test_each_bound_fails_under_its_corruption(name, monkeypatch):
    ke = a2_flow((Fraction(2), Fraction(2)))
    outcomes = check_trajectory_bounds(TARGETED[name](ke, monkeypatch))
    assert set(outcomes) == set(BOUND_NAMES) | {"einstein_closure"}
    assert not outcomes[name].passed
    assert outcomes[name].counterexample["check"] == name
    if name in ("scalar_bounds", "ricci_bounds"):  # the report's other values are honest
        assert [k for k, v in outcomes.items() if not v.passed] == [name]


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


def test_counterexamples_past_4300_digits_are_reported_in_full():
    """A failure with values past Python's int-string limit is reported, not raised."""
    rng = random.Random(3)
    flag = build_flag(build_root_system("E", 8), ())
    bad = corrupt_rates(make_flow(flag, tuple(rng.getrandbits(300) | 1 for _ in range(8))))
    out = check_scalar_volume_identity(bad)
    exact, _ = check_ricci_identity(bad)
    assert out.passed is False and exact.passed is False
    ce, ce_exact = out.counterexample, exact.counterexample
    assert max(len(ce["R"]), len(ce_exact["ricci_norm_sq"])) > 4300
    with all_digits():
        t = Fraction(ce["t"])
        ps = [c + s * t for c, s in zip(bad.p_const, bad.p_slope)]
        assert Fraction(ce["R"]) == sum((a / p for a, p in zip(bad.a, ps)), Fraction(0))
        assert Fraction(ce["kernel_R"]) == scalar_curvature(bad, t)
        t = Fraction(ce_exact["t"])
        assert Fraction(ce_exact["kernel_ricci_norm_sq"]) == ricci_norm_sq(bad, t)


def test_corrupted_slopes_are_caught():
    bad = corrupt_slopes(a2_flow())
    assert not check_scalar_volume_identity(bad).passed
    exact, fd = check_ricci_identity(bad)
    assert not exact.passed
    assert not fd.passed
    assert fd.counterexample["check"] == "ricci_identity_fd"


def test_corrupted_kernel_data_are_caught():
    """The grouped kernel must agree with the oracle's per-root sums."""
    flag = build_flag(build_root_system("B", 3), (2,))
    fs = make_flow(flag, (Fraction(1, 2), Fraction(3)))
    assert check_scalar_volume_identity(fs).passed and check_ricci_identity(fs)[0].passed
    num, a, m = fs.groups[0]
    for bad in [(num, a, m + 1), (num, a + 1, m)]:
        corrupt = dataclasses.replace(fs, groups=(bad,) + fs.groups[1:])
        out = check_scalar_volume_identity(corrupt)
        assert not out.passed
        assert out.counterexample["residual"] == "0"  # the per-root identity still holds
        assert out.counterexample["R"] != out.counterexample["kernel_R"]
        exact, _ = check_ricci_identity(corrupt)
        assert not exact.passed
        ce = exact.counterexample
        assert ce["kernel_ricci_norm_sq"] != ce["ricci_norm_sq"]


def fraction_scalar_volume_identity(fs):
    """check_scalar_volume_identity with a Fraction per root: the reference."""
    n = fs.flag.n
    for k in range(n + 2):
        t = fs.T * k / (n + 2)
        ps = [c + s * t for c, s in zip(fs.p_const, fs.p_slope)]
        prefix = [Fraction(1)]
        for p in ps:
            prefix.append(prefix[-1] * p)
        suffix = [Fraction(1)]
        for p in reversed(ps):
            suffix.append(suffix[-1] * p)
        suffix.reverse()
        qprime = sum(
            (s * prefix[i] * suffix[i + 1] for i, s in enumerate(fs.p_slope)), Fraction(0))
        r = sum((a / p for a, p in zip(fs.a, ps)), Fraction(0))
        residual = r * prefix[-1] + qprime
        kernel_r = scalar_curvature(fs, t)
        if residual != 0 or kernel_r != r:
            return CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="scalar_volume_identity", t=t, residual=residual,
                R=r, kernel_R=kernel_r))
    return CheckOutcome(True)


def fraction_ricci_identity(fs):
    """The exact half of check_ricci_identity with a Fraction per root: the reference."""
    n = fs.flag.n
    for k in range(n + 2):
        t = fs.T * k / (n + 2)
        lhs = rhs = Fraction(0)
        for a, c, s in zip(fs.a, fs.p_const, fs.p_slope):
            p = c + s * t
            lhs += -a * s / (p * p)
            rhs += (a / p) ** 2
        kernel = ricci_norm_sq(fs, t)
        if not lhs == rhs == kernel:
            return CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="ricci_identity_exact", t=t,
                dR_dt=lhs, ricci_norm_sq=rhs, kernel_ricci_norm_sq=kernel))
    return CheckOutcome(True)


def corrupt_constants(fs):
    return dataclasses.replace(fs, p_const=(fs.p_const[0] + Fraction(1, 3),) + fs.p_const[1:])


def corrupt_groups(fs, da, dm):
    num, a, m = fs.groups[0]
    return dataclasses.replace(fs, groups=((num, a + da, m + dm),) + fs.groups[1:])


CORRUPTIONS = {
    "honest": lambda fs: fs,
    "rates": corrupt_rates,
    "slopes": corrupt_slopes,
    "constants": corrupt_constants,
    "group rate": lambda fs: corrupt_groups(fs, 1, 0),
    "group multiplicity": lambda fs: corrupt_groups(fs, 0, 1),
}


def test_integer_identity_checks_match_the_fraction_reference():
    """Every proper Theta of the suite's types plus E6 and F4 flags, honest and corrupted:
    the same verdicts and the same counterexamples as a Fraction per root."""
    rng = random.Random(3)
    flags = [build_flag(build_root_system(family, rank), theta)
             for family, rank in SuiteConfig().types for theta in _proper_subsets(rank)]
    flags += [build_flag(build_root_system(family, rank), theta) for family, rank, theta in [
        ("E", 6, ()), ("E", 6, (1, 3, 5)), ("F", 4, ()), ("F", 4, (2, 3))]]
    for flag in flags:
        b = tuple(Fraction(rng.randint(1, 10), rng.randint(1, 10)) for _ in flag.complement)
        honest = make_flow(flag, b)
        for name, corrupt in CORRUPTIONS.items():
            fs = corrupt(honest)
            case = (flag.rs.family, flag.rs.rank, flag.theta, name)
            scalar = fraction_scalar_volume_identity(fs)
            ricci = fraction_ricci_identity(fs)
            # equal reprs: equal values, and counterexample fields in the same order
            assert repr(check_scalar_volume_identity(fs)) == repr(scalar), case
            assert repr(check_ricci_identity(fs)[0]) == repr(ricci), case
            assert scalar.passed == ricci.passed == (name == "honest"), case


@pytest.mark.parametrize("theta", [(), (1, 3, 5, 7)], ids=["borel", "odd"])
def test_identity_checks_past_rank_6(theta):
    """E8 Borel (n = 120) and odd Theta (n = 115) with a shared 16-bit class."""
    rng = random.Random(0)
    flag = build_flag(build_root_system("E", 8), theta)
    den = rng.randint(2 ** 15, 2 ** 16)
    fs = make_flow(flag, tuple(Fraction(rng.randint(1, 2 ** 16), den) for _ in flag.complement))
    assert check_scalar_volume_identity(fs).passed
    assert check_ricci_identity(fs)[0].passed
    for corrupt in (corrupt_rates, corrupt_slopes, lambda fs: corrupt_groups(fs, 0, 1)):
        bad = corrupt(fs)
        assert not check_scalar_volume_identity(bad).passed
        assert not check_ricci_identity(bad)[0].passed


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


def linear_scan_nef(flag, coeffs, max_q=64):
    """brute_nef's search by a linear scan of p for each q, as the reference."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    sides = [(c.numerator, l * c.denominator) for c, l in zip(coeffs, flag.fano)]
    p_cap = max_q * max(flag.fano)
    best = None
    for q in range(1, max_q + 1):
        for p in range(0, p_cap + 1):
            if all(p * c >= q * l for c, l in sides):
                if best is None or Fraction(p, q) < best:
                    best = Fraction(p, q)
                break
    certified = all(
        c.numerator <= max_q and l * c.denominator <= p_cap
        for c, l in zip(coeffs, flag.fano))
    return best if certified else None


def test_brute_nef_bisection_matches_a_linear_scan():
    rng = random.Random(5)
    cases = 0
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                         ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        for theta in _proper_subsets(rank):
            flag = build_flag(rs, theta)
            for _ in range(2):
                d = tuple(Fraction(rng.randint(1, 10), rng.randint(1, 10))
                          for _ in flag.complement)
                assert brute_nef(flag, d) == linear_scan_nef(flag, d), (family, rank, theta, d)
                cases += 1
    assert cases == 2 * 61


def test_brute_nef_inconclusive_returns_none():
    p2 = build_flag(build_root_system("A", 2), (2,))
    assert brute_nef(p2, (Fraction(101),)) is None


def test_nef_consistency_check_passes():
    p2 = build_flag(build_root_system("A", 2), (2,))
    out = check_nef_consistency(p2, (Fraction(2),))
    assert out["nef_brute_match"].passed
    assert out["flow_nef_consistency"].passed


def test_scale_laws_check():
    full = build_flag(build_root_system("A", 2), ())
    assert check_scale_laws(full, (Fraction(1), Fraction(2)), 3).passed


def test_weyl_gt_grid_small():
    assert check_weyl_gt_grid().passed


def suite_fails_first_with(name: str) -> dict:
    """run_suite on A2 reports a failure, and a counterexample of `name` first."""
    rep = run_suite(SuiteConfig(types=(("A", 2),), classes_per_flag=1))
    assert not rep.exact_ok and rep.checks[name]["fail"] > 0
    first = rep.first_counterexample
    assert first["check"] == name
    json.dumps(first)
    return first


def test_a_wrong_flow_time_fails_nef_consistency_with_both_sides(monkeypatch):
    closed_form = oracle.script_T
    monkeypatch.setattr(oracle, "script_T", lambda flag, d: 2 * closed_form(flag, d))
    p2 = build_flag(build_root_system("A", 2), (2,))
    out = check_nef_consistency(p2, (Fraction(2),))
    assert out["nef_brute_match"].passed and not out["flow_nef_consistency"].passed
    ce = out["flow_nef_consistency"].counterexample
    json.dumps(ce)
    assert (ce["check"], ce["T"], ce["script_T"], ce["one_over_tau"]) == (
        "flow_nef_consistency", "2/3", "4/3", "2/3")
    first = suite_fails_first_with("flow_nef_consistency")
    assert first["script_T"] != first["T"] == first["one_over_tau"]


def test_a_wrong_degree_fails_the_scale_law_it_breaks(monkeypatch):
    closed_form = oracle.degree
    monkeypatch.setattr(oracle, "degree", lambda flag, d: closed_form(flag, d) + 1)
    full = build_flag(build_root_system("A", 2), ())
    outcome = check_scale_laws(full, (Fraction(1), Fraction(2)), 3)
    assert not outcome.passed
    ce = outcome.counterexample
    json.dumps(ce)
    assert (ce["check"], ce["k"], ce["law"]) == ("scale_laws", 3, "degree(kD) = k^n degree")
    assert (ce["left"], ce["right"]) == ("487", "513")  # 27 * 18 + 1 against 27 * (18 + 1)
    assert suite_fails_first_with("scale_laws")["law"] == "degree(kD) = k^n degree"


def test_a_wrong_pattern_count_fails_the_weyl_gt_grid(monkeypatch):
    count = oracle.gt_count
    monkeypatch.setattr(oracle, "gt_count", lambda rs, weight: count(rs, weight) + 1)
    outcome = check_weyl_gt_grid()
    assert not outcome.passed
    ce = outcome.counterexample
    assert (ce["check"], ce["rank"], ce["weight"]) == ("weyl_gt_grid", 1, [0])
    assert (ce["weyl_dim"], ce["gt_count"]) == (1, 2)
    assert suite_fails_first_with("weyl_gt_grid") == ce


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


def test_failing_suite_reports_the_first_counterexample_it_finds(monkeypatch):
    kernel = oracle.scalar_curvature
    monkeypatch.setattr(oracle, "scalar_curvature", lambda fs, t: kernel(fs, t) + 1)
    rep = run_suite(SuiteConfig(types=(("A", 1), ("A", 2))))
    assert not rep.exact_ok
    assert rep.checks["scalar_volume_identity"] == {"pass": 0, "fail": rep.instances}
    # the first instance run: A1, Theta empty, the Fano class, the first sampled time
    first = rep.first_counterexample
    assert (first["family"], first["rank"], first["theta"]) == ("A", 1, [])
    assert (first["check"], first["b"], first["t"]) == ("scalar_volume_identity", ["2"], "0")
    # the types run as listed
    first = run_suite(SuiteConfig(types=(("A", 2), ("A", 1)))).first_counterexample
    assert (first["rank"], first["theta"], first["b"]) == (2, [], ["2", "2"])


def test_suite_is_deterministic_for_a_seed():
    cfg = SuiteConfig(types=(("A", 2), ("B", 2)), classes_per_flag=2, seed=7)
    first = run_suite(cfg).as_dict()
    second = run_suite(cfg).as_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_different_seeds_draw_different_classes():
    cfg = SuiteConfig(types=(("A", 2),), classes_per_flag=3, seed=1)
    other = cfg._replace(seed=2)
    assert run_suite(cfg).exact_ok and run_suite(other).exact_ok


def bisection_nef(flag, coeffs, max_q=64):
    """brute_nef by bisection of p for each q, then the least p/q: the reference."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    p_cap = max_q * max(flag.fano)
    sides = [(c.numerator, l * c.denominator) for c, l in zip(coeffs, flag.fano)]
    best = None
    for q in range(1, max_q + 1):

        def fits(p):
            return all(p * c >= q * l for c, l in sides)

        if not fits(p_cap):
            continue
        candidate = Fraction(bisect.bisect_left(range(p_cap + 1), True, key=fits), q)
        if best is None or candidate < best:
            best = candidate
    certified = all(
        c.numerator <= max_q and l * c.denominator <= p_cap
        for c, l in zip(coeffs, flag.fano))
    return best if certified else None


def test_brute_nef_matches_a_bisection_reference():
    """Every flag of the suite's types, with random divisors: numerators past MAX_Q and
    denominators past p_cap / l_alpha both occur, so both inconclusive cases do."""
    rng = random.Random(8)
    outcomes = {"value": 0, "none": 0}
    for family, rank in SuiteConfig().types:
        for theta in _proper_subsets(rank):
            flag = build_flag(build_root_system(family, rank), theta)
            for top in (10, 64, 80, 150):
                d = tuple(Fraction(rng.randint(1, top), rng.randint(1, 160 - top))
                          for _ in flag.complement)
                expected = bisection_nef(flag, d)
                assert brute_nef(flag, d) == expected, (family, rank, theta, d)
                outcomes["none" if expected is None else "value"] += 1
    assert min(outcomes.values()) > 20, outcomes
