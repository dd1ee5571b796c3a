"""Library contract, the counterpart of test_cli_contract.py: hostile values go into
every public function of rootsys, parabolic, flow, invariants, dimcount and oracle on
A1-A3. Each call returns or raises DomainError with a short message; diameter_bound
may raise OverflowError, as documented. Every oracle check on a flow returns
outcomes, on a flow whose P_beta vanishes before T too, and their counterexamples hold
exact values that json.dumps writes with errors.plain."""

import inspect
import json
from fractions import Fraction

import pytest

import flagflow.dimcount as dimcount
import flagflow.flow as flow
import flagflow.invariants as invariants
import flagflow.oracle as oracle
import flagflow.parabolic as parabolic
import flagflow.rootsys as rootsys
from flagflow.errors import DomainError, plain

MODULES = (rootsys, parabolic, flow, invariants, dimcount, oracle)
HUGE = 10 ** 4300   # past Python's 4300-digit int-string limit
BIG = 10 ** 400     # above the float range
TINY = Fraction(1, BIG)  # below it
# values for rational parameters: classes, divisors, times and weights
RATIONALS = (HUGE, Fraction(1, HUGE), BIG, TINY, -BIG, Fraction(-3, 2), 0, 1)
# values for integer parameters: ranks, indices, multiples and seeds
INTEGERS = (HUGE, BIG, -HUGE, -1, 0, 2)
MESSAGE_LIMIT = 700
GT_BUDGET = 50
# A1 flows of b = 2 on flags whose last a_beta is too large by 1 and by 2: P_beta(t) =
# 2 - 3t vanishes at 2T/3, a time the identity checks sample, and 2 - 4t at T/2, a time
# the finite-difference check samples
_P1 = parabolic.build_flag(rootsys.build_root_system("A", 1), ())
POLE_FLOWS = tuple(flow.make_flow(_P1._replace(a=_P1.a[:-1] + (_P1.a[-1] + k,)), (2,))
                   for k in (1, 2))


def public_functions() -> set[str]:
    """The names of the modules' public functions; an alias counts as its function."""
    return {value.__name__ for module in MODULES for value in vars(module).values()
            if inspect.isfunction(inspect.unwrap(value)) and value.__module__ == module.__name__
            and not value.__name__.startswith("_")}


def vectors(length: int) -> list[tuple]:
    """Every hostile value in every place, one hostile entry among ones, and the two
    wrong lengths either side."""
    out = [(v,) * length for v in RATIONALS]
    out += [(v,) + (1,) * (length - 1) for v in RATIONALS]
    return list(dict.fromkeys(out + [(1,) * (length + 1), (1,) * (length - 1)]))


def calls(rank: int):
    """(function name, thunk) for every public function, on A`rank` and its flags."""
    for family, r in (("A", rank), ("A", HUGE), ("A", -1), ("Q" * 100_000, rank)):
        yield "validate_type", lambda: rootsys.validate_type(family, r)
        yield "cartan_matrix", lambda: rootsys.cartan_matrix(family, r)
        yield "build_root_system", lambda: rootsys.build_root_system(family, r)
    rs = rootsys.build_root_system("A", rank)
    yield "rho", lambda: rootsys.rho(rs)
    yield "check_weyl_gt_grid", oracle.check_weyl_gt_grid
    for w in vectors(rank):
        yield "require_rank", lambda: rootsys.require_rank(rs, w)
        yield "fund_coords", lambda: rootsys.fund_coords(rs, w)
        yield "weyl_dim", lambda: dimcount.weyl_dim(rs, w)
        yield "gt_count", lambda: dimcount.gt_count(rs, w, GT_BUDGET)
        for idx in (0, *INTEGERS):
            yield "pairing", lambda: rootsys.pairing(rs, w, idx)
    for idx in INTEGERS:
        yield "rho_pairing", lambda: rootsys.rho_pairing(rs, idx)
        yield "build_flag", lambda: parabolic.build_flag(rs, (idx,))
        yield "run_suite", lambda: oracle.run_suite(oracle.SuiteConfig((("A", 1),), 1, idx))
        yield "run_suite", lambda: oracle.run_suite(oracle.SuiteConfig((("A", idx),), 0))
    # a projective space, and the Borel flag up to rank 2: past that, flows at these
    # sizes take seconds
    for theta in dict.fromkeys([tuple(range(2, rank + 1))] + [()] * (rank < 3)):
        flag = parabolic.build_flag(rs, theta)
        yield "canonical_divisor", lambda: parabolic.canonical_divisor(flag)
        for b in vectors(len(flag.complement)):
            yield from flag_calls(flag, b)


def flag_calls(flag, b):
    """Calls on one flag with one class or divisor b, and on its flow if b has one; the
    flow checks run on POLE_FLOWS too."""
    for name in ("require_length", "char_of_divisor", "is_ample", "require_ample"):
        yield name, lambda f=getattr(parabolic, name): f(flag, b)
    yield "is_integral", lambda: parabolic.is_integral(b)
    for name in ("nef_value", "script_T", "script_C", "degree", "invariants_of"):
        yield name, lambda f=getattr(invariants, name): f(flag, b)
    yield "brute_nef", lambda: oracle.brute_nef(flag, b)
    yield "check_nef_consistency", lambda: oracle.check_nef_consistency(flag, b)
    for m in INTEGERS:
        yield "lct_lower", lambda: invariants.lct_lower(flag, b, m)
        yield "check_scale_laws", lambda: oracle.check_scale_laws(flag, b, m)
    yield "make_flow", lambda: flow.make_flow(flag, b)
    try:
        fs = flow.make_flow(flag, b)
    except DomainError:
        return
    yield "diameter_bound", lambda: flow.diameter_bound(fs)
    for t in (HUGE, TINY, -1, fs.T, fs.T / 2):  # past T, tiny, negative, T and inside
        for name in ("class_at", "scalar_curvature", "ricci_norm_sq", "volume",
                     "bounds_report", "lambda1_bounds"):
            yield name, lambda f=getattr(flow, name): f(fs, t)
    for name in ("check_scalar_volume_identity", "check_ricci_identity",
                 "check_trajectory_bounds"):
        for f_s in (fs, *POLE_FLOWS):
            yield name, lambda f=getattr(oracle, name), f_s=f_s: f(f_s)


def outcomes(result) -> list:
    """What an oracle check returned, one outcome, a tuple or a dict of them, as a list."""
    if isinstance(result, oracle.CheckOutcome):
        return [result]
    return list(result.values() if isinstance(result, dict) else result)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_every_public_function_returns_or_refuses(rank):
    seen = set()
    for name, call in calls(rank):
        seen.add(name)
        allowed = (DomainError, OverflowError) if name == "diameter_bound" else DomainError
        try:
            result = call()
        except allowed as exc:
            assert len(str(exc)) < MESSAGE_LIMIT, (name, str(exc)[:200])
            continue
        except Exception as exc:  # noqa: BLE001 - the contract is what is raised
            pytest.fail(f"{name} raised {type(exc).__name__}: {str(exc)[:200]}")
        if name.startswith("check_"):
            got = outcomes(result)
            assert got and all(isinstance(x, oracle.CheckOutcome) for x in got), (name, result)
            for outcome in got:
                json.dumps(outcome.counterexample, default=plain)  # at any length
    assert seen == public_functions(), public_functions() ^ seen


@pytest.mark.parametrize("b", [(BIG, BIG), (TINY, 2 * TINY), (HUGE, 1)],
                         ids=["10^400", "10^-400", "10^4300"])
def test_finite_differences_report_a_flow_past_the_float_range(b):
    fs = flow.make_flow(parabolic.build_flag(rootsys.build_root_system("A", 2), ()), b)
    exact, fd = oracle.check_ricci_identity(fs)
    assert exact.passed
    assert not fd.passed
    ce = fd.counterexample
    assert ce["check"] == "ricci_identity_fd" and ce["reason"]
    assert len(ce["reason"]) < MESSAGE_LIMIT


@pytest.mark.parametrize("weight", [(1,), (1, 1, 1, 7, 9), ()])
def test_pairing_and_fund_coords_refuse_a_wrong_length(weight):
    rs = rootsys.build_root_system("A", 3)
    with pytest.raises(DomainError, match="expected 3"):
        rootsys.pairing(rs, weight, 5)
    with pytest.raises(DomainError, match="expected 3"):
        rootsys.fund_coords(rs, weight)


def test_messages_show_values_past_4300_digits_by_their_size():
    rs = rootsys.build_root_system("A", 2)
    for call in (lambda: dimcount.weyl_dim(rs, (Fraction(1, HUGE), 1)),
                 lambda: dimcount.gt_count(rs, (Fraction(1, HUGE), 1)),
                 lambda: rootsys.pairing(rs, (1, 1), HUGE),
                 lambda: rootsys.rho_pairing(rs, HUGE)):
        with pytest.raises(DomainError, match="-bit number>"):
            call()
