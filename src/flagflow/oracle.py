"""Independent verification harness for the flow and divisor formulas.

Polynomial identities are verified by exact evaluation at more rational
points than the degree bound, never by symbolic algebra. Floating
finite-difference checks are advisory and reported under their own
names; the exact checks are the contract, and a flow past the normal float
range fails the finite-difference check with the reason. Failures are reported
with a counterexample whose values are already JSON (errors.plain), never
raised; run_suite reports the first one it finds.

The two flow identities are checked root by root from the stored p_const,
p_slope and a, never from the kernel's T-root groups, and in integers: at
each time every P_beta is put over one denominator, so each comparison is one
integer equality. The bound chains are decided the same way, each bound as one
comparison of integer products, and bounds_report is compared with them once
per instance. Fractions are built only for a counterexample.

brute_nef takes, for each denominator q of its grid, the least numerator p
directly, as the largest ceiling of q * l_alpha / d_alpha.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product

from .dimcount import gt_count, weyl_dim
from .errors import normal_float, plain
from .flow import (
    BoundsReport,
    FlowSolution,
    bounds_report,
    make_flow,
    ricci_norm_sq,
    scalar_curvature,
    volume,
)
from .invariants import degree, nef_value, script_C, script_T
from .parabolic import ParabolicFlag, build_flag, require_ample
from .rootsys import build_root_system

DEFAULT_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
)

FD_CHECKS = frozenset({"ricci_identity_fd"})

MAX_COEFF = 10              # bound for random b numerators/denominators
SAMPLES_PER_INSTANCE = 10   # sampled times per instance for bound chains
FD_STEP = 1e-6
FD_TOL = 1e-6               # relative
MAX_Q = 64                  # nef brute-force denominator bound


class SuiteConfig(namedtuple("SuiteConfig", (
        "types",                # ((family, rank), ...)
        "classes_per_flag",     # random Kahler classes per flag (plus one Einstein)
        "seed"), defaults=(DEFAULT_TYPES, 3, 0))):
    """What run_suite covers: the types, the classes per flag and the seed."""
    __slots__ = ()


class CheckOutcome(namedtuple("CheckOutcome", (
        "passed",
        "counterexample"), defaults=(None,))):  # dict for a failure, else None
    """One check's verdict on one instance."""
    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", (
        "checks",               # name -> {"pass": ..., "fail": ...}
        "first_counterexample",  # dict or None
        "instances",
        "wall_time_s"))):
    """run_suite's pass and fail counts per check, with one counterexample."""
    __slots__ = ()

    @property
    def exact_ok(self) -> bool:
        return all(
            v["fail"] == 0 for k, v in self.checks.items() if k not in FD_CHECKS)

    @property
    def fd_ok(self) -> bool:
        return all(
            v["fail"] == 0 for k, v in self.checks.items() if k in FD_CHECKS)

    def as_dict(self) -> dict:
        return {
            "instances": self.instances,
            "wall_time_s": self.wall_time_s,
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
            "exact_ok": self.exact_ok,
            "fd_ok": self.fd_ok,
            "first_counterexample": self.first_counterexample,
        }


def _counterexample(flag: ParabolicFlag, **fields) -> dict:
    """A failing instance: its flag, then the fields in order, rationals as "p/q"
    in full, at any length."""
    return {
        "family": flag.rs.family,
        "rank": flag.rs.rank,
        "theta": list(flag.theta),
        **{name: plain(value) for name, value in fields.items()},
    }


def _sample(T: Fraction, k: int, parts: int) -> Fraction:
    """The time T * k / parts, reduced once."""
    return Fraction(T.numerator * k, T.denominator * parts)


def _cleared(fs: FlowSolution, parts: int):
    """(t, L, [M_beta]) at t = T k / parts for k = 0..parts-1, with P_beta(t) = M_beta / L
    read from p_const and p_slope alone: L = lcm(den(t), denominators of p_const),
    every M_beta an integer. p_const is put over its own lcm D once."""
    D = math.lcm(*(c.denominator for c in fs.p_const))
    nums = [c.numerator * (D // c.denominator) for c in fs.p_const]
    for k in range(parts):
        t = _sample(fs.T, k, parts)
        L = math.lcm(D, t.denominator)
        scale, shift = L // D, t.numerator * (L // t.denominator)
        yield t, L, [x * scale + s * shift for x, s in zip(nums, fs.p_slope)]


def _common_sums(terms: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(sum x_i E_i, sum y_i E_i, D) for terms (x_i, y_i, d_i): D = prod d_i and
    E_i = D / d_i. The quotients x_i / d_i and y_i / d_i are added left to
    right, unreduced, over a running denominator."""
    sx, sy, sd = 0, 0, 1
    for x, y, d in terms:
        sx, sy, sd = sx * d + x * sd, sy * d + y * sd, sd * d
    return sx, sy, sd


def check_scalar_volume_identity(fs: FlowSolution) -> CheckOutcome:
    """R(t) * Q(t) + Q'(t) = 0 for Q = prod P_beta, at n + 2 rational points.

    Both sides are polynomials of degree <= n, so n + 2 exact zeros force
    the identity. Over one denominator, P_beta = M_beta / L (_cleared), so
    with E_beta = prod_{gamma != beta} M_gamma and Q_M = prod M_beta

        R = L sum a_beta E_beta / Q_M,   Q' = sum s_beta E_beta / L^(n-1),

    and the residual R Q + Q' = sum (a_beta + s_beta) E_beta / L^(n-1) is zero
    iff that integer sum is. R reads the stored coefficients a_beta and Q'
    the stored slopes s_beta; the two only cancel when slope = -a. The flow
    kernel's grouped R must equal the per-root R at every point, compared by
    cross-multiplying integers. Fractions are built only for a counterexample.
    """
    n = fs.flag.n
    for t, L, ms in _cleared(fs, n + 2):
        residual, r, q = _common_sums(
            [(a + s, a, m) for a, s, m in zip(fs.a, fs.p_slope, ms)])
        kernel_r = scalar_curvature(fs, t)
        if residual or kernel_r.numerator * q != kernel_r.denominator * L * r:
            return CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="scalar_volume_identity", t=t,
                residual=Fraction(residual, L ** (n - 1)), R=Fraction(L * r, q),
                kernel_R=kernel_r))
    return CheckOutcome(True)


def _scalar_float(terms: list[tuple[int, float, float]], t: float) -> float:
    """R(t) in floats from the terms (a_beta, P_beta(0), slope_beta)."""
    return sum(a / (c + s * t) for a, c, s in terms)


def check_ricci_identity(fs: FlowSolution) -> tuple[CheckOutcome, CheckOutcome]:
    """dR/dt = |Ric|^2, exactly and by central finite differences.

    Over one denominator, as in check_scalar_volume_identity,

        dR/dt = L^2 sum -a_beta s_beta E_beta^2 / Q_M^2,
        |Ric|^2 = L^2 sum a_beta^2 E_beta^2 / Q_M^2:

    the derivative side uses the stored slopes, the norm side the stored
    coefficients, so corrupting either one breaks the equality of the two
    integer sums. The flow kernel's grouped |Ric|^2 must equal them, compared
    by cross-multiplying integers. Fractions are built only for a
    counterexample. Returns (exact outcome, finite-difference outcome).
    """
    n = fs.flag.n
    exact = CheckOutcome(True)
    for t, L, ms in _cleared(fs, n + 2):
        lhs, rhs, q_sq = _common_sums(
            [(-a * s, a * a, m * m) for a, s, m in zip(fs.a, fs.p_slope, ms)])
        kernel = ricci_norm_sq(fs, t)
        if lhs != rhs or kernel.numerator * q_sq != kernel.denominator * L * L * rhs:
            scale = Fraction(L * L, q_sq)
            exact = CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="ricci_identity_exact", t=t,
                dR_dt=lhs * scale, ricci_norm_sq=rhs * scale, kernel_ricci_norm_sq=kernel))
            break

    fd = CheckOutcome(True)
    try:
        h = min(FD_STEP, normal_float(fs.T) * 1e-3)
        terms = [(a, normal_float(c), normal_float(s))
                 for a, c, s in zip(fs.a, fs.p_const, fs.p_slope)]
        for j in range(1, 6):
            t = _sample(fs.T, j, 10)
            tf = normal_float(t)
            diff = (_scalar_float(terms, tf + h) - _scalar_float(terms, tf - h)) / (2 * h)
            truth = normal_float(ricci_norm_sq(fs, t))
            rel = abs(diff - truth) / abs(truth)
            if rel > FD_TOL:
                fd = CheckOutcome(False, _counterexample(
                    fs.flag, b=fs.b0, check="ricci_identity_fd", t=t,
                    finite_difference=repr(diff), ricci_norm_sq=repr(truth),
                    relative_error=repr(rel)))
                break
    except OverflowError as exc:  # a flow past the normal float range has no float check
        fd = CheckOutcome(False, _counterexample(
            fs.flag, b=fs.b0, check="ricci_identity_fd", reason=str(exc)))
    return exact, fd


def check_trajectory_bounds(fs: FlowSolution) -> dict[str, CheckOutcome]:
    """The verdicts of bounds_report, plus monotone R, Einstein closure and collapse
    at T, decided in integers at SAMPLES_PER_INSTANCE times.

    At t = T k / parts, with P_beta = M_beta / L (_cleared) root by root, the sums
    X / D = sum a_beta / M_beta and Y / D = sum a_beta^2 / M_beta^2 over
    D = prod M_beta^2 give R = L X / D and |Ric|^2 = L^2 Y / D, and Q = prod M_beta
    gives the volume coefficient Q / (L^n prod_beta <rho, h_beta^v>). With
    T - t = g / h and 1 - t/T = s / parts, s = parts - k, each bound is a comparison
    of integer products (D, h, L > 0):

        1 <= R (T - t) <= n                  h D <= L X g <= n h D
        R^2 / n <= |Ric|^2 <= R^2            Y D <= X^2 <= n Y D
        (s/parts)^n vol(0) <= vol(t)         s^n Q_0 L^n <= parts^n Q L_0^n
        vol(t) <= (s/parts) vol(0)           parts Q L_0^n <= s Q_0 L^n

    and so are R(t) > R(t') for the time t' before, and R (T - t) = n on an
    Einstein flow. At the last sampled time bounds_report's R, |Ric|^2, volume
    coefficient and verdicts must equal these, so the flow kernel stays under
    check. The collapse at T reads volume(fs, T). Fractions are built only for
    a counterexample.
    """
    n = fs.flag.n
    parts = SAMPLES_PER_INSTANCE
    outcomes: dict[str, CheckOutcome] = {}

    def fail(name: str, t, **extra) -> None:
        outcomes.setdefault(name, CheckOutcome(False, _counterexample(
            fs.flag, b=fs.b0, check=name, t=t, **extra)))

    h = fs.T.denominator * parts
    prev = None  # (L X, D) at the time before
    for k, (t, L, ms) in enumerate(_cleared(fs, parts)):
        x, y, d = _common_sums([(a * m, a * a, m * m) for a, m in zip(fs.a, ms)])
        q, ln = math.prod(ms), L ** n
        if k == 0:
            q0, l0n = q, ln
        s = parts - k
        lx = L * x
        rg, hd = lx * fs.T.numerator * s, h * d  # R (T - t) = L X g / (h D)
        verdicts = {
            "scalar_bounds": hd <= rg <= n * hd,
            "ricci_bounds": y * d <= x * x <= n * y * d,
            "volume_sandwich": (s ** n * q0 * ln <= parts ** n * q * l0n
                                and parts * q * l0n <= s * q0 * ln),
        }
        if not all(verdicts.values()):
            rho_product = fs.flag.rho_product
            rep = BoundsReport.from_values(
                fs, t, Fraction(lx, d), Fraction(L * L * y, d),
                Fraction(q, ln * rho_product), Fraction(q0, l0n * rho_product))
            for name, holds in verdicts.items():
                if not holds:
                    fail(name, t, **rep._asdict())
        if prev is not None and not lx * prev[1] > prev[0] * d:
            fail("monotone_scalar", t, R=Fraction(lx, d), previous=Fraction(*prev))
        if fs.einstein and rg != n * hd:
            fail("einstein_closure", t, R_times_gap=Fraction(rg, hd), n=n)
        if k == parts - 1:
            rep = bounds_report(fs, t)
            kernel = rep.verdicts()
            agree = {
                "scalar_bounds": rep.R.numerator * d == rep.R.denominator * lx,
                "ricci_bounds": rep.ricci_norm_sq.numerator * d
                == rep.ricci_norm_sq.denominator * L * L * y,
                "volume_sandwich": rep.vol_coeff.numerator * ln * fs.flag.rho_product
                == rep.vol_coeff.denominator * q,
            }
            for name, same in agree.items():
                if not (same and kernel[name] == verdicts[name]):
                    fail(name, t, **rep._asdict())
        prev = lx, d

    vol_at_T = volume(fs, fs.T)
    if vol_at_T != 0:
        fail("volume_zero_at_T", fs.T, vol=vol_at_T)

    for name in ("scalar_bounds", "ricci_bounds", "volume_sandwich",
                 "monotone_scalar", "volume_zero_at_T"):
        outcomes.setdefault(name, CheckOutcome(True))
    if fs.einstein:
        outcomes.setdefault("einstein_closure", CheckOutcome(True))
    return outcomes


def brute_nef(flag: ParabolicFlag, coeffs) -> Fraction | None:
    """Nef value by grid search over p/q: minimize p/q with p*D + q*K >= 0.

    For each q <= MAX_Q = 64 the least p with p * d_alpha >= q * l_alpha for
    every alpha is max_alpha ceil(q * l_alpha / d_alpha), taken when it lies in
    [0, p_cap = MAX_Q max l_alpha]. Returns None ("inconclusive") when the
    grid cannot certify the exact value; never a wrong answer. The certificate
    is that every reduced numerator of d_alpha is <= MAX_Q and the needed p
    fits the p range; q = 1 then always has a p in range.
    """
    require_ample(flag, coeffs)
    coeffs = tuple(Fraction(c) for c in coeffs)
    p_cap = MAX_Q * max(flag.fano)
    # p * d_alpha >= q * l_alpha, cleared of the denominator of d_alpha
    sides = [(c.numerator, l * c.denominator) for c, l in zip(coeffs, flag.fano)]
    if not all(c <= MAX_Q and l <= p_cap for c, l in sides):
        return None
    best_p, best_q = p_cap + 1, 1  # above every p/q in range
    for q in range(1, MAX_Q + 1):
        p = max(-(-q * l // c) for c, l in sides)
        if p <= p_cap and p * best_q < best_p * q:
            best_p, best_q = p, q
    return Fraction(best_p, best_q)


def check_nef_consistency(flag: ParabolicFlag, coeffs) -> dict[str, CheckOutcome]:
    """brute_nef agrees with the closed form; flow time equals 1/tau."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    out: dict[str, CheckOutcome] = {}
    tau = nef_value(flag, coeffs)
    found = brute_nef(flag, coeffs)
    if found != tau:
        out["nef_brute_match"] = CheckOutcome(False, _counterexample(
            flag, d=coeffs, check="nef_brute_match", closed_form=tau, brute_force=found))
    fs = make_flow(flag, coeffs)
    closed_form = script_T(flag, coeffs)
    if fs.T != closed_form or fs.T * tau != 1:
        out["flow_nef_consistency"] = CheckOutcome(False, _counterexample(
            flag, d=coeffs, check="flow_nef_consistency", T=fs.T, script_T=closed_form,
            one_over_tau=1 / tau))
    out.setdefault("nef_brute_match", CheckOutcome(True))
    out.setdefault("flow_nef_consistency", CheckOutcome(True))
    return out


def check_scale_laws(flag: ParabolicFlag, coeffs, k: int) -> CheckOutcome:
    """tau(kD) = tau/k,  T(kD) = kT,  C(kD) = kC,  degree(kD) = k^n degree."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    scaled = tuple(k * c for c in coeffs)
    laws = (
        ("tau(kD) = tau/k", nef_value(flag, scaled), nef_value(flag, coeffs) / k),
        ("T(kD) = kT", script_T(flag, scaled), k * script_T(flag, coeffs)),
        ("C(kD) = kC", script_C(flag, scaled), k * script_C(flag, coeffs)),
        ("degree(kD) = k^n degree", degree(flag, scaled),
         Fraction(k) ** flag.n * degree(flag, coeffs)),
    )
    for law, left, right in laws:
        if left != right:
            return CheckOutcome(False, _counterexample(
                flag, d=coeffs, check="scale_laws", k=k, law=law, left=left, right=right))
    return CheckOutcome(True)


def check_weyl_gt_grid() -> CheckOutcome:
    """weyl_dim = gt_count on all A1-A3 dominant weights with coordinates <= 3."""
    for rank in (1, 2, 3):
        rs = build_root_system("A", rank)
        for coords in product(range(4), repeat=rank):
            w = weyl_dim(rs, coords)
            g = gt_count(rs, coords)
            if w != g:
                return CheckOutcome(False, {
                    "check": "weyl_gt_grid",
                    "family": "A",
                    "rank": rank,
                    "weight": list(coords),
                    "weyl_dim": w,
                    "gt_count": g,
                })
    return CheckOutcome(True)


def _proper_subsets(rank: int) -> list[tuple[int, ...]]:
    items = range(1, rank + 1)
    out: list[tuple[int, ...]] = []
    for size in range(rank):
        out.extend(combinations(items, size))
    return out


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> SuiteReport:
    """Run every check over the configured types; deterministic given seed.
    The counterexample reported is the first one found, in the order run."""
    rng = random.Random(cfg.seed)
    start = time.monotonic()
    counts: dict[str, dict[str, int]] = {}
    counterexamples: list[dict] = []
    instances = 0

    def record(name: str, outcome: CheckOutcome) -> None:
        slot = counts.setdefault(name, {"pass": 0, "fail": 0})
        slot["pass" if outcome.passed else "fail"] += 1
        if outcome.counterexample is not None:
            counterexamples.append(outcome.counterexample)

    for family, rank in cfg.types:
        rs = build_root_system(family, rank)
        for theta in _proper_subsets(rank):
            flag = build_flag(rs, theta)
            classes = [flag.fano]
            for _ in range(cfg.classes_per_flag):
                classes.append(tuple(
                    Fraction(rng.randint(1, MAX_COEFF), rng.randint(1, MAX_COEFF))
                    for _ in flag.complement))
            for b in classes:
                fs = make_flow(flag, b)
                instances += 1
                record("scalar_volume_identity", check_scalar_volume_identity(fs))
                exact, fd = check_ricci_identity(fs)
                record("ricci_identity_exact", exact)
                record("ricci_identity_fd", fd)
                for name, outcome in check_trajectory_bounds(fs).items():
                    record(name, outcome)
            divisor = tuple(
                Fraction(rng.randint(1, MAX_COEFF)) for _ in flag.complement)
            for name, outcome in check_nef_consistency(flag, divisor).items():
                record(name, outcome)
            record("scale_laws", check_scale_laws(flag, divisor, rng.randint(2, 4)))

    record("weyl_gt_grid", check_weyl_gt_grid())
    return SuiteReport(
        checks=counts,
        first_counterexample=next(iter(counterexamples), None),
        instances=instances,
        wall_time_s=time.monotonic() - start,
    )
