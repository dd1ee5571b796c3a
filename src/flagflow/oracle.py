"""Independent verification harness for the flow and divisor formulas.

Polynomial identities are verified by exact evaluation at more rational
points than the degree bound, never by symbolic algebra. Floating
finite-difference checks are advisory and reported under their own
names; the exact checks are the contract. Failures are reported with a
fully serialized counterexample, never raised.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, product

from .dimcount import gt_count, weyl_dim
from .flow import (
    FlowSolution,
    bounds_report,
    make_flow,
    p_values,
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


@dataclass(frozen=True)
class SuiteConfig:
    types: tuple[tuple[str, int], ...] = DEFAULT_TYPES
    classes_per_flag: int = 3       # random Kahler classes per flag (plus one Einstein)
    seed: int = 0


@dataclass(frozen=True)
class CheckOutcome:
    passed: bool
    counterexample: dict | None = None


@dataclass
class SuiteReport:
    checks: dict[str, dict[str, int]]   # name -> {"pass": ..., "fail": ...}
    first_counterexample: dict | None
    instances: int
    wall_time_s: float

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


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _counterexample(flag: ParabolicFlag, **fields) -> dict:
    """A failing instance: its flag, then the fields in order, rationals as "p/q"."""
    return {
        "family": flag.rs.family,
        "rank": flag.rs.rank,
        "theta": list(flag.theta),
        **{name: _plain(value) for name, value in fields.items()},
    }


def check_scalar_volume_identity(fs: FlowSolution) -> CheckOutcome:
    """R(t) * Q(t) + Q'(t) = 0 for Q = prod P_beta, at n + 2 rational points.

    Both sides are polynomials of degree <= n, so n + 2 exact zeros force
    the identity. Q' is evaluated from the stored slopes; R from the
    stored coefficients a_beta. The two only cancel when slope = -a.
    """
    n = fs.flag.n
    for k in range(n + 2):
        t = fs.T * k / (n + 2)
        ps = p_values(fs, t)
        q = Fraction(1)
        for p in ps:
            q *= p
        qprime = Fraction(0)
        for i, s in enumerate(fs.p_slope):
            term = s
            for j, p in enumerate(ps):
                if j != i:
                    term *= p
            qprime += term
        residual = scalar_curvature(fs, t) * q + qprime
        if residual != 0:
            return CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="scalar_volume_identity", t=t, residual=residual))
    return CheckOutcome(True)


def _scalar_float(fs: FlowSolution, t: float) -> float:
    return sum(
        a / (float(c) + float(s) * t)
        for a, c, s in zip(fs.a, fs.p_const, fs.p_slope))


def check_ricci_identity(
    fs: FlowSolution, fd_step: float = FD_STEP, fd_tol: float = FD_TOL,
) -> tuple[CheckOutcome, CheckOutcome]:
    """dR/dt = |Ric|^2, exactly and by central finite differences.

    The derivative side uses the stored slopes, the norm side the stored
    coefficients, so corrupting either one breaks the equality. Returns
    (exact outcome, finite-difference outcome).
    """
    n = fs.flag.n
    exact = CheckOutcome(True)
    for k in range(n + 2):
        t = fs.T * k / (n + 2)
        lhs = Fraction(0)
        for a, p, s in zip(fs.a, p_values(fs, t), fs.p_slope):
            lhs += -Fraction(a) * s / (p * p)
        rhs = ricci_norm_sq(fs, t)
        if lhs != rhs:
            exact = CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="ricci_identity_exact", t=t,
                dR_dt=lhs, ricci_norm_sq=rhs))
            break

    fd = CheckOutcome(True)
    h = min(fd_step, float(fs.T) * 1e-3)
    for j in range(1, 6):
        t = fs.T * j / 10
        tf = float(t)
        diff = (_scalar_float(fs, tf + h) - _scalar_float(fs, tf - h)) / (2 * h)
        truth = float(ricci_norm_sq(fs, t))
        rel = abs(diff - truth) / abs(truth)
        if rel > fd_tol:
            fd = CheckOutcome(False, _counterexample(
                fs.flag, b=fs.b0, check="ricci_identity_fd", t=t,
                finite_difference=repr(diff), ricci_norm_sq=repr(truth),
                relative_error=repr(rel)))
            break
    return exact, fd


def check_trajectory_bounds(fs: FlowSolution, samples: int) -> dict[str, CheckOutcome]:
    """The verdicts of bounds_report, plus monotone R, Einstein closure and collapse at T."""
    outcomes: dict[str, CheckOutcome] = {}

    def fail(name: str, t, **extra) -> None:
        outcomes.setdefault(name, CheckOutcome(False, _counterexample(
            fs.flag, b=fs.b0, check=name, t=t, **extra)))

    prev_r = None
    for t in (fs.T * j / samples for j in range(samples)):
        rep = bounds_report(fs, t)
        r = rep.R
        for name, holds in rep.verdicts().items():
            if not holds:
                fail(name, t, **asdict(rep))
        if prev_r is not None and not r > prev_r:
            fail("monotone_scalar", t, R=r, previous=prev_r)
        if fs.einstein and not rep.r_upper_attained:
            fail("einstein_closure", t, R_times_gap=r * (fs.T - t), n=fs.flag.n)
        prev_r = r

    vol_at_T = volume(fs, fs.T)
    if vol_at_T != 0:
        fail("volume_zero_at_T", fs.T, vol=vol_at_T)

    for name in ("scalar_bounds", "ricci_bounds", "volume_sandwich",
                 "monotone_scalar", "volume_zero_at_T"):
        outcomes.setdefault(name, CheckOutcome(True))
    if fs.einstein:
        outcomes.setdefault("einstein_closure", CheckOutcome(True))
    return outcomes


def brute_nef(flag: ParabolicFlag, coeffs, max_q: int = MAX_Q) -> Fraction | None:
    """Nef value by grid search over p/q: minimize p/q with p*D + q*K >= 0.

    Returns None ("inconclusive") when the grid cannot certify the exact
    value; never a wrong answer. The certificate is that every reduced
    numerator of d_alpha is <= max_q and the needed p fits the p range.
    """
    require_ample(flag, coeffs)
    coeffs = tuple(Fraction(c) for c in coeffs)
    p_cap = max_q * max(flag.fano)
    best: Fraction | None = None
    for q in range(1, max_q + 1):
        for p in range(0, p_cap + 1):
            if all(p * c >= q * l for c, l in zip(coeffs, flag.fano)):
                candidate = Fraction(p, q)
                if best is None or candidate < best:
                    best = candidate
                break
    certified = all(
        c.numerator <= max_q and l * c.denominator <= p_cap
        for c, l in zip(coeffs, flag.fano))
    return best if certified else None


def check_nef_consistency(
    flag: ParabolicFlag, coeffs, max_q: int,
) -> dict[str, CheckOutcome]:
    """brute_nef agrees with the closed form; flow time equals 1/tau."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    out: dict[str, CheckOutcome] = {}
    tau = nef_value(flag, coeffs)
    found = brute_nef(flag, coeffs, max_q)
    if found != tau:
        out["nef_brute_match"] = CheckOutcome(False, _counterexample(
            flag, d=coeffs, check="nef_brute_match", closed_form=tau, brute_force=found))
    fs = make_flow(flag, coeffs)
    if fs.T != script_T(flag, coeffs) or fs.T * tau != 1:
        out["flow_nef_consistency"] = CheckOutcome(False, _counterexample(
            flag, d=coeffs, check="flow_nef_consistency", T=fs.T, one_over_tau=1 / tau))
    out.setdefault("nef_brute_match", CheckOutcome(True))
    out.setdefault("flow_nef_consistency", CheckOutcome(True))
    return out


def check_scale_laws(flag: ParabolicFlag, coeffs, k: int) -> CheckOutcome:
    """tau(kD) = tau/k,  T(kD) = kT,  C(kD) = kC,  degree(kD) = k^n degree."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    scaled = tuple(k * c for c in coeffs)
    ok = (
        nef_value(flag, scaled) == nef_value(flag, coeffs) / k
        and script_T(flag, scaled) == k * script_T(flag, coeffs)
        and script_C(flag, scaled) == k * script_C(flag, coeffs)
        and degree(flag, scaled) == Fraction(k) ** flag.n * degree(flag, coeffs)
    )
    if ok:
        return CheckOutcome(True)
    return CheckOutcome(False, _counterexample(flag, d=coeffs, check="scale_laws", k=k))


def check_weyl_gt_grid(max_coord: int = 3) -> CheckOutcome:
    """weyl_dim = gt_count on all A1-A3 dominant weights with coords <= max_coord."""
    for rank in (1, 2, 3):
        rs = build_root_system("A", rank)
        for coords in product(range(max_coord + 1), repeat=rank):
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
    """Run every check over the configured types; deterministic given seed."""
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
            classes = [tuple(Fraction(l) for l in flag.fano)]
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
                for name, outcome in check_trajectory_bounds(fs, SAMPLES_PER_INSTANCE).items():
                    record(name, outcome)
            divisor = tuple(
                Fraction(rng.randint(1, MAX_COEFF)) for _ in flag.complement)
            for name, outcome in check_nef_consistency(flag, divisor, MAX_Q).items():
                record(name, outcome)
            record("scale_laws", check_scale_laws(flag, divisor, rng.randint(2, 4)))

    record("weyl_gt_grid", check_weyl_gt_grid())

    first = None
    if counterexamples:
        first = min(counterexamples, key=lambda c: json.dumps(c, sort_keys=True))
    return SuiteReport(
        checks=counts,
        first_counterexample=first,
        instances=instances,
        wall_time_s=time.monotonic() - start,
    )
