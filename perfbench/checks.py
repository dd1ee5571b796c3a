"""Independent checks of flagflow's JSON responses.

Nothing here imports flagflow. Expected values come from the
classification of the simple Lie algebras (positive-root counts, Dynkin
diagrams) and from exact arithmetic on the request's own inputs and the
fields of the response, so a defect in flagflow cannot hide behind the
same defect in its checker.

The Fano coefficients are recomputed from the Cartan matrix alone:
delta_P = 2 rho - 2 rho_Theta, and 2 rho_Theta = sum_{s in Theta} c_s alpha_s
is the unique combination with <2 rho_Theta, alpha_s^v> = 2 for every s in
Theta. Since <2 rho, alpha^v> = 2 for every simple root,
l_alpha = 2 - sum_s c_s <alpha_s, alpha^v>. flagflow instead sums the
complementary positive roots, so the two share no code path.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction


class CheckFailed(Exception):
    """A response that is not a correct answer to its request."""


def positive_root_count(family: str, rank: int) -> int:
    """Number of positive roots of the simple type, by the classification."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
            ("F", 4): 24, ("G", 2): 6}[family, rank]


def _bonds(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Dynkin bonds (i, j, <alpha_i, alpha_j^v>, <alpha_j, alpha_i^v>), Bourbaki labels."""
    if family == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][:rank - 1]
        return [(i, j, -1, -1) for i, j in zip(chain, chain[1:])] + [(2, 4, -1, -1)]
    if family == "D":
        return [(i, i + 1, -1, -1) for i in range(1, rank - 1)] + [(rank - 2, rank, -1, -1)]
    if family == "G":
        return [(1, 2, -1, -3)]          # alpha_2 long
    bonds = [(i, i + 1, -1, -1) for i in range(1, rank)]
    double = {"B": (rank - 1, rank, -2, -1),   # alpha_l short
              "C": (rank - 1, rank, -1, -2),   # alpha_l long
              "F": (2, 3, -2, -1)}.get(family)  # alpha_3, alpha_4 short
    if double is not None:
        bonds = [b for b in bonds if b[:2] != double[:2]] + [double]
    return bonds


def cartan(family: str, rank: int) -> list[list[int]]:
    """a[i][j] = <alpha_{i+1}, alpha_{j+1}^v>."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, aij, aji in _bonds(family, rank):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
    return a


def _solve(m: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over the rationals; m is square and invertible."""
    rows = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(m, rhs)]
    size = len(rows)
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def fano(family: str, rank: int, theta) -> tuple[int, ...]:
    """Fano coefficients l_alpha over the complement of Theta, ascending."""
    a = cartan(family, rank)
    th = sorted(theta)
    c = _solve([[a[t - 1][s - 1] for t in th] for s in th], [Fraction(2)] * len(th))
    out = []
    for j in range(1, rank + 1):
        if j not in th:
            l = 2 - sum(ct * a[t - 1][j - 1] for ct, t in zip(c, th))
            if l.denominator != 1 or l <= 0:
                raise ValueError(f"Fano coefficient {l} for {family}{rank} theta={th}")
            out.append(int(l))
    return tuple(out)


class Checker:
    """Verifies responses and counts how often each named check ran."""

    def __init__(self) -> None:
        self.exercised: Counter[str] = Counter()
        self.check_instances: int | None = None

    def verify(self, req, returncode: int, stdout: str) -> dict:
        """Return the parsed document, or raise CheckFailed."""
        self._require("exit_code", returncode == 0, f"exit {returncode}")
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"unparsable JSON: {exc}") from exc
        try:
            getattr(self, "_" + req.command)(req, doc["result"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CheckFailed(f"malformed {req.command} result: {exc!r}") from exc
        return doc

    def _require(self, name: str, ok: bool, detail: str = "") -> None:
        self.exercised[name] += 1
        if not ok:
            raise CheckFailed(f"{name}: {detail}")

    def _describe(self, req, res: dict) -> None:
        count = positive_root_count(req.family, req.rank)
        self._require("describe.positive_roots", len(res["positive_roots"]) == count,
                      f"{len(res['positive_roots'])} != {count}")
        self._require("describe.comp_pos_roots_n", len(res["comp_pos_roots"]) == res["n"],
                      f"{len(res['comp_pos_roots'])} != n = {res['n']}")
        if not req.theta:
            self._require("describe.borel_n", res["n"] == count, f"n = {res['n']} != {count}")
        expect = list(fano(req.family, req.rank, req.theta))
        self._require("describe.fano", res["fano"] == expect, f"{res['fano']} != {expect}")

    def _flow(self, req, res: dict) -> None:
        l = fano(req.family, req.rank, req.theta)
        b = req.kclass
        n = res["n"]
        T = Fraction(res["T"])
        expect_T = min(x / y for x, y in zip(b, l))
        self._require("flow.T", T == expect_T, f"T = {T} != {expect_T}")
        self._require("flow.sample_count", len(res["samples"]) == (req.samples or 10),
                      f"{len(res['samples'])} samples")
        einstein = len({x / y for x, y in zip(b, l)}) == 1
        self._require("flow.einstein_flag", res["einstein"] is einstein,
                      f"einstein = {res['einstein']}")
        for s in res["samples"]:
            t = Fraction(s["t"])
            r = Fraction(s["R"])
            bounds = s["bounds"]
            lo, hi = Fraction(bounds["R_lower"]), Fraction(bounds["R_upper"])
            self._require("flow.within", bounds["within"] is True and lo <= r <= hi,
                          f"t = {t}: R = {r} outside [{lo}, {hi}]")
            self._require("flow.R_bound_values", lo == 1 / (T - t) and hi == n / (T - t),
                          f"t = {t}: bounds [{lo}, {hi}]")
            if einstein:
                self._require("flow.einstein_R", r * (T - t) == n, f"t = {t}: R(T-t) = {r * (T - t)}")
        if einstein:
            self._require("flow.einstein_closure", res.get("R_times_T_minus_t") == str(n),
                          f"R_times_T_minus_t = {res.get('R_times_T_minus_t')!r}")

    def _invariants(self, req, res: dict) -> None:
        l = fano(req.family, req.rank, req.theta)
        d = req.divisor
        tau = Fraction(res["tau"])
        expect_tau = max(Fraction(y) / x for x, y in zip(d, l))
        self._require("invariants.tau", tau == expect_tau, f"tau = {tau} != {expect_tau}")
        self._require("invariants.T_tau", Fraction(res["T"]) * tau == 1, f"T = {res['T']}")
        c = 2 * max(x / y for x, y in zip(d, l))
        self._require("invariants.C", Fraction(res["C"]) == c, f"C = {res['C']} != {c}")
        dim_v = res["dimV"]
        if all(x.denominator == 1 for x in d):
            self._require("invariants.dimV", type(dim_v) is int and dim_v > 1, f"dimV = {dim_v!r}")
        else:
            self._require("invariants.dimV_null", dim_v is None, f"dimV = {dim_v!r}")
        if req.lct_m is not None:
            lct = res["lct"]
            m = req.lct_m
            c_md = m * c
            self._require("invariants.lct", Fraction(lct["bound"]) == m / c_md
                          and lct["klt"] is (c_md < m) and lct["lc"] is (c_md <= m),
                          f"lct = {lct}")

    def _check(self, req, res: dict) -> None:
        self._require("check.exact_ok", res["exact_ok"] is True, f"exact_ok = {res['exact_ok']!r}")
        count = res["instances"]
        if self.check_instances is None:
            self.check_instances = count
        self._require("check.instances_stable", type(count) is int and count > 0
                      and count == self.check_instances,
                      f"{count} instances, earlier {self.check_instances}")
