"""Each family's lowest and highest admitted rank through every command, checked from
outside: describe, flow --samples 3 and invariants run through cli.main with a seeded
theta, class and divisor, and perfbench/checks.py's Checker, which imports nothing of
flagflow, verifies each document against the classification and the request's inputs."""

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flagflow.cli import main
from flagflow.errors import all_digits
from flagflow.rootsys import RANK_RANGE

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import Checker  # noqa: E402
from workloads import Request  # noqa: E402

TYPES = [("A", 1), ("A", 70), ("B", 2), ("B", 50), ("C", 3), ("C", 50), ("D", 4), ("D", 50),
         ("E", 6), ("E", 8), ("F", 4), ("G", 2)]


def requests(family: str, rank: int) -> list[Request]:
    """describe, flow and invariants on one seeded theta: the Borel case half the time,
    else a random proper subset; small rationals, and a divisor of integers with an
    --lct-m in the Borel case, where the lct bound is stated."""
    rng = random.Random(f"{family}{rank}")
    size = 0 if rng.random() < 0.5 else rng.randrange(rank)
    theta = tuple(sorted(rng.sample(range(1, rank + 1), size)))

    def rationals(den: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(rng.randint(1, 10), rng.randint(1, den))
                     for _ in range(rank - size))

    borel = not theta
    return [Request("describe", family, rank, theta),
            Request("flow", family, rank, theta, kclass=rationals(10), samples=3),
            Request("invariants", family, rank, theta, divisor=rationals(1 if borel else 10),
                    lct_m=rng.randint(1, 3) if borel else None)]


def test_the_types_are_each_familys_lowest_and_highest_admitted_rank():
    assert TYPES == [(family, rank) for family, (lo, hi) in RANK_RANGE.items()
                     for rank in sorted({lo, hi})]
    assert len(TYPES) == 12


@pytest.mark.parametrize("family, rank", TYPES)
def test_every_command_answers_correctly_at_the_admitted_ranks(family, rank):
    checker = Checker()
    for req in requests(family, rank):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(req.argv())
        assert err.getvalue() == "", (req.command, err.getvalue()[-300:])
        with all_digits():  # A70 and D50 flows print values past 4300 digits
            checker.verify(req, code, out.getvalue())
    assert checker.exercised["describe.fano"] == 1 and checker.exercised["invariants.C"] == 1
    assert checker.exercised["flow.within"] == 3
