"""Seeded request streams for the three benchmark workloads.

A workload is an endless stream of requests made from one seed; the same
seed gives the same stream. The CLI workloads walk a fixed cycle of
(type, Theta, command) shapes, so a run of any length sees the shapes in
the same proportions and only the numbers in the requests depend on the
seed. Theta is either empty (the Borel case) or the odd-numbered simple
roots; A1 has no odd case because Theta would be the whole simple set.
Each cli-large cycle ends with one `flagflow check`, whose suite seed is
drawn from the seed like every other number in the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

from checks import fano

# Interpreter start, import and JSON writing dominate these.
SMALL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
               ("C", 3), ("D", 4), ("F", 4), ("G", 2))
# n = 115-240: Fraction sums and products over the complementary roots dominate.
LARGE_TYPES = (("E", 8), ("A", 20), ("D", 16))
COMMANDS = ("describe", "flow", "invariants")

SMALL_MAX = 10
WIDE_BITS = 16
LARGE_SAMPLES = 20


@dataclass(frozen=True)
class Request:
    """One flagflow invocation, as the benchmark generated it."""

    command: str
    family: str = ""
    rank: int = 0
    theta: tuple[int, ...] = ()
    kclass: tuple[Fraction, ...] | None = None
    divisor: tuple[Fraction, ...] | None = None
    samples: int | None = None
    lct_m: int | None = None
    seed: int | None = None

    def argv(self) -> list[str]:
        if self.command == "check":
            return ["check", "--seed", str(self.seed)]
        out = [self.command, "--type", self.family, "--rank", str(self.rank)]
        if self.theta:
            out += ["--theta", ",".join(map(str, self.theta))]
        if self.kclass is not None:
            out += ["--class", ",".join(map(str, self.kclass))]
        if self.divisor is not None:
            out += ["--divisor", ",".join(map(str, self.divisor))]
        if self.samples is not None:
            out += ["--samples", str(self.samples)]
        if self.lct_m is not None:
            out += ["--lct-m", str(self.lct_m)]
        return out

    def input_bits(self) -> int:
        """Largest numerator or denominator bit length among the rational inputs."""
        values = (self.kclass or ()) + (self.divisor or ())
        return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                    for v in values), default=0)


def shapes(types) -> list[tuple[str, int, tuple[int, ...]]]:
    out = []
    for family, rank in types:
        out.append((family, rank, ()))
        odd = tuple(range(1, rank + 1, 2))
        if len(odd) < rank:
            out.append((family, rank, odd))
    return out


def _small(rng: random.Random, family, rank, theta, command) -> Request:
    size = rank - len(theta)
    base = Request(command, family, rank, theta)

    def small_rational() -> Fraction:
        return Fraction(rng.randint(1, SMALL_MAX), rng.randint(1, SMALL_MAX))

    if command == "flow":
        if rng.random() < 0.25:  # an Einstein class, b proportional to the Fano coefficients
            k = small_rational()
            b = tuple(k * l for l in fano(family, rank, theta))
        else:
            b = tuple(small_rational() for _ in range(size))
        return replace(base, kclass=b)
    if command == "invariants":
        if theta:
            return replace(base, divisor=tuple(small_rational() for _ in range(size)))
        d = tuple(Fraction(rng.randint(1, SMALL_MAX)) for _ in range(size))
        return replace(base, divisor=d, lct_m=rng.randint(1, 3))
    return base


def _large(rng: random.Random, family, rank, theta, command) -> Request:
    size = rank - len(theta)
    base = Request(command, family, rank, theta)
    top = 2 ** WIDE_BITS
    if command == "flow":
        # One shared denominator near 2^16 keeps b_alpha of order 1. With an
        # independent denominator per coordinate, R^2 outgrows Python's
        # 4300-digit int-to-str limit; with an integral class, the volume
        # outgrows the float range. flagflow then exits 1 with a traceback.
        den = rng.randint(top // 2, top)
        b = tuple(Fraction(rng.randint(1, top), den) for _ in range(size))
        return replace(base, kclass=b, samples=LARGE_SAMPLES)
    if command == "invariants":
        d = tuple(Fraction(rng.randint(1, top)) for _ in range(size))
        return replace(base, divisor=d, lct_m=None if theta else rng.randint(1, 3))
    return base


def _cycle_stream(types, make, seed: int, check: bool) -> Iterator[Request]:
    rng = random.Random(seed)
    plan = [(f, r, th, c) for f, r, th in shapes(types) for c in COMMANDS]
    while True:
        for family, rank, theta, command in plan:
            yield make(rng, family, rank, theta, command)
        if check:
            # the oracle: many narrow flow calls at n <= 24, beside the few
            # wide ones above; about 3 s of a 10 s cycle
            yield Request("check", seed=rng.randrange(2 ** 31))


def stream(workload: str, seed: int) -> Iterator[Request]:
    if workload == "cli-small":
        return _cycle_stream(SMALL_TYPES, _small, seed, check=False)
    if workload == "cli-large":
        return _cycle_stream(LARGE_TYPES, _large, seed, check=True)
    raise ValueError(f"unknown workload {workload!r}")


def cycle_length(workload: str) -> int:
    """Requests in one pass over the workload's shapes."""
    if workload == "cli-small":
        return len(shapes(SMALL_TYPES)) * len(COMMANDS)
    return len(shapes(LARGE_TYPES)) * len(COMMANDS) + 1


WORKLOADS = ("cli-small", "cli-large")
