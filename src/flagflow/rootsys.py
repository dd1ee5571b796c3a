"""Root systems of the finite simple types, in Bourbaki numbering.

Roots are stored as coefficient vectors over the simple roots, never as
Euclidean vectors: beta = sum_i k_i * alpha_i with k_i non-negative
integers. Everything reduces to integer arithmetic on the Cartan matrix

    a_ij = <alpha_i, h_{alpha_j}^v>

and its symmetrizers d_1, ..., d_l: the unique coprime positive integers
with a_ij * d_j symmetric (d_i is half the squared length of alpha_i in
that normalization). For a positive root beta with coefficient vector k,

    d_beta = (sum_ij k_i k_j a_ij d_j) / 2
    <w_j, h_beta^v> = k_j * d_j / d_beta

where w_j are the fundamental weights. Both quantities are positive
integers; construction asserts this. Fundamental-weight coordinates of
beta itself are the row vector k times the Cartan matrix.

Weights are coordinate tuples over the fundamental weights. Integral
weights (rho, delta_P, the roots themselves) carry ints, and pairings of
them stay ints; a rational weight carries Fractions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError

Root = tuple[int, ...]
Weight = tuple[int | Fraction, ...]
Matrix = tuple[tuple[int, ...], ...]

# family -> (min rank, max rank or None for unbounded)
RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def validate_type(family: str, rank: int) -> None:
    """Reject (family, rank) pairs outside the classification."""
    if family not in RANK_RANGE:
        raise DomainError(f"unknown family {family!r}; expected one of A-G")
    lo, hi = RANK_RANGE[family]
    if rank < lo or (hi is not None and rank > hi):
        bound = f"rank >= {lo}" if hi is None else (
            f"rank in {{{lo}}}" if lo == hi else f"rank in {{{lo},...,{hi}}}")
        raise DomainError(f"family {family} requires {bound} (got {rank})")


def cartan_matrix(family: str, rank: int) -> Matrix:
    """Cartan matrix a_ij = <alpha_i, h_{alpha_j}^v> in Bourbaki numbering."""
    validate_type(family, rank)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        # 1-based node labels, as in the Dynkin diagram tables
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if family in ("A", "B", "C", "F"):
        for i in range(1, rank):
            bond(i, i + 1)
        if family == "B":
            bond(rank - 1, rank, aij=-2, aji=-1)
        elif family == "C":
            bond(rank - 1, rank, aij=-1, aji=-2)
        elif family == "F":
            bond(2, 3, aij=-2, aji=-1)
    elif family == "D":
        for i in range(1, rank - 1):
            bond(i, i + 1)
        bond(rank - 2, rank)
    elif family == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(2, 4)
    else:  # G2
        bond(1, 2, aij=-1, aji=-3)
    return tuple(tuple(row) for row in a)


def symmetrizers(cartan: Matrix) -> tuple[int, ...]:
    """Coprime positive integers d with a_ij * d_j = a_ji * d_i."""
    l = len(cartan)
    vals = [1] + [0] * (l - 1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(l):
            if j != i and cartan[i][j] != 0 and vals[j] == 0:
                # d_j = d_i * a_ji / a_ij: rescale the values so far to make it integral
                num = vals[i] * cartan[j][i]
                scale = abs(cartan[i][j]) // gcd(num, cartan[i][j])
                vals = [v * scale for v in vals]
                vals[j] = num * scale // cartan[i][j]
                queue.append(j)
    assert all(v > 0 for v in vals), "Dynkin graph not connected"
    g = gcd(*vals)
    d = tuple(v // g for v in vals)
    assert all(
        cartan[i][j] * d[j] == cartan[j][i] * d[i]
        for i in range(l) for j in range(l)
    ), "symmetrizer does not symmetrize the Cartan matrix"
    return d


def positive_roots_from_cartan(cartan: Matrix) -> tuple[Root, ...]:
    """All positive roots of a finite-type Cartan matrix, by closure.

    Starting from the simple roots, beta + alpha_j is adjoined whenever
    <beta, h_{alpha_j}^v> - q < 0, where q is the largest m such that
    beta - m * alpha_j is already a root. Processing height by height
    keeps the downward strings complete, so the condition is exact.

    Output is ordered by height, ties broken lexicographically. The
    highest root has height h - 1 for the Coxeter number h, which is at
    most 2l in the classical types (B_l, C_l) and 30 in the exceptional
    ones (E8); anything deeper means a bad Cartan matrix.
    """
    l = len(cartan)
    if l == 0:
        return ()
    current: list[Root] = sorted(
        tuple(int(i == j) for j in range(l)) for i in range(l))
    found: set[Root] = set(current)
    result: list[Root] = list(current)
    for _height in range(max(2 * l, 30)):
        nxt: set[Root] = set()
        for k in current:
            for j in range(l):
                pair = sum(k[i] * cartan[i][j] for i in range(l))
                q = 0
                down = list(k)
                while True:
                    down[j] -= 1
                    if down[j] < 0 or tuple(down) not in found:
                        break
                    q += 1
                if pair - q < 0:
                    up = list(k)
                    up[j] += 1
                    nxt.add(tuple(up))
        if not nxt:
            return tuple(result)
        current = sorted(nxt)
        found.update(nxt)
        result.extend(current)
    raise AssertionError("root generation did not terminate; matrix not finite type")


def _pairing_row(cartan: Matrix, d: tuple[int, ...], k: Root) -> tuple[int, ...]:
    l = len(d)
    two_d_beta = sum(
        k[i] * k[j] * cartan[i][j] * d[j]
        for i in range(l) for j in range(l)
    )
    assert two_d_beta > 0 and two_d_beta % 2 == 0, "root has invalid squared length"
    d_beta = two_d_beta // 2
    row = []
    for j in range(l):
        num = k[j] * d[j]
        assert num % d_beta == 0, "pairing table entry not integral"
        row.append(num // d_beta)
    return tuple(row)


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data; safe to share between threads."""

    family: str
    rank: int
    cartan: Matrix
    d: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    # pairing_rows[b][j] = <w_j, h_beta^v> for beta = positive_roots[b]
    pairing_rows: tuple[tuple[int, ...], ...]


@functools.cache
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and memoize) the root system of the given simple type."""
    cartan = cartan_matrix(family, rank)
    d = symmetrizers(cartan)
    roots = positive_roots_from_cartan(cartan)
    rows = tuple(_pairing_row(cartan, d, k) for k in roots)
    rs = RootSystem(family, rank, cartan, d, roots, rows)
    total = tuple(sum(k[i] for k in roots) for i in range(rank))
    assert fund_coords(rs, total) == (2,) * rank, \
        "sum of positive roots is not 2*rho in the fundamental-weight basis"
    return rs


def rho(rs: RootSystem) -> tuple[int, ...]:
    """Half sum of the positive roots: coordinates (1, ..., 1)."""
    return (1,) * rs.rank


def fund_coords(rs: RootSystem, k: Root) -> tuple[int, ...]:
    """Fundamental-weight coordinates of the root with coefficient vector k."""
    return tuple(
        sum(k[i] * rs.cartan[i][j] for i in range(rs.rank))
        for j in range(rs.rank)
    )


def _row(rs: RootSystem, root_index: int) -> tuple[int, ...]:
    if not 0 <= root_index < len(rs.positive_roots):
        raise DomainError(
            f"root index {root_index} out of range "
            f"(0..{len(rs.positive_roots) - 1})")
    return rs.pairing_rows[root_index]


def pairing(rs: RootSystem, weight: Weight, root_index: int) -> int | Fraction:
    """<weight, h_beta^v> for beta = positive_roots[root_index].

    An int for an integral weight, a Fraction for a rational one.
    """
    return sum(m * r for m, r in zip(weight, _row(rs, root_index)))


def rho_pairing(rs: RootSystem, root_index: int) -> int:
    """<rho, h_beta^v>, an integer: the sum of beta's pairing row."""
    return sum(_row(rs, root_index))
