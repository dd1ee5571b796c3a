"""Root systems of the finite simple types, in Bourbaki numbering.

Roots are stored as coefficient vectors over the simple roots, never as
Euclidean vectors: beta = sum_i k_i * alpha_i with k_i non-negative
integers. Everything reduces to integer arithmetic on the Cartan matrix
a_ij = <alpha_i, h_{alpha_j}^v>. The positive roots and their coroots come
from one closure of the simple roots under the simple reflections. The
coroot's coefficients over the simple coroots are <w_j, h_beta^v> for the
fundamental weights w_j: beta's row of the pairing table. Fundamental-weight
coordinates of beta itself are the row vector k times the Cartan matrix.

Weights are coordinate tuples over the fundamental weights. Integral
weights (rho, delta_P, the roots themselves) carry ints, and pairings of
them stay ints; a rational weight carries Fractions.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, brief

Root = tuple[int, ...]
Weight = tuple[int | Fraction, ...]
Matrix = tuple[tuple[int, ...], ...]

# family -> (min rank, max rank); each classical family stops at its last rank with at
# most 2500 positive roots: A70 (r(r+1)/2), B50 and C50 (r^2), D50 (r(r-1)); E8 has 120
RANK_RANGE = {
    "A": (1, 70),
    "B": (2, 50),
    "C": (3, 50),
    "D": (4, 50),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}
# E8's highest root has the largest coefficient of any finite-type root
MAX_ROOT_COEFF = 6


def validate_type(family: str, rank: int) -> None:
    """Reject (family, rank) pairs outside RANK_RANGE, naming the admitted ranks."""
    if family not in RANK_RANGE:
        raise DomainError(f"unknown family {brief(repr(family))}; expected one of A-G")
    lo, hi = RANK_RANGE[family]
    if not lo <= rank <= hi:
        bound = f"{{{lo}}}" if lo == hi else f"{{{lo},...,{hi}}}"
        raise DomainError(f"family {family} requires rank in {bound} (got {brief(rank)})")


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


def _coroots(cartan: Matrix) -> dict[Root, Root]:
    """Each positive root of a finite-type Cartan matrix mapped to its coroot.

    Starting from the simple roots, each its own coroot, a found root k with
    c = <k, h_{alpha_j}^v> < 0 gives the positive root s_j(k) = k - c * alpha_j
    and its coroot s_j(k^v): s_j permutes the positive roots other than
    alpha_j, on roots and coroots alike (Humphreys, Lie algebras, 10.2
    Lemma B). Each found root carries its pairings c, and s_j(k) gets its
    own by subtracting c times row j of the Cartan matrix. Ordered by height,
    ties broken lexicographically.
    """
    l = len(cartan)
    simple = (tuple(int(i == j) for j in range(l)) for i in range(l))
    # k -> (k^v, <k, h_{alpha_j}^v> for every j), starting from the Cartan rows
    found = {k: (k, row) for k, row in zip(simple, cartan)}
    todo = list(found)
    while todo:
        k = todo.pop()
        kv, kw = found[k]
        for j, c in enumerate(kw):
            if c >= 0:
                continue
            up = k[:j] + (k[j] - c,) + k[j + 1:]
            if up[j] > MAX_ROOT_COEFF:
                raise AssertionError(
                    f"root coefficient above {MAX_ROOT_COEFF}; matrix not finite type")
            if up not in found:
                cv = sum(kv[i] * cartan[j][i] for i in range(l))
                found[up] = (kv[:j] + (kv[j] - cv,) + kv[j + 1:],
                             tuple(w - c * a for w, a in zip(kw, cartan[j])))
                todo.append(up)
    return {k: found[k][0] for k in sorted(found, key=lambda k: (sum(k), k))}


class RootSystem(namedtuple("RootSystem", (
        "family",           # str
        "rank",             # int
        "cartan",           # Matrix
        "positive_roots",   # tuple[Root, ...]
        # pairing_rows[b][j] = <w_j, h_beta^v> for beta = positive_roots[b]: the
        # coefficients of the coroot h_beta^v over the simple coroots
        "pairing_rows"))):  # tuple[tuple[int, ...], ...]
    """Immutable root-system data; safe to share between threads."""
    __slots__ = ()


@functools.cache
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and memoize) the root system of the given simple type."""
    cartan = cartan_matrix(family, rank)
    roots, rows = zip(*_coroots(cartan).items())
    rs = RootSystem(family, rank, cartan, roots, rows)
    total = tuple(sum(k[i] for k in roots) for i in range(rank))
    if fund_coords(rs, total) != (2,) * rank:
        raise AssertionError(
            "sum of positive roots is not 2*rho in the fundamental-weight basis")
    return rs


def rho(rs: RootSystem) -> tuple[int, ...]:
    """Half sum of the positive roots: coordinates (1, ..., 1)."""
    return (1,) * rs.rank


def require_rank(rs: RootSystem, coords) -> None:
    """A weight or root has one coordinate per simple root."""
    if len(coords) != rs.rank:
        raise DomainError(f"{len(coords)} coordinates given; expected {rs.rank}")


def fund_coords(rs: RootSystem, k: Root) -> tuple[int, ...]:
    """Fundamental-weight coordinates of the root with coefficient vector k."""
    require_rank(rs, k)
    return tuple(
        sum(k[i] * rs.cartan[i][j] for i in range(rs.rank))
        for j in range(rs.rank)
    )


def _row(rs: RootSystem, root_index: int) -> tuple[int, ...]:
    if not 0 <= root_index < len(rs.positive_roots):
        raise DomainError(
            f"root index {brief(root_index)} out of range "
            f"(0..{len(rs.positive_roots) - 1})")
    return rs.pairing_rows[root_index]


def pairing(rs: RootSystem, weight: Weight, root_index: int) -> int | Fraction:
    """<weight, h_beta^v> for beta = positive_roots[root_index].

    An int for an integral weight, a Fraction for a rational one.
    """
    require_rank(rs, weight)
    return sum(m * r for m, r in zip(weight, _row(rs, root_index)))


def rho_pairing(rs: RootSystem, root_index: int) -> int:
    """<rho, h_beta^v>, an integer: the sum of beta's pairing row."""
    return sum(_row(rs, root_index))
