"""Tableau combinatorics and exact Specht-module construction.

The integral representation matrices are computed on the basis of standard
polytabloids, ordered lexicographically by column reading word.  Coordinates
of an arbitrary module element (a sparse integer combination of tabloids) are
found by reduction against the leading tabloids of the standard polytabloids,
which are maximal in tabloid dominance order.  The test suite cross-checks
this against Garnir rewriting at the tableau level (tests/oracles.py).
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import UsageError, VerificationError
from .perms import Permutation

if TYPE_CHECKING:
    from .gf2 import GF2Module


# A tableau is a bijective filling of a Young diagram by 1..n, as a tuple of
# row tuples; a tabloid is its row-equivalence class: each row sorted
# ascending, rows kept in shape order.  A shape is a partition, a weakly
# decreasing tuple.
Tableau = tuple[tuple[int, ...], ...]
Tabloid = tuple[tuple[int, ...], ...]


def columns(t: Tableau) -> list[list[int]]:
    """The columns of t, each read from the top row down."""
    return [[row[j] for row in t if len(row) > j] for j in range(len(t[0]) if t else 0)]


def tabloid_of(t: Tableau) -> Tabloid:
    return tuple(tuple(sorted(row)) for row in t)


def perm_tabloid(sigma: Permutation, T: Tabloid) -> Tabloid:
    images = sigma.images
    return tuple(tuple(sorted([images[x - 1] + 1 for x in row])) for row in T)


def _dominance_key(T: Tabloid) -> tuple[int, ...]:
    """Key compatible with tabloid dominance order (bigger = more dominant):
    the row of each entry, read from n down to 1.

    At the largest entry whose row differs between T and S, T dominates S
    only if that entry lies lower in T, so this is a linear extension of
    dominance; straightening needs no more, as coordinates are unique."""
    row_of = {x: i for i, row in enumerate(T) for x in row}
    return tuple(row_of[m] for m in range(len(row_of), 0, -1))


def _perm_sign(order: tuple[int, ...]) -> int:
    """Sign of the permutation sending position i to order[i]."""
    inv = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                inv += 1
    return -1 if inv & 1 else 1


def polytabloid_expand(t: Tableau) -> dict[Tabloid, int]:
    """Alternating sum of tabloids over the column group of t."""
    cols = columns(t)
    shape = [len(r) for r in t]
    out: dict[Tabloid, int] = {}
    col_perms = [list(itertools.permutations(range(len(c)))) for c in cols]
    for assignment in itertools.product(*col_perms):
        sign = 1
        rows = [[0] * ln for ln in shape]
        for j, (col, pi) in enumerate(zip(cols, assignment)):
            sign *= _perm_sign(pi)
            for i, pos in enumerate(pi):
                rows[i][j] = col[pos]
        T = tuple(tuple(sorted(r)) for r in rows)
        out[T] = out.get(T, 0) + sign
        if out[T] == 0:
            del out[T]
    return out


def tv_add_scaled(acc: dict[Tabloid, int], v: dict[Tabloid, int], c: int) -> None:
    for T, a in v.items():
        nv = acc.get(T, 0) + c * a
        if nv:
            acc[T] = nv
        elif T in acc:
            del acc[T]


def tv_apply_perm(sigma: Permutation, v: dict[Tabloid, int]) -> dict[Tabloid, int]:
    out: dict[Tabloid, int] = {}
    for T, c in v.items():
        S = perm_tabloid(sigma, T)
        nv = out.get(S, 0) + c
        if nv:
            out[S] = nv
        elif S in out:
            del out[S]
    return out


def _gen_standard(shape: tuple[int, ...]) -> list[Tableau]:
    n = sum(shape)
    rows = [[0] * ln for ln in shape]
    out = []

    def place(k: int):
        if k > n:
            out.append(tuple(map(tuple, rows)))
            return
        for i, ln in enumerate(shape):
            j = next((jj for jj in range(ln) if rows[i][jj] == 0), None)
            if j is None:
                continue
            if i > 0 and (len(rows[i - 1]) <= j or rows[i - 1][j] == 0):
                continue
            rows[i][j] = k
            place(k + 1)
            rows[i][j] = 0

    place(1)
    return out


def standard_tableaux(shape: tuple[int, ...]) -> tuple[Tableau, ...]:
    """All standard tableaux of a shape, ordered by column reading word."""
    tabs = _gen_standard(shape)
    tabs.sort(key=lambda t: [x for col in columns(t) for x in col])
    return tuple(tabs)


class NotInSpechtModule(VerificationError):
    """Straightening found a vector outside the Specht module."""


class _RankTable(dict):
    """Minus the dominance rank of each tabloid of one shape met so far, so a
    min-heap pops the most dominant first: _dominance_key read as the digits
    of one integer in base (number of rows), filled the first time a tabloid
    is looked up and bounded by the tabloids of the shape."""

    def __init__(self, shape: tuple[int, ...]):
        super().__init__()
        self.shape = shape

    def __missing__(self, T: Tabloid) -> int:
        shape = self.shape
        if (
            tuple(map(len, T)) != shape
            or any(list(row) != sorted(row) for row in T)
            or sorted(x for row in T for x in row) != list(range(1, sum(shape) + 1))
        ):
            raise NotInSpechtModule(f"{T} is not a tabloid of shape {shape}")
        rank = 0
        for row in _dominance_key(T):
            rank = rank * len(shape) + row
        self[T] = -rank
        return -rank


class _SpechtBasis:
    """Per-shape data: ordered standard basis, expansions, leader lookup,
    rank table."""

    def __init__(self, shape: tuple[int, ...]):
        self.tableaux = standard_tableaux(shape)
        self.dim = len(self.tableaux)
        self.expansions = [polytabloid_expand(t) for t in self.tableaux]
        self.leader_index = {tabloid_of(t): i for i, t in enumerate(self.tableaux)}
        if len(self.leader_index) != self.dim:
            raise VerificationError(f"standard tableaux of {shape} must have distinct leaders")
        self.neg_rank = _RankTable(shape)


# an entry's rank table grows to at most the tabloids of its shape
@lru_cache(maxsize=8)  # owner: action_matrix and straighten, one entry per shape audited
def _basis(shape: tuple[int, ...]) -> _SpechtBasis:
    return _SpechtBasis(shape)


def straighten(v: dict[Tabloid, int], shape: tuple[int, ...]) -> list[int]:
    """Exact coordinates of v on the standard-polytabloid basis.

    Reduces the dominance-maximal tabloid of v against the unique standard
    polytabloid led by it; the maximum strictly decreases, so this terminates.
    Raises NotInSpechtModule if v is not an integer combination of
    polytabloids of the given shape.
    """
    B = _basis(shape)
    coords = [0] * B.dim
    if not v:
        return coords
    neg_rank = B.neg_rank
    work = dict(v)
    heap = [(neg_rank[T], T) for T in work]
    heapq.heapify(heap)
    while heap:
        _, T = heapq.heappop(heap)
        c = work.get(T, 0)
        if c == 0:
            continue
        idx = B.leader_index.get(T)
        if idx is None:
            raise NotInSpechtModule(f"tabloid {T} is not the leader of any standard polytabloid")
        coords[idx] += c
        for S, a in B.expansions[idx].items():
            nv = work.get(S, 0) - c * a
            if nv:
                if S not in work:
                    heapq.heappush(heap, (neg_rank[S], S))
                work[S] = nv
            elif S in work:
                del work[S]
    if work:
        raise NotInSpechtModule("reduction left a nonzero remainder")
    return coords


# ---------------------------------------------------------------------------
# Representation matrices
# ---------------------------------------------------------------------------

FAMILY_HOOK = "(n-2,1,1)"
FAMILY_TWO = "(n-2,2)"
FAMILY_TWO_CONJ = "(n-2,2)'"
# audited family -> (parts after the first part n - 2, sign-twisted)
FAMILIES = {
    FAMILY_HOOK: ((1, 1), False),
    FAMILY_TWO: ((2,), False),
    FAMILY_TWO_CONJ: ((2,), True),
}


def family_shape(family: str, n: int) -> tuple[tuple[int, ...], bool]:
    """The shape of a family's S_n module, and whether it is sign-twisted."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    tail, twisted = FAMILIES[family]
    if n - 2 < tail[0]:
        raise UsageError(f"family {family} needs n >= {tail[0] + 2}, got n={n}")
    return (n - 2, *tail), twisted


def action_matrix(sigma: Permutation, shape: tuple[int, ...]) -> list[list[int]]:
    """Rows of the matrix of sigma on the Specht module, whose columns are the
    images of the basis vectors."""
    n = sum(shape)
    if sigma.degree != n:
        raise ValueError("degree mismatch")
    # 1-dimensional shapes: avoid the n!-term column-group expansion
    if shape == (n,):
        return [[1]]
    if shape == (1,) * n:
        return [[1 if sigma.is_even() else -1]]
    expansions = _basis(shape).expansions
    # sigma permutes tabloids, so an expansion's image needs no merging
    image: dict[Tabloid, Tabloid] = {}
    for exp in expansions:
        for T in exp:
            if T not in image:
                image[T] = perm_tabloid(sigma, T)
    cols = [straighten({image[T]: c for T, c in exp.items()}, shape) for exp in expansions]
    return [list(row) for row in zip(*cols)]


def twisted_action_matrix(sigma: Permutation, shape: tuple[int, ...]) -> list[list[int]]:
    """Rows of the matrix of sigma on the conjugate module: sign-twist of the action."""
    M = action_matrix(sigma, shape)
    return M if sigma.is_even() else [[-a for a in row] for row in M]


def generator_matrices(shape: tuple[int, ...], twisted: bool = False) -> list[list[list[int]]]:
    """Matrices of the generators (1,2) and (1,2,...,n) of S_n on the
    standard basis of the shape, or on its sign twist."""
    n = sum(shape)
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    matrix = twisted_action_matrix if twisted else action_matrix
    return [matrix(g, shape) for g in gens]


def rep_mod2(mats: list[list[list[int]]]) -> GF2Module:
    """Reduce integer representation matrices, given as rows, mod 2."""
    from .gf2 import BitMatrix, GF2Module

    if not mats:
        raise ValueError("need at least one matrix")
    return GF2Module(len(mats[0]), [BitMatrix.from_entries(M) for M in mats])


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama character oracle (via beta-sets)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)  # owner: fixed_space_dim_via_characters, the recursion's memo
def character_mn(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character of the Specht module of the given shape on the given class."""
    if sum(shape) != sum(cycle_type):
        raise ValueError("shape and cycle type must partition the same n")
    if not cycle_type:
        return 1
    m = cycle_type[0]
    rest = cycle_type[1:]
    k = len(shape)
    betas = [shape[i] + (k - 1 - i) for i in range(k)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - m
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_betas = sorted((bb if bb != b else nb) for bb in betas)
        parts = tuple(
            sorted((bb - i for i, bb in enumerate(new_betas)), reverse=True)
        )
        parts = tuple(p for p in parts if p > 0)
        sign = -1 if height & 1 else 1
        total += sign * character_mn(parts, rest)
    return total


def fixed_space_dim_via_characters(shape: tuple[int, ...], sigma_type: tuple[int, ...]) -> int:
    """Dimension of the fixed space of a class element, as the average of the
    character over the cyclic group it generates."""
    order = lcm(*sigma_type)
    total = 0
    for j in range(order):
        total += character_mn(shape, _power_cycle_type(sigma_type, j))
    if total % order:
        raise VerificationError("character average over a cyclic group must be an integer")
    return total // order


def _power_cycle_type(ct: tuple[int, ...], j: int) -> tuple[int, ...]:
    out = []
    for ln in ct:
        g = gcd(ln, j)
        out.extend([ln // g] * g)
    return tuple(sorted(out, reverse=True))
