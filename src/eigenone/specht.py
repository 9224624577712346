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
from math import comb

from .errors import UsageError, VerificationError
from .perms import Permutation

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
# audited family -> the parts after its first part n - 2.  (n-2,2)' is the
# sign twist of (n-2,2): it has the same shape, and the audits derive its
# fixed dimensions from those of (n-2,2) (cycletypes.sign_twisted).
FAMILIES = {
    FAMILY_HOOK: (1, 1),
    FAMILY_TWO: (2,),
    FAMILY_TWO_CONJ: (2,),
}


def family_shape(family: str, n: int) -> tuple[int, ...]:
    """The shape of a family's S_n module."""
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}")
    tail = FAMILIES[family]
    if n - 2 < tail[0]:
        raise UsageError(f"family {family} needs n >= {tail[0] + 2}, got n={n}")
    return (n - 2, *tail)


def family_dim(family: str, n: int) -> int:
    """The dimension of a family's S_n module, by the hook length formula:
    (n-1)(n-2)/2 for (n-2,1,1), n(n-3)/2 for (n-2,2) and its sign twist."""
    return (n - 1) * (n - 2) // 2 if family_shape(family, n)[1:] == (1, 1) else n * (n - 3) // 2


def _james(n: int, m: int, j: int) -> int:
    """The decomposition number [S^(n-m,m) : D^(n-j,j)] in characteristic 2,
    for 2j < n (James, The Representation Theory of the Symmetric Groups,
    LNM 682, Thm 24.15): 1 exactly when n - 2j + 1 contains m - j to base 2,
    that is, each binary digit of m - j is 0 or that of n - 2j + 1."""
    k = m - j
    return int(k >= 0 and k & (n - 2 * j + 1) == k)


def mod2_factor_dims(family: str, n: int) -> list[int]:
    """The composition-factor dimensions of a family's S_n module mod 2,
    ascending, with no matrix.

    - S^(n-2,2) has the factors D^(n-j,j), 2j < n, with the multiplicities
      of `_james`.  dim D^(n-j,j) follows by recursion: the factors of
      S^(n-j,j), of dimension C(n,j) - C(n,j-1), are D^(n-j,j) once and the
      D^(n-i,i) with i < j.
    - The sign twist: -M = M mod 2, so (n-2,2)' has the factors of (n-2,2).
    - The hook: mod 2 the signs vanish, so the exterior square of the
      natural permutation module M^(n-1,1) is M^(n-2,2), the permutation
      module on 2-subsets.  Over Q the first is S^(n-1,1) + S^(n-2,1,1) and
      the second 1 + S^(n-1,1) + S^(n-2,2); so as composition factors
      S^(n-2,1,1) = S^(n-2,2) + D^(n) mod 2.
    """
    hook = family_shape(family, n)[1:] == (1, 1)
    dims = []  # dim D^(n-j,j) for 2j < n and j <= 2
    for j in range(min(3, (n + 1) // 2)):
        below = sum(_james(n, j, i) * d for i, d in enumerate(dims))
        dims.append(comb(n, j) - (comb(n, j - 1) if j else 0) - below)
    factors = sorted([d for j, d in enumerate(dims) if _james(n, 2, j)] + [1] * hook)
    # for n >= 5 the recursion gives sum C(n,2) - C(n,1) by construction; so
    # this checks the hook length formula, the hook's trivial factor, and
    # n <= 4, where the guard 2j < n drops D^(n-2,2)
    if sum(factors) != family_dim(family, n):
        raise VerificationError(f"mod-2 factors {factors} of {family} at n={n} must sum to "
                                f"{family_dim(family, n)}")
    return factors


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
