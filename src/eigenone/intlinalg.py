"""Exact linear algebra over arbitrary-precision integers.

Everything here is fraction-free or division-free; no floating point.
Characteristic polynomial convention: det(xI - M), so evaluating at 1 gives
det(I - M).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class IntMatrix:
    """Dense integer matrix; treated as immutable after construction."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "IntMatrix":
        m = n if m is None else m
        return cls([[0] * m for _ in range(n)])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in r] for r in self.rows])

    def transpose(self) -> "IntMatrix":
        return IntMatrix([list(c) for c in zip(*self.rows)])

    def apply(self, vec: list[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]

    def trace(self) -> int:
        if not self.is_square:
            raise ValueError("trace of non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def to_json(self) -> str:
        """Entries as decimal strings (they may exceed native word size)."""
        return json.dumps([[str(a) for a in r] for r in self.rows])

    @classmethod
    def from_json(cls, s: str) -> "IntMatrix":
        return cls([[int(a) for a in r] for r in json.loads(s)])

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, coeffs) -> "IntPoly":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def is_zero(self) -> bool:
        return not self.coeffs

    def divide_by_x_minus_1(self) -> "IntPoly | None":
        """Exact quotient by (x - 1), or None if 1 is not a root."""
        if self.is_zero():
            raise ValueError("cannot divide the zero polynomial")
        if self(1) != 0:
            return None
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc += c
            out.append(acc)
        assert out[-1] == 0
        return IntPoly.of(reversed(out[:-1]))

    def __str__(self):
        return " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c) or "0"


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination (in place); returns (rank, det).

    det is the determinant when the input is square (0 if singular) and is
    meaningless otherwise.  Division steps are exact by Sylvester's identity.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    sign = 1
    prev = 1
    r = 0
    for c in range(m):
        if r == n:
            break
        piv_row = None
        for i in range(r, n):
            if rows[i][c]:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != r:
            rows[r], rows[piv_row] = rows[piv_row], rows[r]
            sign = -sign
        p = rows[r][c]
        rr = rows[r]
        for i in range(r + 1, n):
            ri = rows[i]
            mic = ri[c]
            # the update must run even when mic == 0: it rescales the row by
            # p/prev, keeping every entry an exact minor of the input
            for j in range(c + 1, m):
                ri[j] = (p * ri[j] - mic * rr[j]) // prev
            ri[c] = 0
        prev = p
        r += 1
    if n == m:
        det = sign * prev if r == n else 0
    else:
        det = 0
    return r, det


def det_exact(M: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if not M.is_square:
        raise ValueError("determinant of non-square matrix")
    if M.nrows == 0:
        return 1
    rows = [list(r) for r in M.rows]
    _, det = _bareiss(rows)
    return det


def rank_exact(M: IntMatrix) -> int:
    """Rank over the rationals, fraction-free."""
    if M.nrows == 0 or M.ncols == 0:
        return 0
    rows = [list(r) for r in M.rows]
    rank, _ = _bareiss(rows)
    return rank


def charpoly_exact(M: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(xI - M) via the Berkowitz algorithm.

    Division-free, so exact over the integers for any input.
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = M.nrows
    if n == 0:
        return IntPoly.of([1])
    A = M.rows
    # coeffs of det(xI - A_i) for the leading i x i block, descending powers
    c = [1, -A[0][0]]
    for i in range(2, n + 1):
        blk = [row[: i - 1] for row in A[: i - 1]]
        R = A[i - 1][: i - 1]
        C = [A[r][i - 1] for r in range(i - 1)]
        a = A[i - 1][i - 1]
        # q = [1, -a, -R.C, -R.blk.C, -R.blk^2.C, ...] of length i + 1
        q = [1, -a]
        v = C
        for _ in range(i - 1):
            q.append(-sum(r * x for r, x in zip(R, v)))
            if len(q) == i + 1:
                break
            v = [sum(blk[r][k] * v[k] for k in range(i - 1)) for r in range(i - 1)]
        newc = [0] * (i + 1)
        for k in range(i + 1):
            s = 0
            for j in range(len(c)):
                kj = k - j
                if 0 <= kj < len(q):
                    s += c[j] * q[kj]
            newc[k] = s
        c = newc
    return IntPoly.of(reversed(c))


def eig1_multiplicity(M: IntMatrix) -> tuple[int, int]:
    """(algebraic, geometric) multiplicity of eigenvalue 1.

    Algebraic: highest k with (x-1)^k dividing the characteristic polynomial,
    by repeated exact synthetic division.  Geometric: dim - rank(M - I) over
    the rationals.
    """
    if not M.is_square:
        raise ValueError("eigenvalue multiplicity of non-square matrix")
    p = charpoly_exact(M)
    alg = 0
    while True:
        q = p.divide_by_x_minus_1()
        if q is None:
            break
        alg += 1
        p = q
    geo = M.nrows - rank_exact(M - IntMatrix.identity(M.nrows))
    assert geo <= alg
    return alg, geo


def permutation_matrix(images0: tuple[int, ...]) -> IntMatrix:
    """Column-vector convention: column j has a 1 in row images0[j]."""
    n = len(images0)
    M = [[0] * n for _ in range(n)]
    for j, i in enumerate(images0):
        M[i][j] = 1
    return IntMatrix(M)
