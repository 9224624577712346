"""Exact linear algebra over arbitrary-precision integers.

Everything here is fraction-free; no floating point.
"""

from __future__ import annotations


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

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return IntMatrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.rows])

    def apply(self, vec: list[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.rows]

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


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
