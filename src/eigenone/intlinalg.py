"""Exact rank and determinant of an integer matrix, given as a list of rows.

Fraction-free; no floating point.
"""

from __future__ import annotations


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination (in place); returns (rank, det).

    det is the determinant when the input is square (0 if singular, 1 if
    empty) and 0 otherwise.  Division steps are exact by Sylvester's identity.
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
