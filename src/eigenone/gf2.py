"""Bit-packed linear algebra over GF(2), plus GF(2)[x] polynomial utilities.

A matrix row is a Python int with bit j = entry in column j.  Serialized hex
rows follow a fixed word convention: 64-bit words, column index little-endian
within a word, and the word covering the lowest column indices printed in the
most significant position of the hex string.

GF(2) polynomials are plain ints with bit i = coefficient of x^i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError

WORD = 64


class BitMatrix:
    """Rectangular matrix over GF(2); immutable after construction."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols: int):
        rows = tuple(int(r) for r in rows)
        mask = (1 << ncols) - 1
        if any(r & ~mask for r in rows):
            raise ValueError("row has bits beyond ncols")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "BitMatrix":
        m = n if m is None else m
        return cls([0] * n, m)

    @classmethod
    def from_entries(cls, entries) -> "BitMatrix":
        rows = []
        ncols = len(entries[0]) if entries else 0
        for r in entries:
            v = 0
            for j, e in enumerate(r):
                if e % 2:
                    v |= 1 << j
            rows.append(v)
        return cls(rows, ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __eq__(self, other):
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return BitMatrix([a ^ b for a, b in zip(self.rows, other.rows)], self.ncols)

    def __mul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        brows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= brows[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return BitMatrix(out, other.ncols)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            rr = r
            while rr:
                low = rr & -rr
                out[low.bit_length() - 1] |= bit
                rr ^= low
        return BitMatrix(out, self.nrows)

    def apply(self, v: int) -> int:
        """Matrix times column vector (v an int over column indices)."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def row_apply(self, v: int) -> int:
        """Row vector times matrix."""
        acc = 0
        vv = v
        while vv:
            low = vv & -vv
            acc ^= self.rows[low.bit_length() - 1]
            vv ^= low
        return acc

    def to_hex_rows(self) -> list[str]:
        nwords = max(1, -(-self.ncols // WORD))
        out = []
        for r in self.rows:
            v = 0
            for w in range(nwords):
                word = (r >> (WORD * w)) & ((1 << WORD) - 1)
                v |= word << (WORD * (nwords - 1 - w))
            out.append(format(v, f"0{16 * nwords}x"))
        return out

    def __repr__(self):
        return f"BitMatrix({self.nrows}x{self.ncols})"


def echelon_insert(pivots: dict[int, int], v: int) -> int:
    """Add the row v to a reduced echelon basis {pivot column: row}: reduce v
    by the pivots and, if a remainder is left, clear its top bit from the
    other rows and store it under that bit.  Returns the remainder (0 when v
    was already in the span)."""
    for c, r in pivots.items():
        if (v >> c) & 1:
            v ^= r
    if v:
        c = v.bit_length() - 1
        for c2, r in pivots.items():
            if (r >> c) & 1:
                pivots[c2] = r ^ v
        pivots[c] = v
    return v


def rank_nullspace(M: BitMatrix) -> tuple[int, list[int]]:
    """Rank and a basis of {v : M v = 0} (v ints over column indices)."""
    m = M.ncols
    pivots: dict[int, int] = {}  # column -> reduced row
    for r in M.rows:
        echelon_insert(pivots, r)
    rank = len(pivots)
    free_cols = [c for c in range(m) if c not in pivots]
    basis = []
    for f in free_cols:
        v = 1 << f
        for c, pr in pivots.items():
            if (pr >> f) & 1:
                v |= 1 << c
        basis.append(v)
    if rank + len(basis) != m:
        raise VerificationError("rank + nullity must equal the column count")
    return rank, basis


def fixed_space_dim(M: BitMatrix) -> int:
    """dim ker(M + I): the multiplicity of eigenvalue 1 as a fixed space."""
    rank, _ = rank_nullspace(M + BitMatrix.identity(M.nrows))
    return M.nrows - rank


def gf2_rank(M: BitMatrix) -> int:
    rank, _ = rank_nullspace(M)
    return rank


def is_invertible(M: BitMatrix) -> bool:
    return M.is_square and gf2_rank(M) == M.nrows


def gf2_charpoly(M: BitMatrix) -> int:
    """Characteristic polynomial det(xI - M) over GF(2), as a bit-poly int.

    Hessenberg reduction by similarity transforms, then the standard
    Hessenberg determinant recurrence.
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = M.nrows
    if n == 0:
        return 1
    H = list(M.rows)

    def swap(i, k):
        H[i], H[k] = H[k], H[i]
        bi, bk = 1 << i, 1 << k
        for r in range(n):
            hi = (H[r] >> i) & 1
            hk = (H[r] >> k) & 1
            if hi != hk:
                H[r] ^= bi | bk

    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if (H[i] >> j) & 1:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            swap(piv, j + 1)
        for i in range(j + 2, n):
            if (H[i] >> j) & 1:
                H[i] ^= H[j + 1]  # row op; compensate with column op below
                bit = 1 << (j + 1)
                for r in range(n):
                    if (H[r] >> i) & 1:
                        H[r] ^= bit
    # p[k] = charpoly of leading k x k block, as bit-poly
    p = [1] * (n + 1)
    for k in range(1, n + 1):
        val = (p[k - 1] << 1) ^ (p[k - 1] if (H[k - 1] >> (k - 1)) & 1 else 0)
        prod = 1
        for j in range(k - 1, 0, -1):
            prod &= (H[j] >> (j - 1)) & 1  # subdiagonal h_{j+1,j}
            if not prod:
                break
            if (H[j - 1] >> (k - 1)) & 1:  # h_{j,k}
                val ^= p[j - 1]
        p[k] = val
    return p[n]


def preserves_form(M: BitMatrix, J: BitMatrix) -> bool:
    """True iff M^T J M = J."""
    if not (M.is_square and J.is_square and M.nrows == J.nrows):
        raise ValueError("dimension mismatch")
    return M.transpose() * J * M == J


@dataclass
class GF2Module:
    """A module over GF(2) given by the generator action matrices."""

    dim: int
    gens: list[BitMatrix]

    def __post_init__(self):
        for g in self.gens:
            if not (g.is_square and g.nrows == self.dim):
                raise ValueError("generator dimension mismatch")
            if not is_invertible(g):
                raise ValueError("generators must be invertible over GF(2)")


# ---------------------------------------------------------------------------
# GF(2)[x] polynomials as ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def pdeg(f: int) -> int:
    return f.bit_length() - 1


def pmul(a: int, b: int) -> int:
    out = 0
    aa = a
    shift = 0
    while aa:
        if aa & 1:
            out ^= b << shift
        aa >>= 1
        shift += 1
    return out


def pmod(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("poly mod by zero")
    db = pdeg(b)
    while pdeg(a) >= db:
        a ^= b << (pdeg(a) - db)
    return a


def pdiv(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("poly div by zero")
    db = pdeg(b)
    q = 0
    while pdeg(a) >= db:
        s = pdeg(a) - db
        q ^= 1 << s
        a ^= b << s
    return q


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def pderiv(f: int) -> int:
    # derivative in characteristic 2: keep odd-exponent terms, shift down one
    out = 0
    for i in range(1, f.bit_length(), 2):
        if (f >> i) & 1:
            out |= 1 << (i - 1)
    return out


def psqrt(f: int) -> int:
    """Square root of f when f = g(x)^2 (all exponents even)."""
    out = 0
    i = 0
    while (f >> (2 * i)) != 0:
        if (f >> (2 * i)) & 1:
            out |= 1 << i
        i += 1
    return out


def _berlekamp_squarefree(f: int) -> list[int]:
    """Distinct irreducible factors of a squarefree f over GF(2)."""
    d = pdeg(f)
    if d <= 1:
        return [f]
    # rows of the Frobenius matrix: x^{2i} mod f
    rows = []
    cur = 1  # x^0
    xsq = pmod(0b100, f)
    for _ in range(d):
        rows.append(cur)
        cur = pmod(pmul(cur, xsq), f)
    R = BitMatrix(rows, d)
    # fixed space of Frobenius: a with a.R = a, i.e. (R^T + I) a = 0
    RtI = R.transpose() + BitMatrix.identity(d)
    _, basis = rank_nullspace(RtI)
    if len(basis) == 1:
        return [f]
    h = next(b for b in basis if pdeg(b) >= 1)  # non-constant subalgebra element
    g1 = pgcd(f, h)
    g2 = pgcd(f, h ^ 1)
    if not (0 < pdeg(g1) < d and 0 < pdeg(g2) < d):
        raise VerificationError("Berlekamp split must give two proper factors")
    return _berlekamp_squarefree(g1) + _berlekamp_squarefree(g2)


def poly_factor(f: int) -> set[int]:
    """The distinct irreducible factors of f over GF(2).

    When f' != 0, q = f / gcd(f, f') is the product of the factors of odd
    multiplicity, and q / gcd(q, gcd(f, f')) that of the factors of
    multiplicity one, which Berlekamp splits; every other factor stays in
    gcd(f, f') with even multiplicity.  When f' = 0, f is the square of
    psqrt(f).  So each factor is split off once, at the step where its
    multiplicity is one.
    """
    if f == 0:
        raise ValueError("cannot factor the zero polynomial")
    out: set[int] = set()
    while pdeg(f) > 0:
        d = pderiv(f)
        if d == 0:
            f = psqrt(f)
            continue
        c = pgcd(f, d)
        q = pdiv(f, c)
        simple = pdiv(q, pgcd(q, c))
        if pdeg(simple) > 0:
            out.update(_berlekamp_squarefree(simple))
        f = c
    return out


def eval_poly_at_matrix(f: int, M: BitMatrix) -> BitMatrix:
    """f(M) over GF(2), by Horner's rule."""
    n = M.nrows
    acc = BitMatrix.zeros(n)
    ident = BitMatrix.identity(n)
    for i in range(pdeg(f), -1, -1):
        acc = acc * M
        if (f >> i) & 1:
            acc = acc + ident
    return acc
