"""Bit-packed linear algebra over GF(2), plus GF(2)[x] polynomial utilities.

A matrix row is a Python int with bit j = entry in column j.  Serialized hex
rows follow a fixed word convention: 64-bit words, column index little-endian
within a word, and the word covering the lowest column indices printed in the
most significant position of the hex string.

GF(2) polynomials are plain ints with bit i = coefficient of x^i.
"""

from __future__ import annotations

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
        return _unchecked(tuple(a ^ b for a, b in zip(self.rows, other.rows)), self.ncols)

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
        return _unchecked(tuple(out), other.ncols)

    def transpose(self) -> "BitMatrix":
        out = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            rr = r
            while rr:
                low = rr & -rr
                out[low.bit_length() - 1] |= bit
                rr ^= low
        return _unchecked(tuple(out), self.nrows)

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


def _unchecked(rows: tuple[int, ...], ncols: int) -> BitMatrix:
    """A BitMatrix from rows that cannot exceed `ncols` bits, such as a
    product's, a sum's or a transpose's: no check."""
    m = object.__new__(BitMatrix)
    m.rows, m.nrows, m.ncols = rows, len(rows), ncols
    return m


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


def preserves_form(M: BitMatrix, J: BitMatrix) -> bool:
    """True iff M^T J M = J."""
    if not (M.is_square and J.is_square and M.nrows == J.nrows):
        raise ValueError("dimension mismatch")
    return M.transpose() * J * M == J


class GF2Module:
    """A module over GF(2) given by the generator action matrices."""

    __slots__ = ("dim", "gens")

    def __init__(self, dim: int, gens: list[BitMatrix]):
        for g in gens:
            if not (g.is_square and g.nrows == dim):
                raise ValueError("generator dimension mismatch")
            if not is_invertible(g):
                raise ValueError("generators must be invertible over GF(2)")
        self.dim = dim
        self.gens = gens


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


def cycle_type_charpoly(cycle_type: tuple[int, ...]) -> int:
    """GF(2) characteristic polynomial (bit-poly) of a permutation with these
    cycle lengths on the `symplectic` module of degree d = sum of the lengths:
    prod (x^l + 1) over (x + 1) for d odd, over (x + 1)^2 = x^2 + 1 for d even."""
    full = 1
    for k in cycle_type:
        full = pmul(full, (1 << k) | 1)
    return pdiv(full, 0b11 if sum(cycle_type) % 2 else 0b101)


def vector_minpoly(M: BitMatrix, v: int) -> int:
    """The monic m of least degree with v m(M) = 0, for a row vector v.

    v, vM, vM^2, ... go into an echelon basis until a power falls into the
    span of the earlier ones; with the powers as columns, the one kernel
    vector is the coefficient list of m."""
    pivots: dict[int, int] = {}
    powers = [v]
    while echelon_insert(pivots, powers[-1]):
        powers.append(M.row_apply(powers[-1]))
    _, (m,) = rank_nullspace(BitMatrix(powers, M.ncols).transpose())
    return m


def distinct_degree_parts(f: int) -> dict[int, int]:
    """{d: product of the distinct irreducible factors of degree d of f != 0}.

    x^(2^d) + x is the squarefree product of the irreducibles of degree
    dividing d, so once the factors of lower degree are divided out of f,
    the gcd of the rest with x^(2^d) + x is the degree-d part.  A rest whose
    factors all have degree > d and whose degree is below 2(d + 1) is 1 or
    irreducible."""
    parts: dict[int, int] = {}
    rest = f
    h = 0b10  # x^(2^d), reduced mod a multiple of rest
    d = 0
    while pdeg(rest) >= 2 * (d + 1):
        d += 1
        h = pmod(pmul(h, h), rest)
        part = pgcd(rest, h ^ 0b10)
        if pdeg(part) > 0:
            parts[d] = part
            g = part  # divide out every power of the part's factors
            while pdeg(g) > 0:
                rest = pdiv(rest, g)
                g = pgcd(rest, g)
    if pdeg(rest) > 0:
        parts[pdeg(rest)] = rest
    return parts


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
