"""Reference implementations the test suite checks production output against.

Nothing here runs on a command-line path.  Each routine reaches a quantity
the package computes another way: the Berkowitz characteristic polynomial
against the audits' eigenvalue-1 multiplicities, one Bareiss elimination
per class against ranks mod p and the fixed dimensions of the powers,
orbit counts on points and 2-subsets against the ranks of the two-row
families, embedded matrices against the cycle-type forms of the symplectic
module, Garnir rewriting against leading-tabloid straightening, tabloid permutation
modules against the character oracle, point counts over F_{p^k} against the
L-polynomial as a character sum of resultants, the MeatAxe on reduced Specht
matrices against James's mod-2 decomposition numbers, products along the
closure's tree words against the class matrices the MeatAxe carries, and so on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, lcm

from eigenone.arith import PackedFp, check_count_prime, disc_resultant, zp_degree
from eigenone.audit import audit_payload, class_payload
from eigenone.census import two_generated_subgroups
from eigenone.cycletypes import is_even_class, sn_class_size
from eigenone.errors import DEFAULT_SEED
from eigenone.gf2 import (
    BitMatrix,
    GF2Module,
    fixed_space_dim,
    gf2_rank,
    pdeg,
    pdiv,
    pmod,
    rank_nullspace,
)
from eigenone.intlinalg import _bareiss
from eigenone.meataxe import composition_factors, is_irreducible
from eigenone.perms import (
    IndexedGroup,
    PermGroup,
    Permutation,
    class_rep_for,
    class_reps_symmetric,
    orbit,
    orbits,
)
from eigenone.specht import (
    FAMILY_TWO_CONJ,
    Tableau,
    Tabloid,
    _basis,
    _perm_sign,
    action_matrix,
    columns,
    family_shape,
    perm_tabloid,
    polytabloid_expand,
    tv_add_scaled,
)
from eigenone.symplectic import embed_group, embed_permutation, permutation_module_gf2

# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def identity_perm(d: int) -> Permutation:
    return Permutation(range(d))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for i, j in enumerate(p.images):
        inv[j] = i
    return Permutation(inv)


def conjugate_by(p: Permutation, g: Permutation) -> Permutation:
    """g * p * g^-1."""
    return g * p * inverse(g)


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The partition of the transposed Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def class_label(ct: tuple[int, ...]) -> str:
    """The label a report gives the class of cycle type ct, e.g. "5,2,1,1"."""
    return ",".join(map(str, ct))


def is_identity(p: Permutation) -> bool:
    return all(i == j for i, j in enumerate(p.images))


def is_transitive(G: PermGroup) -> bool:
    return len(orbit(0, [g.images.__getitem__ for g in G.generators])) == G.degree


# ---------------------------------------------------------------------------
# Integer linear algebra: rank, trace, the Berkowitz characteristic polynomial
# ---------------------------------------------------------------------------


def int_zeros(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def int_identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matsub(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    if [len(r) for r in A] != [len(r) for r in B]:
        raise ValueError("shape mismatch")
    return [[a - b for a, b in zip(r, s)] for r, s in zip(A, B)]


def transpose(M: list[list[int]]) -> list[list[int]]:
    return [list(c) for c in zip(*M)]


def matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    if any(len(row) != len(B) for row in A):
        raise ValueError("shape mismatch")
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def _is_square(M: list[list[int]]) -> bool:
    return all(len(row) == len(M) for row in M)


def trace(M: list[list[int]]) -> int:
    if not _is_square(M):
        raise ValueError("trace of non-square matrix")
    return sum(M[i][i] for i in range(len(M)))


def rank_exact(M: list[list[int]]) -> int:
    """Rank over the rationals, fraction-free."""
    if not M or not M[0]:
        return 0
    rank, _ = _bareiss([list(r) for r in M])
    return rank


def det(M: list[list[int]]) -> int:
    """Determinant of a square matrix, fraction-free, on a copy of its rows."""
    if not _is_square(M):
        raise ValueError("determinant of non-square matrix")
    _, d = _bareiss([list(r) for r in M])
    return d


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


def charpoly_exact(M: list[list[int]]) -> IntPoly:
    """Characteristic polynomial det(xI - M) via the Berkowitz algorithm.

    Division-free, so exact over the integers for any input.
    """
    if not _is_square(M):
        raise ValueError("characteristic polynomial of non-square matrix")
    n = len(M)
    if n == 0:
        return IntPoly.of([1])
    A = M
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


def eig1_multiplicity(M: list[list[int]]) -> tuple[int, int]:
    """(algebraic, geometric) multiplicity of eigenvalue 1.

    Algebraic: highest k with (x-1)^k dividing the characteristic polynomial,
    by repeated exact synthetic division.  Geometric: dim - rank(M - I) over
    the rationals.
    """
    if not _is_square(M):
        raise ValueError("eigenvalue multiplicity of non-square matrix")
    p = charpoly_exact(M)
    alg = 0
    while True:
        q = p.divide_by_x_minus_1()
        if q is None:
            break
        alg += 1
        p = q
    geo = len(M) - rank_exact(matsub(M, int_identity(len(M))))
    assert geo <= alg
    return alg, geo


def _one_minus(M: list[list[int]]) -> list[list[int]]:
    """The rows of I - M, new lists that `_bareiss` may eliminate in place."""
    return [[(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(M)]


def _int_class_payload(label: str, size: int, order: int, M: list[list[int]]) -> dict:
    rank, d = _bareiss(_one_minus(M))
    geo = len(M) - rank
    # M has finite order, so it is semisimple over QQ: the algebraic
    # multiplicity of eigenvalue 1 equals the geometric one
    return class_payload(label, size, order, d, geo, geo)


def audit_int_classes(rep_id: str, classes: list[tuple[str, int, int, list[list[int]]]]) -> dict:
    """The Bareiss audit: rank and det(I - M) over ZZ, one elimination per
    class.  classes: (label, class size, element order, matrix rows)."""
    if not classes:
        raise ValueError("no classes to audit")
    return audit_payload(rep_id, len(classes[0][3]), "ZZ",
                         [_int_class_payload(*c) for c in classes])


def twisted_action_matrix(sigma: Permutation, shape: tuple[int, ...]) -> list[list[int]]:
    """Rows of the matrix of sigma on the sign twist of the Specht module:
    an odd sigma acts by -M."""
    M = action_matrix(sigma, shape)
    return M if sigma.is_even() else [[-a for a in row] for row in M]


def audit_specht_by_bareiss(n: int, family: str, group: str = "s_n") -> dict:
    """`audit.audit_specht`, with one Bareiss elimination of each class's
    matrix, the sign twist's built as such, instead of ranks mod p, the
    derived twist and the fixed dimensions of the powers."""
    shape = family_shape(family, n)
    matrix = twisted_action_matrix if family == FAMILY_TWO_CONJ else action_matrix
    classes = [(class_label(ct), sn_class_size(ct), rep.order(), matrix(rep, shape))
               for ct, rep in class_reps_symmetric(n)
               if group == "s_n" or is_even_class(ct)]
    return audit_int_classes(f"specht:{family}:n={n}:{group}", classes)


def _cross_cycle_orbits(ct: tuple[int, ...]) -> list[tuple[int, int]]:
    """(count, length) of the <g>-orbits on 2-subsets that meet two cycles:
    an l_i-cycle and an l_j-cycle give gcd(l_i, l_j) orbits of length
    lcm(l_i, l_j)."""
    return [(gcd(a, b), lcm(a, b)) for a, b in itertools.combinations(ct, 2)]


def two_row_fixed_dim_by_orbits(ct: tuple[int, ...]) -> int:
    """dim Fix(g) on S^(n-2,2) for g of cycle type ct, with c cycles of
    lengths l_1..l_c: sum floor(l_i/2) + G - c, G the sum of gcd(l_i, l_j)
    over i < j.

    M^(n-2,2) = 1 + V + S^(n-2,2) and M^(n-1,1) = 1 + V, and a permutation
    module's fixed space has one dimension per orbit.  An l-cycle's own
    2-subsets fall into floor(l/2) orbits, two cycles' into gcd(l_i, l_j),
    and the points into c."""
    return sum(length // 2 for length in ct) + sum(k for k, _ in _cross_cycle_orbits(ct)) - len(ct)


def twisted_two_row_fixed_dim_by_orbits(ct: tuple[int, ...]) -> int:
    """dim Fix(g) on the sign twist of S^(n-2,2) for g of cycle type ct.

    For g even it is the value on S^(n-2,2).  For g odd the fixed vectors
    are those that g sends to their negatives on S^(n-2,2).  On a
    permutation module, that eigenspace has one dimension per orbit of even
    length, so the value is the even-length <g>-orbits on 2-subsets less the
    even-length cycles.  Inside an l-cycle, l even, there are l/2 - 1 orbits
    of length l and the antipodal one of length l/2; for l odd every orbit
    has length l."""
    if is_even_class(ct):
        return two_row_fixed_dim_by_orbits(ct)
    even_cycles = [length for length in ct if length % 2 == 0]
    inside = sum(length // 2 - 1 + (length % 4 == 0) for length in even_cycles)
    across = sum(k for k, length in _cross_cycle_orbits(ct) if length % 2 == 0)
    return inside + across - len(even_cycles)


def permutation_matrix(images0: tuple[int, ...]) -> list[list[int]]:
    """Column-vector convention: column j has a 1 in row images0[j]."""
    n = len(images0)
    M = int_zeros(n)
    for j, i in enumerate(images0):
        M[i][j] = 1
    return M


def zp_eval(f: list[int], x: int) -> int:
    """Value at x of an integer polynomial with ascending coefficients."""
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# F_p[x]: list products, distinct-degree factorization by repeated powering
# ---------------------------------------------------------------------------


def fp_trim(f, p):
    while f and f[-1] % p == 0:
        f.pop()
    return [c % p for c in f]


def fp_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return fp_trim(out, p)


def fp_divmod(f, g, p):
    f = list(f)
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], fp_trim(f, p)
    inv = pow(g[-1], -1, p)
    q = [0] * (len(f) - dg)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv % p
        s = len(f) - 1 - dg
        q[s] = c
        for i, b in enumerate(g):
            f[s + i] = (f[s + i] - c * b) % p
        f = fp_trim(f, p)
        if not f:
            break
    return fp_trim(q, p), f


def fp_mod(f, g, p):
    return fp_divmod(f, g, p)[1]


def fp_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def fp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """The monic gcd in F_p[x] by Euclid on lists, one `fp_mod` per step."""
    f, g = fp_trim(list(f), p), fp_trim(list(g), p)
    while g:
        f, g = g, fp_mod(f, g, p)
    return fp_monic(f, p)


def _sub_x(h: list[int], p: int) -> list[int]:
    h = list(h)
    while len(h) < 2:
        h.append(0)
    h[1] = (h[1] - 1) % p
    return fp_trim(h, p)


def packed_powmod(F: PackedFp, a: int, e: int) -> int:
    """a^e mod F.f by square-and-multiply on `PackedFp.mulmod`, for any
    reduced residue a; production raises only x (`PackedFp.x_power`)."""
    if not e:
        return 1
    r = a
    for bit in bin(e)[3:]:
        r = F.mulmod(r, r)
        if bit == "1":
            r = F.mulmod(r, a)
    return r


def fp_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod) through the packed kernel `PackedFp`, as lists, for
    comparison with `fp_powmod_lists`."""
    F = PackedFp(mod, p)
    return F.unpack(packed_powmod(F, F.divmod(F.pack(base), F.f)[1], e))


def fp_powmod_lists(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """base^e mod (mod) in F_p[x] by square-and-multiply, one list product
    and one division per step."""
    result = [1]
    base = fp_mod(base, mod, p)
    while e:
        if e & 1:
            result = fp_mod(fp_mul(result, base, p), mod, p)
        base = fp_mod(fp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def ddf_degrees_per_degree_powmod(f: list[int], p: int) -> tuple[int, ...] | None:
    """Irreducible-factor degrees of f mod p (lc(f) a unit) by distinct-degree
    factorization that raises h to the p-th power mod the remaining part
    afresh for every degree d; None when f mod p is not squarefree, decided
    by gcd(f, f') (production reads it off disc(f) mod p)."""
    fp = fp_monic(fp_trim([c % p for c in f], p), p)
    if fp_gcd(fp, fp_trim([i * c % p for i, c in enumerate(fp)][1:], p), p) != [1]:
        return None
    degrees = []
    h = [0, 1]  # x
    v = fp
    d = 0
    while len(v) - 1 > 0:
        d += 1
        if 2 * d > len(v) - 1:
            degrees.append(len(v) - 1)
            break
        h = fp_powmod_lists(h, p, v, p)
        g = fp_gcd(v, _sub_x(h, p), p)
        if len(g) - 1 > 0:
            degrees += [d] * ((len(g) - 1) // d)
            v = fp_monic(fp_divmod(v, g, p)[0], p)
            h = fp_mod(h, v, p)
    return tuple(sorted(degrees))


# ---------------------------------------------------------------------------
# F_{p^k} and hyperelliptic point counts by enumeration
# ---------------------------------------------------------------------------


def field_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree k over F_p
    (ordered by the coefficient tuple (c_0..c_{k-1}))."""
    if k == 1:
        return (0, 1)

    def irreducible(coeffs) -> bool:
        # Rabin: no factor of degree <= k/2, and x^(p^k) = x mod f
        F = PackedFp(list(coeffs) + [1], p)
        h = F.x
        for _ in range(k // 2):
            h = packed_powmod(F, h, p)
            if F.degree(F.gcd(F.f, F.reduce(h + F.neg_x))) != 0:
                return False
        return F.x_power(p**k) == F.x

    for coeffs in itertools.product(range(p), repeat=k):
        if irreducible(coeffs):
            return tuple(coeffs) + (1,)
    raise AssertionError("no irreducible found")


class Fq:
    """F_{p^k} with elements as integers encoding base-p coefficient vectors."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = list(field_modulus(p, k))

    def decode(self, x: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(x % self.p)
            x //= self.p
        return out

    def encode(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + c % self.p
        return x

    def add(self, a: int, b: int) -> int:
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        fa = self.decode(a)
        fb = self.decode(b)
        prod = fp_mul(fa, fb, self.p)
        rem = fp_mod(prod, self.modulus, self.p)
        return self.encode(rem + [0] * (self.k - len(rem)))

    def elements(self):
        return range(self.q)

    def squares(self) -> set[int]:
        return {self.mul(x, x) for x in self.elements()}


def curve_count(f: list[int], p: int, k: int) -> int:
    """Number of points of y^2 = f(x) over F_{p^k}, deg f odd (one point at
    infinity); naive enumeration with a precomputed square table."""
    d = zp_degree(f)
    if d % 2 == 0:
        raise ValueError("only odd-degree models here")
    check_count_prime(f, p, disc_resultant(f))
    F = Fq(p, k)
    sq = F.squares()
    fp = [c % p for c in f]
    count = 1  # point at infinity (odd degree)
    for x in F.elements():
        # Horner in F_q
        v = 0
        for c in reversed(fp):
            v = F.add(F.mul(v, x), c)
        if v == 0:
            count += 1
        elif v in sq:
            count += 2
    g = (d - 1) // 2
    q = p**k
    assert (count - (q + 1)) ** 2 <= 4 * g * g * q, f"Weil bound violated over F_{q}"
    return count


def lpoly_by_enumeration(f: list[int], p: int) -> list[int]:
    """The L-polynomial of y^2 = f(x) (deg f = 9) over F_p, ascending, from
    `curve_count` over F_{p^k}, k = 1..4: Newton's identities give
    c_1..c_4 from the power sums s_k = p^k + 1 - #C(F_{p^k}), and the
    functional equation gives c_{8-i} = p^{4-i} c_i."""
    g = 4
    s = [p**k + 1 - curve_count(f, p, k) for k in range(1, g + 1)]
    # e_k = (1/k) * sum_{i=1..k} (-1)^(i-1) e_{k-i} s_i;  c_i = (-1)^i e_i
    e = [1]
    for k in range(1, g + 1):
        q, r = divmod(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)), k)
        assert r == 0, "Newton identity division must be exact"
        e.append(q)
    c = [(-1) ** i * e[i] for i in range(g + 1)]
    return c + [p ** (g - i) * c[i] for i in reversed(range(g))]


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------


def from_entries(entries) -> BitMatrix:
    """The matrix over GF(2) of integer entries, given as rows, mod 2."""
    rows = []
    for r in entries:
        v = 0
        for j, e in enumerate(r):
            if e % 2:
                v |= 1 << j
        rows.append(v)
    return BitMatrix(rows, len(entries[0]) if entries else 0)


def factor_dimensions(module: GF2Module, seed: int = DEFAULT_SEED) -> list[int]:
    """The MeatAxe's composition-factor dimensions, ascending: the reference
    for `specht.mod2_factor_dims`, James's decomposition numbers."""
    return [f.dim for f, _ in composition_factors(module, seed)]


def endomorphism_algebra_dim(module: GF2Module) -> int:
    """Dimension over GF(2) of {X : XG = GX for all generators G}, as the
    nullity of that linear system in the n^2 entries of X: the reference for
    `meataxe.endomorphism_dim`, which counts from the Norton witness."""
    n = module.dim
    rows = []
    for G in module.gens:
        Gt = G.transpose()
        for r in range(n):
            row_r = G.rows[r]
            for c in range(n):
                eq = Gt.rows[c] << (r * n)
                rest = row_r
                while rest:
                    low = rest & -rest
                    k = low.bit_length() - 1
                    eq ^= 1 << (k * n + c)
                    rest ^= low
                if eq:
                    rows.append(eq)
    if not rows:
        return n * n
    rank, _ = rank_nullspace(BitMatrix(rows, n * n))
    return n * n - rank


def gf2_det(M: BitMatrix) -> int:
    """Determinant over GF(2): 1 iff square and full rank."""
    if not M.is_square:
        raise ValueError("determinant of non-square matrix")
    return 1 if gf2_rank(M) == M.nrows else 0


def bit_apply(M: BitMatrix, v: int) -> int:
    """M times the column vector v (an int over column indices)."""
    out = 0
    for i, r in enumerate(M.rows):
        if (r & v).bit_count() & 1:
            out |= 1 << i
    return out


def to_int_entries(M: BitMatrix) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(M.ncols)] for r in M.rows]


def charpoly_mod2(M: BitMatrix) -> int:
    """det(xI - M) over GF(2) as a bit-poly: the Berkowitz characteristic
    polynomial over the integers, reduced mod 2."""
    coeffs = charpoly_exact(to_int_entries(M)).coeffs
    return sum(1 << i for i, c in enumerate(coeffs) if c % 2)


def from_hex_rows(hex_rows: list[str], ncols: int) -> BitMatrix:
    """Inverse of BitMatrix.to_hex_rows: 64-bit words, the word holding the
    lowest columns printed first."""
    nwords = max(1, -(-ncols // 64))
    rows = []
    for h in hex_rows:
        v = int(h, 16)
        r = 0
        for w in range(nwords):
            word = (v >> (64 * (nwords - 1 - w))) & ((1 << 64) - 1)
            r |= word << (64 * w)
        rows.append(r)
    return BitMatrix(rows, ncols)


def is_irreducible_by_trial_division(f: int) -> bool:
    """f in GF(2)[x] (bit i = coefficient of x^i) has positive degree and no
    factor of degree 1 .. deg(f)/2."""
    d = pdeg(f)
    if d <= 0:
        return False
    return all(pmod(f, g) for g in range(2, 1 << (d // 2 + 1)))


def distinct_factors_by_trial_division(f: int) -> set[int]:
    """The distinct irreducible factors of f != 0 in GF(2)[x].  Candidates
    run in increasing order, so the first to divide what is left of f is
    irreducible; what is left after degree deg/2 is 1 or irreducible."""
    out = set()
    g = 2
    while 2 * pdeg(g) <= pdeg(f):
        if pmod(f, g):
            g += 1
            continue
        out.add(g)
        while pmod(f, g) == 0:
            f = pdiv(f, g)
    if pdeg(f) > 0:
        out.add(f)
    return out


# ---------------------------------------------------------------------------
# The symplectic module by matrices: one embedded matrix and one
# characteristic polynomial per class, against the cycle-type forms
# ---------------------------------------------------------------------------


def peval1(f: int) -> int:
    """f(1) over GF(2) = parity of the number of terms."""
    return f.bit_count() & 1


def gf2_class_payload(label: str, size: int, order: int, M: BitMatrix) -> dict:
    """det(I - M), and the eigenvalue-1 multiplicities as dim ker(M + I) and
    the multiplicity of x + 1 in the characteristic polynomial."""
    geo = fixed_space_dim(M)
    cp = charpoly_mod2(M)
    alg = 0
    while peval1(cp) == 0:
        cp = pdiv(cp, 0b11)  # exact division by (x + 1)
        alg += 1
    return class_payload(label, size, order, 0 if geo else 1, alg, geo)


def audit_gf2_classes(
    rep_id: str,
    classes: list[tuple[str, int, int, BitMatrix]],
    module: GF2Module,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Audit (label, class size, element order, matrix) per class, and certify
    the module irreducible or not with the MeatAxe; an irreducible module is
    absolutely irreducible iff its commuting algebra is GF(2)."""
    irreducible = is_irreducible(module, seed)
    return {
        **audit_payload(rep_id, module.dim, "GF2", [gf2_class_payload(*c) for c in classes]),
        "irreducible": irreducible,
        "absolutely_irreducible": irreducible and endomorphism_algebra_dim(module) == 1,
    }


def audit_embedded_group_by_matrices(G: PermGroup, seed: int = DEFAULT_SEED) -> dict:
    """`audit.audit_embedded_group` with every class representative embedded,
    the order counted on the closure, and the form written out entry by
    entry as all-ones + identity, with M^T J M = J checked for every
    embedded generator M."""
    classes = [(class_label(rep.cycle_type()), size, order, embed_permutation(rep))
               for size, rep, order in G.conjugacy_classes()]
    gens = [embed_permutation(g) for g in G.generators]
    dim = gens[0].nrows
    gram = from_entries([[int(i != j) for j in range(dim)] for i in range(dim)])
    return {
        **audit_gf2_classes(f"embed:{G.name}:d={G.degree}", classes, GF2Module(dim, gens), seed),
        "group": {"name": G.name, "degree": G.degree,
                  "generators": [g.cycle_string() for g in G.generators]},
        "group_order": len(G.indexed.elements),
        "space": {"d": G.degree, "dim": dim, "gram_hex_rows": gram.to_hex_rows()},
        "form_preserved": all(M.transpose() * gram * M == gram for M in gens),
    }


def cyclic_subgroups_by_definition(group: IndexedGroup) -> dict[frozenset[int], int]:
    """Each cyclic subgroup, as the set of powers of an element, mapped to
    the least index generating it."""
    least: dict[frozenset[int], int] = {}
    for i in range(len(group.elements)):
        least.setdefault(frozenset(group.powers(i)), i)
    return least


def matrix_closure(gens: list[BitMatrix]) -> list[BitMatrix]:
    """The group the square matrices generate: the orbit of the identity
    under right multiplication by them."""
    return orbit(BitMatrix.identity(gens[0].nrows), [lambda m, g=g: m * g for g in gens])


def embedded_elements(G: PermGroup) -> list[BitMatrix]:
    """The matrix of each element of `G.indexed`, by `embed_permutation`,
    after checking that these are the closure of the embedded generators,
    one matrix per element."""
    mats = [embed_permutation(x) for x in G.indexed.elements]
    closed = matrix_closure(embed_group(G).gens)
    assert len(closed) == len(set(mats)) == len(mats) and set(closed) == set(mats)
    return mats


def matrix_classes(gens: list[BitMatrix]) -> list[tuple[int, int, BitMatrix]]:
    """(class size, element order, representative) per conjugacy class of
    the closed matrix group, from explicit conjugates."""
    els = matrix_closure(gens)
    index = {m: i for i, m in enumerate(els)}
    gens_inv = [matrix_closure([g])[-1] for g in gens]  # I, g, ..., g^(ord - 1)
    conj = [lambda i, g=g, h=h: index[h * els[i] * g] for g, h in zip(gens, gens_inv)]
    return [(len(orb), len(matrix_closure([els[orb[0]]])), els[orb[0]])
            for orb in orbits(range(len(els)), conj)]


def top_factor_by_matrices(G: PermGroup, seed: int = DEFAULT_SEED) -> dict:
    """The `top_factor` of `embed audit --module permutation`, from the
    closure of the largest composition factor's generator matrices."""
    top, _ = max(composition_factors(permutation_module_gf2(G), seed), key=lambda fc: fc[0].dim)
    els = matrix_closure(top.gens)
    return {
        "dim": top.dim,
        "group_size": len(els),
        "absolutely_irreducible": endomorphism_algebra_dim(top) == 1,
        "unisingular": all(fixed_space_dim(m) > 0 for m in els),
    }


def tree_word(group: IndexedGroup, i: int) -> list[int]:
    """Generator indices k_0 = 0, k_1, ..., k_m along the closure's tree, so
    that x_i = g_k0 * g_k1 * ... * g_km."""
    out = []
    while i >= 0:
        out.append(group._via[i])
        i = group._parent[i]
    return out[::-1]


def word_product_matrices(G: PermGroup, gens: list[BitMatrix], elements) -> list[BitMatrix]:
    """The matrix of each of `elements` on a module of G whose generators act
    as `gens`: the product of `gens` along the element's tree word in the
    closure, the reference for the class matrices that `composition_factors`
    carries."""
    group = G.indexed
    out = []
    for x in elements:
        M = BitMatrix.identity(gens[0].nrows)
        for k in tree_word(group, group.index[x]):
            M = M * gens[k]
        out.append(M)
    return out


def two_generated_subgroups_by_pairs(
    group: IndexedGroup,
) -> dict[frozenset[int], tuple[frozenset[int], tuple[int, int]]]:
    """`census.two_generated_subgroups` with every partner y paired with x and
    every <x, y> closed from scratch as the orbit of x under right
    multiplication by x and y."""
    times = [row.__getitem__ for row in group.cayley_table]
    maps = [lambda S, c=c.__getitem__: frozenset(map(c, S)) for c in group.conjugators()]
    cyclic = {i: X for X, i in cyclic_subgroups_by_definition(group).items()}
    done: set[frozenset[int]] = set()  # cyclic subgroups already taken as <x>
    subgroups: dict[frozenset[int], tuple[frozenset[int], tuple[int, int]]] = {}
    for x, X in cyclic.items():
        if X in done:
            continue
        partners = [y for y, Y in cyclic.items() if Y not in done]
        done.update(orbit(X, maps))
        for y in partners:
            K = frozenset(orbit(x, (times[x], times[y])))
            if K not in subgroups:
                for H in orbit(K, maps):
                    subgroups[H] = (K, (x, y))
    return subgroups


def subgroup_census_by_matrices(G: PermGroup, seed: int = DEFAULT_SEED) -> dict:
    """`census.subgroup_census` with dim ker(M + I) read off every matrix of
    the closed embedded group and the MeatAxe run on the matrices of each
    generator pair."""
    group = G.indexed
    elements = embedded_elements(G)
    dim = elements[0].nrows
    table = group.cayley_table  # table[b][a] = index of x_a * x_b
    eig1 = [fixed_space_dim(m) > 0 for m in elements]

    per_class: dict[frozenset[int], tuple] = {}
    agg: dict[tuple[int, bool, bool], list] = {}
    for H, (K, gens) in sorted(
        two_generated_subgroups(group).items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        if K not in per_class:
            irr = is_irreducible(GF2Module(dim, [elements[g] for g in gens]), seed)
            fp = None
            if irr:
                conj = [{table[g][y]: table[y][g] for y in K}.__getitem__ for g in gens]
                fp = sorted(len(c) for c in orbits(sorted(K), conj))
            per_class[K] = irr, all(eig1[x] for x in K), fp
        irr, uni, fp = per_class[K]
        rec = agg.setdefault((len(H), irr, uni), [0, []])
        rec[0] += 1
        if irr and fp not in rec[1]:
            rec[1].append(fp)
    census = [{"order": order, "irreducible": irr, "unisingular": uni, "count": count,
               "class_size_fingerprints": fps}
              for (order, irr, uni), (count, fps) in sorted(agg.items())]
    return {"group": G.name, "group_order": len(elements), "census": census,
            "irreducible_orders": sorted({e["order"] for e in census if e["irreducible"]})}


def eig1_data_by_embedding(cycle_type: tuple[int, ...]) -> tuple[int, int, int]:
    """(dim ker(M + I), multiplicity of x + 1, characteristic polynomial) of
    the symplectic embedding M of a permutation with this cycle type."""
    M = embed_permutation(class_rep_for(cycle_type))
    record = gf2_class_payload("", 1, 1, M)
    return record["eig1_geometric"], record["eig1_algebraic"], charpoly_mod2(M)


# ---------------------------------------------------------------------------
# Specht modules: hook lengths, re-expansion, Garnir rewriting
# ---------------------------------------------------------------------------


def hook_length_count(shape: tuple[int, ...]) -> int:
    conj = conjugate_partition(shape)
    d = factorial(sum(shape))
    for i, ln in enumerate(shape):
        for j in range(ln):
            hook = (ln - j - 1) + (conj[j] - i - 1) + 1
            assert d % hook == 0
            d //= hook
    return d


def expand_coords(coords: list[int], shape: tuple[int, ...]) -> dict[Tabloid, int]:
    """Inverse of straighten: tabloid expansion of a coordinate vector."""
    B = _basis(shape)
    out: dict[Tabloid, int] = {}
    for c, exp in zip(coords, B.expansions):
        if c:
            tv_add_scaled(out, exp, c)
    return out


def apply_tableau(sigma: Permutation, t: Tableau) -> Tableau:
    """The tableau sigma t: each entry x replaced by sigma(x)."""
    return tuple(tuple(sigma.apply(x) for x in row) for row in t)


def fixed_vector_full_orbit(sigma: Permutation, t: Tableau) -> dict[Tabloid, int]:
    """E = sum of e_{sigma^j t} over every 0 <= j < order(sigma), term by term."""
    acc: dict[Tabloid, int] = {}
    cur = t
    for _ in range(sigma.order()):
        tv_add_scaled(acc, polytabloid_expand(cur), 1)
        cur = apply_tableau(sigma, cur)
    return acc


def fixed_by_action_matrix(sigma: Permutation, fv: dict) -> bool:
    """`fixed_vectors.build_fixed_vector`'s tabloid-level check, one level
    up: sigma's action matrix times the witness's coordinates gives them
    back."""
    coords = [int(c) for c in fv["coords"]]
    M = action_matrix(sigma, family_shape(fv["family"], sigma.degree))
    return [sum(a * c for a, c in zip(row, coords)) for row in M] == coords


def _sort_columns(t: Tableau) -> tuple[Tableau, int]:
    cols = columns(t)
    sign = 1
    sorted_cols = []
    for col in cols:
        order = sorted(range(len(col)), key=lambda i: col[i])
        sign *= _perm_sign(tuple(order))
        sorted_cols.append([col[i] for i in order])
    shape = [len(r) for r in t]
    rows = [tuple(sorted_cols[j][i] for j in range(ln)) for i, ln in enumerate(shape)]
    return tuple(rows), sign


def _find_row_violation(t: Tableau) -> tuple[int, int] | None:
    """Leftmost adjacent column pair with a descent, topmost row: (row, col)."""
    for j in range(len(t[0]) - 1):
        for i, row in enumerate(t):
            if len(row) > j + 1 and row[j] > row[j + 1]:
                return i, j
    return None


def garnir_expand(t: Tableau) -> dict[Tableau, int]:
    """e_t as an integer combination of standard polytabloids, by the Garnir
    relation at the leftmost column-descent violation, topmost row."""
    return dict(_garnir_expand_cached(t))


@lru_cache(maxsize=200000)
def _garnir_expand_cached(t: Tableau) -> tuple[tuple[Tableau, int], ...]:
    u, sign = _sort_columns(t)
    viol = _find_row_violation(u)
    if viol is None:
        return ((u, sign),)
    i, j = viol
    colA, colB = columns(u)[j:j + 2]
    A = colA[i:]
    B = colB[: i + 1]
    union = sorted(A + B)
    cells = [(r, j) for r in range(i, len(colA))] + [(r, j + 1) for r in range(i + 1)]
    old_vals = A + B
    out: dict[Tableau, int] = {}
    for sel in itertools.combinations(union, len(A)):
        if list(sel) == sorted(A):
            continue  # identity shuffle
        rest = sorted(set(union) - set(sel))
        new_vals = list(sel) + rest
        # sign of the rearrangement of the involved values
        pos = {v: k for k, v in enumerate(old_vals)}
        sign_shuffle = _perm_sign(tuple(pos[v] for v in new_vals))
        rows = [list(r) for r in u]
        for (r, c), v in zip(cells, new_vals):
            rows[r][c] = v
        for sub_t, sub_c in _garnir_expand_cached(tuple(map(tuple, rows))):
            nv = out.get(sub_t, 0) - sign_shuffle * sub_c
            if nv:
                out[sub_t] = nv
            elif sub_t in out:
                del out[sub_t]
    return tuple((k, sign * v) for k, v in out.items())


def garnir_coords(t: Tableau) -> list[int]:
    """Coordinates of e_t on the standard basis via Garnir rewriting."""
    B = _basis(tuple(map(len, t)))
    index = {tab: i for i, tab in enumerate(B.tableaux)}
    coords = [0] * B.dim
    for s, c in garnir_expand(t).items():
        coords[index[s]] += c
    return coords


def generator_matrices(shape: tuple[int, ...], matrix=action_matrix) -> list[list[list[int]]]:
    """Matrices of the generators (1,2) and (1,2,...,n) of S_n on the
    standard basis of the shape, by `matrix` (`twisted_action_matrix` for
    the sign twist)."""
    n = sum(shape)
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return [matrix(g, shape) for g in gens]


def rep_mod2(mats: list[list[list[int]]]) -> GF2Module:
    """Reduce integer representation matrices, given as rows, mod 2."""
    if not mats:
        raise ValueError("need at least one matrix")
    return GF2Module(len(mats[0]), [from_entries(M) for M in mats])


def specht_mod2_module(n: int, shape: tuple[int, ...]) -> GF2Module:
    return rep_mod2(generator_matrices(shape))


def mod2_factor_dims_by_meataxe(family: str, n: int, seed: int = DEFAULT_SEED) -> list[int]:
    """`specht.mod2_factor_dims` by the MeatAxe on the family's generator
    matrices reduced mod 2, the sign twist's built as such."""
    matrix = twisted_action_matrix if family == FAMILY_TWO_CONJ else action_matrix
    return factor_dimensions(rep_mod2(generator_matrices(family_shape(family, n), matrix)), seed)


# ---------------------------------------------------------------------------
# Tabloid permutation modules and dominance order
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def tabloids_of_shape(shape_parts: tuple[int, ...]) -> tuple[Tabloid, ...]:
    n = sum(shape_parts)

    def split(remaining: tuple[int, ...], parts: tuple[int, ...]):
        if not parts:
            yield ()
            return
        k = parts[0]
        for chosen in itertools.combinations(remaining, k):
            rest = tuple(x for x in remaining if x not in set(chosen))
            for tail in split(rest, parts[1:]):
                yield (chosen,) + tail

    return tuple(sorted(split(tuple(range(1, n + 1)), shape_parts)))


def tabloid_action_matrix(sigma: Permutation, shape: tuple[int, ...]) -> list[list[int]]:
    """Permutation matrix of sigma on the tabloid basis of the shape."""
    tabs = tabloids_of_shape(shape)
    index = {T: i for i, T in enumerate(tabs)}
    M = int_zeros(len(tabs))
    for j, T in enumerate(tabs):
        M[index[perm_tabloid(sigma, T)]][j] = 1
    return M


def dominance_counts(T: Tabloid) -> tuple[int, ...]:
    """Cumulative counts of entries <= m in the first r rows, for every m and
    r.  T dominates S exactly when every count of T is >= that of S."""
    n = sum(len(r) for r in T)
    counts = []
    for m in range(1, n + 1):
        acc = 0
        for row in T:
            acc += sum(1 for x in row if x <= m)
            counts.append(acc)
    return tuple(counts)
