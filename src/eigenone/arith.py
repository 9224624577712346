"""Arithmetic side: the 2-parameter degree-9 polynomial family, exact
discriminants by resultants, factorization types over prime fields, Frobenius
cycle-type scans against a target permutation group, hyperelliptic point
counts, and L-polynomials with the mod-2 parity cross-check.

All polynomial arithmetic is exact and deterministic; factorization types
come from distinct-degree factorization alone.
"""

from __future__ import annotations

import os

from .errors import UsageError, VerificationError
from .intlinalg import IntMatrix, det_exact
from .perms import PermGroup

# ZPoly: list of ints, ascending degree, no trailing zeros.
ZPoly = list


def zp_trim(f: ZPoly) -> ZPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def zp_degree(f: ZPoly) -> int:
    return len(f) - 1


def zp_deriv(f: ZPoly) -> ZPoly:
    return zp_trim([i * c for i, c in enumerate(f)][1:])


# ---------------------------------------------------------------------------
# The degree-9 family g_{a,t} and its auxiliary form r(a, t)
# ---------------------------------------------------------------------------

def malle_g(a: int, t: int) -> ZPoly:
    """The 2-parameter degree-9 family, ascending coefficients."""
    return [
        a**6,
        -3 * a**6 + 6 * a**5 + 18 * a**4 - 36 * a**3,
        3 * a**6 - 12 * a**5 - 57 * a**4 + 282 * a**3 - 324 * a**2 - 3 * t,
        -(a**6) + 6 * a**5 + 81 * a**4 - 604 * a**3 + 1350 * a**2 - 972 * a + t,
        -51 * a**4 + 516 * a**3 - 1773 * a**2 + 2430 * a - 972,
        9 * a**4 - 168 * a**3 + 903 * a**2 - 1890 * a + 1296,
        18 * a**3 - 195 * a**2 + 648 * a - 675,
        15 * a**2 - 102 * a + 171,
        6 * a - 21,
        1,
    ]


def malle_r(a: int, t: int) -> int:
    return (
        a**12 - 12 * a**11 + 96 * a**10 - 520 * a**9 + 2166 * a**8 - 6960 * a**7
        - 2 * a**6 * t + 17524 * a**6 + 12 * a**5 * t - 34200 * a**5
        + 48 * a**4 * t + 49329 * a**4 - 272 * a**3 * t - 49572 * a**3
        + 342 * a**2 * t + 26244 * a**2 - 108 * a * t + t**2 + 108 * t
    )


def malle_disc_formula(a: int, t: int) -> int:
    """disc(g_{a,t}) in closed form: -2^8 3^9 t^4 a^6 r(a,t)^3."""
    return -(2**8) * 3**9 * t**4 * a**6 * malle_r(a, t) ** 3


def malle_is_squarefree_specialization(a: int, t: int) -> bool:
    """True iff the specialization has nonzero discriminant (a, t, r all
    nonzero), i.e. defines a squarefree degree-9 polynomial."""
    return a != 0 and t != 0 and malle_r(a, t) != 0


def resultant(f: ZPoly, g: ZPoly) -> int:
    """Res(f, g) by a fraction-free determinant of the Sylvester matrix."""
    m, n = zp_degree(f), zp_degree(g)
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    fr = list(reversed(f))  # descending
    gr = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + fr + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gr + [0] * (size - n - 1 - i))
    return det_exact(IntMatrix(rows))


def disc_resultant(f: ZPoly) -> int:
    """(-1)^{d(d-1)/2} Res(f, f') / lc(f), exact."""
    d = zp_degree(f)
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = resultant(f, zp_deriv(f))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, r = divmod(sign * res, f[-1])
    if r:
        raise VerificationError("Res(f, f') must be divisible by lc(f)")
    return q


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def bad_primes(f: ZPoly) -> list[int]:
    """Primes dividing disc(f) or the leading coefficient, by complete trial
    division of their product."""
    d = abs(disc_resultant(f) * f[-1])
    out = set()
    for p in [2, 3]:
        while d % p == 0:
            out.add(p)
            d //= p
    p = 5
    while p * p <= d:
        if d % p == 0:
            out.add(p)
            while d % p == 0:
                d //= p
        p += 2
    if d > 1:
        out.add(d)
    return sorted(out)


# ---------------------------------------------------------------------------
# F_p[x] (p an odd prime)
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


class PackedFp:
    """F_p[x] with each polynomial packed into one int (Kronecker substitution:
    von zur Gathen & Gerhard, Modern Computer Algebra, 8.4), for residues mod
    a fixed f of degree n >= 1 made monic.  Coefficient i sits in slot i, bits
    [i*S, (i+1)*S).  A reduced polynomial has every slot below p.

    Every sum the methods form before they reduce has slots below
    B = (2n + 2) p^2, so no slot carries into the next.  `reduce` takes all
    slots mod p at once: with s = B.bit_length(), k = s + p.bit_length() and
    mu = floor(2^k / p) + 1, a slot value v < B has v * mu < 2^S and
    floor(v * mu / 2^k) = floor(v / p), since the error v(mu - 2^k/p)/2^k
    stays below 2^(s - k) < 1/p (division by an invariant integer through
    one multiplication: Granlund & Montgomery, PLDI 1994).  `mulmod` reduces
    mod f by polynomial Barrett with m = floor(x^(2n-2) / f)."""

    def __init__(self, f, p: int):
        n = len(f) - 1
        inv = pow(f[-1], -1, p)
        s = ((2 * n + 2) * p * p).bit_length()
        self.k = s + p.bit_length()
        self.mu = (1 << self.k) // p + 1
        self.S = S = s + self.mu.bit_length()
        self.p, self.n = p, n
        # quotient bits of every slot, for polynomials of up to 2n slots
        self.qmask = ((1 << (S - self.k)) - 1) * ((1 << (2 * n * S)) - 1) // ((1 << S) - 1)
        self.low = [(1 << (i * S)) - 1 for i in range(2 * n)]
        self.f = self.pack([c * inv for c in f])
        self.neg_f = self.pack([-c * inv for c in f[:-1]])  # -f + x^n
        self.neg_x = (p - 1) << S
        self.x = self.divmod(1 << S, self.f)[1]  # x mod f: -f_0 when n = 1
        self.m = self.divmod(1 << ((2 * n - 2) * S), self.f)[0]
        self.m_shift = max(n - 2, 0) * S  # at n = 1, m = 0

    def pack(self, coeffs) -> int:
        t = 0
        for c in reversed(coeffs):
            t = (t << self.S) | c % self.p
        return t

    def unpack(self, t: int) -> list:
        S = self.S
        mask = (1 << S) - 1
        return [(t >> (i * S)) & mask for i in range(self.degree(t) + 1)]

    def reduce(self, t: int) -> int:
        """t with every slot (each below B, at most 2n of them) taken mod p."""
        return t - (((t * self.mu) >> self.k) & self.qmask) * self.p

    def degree(self, a: int) -> int:
        """Degree of a reduced polynomial; -1 for 0."""
        return (a.bit_length() - 1) // self.S

    def mulmod(self, a: int, b: int) -> int:
        """a * b mod f for reduced residues a, b.  With t = a * b = L + x^n H,
        the quotient by f is floor(H m / x^(n-2)), so t mod f is
        L - (quotient * (f - x^n)), kept to its low n slots."""
        t = a * b
        q = self.reduce(self.reduce(t >> (self.n * self.S)) * self.m) >> self.m_shift
        return self.reduce((t & self.low[self.n]) + (q * self.neg_f & self.low[self.n]))

    def powmod(self, a: int, e: int) -> int:
        """a^e mod f by square-and-multiply, for a reduced residue a."""
        if not e:
            return 1
        r = a
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, a)
        return r

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and remainder of a by b (reduced, b nonzero, deg a < 2n)."""
        S, p, low = self.S, self.p, self.low
        db = self.degree(b)
        inv = pow(b >> (db * S), -1, p)
        q = 0
        for j in range(self.degree(a), db - 1, -1):
            # slot j is a's top slot: eliminate it, then clear it
            c = (a >> (j * S)) * inv % p
            if c:
                q |= c << ((j - db) * S)
                a += (p - c) * b << ((j - db) * S)
            a &= low[j]
        return q, self.reduce(a)

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of reduced a and b (degrees below 2n; 0 when both
        are 0), by Euclid."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        if not a:
            return 0
        return self.reduce(a * pow(a >> (self.degree(a) * self.S), -1, self.p))


def factor_mod_p(f: ZPoly, p: int) -> tuple[int, ...] | None:
    """The irreducible-factor degrees of f mod p, ascending, or None when
    f mod p is not squarefree: a squarefree test, then distinct-degree
    factorization, on packed polynomials (`PackedFp`).

    The part g_d of f collecting its irreducible factors of degree d has
    degree d times their number, so the degrees need no equal-degree split
    (von zur Gathen & Gerhard, Modern Computer Algebra, 14.2).
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if f[-1] % p == 0:
        raise ValueError("p divides the leading coefficient")
    if len(f) < 2:
        raise ValueError("f must have degree >= 1")
    F = PackedFp(f, p)
    n = F.n
    if F.gcd(F.f, F.pack([i * c for i, c in enumerate(f)][1:])) != 1:
        return None
    # Frobenius g -> g^p is F_p-linear on F_p[x]/(f): with h = x^p mod f
    # computed once, the rows x^(ip) mod f carry x^(p^d) to x^(p^(d+1))
    # (von zur Gathen & Shoup, Comput. Complexity 2, 1992)
    h = F.powmod(F.x, p)
    frobenius = [1, h]
    while len(frobenius) < n:
        frobenius.append(F.mulmod(frobenius[-1], h))
    degrees = []
    prod = 1
    v, dv = F.f, n
    d = 0
    while dv > 0:
        d += 1
        if 2 * d > dv:
            degrees.append(dv)
            prod = F.reduce(prod * v)
            break
        if d > 1:  # h = x^(p^d) mod f
            h = F.reduce(sum(c * row for c, row in zip(F.unpack(h), frobenius)))
        g = F.gcd(v, F.reduce(h + F.neg_x))
        dg = F.degree(g)
        if dg > 0:
            degrees += [d] * (dg // d)
            prod = F.reduce(prod * g)
            v, r = F.divmod(v, g)
            if r:
                raise VerificationError("a distinct-degree factor must divide f mod p")
            dv -= dg
    if prod != F.f or sum(degrees) != n:
        raise VerificationError("distinct-degree factorization must reproduce f mod p")
    return tuple(sorted(degrees))


# ---------------------------------------------------------------------------
# Frobenius scan
# ---------------------------------------------------------------------------

def _scan_prime_worker(work: tuple) -> tuple[int, tuple[int, ...]]:
    f, disc, p = work
    degrees = factor_mod_p(list(f), p)
    if degrees is None:
        raise VerificationError(f"p={p} should be a good prime")
    # Stickelberger: f squarefree mod an odd p with r irreducible factors has
    # (disc f / p) = (-1)^(n - r).  The reconstruction check inside
    # factor_mod_p cannot see a wrong x^p mod f; this parity can.
    parity = 1 if (len(f) - 1 - len(degrees)) % 2 == 0 else p - 1
    if pow(disc, (p - 1) // 2, p) != parity:
        raise VerificationError(
            f"p={p}: {len(degrees)} irreducible factors contradict the Legendre symbol "
            "of disc(f) (Stickelberger)"
        )
    return p, degrees


def frobenius_scan(f: ZPoly, pmax: int, group: PermGroup, jobs: int = 1) -> dict:
    """For each good odd prime p <= pmax, a record of the factorization type
    of f mod p, the eigenvalue-1 nullity of an embedded permutation of that
    cycle type, and whether the type occurs among the group's class cycle
    types; with the primes at which either check fails.

    A clean scan is statistical consistency with the target group being the
    Galois image, never a proof.  Per-prime work runs in chunks of 64 primes
    on at most `jobs` processes; output order is ascending p regardless."""
    from .symplectic import eig1_nullity

    if zp_degree(f) < 3:
        raise ValueError("need degree >= 3")
    if zp_degree(f) != group.degree:  # else every type would lie outside the group
        raise UsageError(f"polynomial degree {zp_degree(f)} differs from the degree "
                         f"{group.degree} of {group.name}")
    disc = disc_resultant(f)
    group_types = group.cycle_types()
    listed_bad = []
    good = []
    for p in primes_up_to(pmax):
        if p == 2 or disc * f[-1] % p == 0:
            listed_bad.append(p)
        else:
            good.append(p)
    work = [(tuple(f), disc, p) for p in good]
    # a pool starts all its workers at once: no more than there are CPUs and chunks
    workers = min(jobs, os.cpu_count() or 1, -(-len(work) // 64))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_scan_prime_worker, work, chunksize=64))
    else:
        raw = [_scan_prime_worker(w) for w in work]
    raw.sort()
    records = []
    for p, degrees in raw:
        ct = tuple(sorted(degrees, reverse=True))
        nullity = eig1_nullity(ct)
        records.append({"p": p, "cycle_type": list(degrees), "eig1_nullity": nullity,
                        "has_eigenvalue_one": nullity >= 1, "type_in_group": ct in group_types})
    return {
        "poly": [str(c) for c in f],
        "pmax": pmax,
        "group": group.name,
        "bad_primes": listed_bad,
        "all_have_eigenvalue_one": all(r["has_eigenvalue_one"] for r in records),
        "all_types_in_group": all(r["type_in_group"] for r in records),
        "eig1_offender_primes": [r["p"] for r in records if not r["has_eigenvalue_one"]],
        "type_offender_primes": [r["p"] for r in records if not r["type_in_group"]],
        "records": records,
    }


# ---------------------------------------------------------------------------
# F_{p^k} and hyperelliptic point counts
# ---------------------------------------------------------------------------

POINT_BUDGET = 10**7


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
            h = F.powmod(h, p)
            if F.degree(F.gcd(F.f, F.reduce(h + F.neg_x))) != 0:
                return False
        return F.powmod(F.x, p**k) == F.x

    import itertools as it

    for coeffs in it.product(range(p), repeat=k):
        if irreducible(coeffs):
            return tuple(coeffs) + (1,)
    raise VerificationError("no irreducible found")


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


def check_count_prime(f: ZPoly, p: int, k: int) -> None:
    """Refuse a p at which y^2 = f(x) cannot be counted over F_{p^k}: p must
    be an odd prime of good reduction, with p^k within POINT_BUDGET."""
    # p comes from the command line (lpoly-check --primes)
    if p == 2 or not is_prime(p):
        raise UsageError(f"p must be an odd prime, got {p}")
    if p**k > POINT_BUDGET:
        raise UsageError(f"{p}^{k} = {p**k} exceeds the enumeration budget {POINT_BUDGET}")
    if disc_resultant(f) % p == 0 or f[-1] % p == 0:
        raise UsageError(f"bad prime {p}")


def curve_count(f: ZPoly, p: int, k: int) -> int:
    """Number of points of y^2 = f(x) over F_{p^k}, deg f odd (one point at
    infinity); naive enumeration with a precomputed square table."""
    d = zp_degree(f)
    if d % 2 == 0:
        raise ValueError("only odd-degree models here")
    check_count_prime(f, p, k)
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
    if (count - (q + 1)) ** 2 > 4 * g * g * q:
        raise VerificationError(f"Weil bound violated: {count} points over F_{q}")
    return count


def lpoly_from_counts(f: ZPoly, p: int) -> list[int]:
    """Coefficients c_0 = 1, ..., c_8, ascending, of the L-polynomial of
    y^2 = f(x) (deg f = 9, genus 4) over F_p: the numerator of its zeta
    function, from point counts over F_{p^k}, k = 1..4, via Newton's
    identities plus the functional equation c_{8-i} = p^{4-i} c_i."""
    d = zp_degree(f)
    if d != 9:
        raise ValueError("genus-4 odd model expected (degree 9)")
    g = 4
    s = []
    for k in range(1, g + 1):
        s.append(p**k + 1 - curve_count(f, p, k))
    # Newton: e_k = (1/k) * sum_{i=1..k} (-1)^(i-1) e_{k-i} s_i;  c_i = (-1)^i e_i
    e = [1]
    for k in range(1, g + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * s[i - 1]
        q, r = divmod(acc, k)
        if r:
            raise VerificationError("Newton identity division must be exact")
        e.append(q)
    c = [(-1) ** i * e[i] for i in range(g + 1)]
    full = c + [0] * g
    for i in range(g):
        full[2 * g - i] = p ** (g - i) * c[i]
    # coefficient bound check: |c_i| <= C(2g, i) p^{i/2}
    from math import comb

    for i, ci in enumerate(full):
        if ci * ci > comb(2 * g, i) ** 2 * p**i:
            raise VerificationError(f"Weil coefficient bound violated: c_{i} = {ci}")
    return full


def frobenius_charpoly_gf2(f: ZPoly, p: int) -> int:
    """GF(2) characteristic polynomial of Frobenius at a good prime p on the
    symplectic module, read off the factorization type of f mod p."""
    from .symplectic import cycle_type_charpoly

    degrees = factor_mod_p(f, p)
    if degrees is None:
        raise UsageError(f"bad prime {p}")
    return cycle_type_charpoly(degrees)
