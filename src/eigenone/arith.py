"""Arithmetic side: the 2-parameter degree-9 polynomial family, exact
discriminants by resultants, factorization types over prime fields, Frobenius
cycle-type scans against a target permutation group, and L-polynomials of
hyperelliptic curves as character sums of resultants; `disc_verify` and
`lpoly_check`, with its mod-2 parity cross-check, return the results of
`nt disc-verify` and `nt lpoly-check`.

All polynomial arithmetic is exact and deterministic; factorization types
come from distinct-degree factorization alone.
"""

from __future__ import annotations

import itertools
import os
from math import comb
from typing import TYPE_CHECKING

from .cycletypes import eig1_nullity, is_prime, prime_factors
from .errors import UsageError, VerificationError
from .intlinalg import _bareiss

if TYPE_CHECKING:
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


def disc_verify(samples: int, seed: int) -> dict:
    """`nt disc-verify`'s result: disc(g_{a,t}) by resultant against the
    closed form at `samples` squarefree specializations, a and t uniform in
    -50..50 by Random(seed), and the disc and bad primes of g_{1,-32}."""
    import random  # here, so that a scan does not load it

    rng = random.Random(seed)
    rows = []
    while len(rows) < samples:
        a, t = rng.randint(-50, 50), rng.randint(-50, 50)
        if malle_is_squarefree_specialization(a, t):
            rows.append({"a": a, "t": t,
                         "matches": disc_resultant(malle_g(a, t)) == malle_disc_formula(a, t)})
    g = malle_g(1, -32)
    disc, expected = disc_resultant(g), -(2**58) * 3**9
    return {
        "samples": rows,
        "identity_holds": all(r["matches"] for r in rows),
        "special": {
            "a": 1,
            "t": -32,
            "disc": str(disc),
            "expected": str(expected),
            "matches": disc == expected,
            "bad_primes": bad_primes(g, disc),
            "bad_primes_expected": [2, 3],
        },
    }


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
    return _bareiss(rows)[1]


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


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def bad_primes(f: ZPoly, disc: int) -> list[int]:
    """Primes dividing disc, the exact disc(f), or the leading coefficient,
    ascending; a disc(f) of 0, which every prime divides, raises ValueError."""
    return prime_factors(abs(disc * f[-1]))


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
    mod f by polynomial Barrett with m = floor(x^(2n-2) / f).  The one power
    taken is of x (`x_power`), so its multiply step is a shift by one slot;
    `gcd` runs Euclid's remainder loop inline, with no quotient and no call
    per step."""

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
        self.x = 1 << S if n >= 2 else self.neg_f  # x mod f: -f_0 when n = 1
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

    def x_power(self, e: int) -> int:
        """x^e mod f by square-and-multiply.  Multiplying by x shifts every
        slot up by one; the slot that reaches x^n is cancelled with x^n =
        x^n - f = `neg_f` (mod f), so its value times neg_f replaces it."""
        if not e:
            return 1
        S, nS, below_n, neg_f = self.S, self.n * self.S, self.low[self.n], self.neg_f
        r = self.x
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r <<= S
                r = self.reduce((r & below_n) + (r >> nS) * neg_f)
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
        are 0), by Euclid, with the remainder loop inline.  Each of its
        steps clears a's top slot j and adds c x^(j - deg b) times the slots
        of b below its leading one, with c = -a_j / lc(b) mod p; every slot
        stays below B, as in `divmod`, and one `reduce` per remainder brings
        them back below p."""
        S, p, low = self.S, self.p, self.low
        while b:
            db = (b.bit_length() - 1) // S
            ninv = p - pow(b >> (db * S), -1, p)
            tail = b & low[db]
            for j in range((a.bit_length() - 1) // S, db - 1, -1):
                c = (a >> (j * S)) * ninv % p
                a &= low[j]
                a += c * tail << ((j - db) * S)
            a, b = b, self.reduce(a)
        if not a:
            return 0
        return self.reduce(a * pow(a >> (self.degree(a) * S), -1, p))


def factor_mod_p(f: ZPoly, p: int, disc: int) -> tuple[int, ...] | None:
    """The irreducible-factor degrees of f mod p, ascending, or None when
    f mod p is not squarefree, by distinct-degree factorization on packed
    polynomials (`PackedFp`).  disc is the exact disc(f) (1 at degree 1).

    With p not dividing lc(f), f mod p keeps its degree and disc(f mod p) =
    disc(f) mod p, which vanishes exactly when f mod p has a repeated root;
    so f mod p is squarefree iff p does not divide disc, and no gcd with f'
    is taken.  The part g_d of f collecting its irreducible factors of
    degree d has degree d times their number, so the degrees need no
    equal-degree split (von zur Gathen & Gerhard, Modern Computer Algebra,
    14.2).  The caller proves p prime: the scan takes p from `primes_up_to`,
    and `lpoly-check` through `check_count_prime`.
    """
    if p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if f[-1] % p == 0:
        raise ValueError("p divides the leading coefficient")
    if len(f) < 2:
        raise ValueError("f must have degree >= 1")
    if disc % p == 0:
        return None
    F = PackedFp(f, p)
    n = F.n
    # Frobenius g -> g^p is F_p-linear on F_p[x]/(f): with h = x^p mod f
    # computed once, the rows x^(ip) mod f carry x^(p^d) to x^(p^(d+1))
    # (von zur Gathen & Shoup, Comput. Complexity 2, 1992)
    h = F.x_power(p)
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
    """The factorization type of f mod one good prime p, from the exact
    disc(f) the scan computed once: the scan chose p by p not dividing
    disc(f) lc(f), which is factor_mod_p's squarefree test, so None here is
    a contradiction.  Each factor count is checked against Stickelberger's
    parity."""
    f, disc, p = work
    degrees = factor_mod_p(list(f), p, disc)
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
    if zp_degree(f) < 3:
        raise ValueError("need degree >= 3")
    if zp_degree(f) != group.degree:  # else every type would lie outside the group
        raise UsageError(f"polynomial degree {zp_degree(f)} differs from the degree "
                         f"{group.degree} of {group.name}")
    disc = disc_resultant(f)
    if disc == 0:  # f has a repeated root, which stays repeated mod every p
        raise UsageError("disc(f) = 0, so no prime is good")
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
# L-polynomials of y^2 = f(x)
# ---------------------------------------------------------------------------

POINT_BUDGET = 10**7


def check_count_prime(f: ZPoly, p: int, disc: int) -> None:
    """Refuse a p at which the L-polynomial of y^2 = f(x) is not computed: p
    must be an odd prime of good reduction, with the p^4 monic polynomials of
    degree 4 over F_p within POINT_BUDGET.  disc is the exact disc(f)."""
    # p comes from the command line (lpoly-check --primes); the budget first:
    # is_prime trial-divides up to sqrt(p)
    if p > 0 and p**4 > POINT_BUDGET:
        raise UsageError(f"{p}^4 = {p**4} exceeds the enumeration budget {POINT_BUDGET}")
    if p == 2 or not is_prime(p):
        raise UsageError(f"p must be an odd prime, got {p}")
    if disc == 0:  # f has a repeated root, which stays repeated mod every p
        raise UsageError("disc(f) = 0, so no prime is good")
    if disc % p == 0 or f[-1] % p == 0:
        raise UsageError(f"bad prime {p}")


def lpoly_from_counts(f: ZPoly, p: int, disc: int) -> list[int]:
    """Coefficients c_0 = 1, ..., c_8, ascending, of the L-polynomial of
    y^2 = f(x) (deg f = 9, genus 4, exact discriminant disc) over F_p, the
    numerator of its zeta function: c_e is the sum of chi_p(Res(m, f)) over
    the monic m of degree e <= 4, the L-function of a quadratic character on
    F_p[x] (Rosen, Number Theory in Function Fields, GTM 210), and c_{8-i} =
    p^{4-i} c_i.

    - Res(m, f) = prod_{m(a)=0} f(a) is multiplicative in m, so the sum over
      all monic m is an Euler product over the monic irreducible P.
    - For P irreducible of degree e with a root a, Res(P, f) is the norm of
      f(a) from F_{p^e}, and the norm is y^((p^e-1)/(p-1)), so
      chi_p(Res(P, f)) = f(a)^((p^e-1)/2) = chi_{p^e}(f(a)).
    - The log-derivative of that product has u^k coefficient
      sum_{x in F_{p^k}} chi(f(x)) = #C(F_{p^k}) - p^k - 1, as the zeta
      numerator's has, so the two agree."""
    d = zp_degree(f)
    if d != 9:
        raise ValueError("genus-4 odd model expected (degree 9)")
    check_count_prime(f, p, disc)
    g = 4
    fp = [c % p for c in f]
    c = [1]
    for e in range(1, g + 1):
        total = 0
        for tail in itertools.product(range(p), repeat=e):
            # chi_p(r) = r^((p-1)/2) mod p, which is 0, 1 or p - 1
            total += (pow(resultant([*tail, 1], fp) % p, (p - 1) // 2, p) + 1) % p - 1
        c.append(total)
    # Newton's identities, division-free: s_k = -k c_k - sum_{i<k} c_i s_{k-i}
    # is the sum of the k-th powers of the Frobenius eigenvalues, and
    # #C(F_{p^k}) = p^k + 1 - s_k
    s = [0]
    for k in range(1, g + 1):
        s.append(-k * c[k] - sum(c[i] * s[k - i] for i in range(1, k)))
        q = p**k
        if s[k] ** 2 > 4 * g * g * q:
            raise VerificationError(f"Weil bound violated: {q + 1 - s[k]} points over F_{q}")
    full = c + [0] * g
    for i in range(g):
        full[2 * g - i] = p ** (g - i) * c[i]
    # coefficient bound check: |c_i| <= C(2g, i) p^{i/2}
    for i, ci in enumerate(full):
        if ci * ci > comb(2 * g, i) ** 2 * p**i:
            raise VerificationError(f"Weil coefficient bound violated: c_{i} = {ci}")
    return full


def frobenius_charpoly_gf2(f: ZPoly, p: int, disc: int) -> int:
    """GF(2) characteristic polynomial of Frobenius at a good prime p on the
    symplectic module, read off the factorization type of f mod p; disc is
    the exact disc(f), and a p that divides it is refused."""
    from .gf2 import cycle_type_charpoly

    degrees = factor_mod_p(f, p, disc)
    if degrees is None:
        raise UsageError(f"bad prime {p}")
    return cycle_type_charpoly(degrees)


def lpoly_check(a: int, t: int, primes: list[int]) -> dict:
    """`nt lpoly-check`'s result for y^2 = g_{a,t}(x): per prime p, the
    L-polynomial P, the parity of #J(F_p) = P(1), and whether x^8 P(1/x) mod
    2 is the charpoly of Frobenius on the 2-torsion.  Every prime is checked,
    against the one exact disc(f), before any L-polynomial is computed."""
    f = malle_g(a, t)
    disc = disc_resultant(f)
    for p in primes:
        check_count_prime(f, p, disc)
    rows = []
    for p in primes:
        L = lpoly_from_counts(f, p, disc)
        order = sum(L)
        # as a bit-poly, c_i is the coefficient of x^(8-i)
        match = int("".join(str(c % 2) for c in L), 2) == frobenius_charpoly_gf2(f, p, disc)
        rows.append({"p": p, "lpoly": [str(c) for c in L], "jacobian_order": str(order),
                     "even": order % 2 == 0, "reversed_matches_frobenius": match})
    return {"a": a, "t": t, "primes": rows,
            "all_pass": all(r["even"] and r["reversed_matches_frobenius"] for r in rows)}
