"""Class functions read off a cycle type, a weakly decreasing tuple of positive
ints: S_n class data, the eigenvalue-1 forms of the symplectic module, fixed
dimensions on the Specht families, det(I - M) from the fixed dimensions of
the powers, the Murnaghan-Nakayama characters, and the one trial
factorization (`prime_factors`).  Pure: no group, matrix or polynomial is
built here.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .errors import VerificationError


def label(ct: tuple[int, ...]) -> str:
    """A cycle type as a class label, e.g. "5,2,1,1"."""
    return ",".join(map(str, ct))


def is_even_class(ct: tuple[int, ...]) -> bool:
    """Parity of the S_n class with cycle type ct: even iff n - #parts is even."""
    return (sum(ct) - len(ct)) % 2 == 0


def sn_class_size(ct: tuple[int, ...]) -> int:
    """Size of the S_n conjugacy class with cycle type ct: n!/prod(i^m_i m_i!)."""
    cent = 1
    for length in set(ct):
        m = ct.count(length)
        cent *= length**m * factorial(m)
    return factorial(sum(ct)) // cent


def power_cycle_type(ct: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The cycle type of g^j for g of cycle type ct: a cycle of length l
    splits into gcd(l, j) cycles of length l / gcd(l, j)."""
    out = []
    for ln in ct:
        g = gcd(ln, j)
        out.extend([ln // g] * g)
    return tuple(sorted(out, reverse=True))


def partitions_of(n: int):
    """All partitions of n, as weakly decreasing tuples, in descending
    lexicographic order."""

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def eig1_nullity(cycle_type: tuple[int, ...]) -> int:
    """dim of the eigenvalue-1 space of a permutation with these cycle
    lengths on the module of its degree d >= 3 (derived in `symplectic`)."""
    c, d = len(cycle_type), sum(cycle_type)
    if d % 2:
        return c - 1
    if any(k % 2 for k in cycle_type):
        return c - 2
    return c - 1 + (d % 4 == 0)


def eig1_algebraic(cycle_type: tuple[int, ...]) -> int:
    """Multiplicity of x + 1 in `gf2.cycle_type_charpoly`: 2^v_2(l) per
    cycle of length l, less one trivial factor for d odd and two for d even."""
    return sum(k & -k for k in cycle_type) - (1 if sum(cycle_type) % 2 else 2)


def sign_twisted(fixed: dict) -> dict:
    """dim Fix(g) on the sign twist S' = S (x) sgn of a Specht module S,
    from fixed, dim Fix(g) on S by cycle type: Fix'(g) = Fix(g) for g even,
    and Fix(g^2) - Fix(g) for g odd.

    g acts on S' by sgn(g) M, with M = M(g) on S.  So for g even Fix'(g) =
    Fix(g), and for g odd Fix'(g) = dim ker(M + I), the -1-eigenspace of M.
    Over QQ, x - 1 and x + 1 are coprime, so ker(M^2 - I) is the direct sum
    of ker(M - I) and ker(M + I), and dim ker(M + I) = Fix(g^2) - Fix(g).
    The class of g^2 must be in fixed; a missing one raises
    VerificationError.
    """
    twisted = {}
    for ct, f in fixed.items():
        if is_even_class(ct):
            twisted[ct] = f
            continue
        square = power_cycle_type(ct, 2)
        if square not in fixed:
            raise VerificationError(
                f"class {label(ct)}: no fixed dimension for its square {label(square)}")
        twisted[ct] = fixed[square] - f
    return twisted


def hook_fixed_dim(ct: tuple[int, ...]) -> int:
    """dim Fix(g) on S^(n-2,1,1) for g of cycle type ct, fixed points counted
    as 1-cycles: with c cycles of lengths l_1..l_c and G the sum of
    gcd(l_i, l_j) over i < j, it is sum floor((l_i - 1)/2) + G - c + 1.

    Over QQ, M^(n-1,1) = 1 + V and Lambda^2 M^(n-1,1) = V + S^(n-2,1,1).  g
    permutes the basis vectors e_a ^ e_b of Lambda^2 M^(n-1,1) up to sign,
    so its fixed space there has one dimension per <g>-orbit on 2-subsets
    {a, b} whose stabilizer acts by +1, that is, swaps no a and b:
    - inside an l-cycle there are floor(l/2) orbits.  For l even, g^(l/2)
      swaps each pair {x, g^(l/2) x} of the antipodal orbit, so that orbit
      has sign -1 and drops out, and floor((l - 1)/2) remain;
    - across two cycles there are gcd(l_i, l_j) orbits, each of sign +1, as
      no power of g swaps points of different cycles.
    Fix(V) is the c orbits on points less the trivial summand, c - 1.

    Fix >= 1 for every n >= 5, so the family is unisingular.  With c >= 3,
    G >= C(c, 2) gives Fix >= (c - 1)(c - 2)/2 >= 1.  With c = 2, the longer
    cycle has l_1 >= 3 as l_1 + l_2 = n >= 5, so Fix >= floor((l_1 - 1)/2)
    + gcd(l_1, l_2) - 1 >= 1.  With c = 1, Fix = floor((n - 1)/2) >= 2.
    """
    # equal lengths grouped: m cycles of length a give C(m, 2) pairs of gcd a
    mult = [(a, ct.count(a)) for a in set(ct)]
    G = 0
    for i, (a, m) in enumerate(mult):
        G += a * m * (m - 1) // 2 + sum(m * k * gcd(a, b) for b, k in mult[i + 1:])
    return sum((length - 1) // 2 for length in ct) + G - len(ct) + 1


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def prime_factors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, ascending, by trial division;
    any other m raises ValueError."""
    if m < 1:
        raise ValueError(f"prime factors need m >= 1, got {m}")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def is_prime(n: int) -> bool:
    """Trial division up to sqrt(n), so every caller bounds n first."""
    return n > 1 and prime_factors(n) == [n]


def euler_phi(m: int) -> int:
    """Euler's phi(m): m times the product of 1 - 1/r over the primes r | m."""
    for r in prime_factors(m):
        m = m // r * (r - 1)
    return m


def _cyclotomic_at_one(e: int) -> int:
    """Phi_e(1): 0 for e = 1, q for e a power of the prime q, and 1 otherwise."""
    if e == 1:
        return 0
    primes = prime_factors(e)
    return primes[0] if len(primes) == 1 else 1


def det_from_powers(ct: tuple[int, ...], fixed: dict, dim: int) -> int:
    """det(I - M) for g of cycle type ct, from F(d) = dim Fix(g^d), d | ord(g),
    read from fixed by the cycle type of g^d.

    M is semisimple, and each eigenvalue has order dividing o = ord(g).
    F(d) counts the eigenvalues with x^d = 1, so F(d) = sum_{e | d} m_e,
    where m_e is the number of exact order e; hence m_e = F(e) - sum of m_d
    over d | e, d < e.  M is rational, so those of order e are the roots of
    Phi_e, each m_e / phi(e) times, and their factors 1 - x multiply to
    Phi_e(1)^(m_e / phi(e)): the product is 0 when m_1 > 0, and otherwise
    that of the prime powers e > 1.  The counts are checked: each m_e a
    non-negative multiple of phi(e), and sum m_e = dim.
    """
    m: dict[int, int] = {}
    for e in divisors(lcm(*ct)):
        m[e] = fixed[power_cycle_type(ct, e)] - sum(k for d, k in m.items() if e % d == 0)
    det = 1
    for e, k in m.items():
        phi = euler_phi(e)
        if k < 0 or k % phi:
            raise VerificationError(
                f"class {label(ct)}: {k} eigenvalues of order {e}, "
                f"not a non-negative multiple of phi({e}) = {phi}")
        det *= _cyclotomic_at_one(e) ** (k // phi)  # 0 ** 0 is 1: no eigenvalue 1, no zero factor
    if sum(m.values()) != dim:
        raise VerificationError(f"class {label(ct)}: {sum(m.values())} eigenvalues in dimension {dim}")
    return det


_CHARACTERS: dict = {}  # (shape, cycle type) -> character_mn, emptied at 4096 entries


def character_mn(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Character of the Specht module of the given shape on the given class."""
    if sum(shape) != sum(cycle_type):
        raise ValueError("shape and cycle type must partition the same n")
    if not cycle_type:
        return 1
    if (shape, cycle_type) in _CHARACTERS:
        return _CHARACTERS[shape, cycle_type]
    m, rest = cycle_type[0], cycle_type[1:]
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
        parts = tuple(sorted((bb - i for i, bb in enumerate(new_betas)), reverse=True))
        parts = tuple(p for p in parts if p > 0)
        total += (-1 if height & 1 else 1) * character_mn(parts, rest)
    if len(_CHARACTERS) >= 4096:
        _CHARACTERS.clear()
    _CHARACTERS[shape, cycle_type] = total
    return total


def fixed_space_dim_via_characters(shape: tuple[int, ...], sigma_type: tuple[int, ...]) -> int:
    """Dimension of the fixed space of a class element, as the average of the
    character over the cyclic group it generates."""
    order = lcm(*sigma_type)
    total = 0
    for j in range(order):
        total += character_mn(shape, power_cycle_type(sigma_type, j))
    if total % order:
        raise VerificationError("character average over a cyclic group must be an integer")
    return total // order
