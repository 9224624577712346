"""Eigenvalue-1 audits: check det(I - M) = 0 on every conjugacy class of a
representation, over the integers or, from the cycle types, on the
symplectic GF(2) module, and scan the 2-generated subgroups of a permutation
group for irreducibility and the same property on that module.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import DEFAULT_SEED, ClosureOverflow, UsageError, VerificationError
from .perms import (
    IndexedGroup,
    PermGroup,
    class_rep_for,
    class_reps_symmetric,
    is_even_class,
    is_prime,
    orbit,
    orbits,
    power_cycle_type,
    sn_class_size,
)

# Each audit imports the layers it runs where it runs: the integral one
# (specht; the hook family's fixed dimensions are orbit counts read from the
# cycle type, (n-2,2)'s are ranks taken mod a prime here, and its sign
# twist's are derived from those) and the GF(2) ones (meataxe, symplectic).
# So `embed` loads no integral layer, and `specht audit` no GF(2) one and no
# exact elimination.  perfbench's tracer wraps each layer where it is
# defined, so it counts these calls, but not the census's own loops:
# `perms.orbit` and `_coset_closure` are not among its targets, and their
# time lands in `audit.subgroup_census`.


def _label(ct: tuple[int, ...]) -> str:
    """A cycle type as a class label, e.g. "5,2,1,1"."""
    return ",".join(map(str, ct))


def class_payload(label: str, size: int, order: int, det: int, alg: int, geo: int) -> dict:
    """One conjugacy class of an audit; det is det(I - M), over GF(2) 0 or 1."""
    return {
        "class": label,
        "size": size,
        "element_order": order,
        "det_one_minus": str(det),
        "eig1_algebraic": alg,
        "eig1_geometric": geo,
        "has_eigenvalue_one": det == 0,
    }


def audit_payload(rep_id: str, dim: int, ring: str, classes: list[dict]) -> dict:
    """An audit report over ring "ZZ" or "GF2": unisingular when every class
    has eigenvalue 1, with the labels of the classes that have not."""
    return {
        "representation": rep_id,
        "dim": dim,
        "ring": ring,
        "unisingular": all(c["has_eigenvalue_one"] for c in classes),
        "offenders": [c["class"] for c in classes if not c["has_eigenvalue_one"]],
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# Specht audits
# ---------------------------------------------------------------------------

# A prime above every degree the integral audits accept: see _rank_one_minus.
FIX_PRIME = 32749


def _rank_one_minus(M: list[list[int]], p: int) -> int:
    """The rank of I - M over F_p, by elimination on plain row lists that
    skips every row whose entry in the pivot column is 0.

    For an integral M of finite order o prime to p, this is the rank over
    QQ.  E = (1/o) sum_{k<o} M^k has entries in Z_(p), as o is a unit there.
    E is idempotent, ME = E and E fixes every fixed vector of M, so the image
    of E is Fix(M).  Over the local ring Z_(p), the image of an idempotent is
    a free direct summand, here of rank dim Fix_QQ(M).  Reducing mod p keeps
    that rank, and since o is a unit in F_p, the image of E mod p is
    Fix(M mod p) by the same argument.  So rank_{F_p}(I - M) =
    rank_QQ(I - M).  A Specht matrix of g has order dividing ord(g), whose
    prime factors are at most n: so p > n suffices.
    """
    rows = []
    for i, row in enumerate(M):
        r = [-a % p for a in row]
        r[i] = (1 - row[i]) % p
        rows.append(r)
    rank = 0
    for c in range(len(M)):
        piv = next((i for i, r in enumerate(rows) if r[c]), None)
        if piv is None:
            continue
        pivot = rows.pop(piv)
        inv = pow(pivot[c], -1, p)
        tail = [a * inv % p for a in pivot[c + 1:]]
        for r in rows:
            f = r[c]
            if f:
                r[c + 1:] = [(a - f * b) % p for a, b in zip(r[c + 1:], tail)]
                r[c] = 0
        rank += 1
    return rank


def _fixed_dims(shape: tuple[int, ...], dim: int, classes: list) -> dict:
    """dim Fix(g) on the Specht module of a shape, of dimension dim, for each
    (cycle type, representative g) in classes, as dim - rank(I - M) over F_p
    with p = FIX_PRIME.  Each matrix is checked to have dim rows."""
    from .specht import action_matrix

    n = sum(shape)
    if n >= FIX_PRIME:
        raise UsageError(f"fixed dimensions mod {FIX_PRIME} need n < {FIX_PRIME}, got n={n}")
    fixed = {}
    for ct, rep in classes:
        M = action_matrix(rep, shape)
        if len(M) != dim:
            raise VerificationError(
                f"class {_label(ct)}: a {len(M)}-row matrix on a module of dimension {dim}")
        fixed[ct] = dim - _rank_one_minus(M, FIX_PRIME)
    return fixed


def _sign_twisted(fixed: dict) -> dict:
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
                f"class {_label(ct)}: no fixed dimension for its square {_label(square)}")
        twisted[ct] = fixed[square] - f
    return twisted


def _hook_fixed_dim(ct: tuple[int, ...]) -> int:
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


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _cyclotomic_at_one(e: int) -> tuple[int, int]:
    """(phi(e), Phi_e(1)): Phi_e(1) is 0 for e = 1, q for e a power of the
    prime q, and 1 otherwise."""
    primes = [q for q in _divisors(e) if is_prime(q)]
    phi = e
    for q in primes:
        phi = phi // q * (q - 1)
    return phi, 0 if e == 1 else primes[0] if len(primes) == 1 else 1


def _det_from_powers(ct: tuple[int, ...], fixed: dict, dim: int) -> int:
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
    for e in _divisors(lcm(*ct)):
        m[e] = fixed[power_cycle_type(ct, e)] - sum(k for d, k in m.items() if e % d == 0)
    det = 1
    for e, k in m.items():
        phi, at_one = _cyclotomic_at_one(e)
        if k < 0 or k % phi:
            raise VerificationError(
                f"class {_label(ct)}: {k} eigenvalues of order {e}, "
                f"not a non-negative multiple of phi({e}) = {phi}")
        det *= at_one ** (k // phi)  # 0 ** 0 is 1: no eigenvalue 1, no zero factor
    if sum(m.values()) != dim:
        raise VerificationError(f"class {_label(ct)}: {sum(m.values())} eigenvalues in dimension {dim}")
    return det


def audit_specht(n: int, family: str, group: str = "s_n") -> dict:
    """Audit a Specht-family representation over the integers, class by
    class (dim Fix and det(I - M) are class functions).

    Each class's dim Fix on the hook family (n-2,1,1) is an orbit count read
    from its cycle type (`_hook_fixed_dim`), with no matrix; on (n-2,2) it is
    read from one matrix per class and its rank mod p (`_fixed_dims`), and
    on its sign twist (n-2,2)' it is derived from those of (n-2,2) and the
    class's square (`_sign_twisted`), with no matrix of its own.  The
    dimension is `specht.family_dim`, and each dim Fix is checked to lie in
    0..dim.  det(I - M) comes from the fixed dimensions of the class's powers
    (`_det_from_powers`).  The powers and squares are classes of the same
    audit: for s_n it lists every class, and for a_n the even ones.  M has
    finite order, so it is semisimple over QQ: the algebraic multiplicity of
    eigenvalue 1 equals the geometric one.

    family: specht.FAMILY_HOOK, FAMILY_TWO or FAMILY_TWO_CONJ; group: "s_n" or "a_n".
    Supported range is 5 <= n <= 17 (the class count grows as p(n); n = 17
    takes a few seconds per two-row family, and well under one for the
    hook).  For a_n only even classes are audited (every element of A_n
    lies in an even S_n class, whose powers are even too, and the
    invariants are constant on S_n classes); reported sizes are S_n class
    sizes.
    """
    from .specht import FAMILY_HOOK, FAMILY_TWO_CONJ, family_dim, family_shape

    if group not in ("s_n", "a_n"):
        raise UsageError(f"unknown group {group!r}")
    if not 5 <= n <= 17:
        raise UsageError(f"n={n} outside supported range 5..17")
    shape = family_shape(family, n)
    dim = family_dim(family, n)
    classes = [(ct, rep) for ct, rep in class_reps_symmetric(n)
               if group == "s_n" or is_even_class(ct)]
    if family == FAMILY_HOOK:
        fixed = {ct: _hook_fixed_dim(ct) for ct, _ in classes}
    else:
        fixed = _fixed_dims(shape, dim, classes)
        if family == FAMILY_TWO_CONJ:  # for a_n every class is even, and the twist changes none
            fixed = _sign_twisted(fixed)
    for ct, geo in fixed.items():
        if not 0 <= geo <= dim:
            raise VerificationError(f"class {_label(ct)}: dim Fix = {geo}, outside 0..{dim}")
    records = []
    for ct, rep in classes:
        geo = fixed[ct]
        records.append(class_payload(_label(ct), sn_class_size(ct), rep.order(),
                                     _det_from_powers(ct, fixed, dim), geo, geo))
    return audit_payload(f"specht:{family}:n={n}:{group}", dim, "ZZ", records)


# The table's module has dimension n(n - 3)/2; its determinant comes from
# the fixed dimensions of the powers of one class: n = 31 (434 dimensions)
# takes 0.32-0.34 s (`conjecture-table --n 31`, three runs on a 2-vCPU VM,
# CPython 3.11.7).
TABLE_N_MAX = 31


def conjecture_table(ns: list[int]) -> list[dict]:
    """det(I - M) for the sign-twisted two-row module on the class of an
    (n-2)-cycle times a transposition, with the closed form 2^(k-1)(2k-1).

    The fixed dimensions of the class's powers g^d on the twist are derived
    from those on (n-2,2) (`_sign_twisted`).  An odd g^d has d odd, so d
    divides n - 2 and g^(2d), its square, is a power of g too."""
    from .specht import FAMILY_TWO_CONJ, family_dim, family_shape

    for n in ns:
        if n < 5 or n % 2 == 0:
            raise UsageError("table rows need odd n >= 5")
        if n > TABLE_N_MAX:
            raise UsageError(f"table rows need n <= {TABLE_N_MAX}, got {n}")
    rows = []
    for n in ns:
        shape = ct = family_shape(FAMILY_TWO_CONJ, n)
        dim = family_dim(FAMILY_TWO_CONJ, n)
        # g^d has order ord(g)/d, so each divisor gives another class
        powers = [power_cycle_type(ct, d) for d in _divisors(lcm(*ct))]
        fixed = _sign_twisted(_fixed_dims(shape, dim, [(c, class_rep_for(c)) for c in powers]))
        det = _det_from_powers(ct, fixed, dim)
        k = (n - 1) // 2
        rows.append(
            {
                "n": n,
                "dim": dim,
                "class": _label(ct),
                "det_one_minus": str(det),
                "closed_form": str(2 ** (k - 1) * (2 * k - 1)),
                "matches": det == 2 ** (k - 1) * (2 * k - 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Embedded permutation-group audits
# ---------------------------------------------------------------------------

def audit_embedded_group(G: PermGroup, seed: int = DEFAULT_SEED) -> dict:
    """Audit a permutation group on its symplectic module over GF(2).

    Each class record is read off its cycle type (`symplectic`), from the
    classes pgl2, s_n and a_n carry in closed form, or from the closure for
    the other groups; so pgl2 and s_n form no group product.  The MeatAxe
    certifies the embedded generators irreducible or not, and an irreducible
    module is absolutely irreducible iff its commuting algebra, counted from
    the Norton witness, is GF(2)."""
    from . import meataxe
    from .symplectic import eig1_algebraic, eig1_nullity, embed_group

    module = embed_group(G)
    classes = []
    for size, ct, order in G.classes():
        geo = eig1_nullity(ct)
        # over GF(2), det(I - M) is 0 exactly when M has eigenvalue 1
        det = 0 if geo else 1
        classes.append(class_payload(_label(ct), size, order, det, eig1_algebraic(ct), geo))
    end_dim = meataxe.endomorphism_dim(module, seed)
    return {
        **audit_payload(f"embed:{G.name}:d={G.degree}", module.dim, "GF2", classes),
        "irreducible": end_dim is not None,
        "absolutely_irreducible": end_dim == 1,
    }


# ---------------------------------------------------------------------------
# 2-generated subgroup census
# ---------------------------------------------------------------------------

def two_generated_subgroups(
    group: IndexedGroup,
) -> dict[frozenset[int], tuple[frozenset[int], tuple[int, int]]]:
    """Every 2-generated subgroup, as a set of element indices, mapped to the
    representative of its conjugacy class and a generator pair of that
    representative.

    <x, y> depends only on <x> and <y>, so only cyclic-subgroup generators
    are paired.  If <a> = g<x>g^-1, then <a, b> = g<x, b'>g^-1 where b'
    generates <g^-1 b g>: so x runs over one cyclic subgroup per conjugacy
    class, y over the cyclic subgroups whose class has not had its turn as
    x yet, and every subgroup found brings in its conjugates.  For g in the
    normalizer N(<x>), <x, g y g^-1> = g<x, y>g^-1, so y is taken once per
    N(<x>)-orbit, as the least generator in it: the one the ascending scan
    meets first, so the representatives and pairs are those a scan over
    every y finds.  Each <x, y> is closed by right cosets of <x> (Dimino).
    """
    n = len(group.elements)
    table = group.cayley_table  # table[b][a] = index of x_a * x_b
    inv = group.inverses
    conj = [c.__getitem__ for c in group.conjugators()]
    maps = [lambda S, c=c: frozenset(map(c, S)) for c in conj]
    cyclic, least = _cyclic_subgroups(group)
    done = bytearray(n)  # at least generators: cyclic subgroups already taken as <x>
    subgroups: dict[frozenset[int], tuple[frozenset[int], tuple[int, int]]] = {}
    for x, X in cyclic.items():
        if done[x]:
            continue
        partners = [y for y in cyclic if not done[y]]
        conjugates = {least[z] for z in orbit(x, conj)}
        for c in conjugates:
            done[c] = 1
        normalizer = [(g, inv[g]) for g in group.normalizer(X)]
        if len(conjugates) * len(normalizer) != n:
            raise VerificationError(
                f"orbit-stabilizer fails at <x_{x}>: {len(conjugates)} conjugates, "
                f"normalizer of order {len(normalizer)}, group of order {n}")
        seen = bytearray(n)  # at least generators: N(<x>)-orbits of partners met
        for y in partners:
            if seen[y]:
                continue
            gy = table[y]  # gy[g] is the index of g * y
            for g, g_inv in normalizer:
                seen[least[table[g_inv][gy[g]]]] = 1
            K = _coset_closure(table, X, (x, y))
            if K not in subgroups:
                for H in orbit(K, maps):
                    subgroups[H] = (K, (x, y))
    return subgroups


def _cyclic_subgroups(group: IndexedGroup) -> tuple[dict[int, list[int]], list[int]]:
    """Each cyclic subgroup as its least generator x mapped to `powers(x)`,
    ascending, and least[z], the least generator of <z>, for every z.

    One ascending pass: an element no earlier generator has marked is the
    least generator of its cyclic subgroup, and x^k generates <x> iff k is
    prime to the order of x."""
    least = [-1] * len(group.elements)
    cyclic = {}
    for i in range(len(least)):
        if least[i] < 0:
            X = cyclic[i] = group.powers(i)
            for k, z in enumerate(X, 1):
                if gcd(k, len(X)) == 1:
                    least[z] = i
    return cyclic, least


def _coset_closure(table, X: list[int], gens: tuple[int, ...]) -> frozenset[int]:
    """<X, gens> for a subgroup X that ends with the identity, as the union
    of the right cosets X t reached from X by right multiplication: once
    the coset of every t is in, the union is closed under the generators."""
    members = set(X)
    reps = [X[-1]]
    for r in reps:
        for s in gens:
            t = table[s][r]  # r * s
            if t not in members:
                reps.append(t)
                members.update(map(table[t].__getitem__, X))
    return frozenset(members)


def subgroup_census(G: PermGroup, seed: int = DEFAULT_SEED) -> list[dict]:
    """Find every 2-generated subgroup of a permutation group, and count the
    distinct subgroups per (order, irreducible?, unisingular?) on the
    symplectic module, in that order.  Each entry lists the distinct
    class-size fingerprints of its irreducible subgroups.

    All three are invariant under conjugation, so they are computed once per
    conjugacy class of subgroups, on its representative; the MeatAxe certifies
    either verdict, so it does not depend on the generator pair.  Makes no
    claim of finding subgroups that need three or more generators.  A group of
    degree 4 with a (2,2) element is refused: (2,2) acts trivially there.
    """
    from . import meataxe
    from .symplectic import eig1_nullity, embed_group

    if G.degree == 4 and (2, 2) in G.cycle_types():
        raise UsageError(f"the degree-4 module of {G.name} is not faithful: (2,2) acts trivially")
    try:  # the closure stops at the cap; G.order() reads it afterwards
        G.indexed = group = IndexedGroup(G.generators, bound=2000)
    except ClosureOverflow:
        raise UsageError("census input capped at 2000 elements") from None
    elements = group.elements
    table = group.cayley_table  # table[b][a] = index of x_a * x_b
    eig1 = [eig1_nullity(x.cycle_type()) > 0 for x in elements]

    def invariants(K: frozenset[int], gens: tuple[int, int]) -> tuple:
        irr = meataxe.is_irreducible(embed_group(PermGroup([elements[g] for g in gens])), seed)
        uni = all(eig1[x] for x in K)
        if not irr:
            return irr, uni, None
        # y * g -> g * y is conjugation by g
        conj = [{table[g][y]: table[y][g] for y in K}.__getitem__ for g in gens]
        return irr, uni, sorted(len(c) for c in orbits(sorted(K), conj))

    per_class: dict[frozenset[int], tuple] = {}
    agg: dict[tuple[int, bool, bool], list] = {}
    for H, (K, gens) in sorted(
        two_generated_subgroups(group).items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        if K not in per_class:
            per_class[K] = invariants(K, gens)
        irr, uni, fp = per_class[K]
        rec = agg.setdefault((len(H), irr, uni), [0, []])
        rec[0] += 1
        if irr and fp not in rec[1]:
            rec[1].append(fp)
    return [
        {"order": order, "irreducible": irr, "unisingular": uni, "count": count,
         "class_size_fingerprints": fps}
        for (order, irr, uni), (count, fps) in sorted(agg.items())
    ]
