"""Eigenvalue-1 audits: check det(I - M) = 0 on every conjugacy class of a
representation, over the integers or, from the cycle types, on the
symplectic GF(2) module, and scan the 2-generated subgroups of a permutation
group for irreducibility and the same property on that module.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from .errors import DEFAULT_SEED, ClosureOverflow, UsageError, VerificationError
from .perms import (
    IndexedGroup,
    Partition,
    PermGroup,
    class_rep_for,
    class_reps_symmetric,
    orbit,
    orbits,
)

if TYPE_CHECKING:
    from .intlinalg import IntMatrix

# Each audit imports the layers it runs where it runs: the integral ones
# (specht, intlinalg) and the GF(2) ones (meataxe, symplectic).  So `embed`
# loads no integral layer and `specht audit` no GF(2) one.  perfbench's
# tracer wraps each layer where it is defined, so it counts these calls, but
# not the census's own loops: `perms.orbit` and `_coset_closure` are not
# among its targets, and their time lands in `audit.subgroup_census`.


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


def _int_class_payload(label: str, size: int, order: int, M: IntMatrix) -> dict:
    from .intlinalg import IntMatrix, _bareiss

    rank, det = _bareiss([list(r) for r in (IntMatrix.identity(M.nrows) - M).rows])
    geo = M.nrows - rank
    # M has finite order, so it is semisimple over QQ: the algebraic
    # multiplicity of eigenvalue 1 equals the geometric one
    return class_payload(label, size, order, det, geo, geo)


def audit_int_classes(rep_id: str, classes: list[tuple[str, int, int, IntMatrix]]) -> dict:
    """classes: (label, class size, element order, matrix), one per class."""
    if not classes:
        raise ValueError("no classes to audit")
    return audit_payload(rep_id, classes[0][3].nrows, "ZZ",
                         [_int_class_payload(*c) for c in classes])


# ---------------------------------------------------------------------------
# Specht audits
# ---------------------------------------------------------------------------

def audit_specht(n: int, family: str, group: str = "s_n") -> dict:
    """Audit a Specht-family representation over the integers, one matrix per
    conjugacy class (det(I - M) is a class function).

    family: specht.FAMILY_HOOK, FAMILY_TWO or FAMILY_TWO_CONJ; group: "s_n" or "a_n".
    Supported range is 5 <= n <= 17 (the class count grows as p(n); n = 17
    takes tens of seconds per family).  For a_n only even
    classes are audited (every element of A_n lies in an even S_n class and
    det(I - M) is constant on S_n classes); reported sizes are S_n class
    sizes.
    """
    from .specht import action_matrix, family_shape, twisted_action_matrix

    if group not in ("s_n", "a_n"):
        raise UsageError(f"unknown group {group!r}")
    if not 5 <= n <= 17:
        raise UsageError(f"n={n} outside supported range 5..17")
    shape, twisted = family_shape(family, n)
    classes = []
    for ct, rep in class_reps_symmetric(n):
        if group == "a_n" and not ct.is_even_class():
            continue
        M = twisted_action_matrix(rep, shape) if twisted else action_matrix(rep, shape)
        classes.append((str(ct), ct.sn_class_size(), rep.order(), M))
    rep_id = f"specht:{family}:n={n}:{group}"
    return audit_int_classes(rep_id, classes)


# The table's matrix has dimension n(n - 3)/2, and its determinant is exact:
# n = 31 (434 dimensions) takes about 2.5 s.
TABLE_N_MAX = 31


def conjecture_table(ns: list[int]) -> list[dict]:
    """det(I - M) for the sign-twisted two-row module on the class of an
    (n-2)-cycle times a transposition, with the closed form 2^(k-1)(2k-1)."""
    from .intlinalg import IntMatrix, det_exact
    from .specht import twisted_action_matrix

    for n in ns:
        if n < 5 or n % 2 == 0:
            raise UsageError("table rows need odd n >= 5")
        if n > TABLE_N_MAX:
            raise UsageError(f"table rows need n <= {TABLE_N_MAX}, got {n}")
    rows = []
    for n in ns:
        shape = Partition((n - 2, 2))
        ct = Partition((n - 2, 2))
        M = twisted_action_matrix(class_rep_for(ct), shape)
        det = det_exact(IntMatrix.identity(M.nrows) - M)
        k = (n - 1) // 2
        rows.append(
            {
                "n": n,
                "dim": M.nrows,
                "class": str(ct),
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

    Each class record is read off the cycle type of its representative
    (`symplectic`); the MeatAxe certifies the embedded generators irreducible
    or not, and an irreducible module is absolutely irreducible iff its
    commuting algebra is GF(2)."""
    from . import meataxe
    from .symplectic import eig1_algebraic, eig1_nullity, embed_group

    module = embed_group(G)
    classes = []
    for size, rep, order in G.conjugacy_classes():
        ct = rep.cycle_type()
        geo = eig1_nullity(ct.parts)
        # over GF(2), det(I - M) is 0 exactly when M has eigenvalue 1
        det = 0 if geo else 1
        classes.append(class_payload(str(ct), size, order, det, eig1_algebraic(ct.parts), geo))
    irreducible = meataxe.is_irreducible(module, seed)
    return {
        **audit_payload(f"embed:{G.name}:d={G.degree}", module.dim, "GF2", classes),
        "irreducible": irreducible,
        "absolutely_irreducible": irreducible and meataxe.endomorphism_algebra_dim(module) == 1,
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
    eig1 = [eig1_nullity(x.cycle_type().parts) > 0 for x in elements]

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
