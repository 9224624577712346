"""The 2-generated subgroup census of a permutation group: each subgroup up
to conjugacy, flagged irreducible or not and unisingular or not on the
symplectic GF(2) module."""

from __future__ import annotations

from math import gcd

from . import meataxe
from .cycletypes import eig1_nullity
from .errors import DEFAULT_SEED, ClosureOverflow, UsageError, VerificationError
from .perms import IndexedGroup, PermGroup, orbit, orbits
from .symplectic import build_space, embed_group

# perfbench's tracer looks for `subgroup_census` in `audit`, so neither it nor the census's
# own loops (`perms.orbit`, `_coset_closure`) are wrapped: their time lands in `cli.command`.


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


def subgroup_census(G: PermGroup, seed: int = DEFAULT_SEED) -> dict:
    """`embed census`'s result: the order of a permutation group G, closed
    here with a bound, and its 2-generated subgroups counted per (order,
    irreducible?, unisingular?) on the symplectic module, in that order.
    Each entry lists the class-size fingerprints of its irreducible ones.

    All three are invariant under conjugation, so they are computed once per
    conjugacy class of subgroups, on its representative; the MeatAxe certifies
    either verdict, so it does not depend on the generator pair.  Makes no
    claim of finding subgroups that need three or more generators.  A group of
    degree 4 with a (2,2) element is refused: (2,2) acts trivially there.
    """
    try:
        group = IndexedGroup(G.generators, bound=2000)
    except ClosureOverflow:
        raise UsageError("census input capped at 2000 elements") from None
    elements = group.elements
    types = [x.cycle_type() for x in elements]
    if G.degree == 4 and (2, 2) in types:
        raise UsageError(f"the degree-4 module of {G.name} is not faithful: (2,2) acts trivially")
    table = group.cayley_table  # table[b][a] = index of x_a * x_b
    eig1 = [eig1_nullity(ct) > 0 for ct in types]
    gram = build_space(G.degree)

    def invariants(K: frozenset[int], gens: tuple[int, int]) -> tuple:
        irr = meataxe.is_irreducible(embed_group(PermGroup([elements[g] for g in gens]), gram), seed)
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
    census = [
        {"order": order, "irreducible": irr, "unisingular": uni, "count": count,
         "class_size_fingerprints": fps}
        for (order, irr, uni), (count, fps) in sorted(agg.items())
    ]
    return {
        "group": G.name,
        "group_order": len(elements),
        "census": census,
        "irreducible_orders": sorted({e["order"] for e in census if e["irreducible"]}),
    }
