import pytest

from eigenone.census import _cyclic_subgroups, subgroup_census, two_generated_subgroups
from eigenone.errors import UsageError, VerificationError
from eigenone.gf2 import BitMatrix, GF2Module, rank_nullspace
from eigenone.meataxe import is_irreducible
from eigenone.perms import IndexedGroup, PermGroup, Permutation, builtin_group
from oracles import (
    cyclic_subgroups_by_definition,
    embedded_elements,
    identity_perm,
    matrix_closure,
    subgroup_census_by_matrices,
    two_generated_subgroups_by_pairs,
)


def test_census_trivial_input():
    result = subgroup_census(PermGroup([identity_perm(9)], name="trivial"))
    assert result["group"] == "trivial" and result["group_order"] == 1
    assert result["irreducible_orders"] == []
    (e,) = result["census"]
    assert e["order"] == 1 and not e["irreducible"] and e["unisingular"]


def test_census_cyclic_nine_contains_non_unisingular():
    # the cyclic group generated by a 9-cycle: its generator has no
    # eigenvalue 1, so some census subgroup is not unisingular
    G = PermGroup([Permutation.from_cycles(9, [tuple(range(1, 10))])])
    assert G.order() == 9
    entries = subgroup_census(G)["census"]
    assert any(not e["unisingular"] for e in entries)
    orders = {e["order"] for e in entries}
    assert orders == {1, 3, 9}


def test_census_restriction_consistency():
    # subgroups of a unisingular group are unisingular on the audited classes
    entries = subgroup_census(builtin_group("asl2_3"))["census"]
    assert all(e["unisingular"] for e in entries)


def test_census_input_caps():
    # S_7: 5040 elements, over the 2000-element cap
    G = builtin_group("s_n", n=7)
    assert G.order() == 5040
    with pytest.raises(ValueError):
        subgroup_census(G)


def test_census_group_is_closed():
    # the census closes the group itself and reads its order off that closure
    G = PermGroup([Permutation.from_cycles(9, [(1, 2)]), Permutation.from_cycles(9, [(1, 2, 3)])])
    result = subgroup_census(G)
    assert result["group_order"] == 6
    assert {e["order"] for e in result["census"]} == {1, 2, 3, 6}
    group = G.indexed
    assert len(group.elements) == 6
    assert all(a * b in group.index for a in group.elements for b in group.elements)


@pytest.mark.parametrize("make", [
    lambda: builtin_group("agl2_3"), lambda: builtin_group("pgl2", q=7),
    lambda: builtin_group("s_n", n=5),
    lambda: PermGroup([Permutation.from_cycles(4, [(1, 2, 3)]), Permutation.from_cycles(4, [(1, 2)])]),
], ids=["agl2_3", "pgl2_7", "s_5", "s_3_on_4_points"])
def test_census_leaves_the_group_as_given(make):
    # the census closes its own bounded copy, and reads the degree-4
    # refusal off it too: G keeps no closure, and the order it reports is
    # the one G gives
    G = make()
    result = subgroup_census(G)
    assert "indexed" not in G.__dict__
    assert result["group_order"] == G.order()


CENSUS_INPUTS = [
    ("agl2_3", {}), ("asl2_3", {}), ("agl1_9", {}), ("agammal1_9", {}), ("l3_2_flags", {}),
    ("pgl2", {"q": 5}), ("pgl2", {"q": 7}), ("pgl2", {"q": 11}),
    ("s_n", {"n": 3}), ("s_n", {"n": 5}), ("s_n", {"n": 6}),
    ("a_n", {"n": 3}), ("a_n", {"n": 5}), ("a_n", {"n": 6}),
]


@pytest.mark.parametrize("name,params", CENSUS_INPUTS,
                         ids=[f"{n}{p}" for n, p in CENSUS_INPUTS])
def test_census_matches_matrix_route(name, params):
    # the permutation-closure census against the closure of the embedded
    # matrices, fingerprint order included
    G = builtin_group(name, **params)
    assert subgroup_census(G) == subgroup_census_by_matrices(G)


@pytest.mark.parametrize("name,params", CENSUS_INPUTS,
                         ids=[f"{n}{p}" for n, p in CENSUS_INPUTS])
def test_two_generated_subgroups_match_the_pairwise_oracle(name, params):
    # pairing y only up to N(<x>) and closing by cosets of <x> finds the same
    # subgroups, the same class representatives and the same generator pairs
    # as pairing every y and closing each <x, y> from scratch
    group = builtin_group(name, **params).indexed
    assert two_generated_subgroups(group) == two_generated_subgroups_by_pairs(group)


@pytest.mark.parametrize("name,params", [
    ("agl2_3", {}), ("pgl2", {"q": 7}), ("s_n", {"n": 5}), ("l3_2_flags", {}),
], ids=["agl2_3", "pgl2_7", "s_5", "l3_2_flags"])
def test_cyclic_subgroups_match_the_definition(name, params):
    # the one ascending pass against the sets of powers: the same least
    # generators in ascending order, their powers, and least[z] for every z
    group = builtin_group(name, **params).indexed
    cyclic, least = _cyclic_subgroups(group)
    by_definition = cyclic_subgroups_by_definition(group)
    assert list(cyclic) == sorted(by_definition.values())
    assert all(X == group.powers(x) for x, X in cyclic.items())
    assert least == [by_definition[frozenset(group.powers(z))] for z in range(len(least))]


def test_two_generated_subgroups_check_orbit_stabilizer(monkeypatch):
    # a normalizer that misses an element breaks |orbit| * |N(<x>)| = |G|
    group = builtin_group("asl2_3").indexed
    normalizer = IndexedGroup.normalizer
    monkeypatch.setattr(IndexedGroup, "normalizer", lambda self, X: normalizer(self, X)[:-1])
    with pytest.raises(VerificationError, match="orbit-stabilizer"):
        two_generated_subgroups(group)


def test_census_refuses_unfaithful_degree_four():
    # (1,2)(3,4) acts trivially on the degree-4 module; without such an
    # element the module is faithful and the census runs
    with pytest.raises(UsageError):
        subgroup_census(PermGroup([Permutation.from_cycles(4, [(1, 2), (3, 4)])]))
    G = PermGroup([Permutation.from_cycles(4, [(1, 2, 3)]), Permutation.from_cycles(4, [(1, 2)])])
    assert G.order() == 6
    assert subgroup_census(G) == subgroup_census_by_matrices(G)


def _all_pairs_census(G: PermGroup) -> tuple[set[frozenset[int]], list[dict]]:
    """Reference census: close <x, y> for every element pair x <= y on a table
    of explicit products of the embedded matrices, with classes from explicit
    conjugates; indices are those of G.indexed."""
    els = embedded_elements(G)
    dim = els[0].nrows
    ident = BitMatrix.identity(dim)
    index = {m: i for i, m in enumerate(els)}
    prod = [[index[a * b] for b in els] for a in els]
    e = index[ident]
    inv = [row.index(e) for row in prod]

    def close(i, j):
        H, frontier = {e}, {e}
        while frontier:
            frontier = {prod[x][g] for x in frontier for g in (i, j)} - H
            H |= frontier
        return frozenset(H)

    subgroups = {}
    for i in range(len(els)):
        for j in range(i, len(els)):
            subgroups.setdefault(close(i, j), (i, j))
    agg = {}
    for H, (i, j) in sorted(subgroups.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        irr = is_irreducible(GF2Module(dim, [els[i], els[j]]))
        uni = all(rank_nullspace(els[x] + ident)[0] < dim for x in H)
        rec = agg.setdefault((len(H), irr, uni), [0, []])
        rec[0] += 1
        if irr:
            classes = {frozenset(prod[prod[h][x]][inv[h]] for h in H) for x in H}
            fp = sorted(len(c) for c in classes)
            if fp not in rec[1]:
                rec[1].append(fp)
    payload = [
        {"order": order, "irreducible": irr, "unisingular": uni, "count": count,
         "class_size_fingerprints": fps}
        for (order, irr, uni), (count, fps) in sorted(agg.items())
    ]
    return set(subgroups), payload


BRUTE_FORCE_SOURCES = {
    "asl2_3": lambda: builtin_group("asl2_3"),
    "agl1_9": lambda: builtin_group("agl1_9"),
    "agammal1_9": lambda: builtin_group("agammal1_9"),
    "cyclic9": lambda: PermGroup([Permutation.from_cycles(9, [tuple(range(1, 10))])]),
    # N(<x>) is larger than <x> for most x here
    "pgl2_5": lambda: builtin_group("pgl2", q=5),
    "s_5": lambda: builtin_group("s_n", n=5),
}


@pytest.mark.parametrize("source", list(BRUTE_FORCE_SOURCES))
def test_census_matches_all_pairs_brute_force(source):
    G = BRUTE_FORCE_SOURCES[source]()
    subgroups, payload = _all_pairs_census(G)
    assert set(two_generated_subgroups(G.indexed)) == subgroups
    assert subgroup_census(G)["census"] == payload


def test_agl2_3_two_generated_subgroups_up_to_conjugacy():
    G = builtin_group("agl2_3")
    subgroups = two_generated_subgroups(G.indexed)
    assert len(subgroups) == 637
    assert len({K for K, _ in subgroups.values()}) == 43
    # every subgroup is g K g^-1 for some element g, with products taken
    # from explicit matrices; each representative is closed by its pair
    els = embedded_elements(G)
    index = {m: i for i, m in enumerate(els)}
    prod = [[index[a * b] for b in els] for a in els]
    e = index[BitMatrix.identity(8)]
    inv = [row.index(e) for row in prod]
    for H, (K, (x, y)) in subgroups.items():
        assert subgroups[K] == (K, (x, y))
        assert K == frozenset(index[a] for a in matrix_closure([els[x], els[y]]))
        assert any(H == frozenset(prod[prod[g][k]][inv[g]] for k in K) for g in range(len(els)))


def test_cyclic_generators_agl2_3():
    G = builtin_group("agl2_3").indexed
    cyclic, _ = _cyclic_subgroups(G)
    assert len(cyclic) == 212
    assert list(cyclic) == sorted(cyclic_subgroups_by_definition(G).values())
