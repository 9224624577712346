import itertools
import json
import random

import pytest

from eigenone.audit import (
    FIX_PRIME,
    _cyclic_subgroups,
    _fixed_dims,
    _rank_one_minus,
    audit_embedded_group,
    audit_specht,
    conjecture_table,
    subgroup_census,
    two_generated_subgroups,
)
from eigenone.errors import UsageError, VerificationError
from eigenone.gf2 import BitMatrix, GF2Module, rank_nullspace
from eigenone.meataxe import is_irreducible
from eigenone.perms import (
    IndexedGroup,
    PermGroup,
    Permutation,
    builtin_group,
    class_rep_for,
    class_reps_symmetric,
    is_even_class,
)
from eigenone.specht import (
    FAMILY_HOOK,
    FAMILY_TWO,
    FAMILY_TWO_CONJ,
    action_matrix,
    twisted_action_matrix,
)
from eigenone.symplectic import embed_group, embed_permutation
from oracles import (
    _one_minus,
    audit_embedded_group_by_matrices,
    audit_gf2_classes,
    audit_int_classes,
    audit_specht_by_bareiss,
    charpoly_mod2,
    class_label,
    conjugate_by,
    cyclic_subgroups_by_definition,
    det,
    embedded_elements,
    identity_perm,
    int_identity,
    matrix_classes,
    matrix_closure,
    matsub,
    peval1,
    rank_exact,
    subgroup_census_by_matrices,
    two_generated_subgroups_by_pairs,
)


def test_trivial_representation_unisingular():
    classes = [("1", 1, 1, [[1]]), ("2", 3, 2, [[1]])]
    rep = audit_int_classes("trivial", classes)
    assert rep["unisingular"] and rep["offenders"] == []


def test_audit_specht_examples():
    rep = audit_specht(7, FAMILY_TWO)
    assert rep["unisingular"]
    rep = audit_specht(5, FAMILY_TWO_CONJ)
    assert rep["offenders"] == ["3,2"]
    rec = {c["class"]: c for c in rep["classes"]}["3,2"]
    assert rec["det_one_minus"] == "6"
    repA = audit_specht(7, FAMILY_TWO_CONJ, group="a_n")
    assert repA["unisingular"]


VARIANTS = [(FAMILY_HOOK, "s_n"), (FAMILY_TWO, "s_n"), (FAMILY_TWO_CONJ, "s_n"),
            (FAMILY_TWO_CONJ, "a_n")]


@pytest.mark.parametrize("n", range(5, 12))
def test_audit_specht_equals_the_bareiss_oracle(n):
    # ranks mod p and det(I - M) from the powers' fixed dimensions give the
    # bytes that one exact elimination per class gives
    for family, group in VARIANTS:
        got = json.dumps(audit_specht(n, family, group), sort_keys=True)
        assert got == json.dumps(audit_specht_by_bareiss(n, family, group), sort_keys=True), \
            (n, family, group)


def test_conjecture_table_equals_the_bareiss_determinant():
    ns = list(range(5, 24, 2))
    for n, row in zip(ns, conjecture_table(ns), strict=True):
        ct = (n - 2, 2)
        M = twisted_action_matrix(class_rep_for(ct), ct)
        assert row["dim"] == len(M)
        assert row["det_one_minus"] == str(det(_one_minus(M))), n


def test_rank_mod_p_needs_p_prime_to_the_order():
    # on (3,2), the 3-cycle's I - M has rank 4 over QQ and mod 32749, but 3
    # mod 3, which divides its order
    M = action_matrix(class_rep_for((3, 1, 1)), (3, 2))
    assert rank_exact(_one_minus(M)) == 4
    assert _rank_one_minus(M, FIX_PRIME) == 4
    assert _rank_one_minus(M, 3) == 3
    assert M == action_matrix(class_rep_for((3, 1, 1)), (3, 2))  # M is not eliminated


def test_fixed_dims_refuse_n_at_least_the_prime():
    with pytest.raises(UsageError, match="need n < 32749"):
        _fixed_dims((FIX_PRIME - 2, 2), False, [])


def test_a_wrong_fixed_dimension_fails_the_power_counts(monkeypatch):
    # one more fixed vector on the 3-cycle's class of (3,2) is one more
    # eigenvalue of order 2 for the class (3,2), whose square is a 3-cycle,
    # and so one fewer of order 6: m_6 = 1, no multiple of phi(6) = 2
    import eigenone.audit

    target = action_matrix(class_rep_for((3, 1, 1)), (3, 2))
    rank = eigenone.audit._rank_one_minus
    monkeypatch.setattr(eigenone.audit, "_rank_one_minus",
                        lambda M, p: rank(M, p) - (M == target))
    with pytest.raises(VerificationError, match="class 3,2: 1 eigenvalues of order 6"):
        audit_specht(5, FAMILY_TWO)


def test_audit_specht_rejects_bad_args():
    with pytest.raises(ValueError):
        audit_specht(4, FAMILY_HOOK)
    with pytest.raises(ValueError):
        audit_specht(7, "(n-3,3)")
    with pytest.raises(ValueError):
        audit_specht(7, FAMILY_HOOK, group="d_n")


def test_geometric_multiplicity_matches_character_average():
    # dual routes: the fixed-space dimension is the average of the (twisted)
    # character over the cyclic group generated by a class representative,
    # and the algebraic multiplicity is the charpoly oracle's
    from eigenone.specht import character_mn, fixed_space_dim_via_characters
    from oracles import eig1_multiplicity

    def twisted_fixed_space_dim(shape, sigma):
        total, x = 0, sigma
        for _ in range(sigma.order()):
            sign = 1 if x.is_even() else -1
            total += sign * character_mn(shape, x.cycle_type())
            x = x * sigma
        return total // sigma.order()

    for n in range(5, 9):
        for family in (FAMILY_HOOK, FAMILY_TWO, FAMILY_TWO_CONJ):
            shape = (n - 2, 1, 1) if family == FAMILY_HOOK else (n - 2, 2)
            twisted = family == FAMILY_TWO_CONJ
            rep = audit_specht(n, family)
            by_label = {c["class"]: c for c in rep["classes"]}
            for ct, sigma in class_reps_symmetric(n):
                rec = by_label[class_label(ct)]
                if twisted:
                    expected = twisted_fixed_space_dim(shape, sigma)
                    M = twisted_action_matrix(sigma, shape)
                else:
                    expected = fixed_space_dim_via_characters(shape, ct)
                    M = action_matrix(sigma, shape)
                assert rec["eig1_geometric"] == expected, (n, family, ct)
                assert rec["eig1_algebraic"] == eig1_multiplicity(M)[0], (n, family, ct)


@pytest.mark.parametrize("n", [5, 7, 9, 10, 11])
def test_two_row_fixed_space_by_orbit_counts(n):
    # M^(n-2,2) = S^(n) + S^(n-1,1) + S^(n-2,2), and a permutation module's
    # fixed space has one dimension per orbit: so dim Fix(g) on S^(n-2,2) is
    # the number of <g>-orbits on 2-subsets minus the number on points
    def orbit_count(subsets, g):
        seen, count = set(), 0
        for S in subsets:
            count += S not in seen
            while S not in seen:
                seen.add(S)
                S = frozenset(map(g.apply, S))
        return count

    points = [frozenset(S) for S in itertools.combinations(range(1, n + 1), 1)]
    pairs = [frozenset(S) for S in itertools.combinations(range(1, n + 1), 2)]
    rep = audit_specht(n, FAMILY_TWO)
    for rec, (ct, g) in zip(rep["classes"], class_reps_symmetric(n), strict=True):
        assert rec["class"] == class_label(ct)
        assert rec["eig1_geometric"] == orbit_count(pairs, g) - orbit_count(points, g), (n, ct)


def test_det_constant_on_class_sampled():
    rng = random.Random(0)
    n = 6
    sh = (4, 2)
    els = builtin_group("s_n", n=n).indexed.elements
    for ct, rep in class_reps_symmetric(n):
        M = action_matrix(rep, sh)
        base = det(matsub(int_identity(len(M)), M))
        for _ in range(3):
            g = els[rng.randrange(len(els))]
            M2 = action_matrix(conjugate_by(rep, g), sh)
            assert det(matsub(int_identity(len(M2)), M2)) == base


def test_sign_twist_changes_only_odd_classes():
    n = 6
    sh = (4, 2)
    for ct, rep in class_reps_symmetric(n):
        M = action_matrix(rep, sh)
        Mt = twisted_action_matrix(rep, sh)
        d = det(matsub(int_identity(len(M)), M))
        dt = det(matsub(int_identity(len(M)), Mt))
        if is_even_class(ct):
            assert d == dt
        # odd classes may or may not differ; the even case is the invariant


def test_conjecture_table_values():
    rows = conjecture_table([5, 7, 9])
    assert [int(r["det_one_minus"]) for r in rows] == [6, 20, 56]
    assert all(r["matches"] for r in rows)


def test_conjecture_table_rejects_even_n():
    with pytest.raises(ValueError):
        conjecture_table([6])


def test_agl2_3_embedded_audit():
    rep = audit_embedded_group(builtin_group("agl2_3"))
    assert rep["unisingular"]
    assert rep["irreducible"] and rep["absolutely_irreducible"]
    assert rep["dim"] == 8


def test_pgl2_19_offenders_exactly_order_19():
    G = builtin_group("pgl2", q=19)
    rep = audit_embedded_group(G)
    assert not rep["unisingular"]
    offender_orders = {
        c["element_order"] for c in rep["classes"] if not c["has_eigenvalue_one"]
    }
    assert offender_orders == {19}
    non_offender_orders = {
        c["element_order"] for c in rep["classes"] if c["has_eigenvalue_one"]
    }
    assert 19 not in non_offender_orders


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19])
def test_pgl2_offenders_split_by_q_mod_4(q):
    # a (q+1)/2-class has two cycles of odd length when q = 1 mod 4, and a
    # (q+1)-cycle has q+1 = 2 mod 4: neither has eigenvalue 1 on W/<1>
    expected = {f"{q},1"}
    if q % 4 == 1:
        expected |= {f"{(q + 1) // 2},{(q + 1) // 2}", f"{q + 1}"}
    assert set(audit_embedded_group(builtin_group("pgl2", q=q))["offenders"]) == expected


@pytest.mark.parametrize("name,params", [
    *[(name, {}) for name in ("agl2_3", "asl2_3", "agl1_9", "agammal1_9", "l3_2_flags")],
    *[("pgl2", {"q": q}) for q in (3, 5, 7, 11, 13, 17, 19)],
    *[(name, {"n": n}) for name in ("s_n", "a_n") for n in range(3, 8)],
])
def test_embedded_audit_matches_the_matrix_route(name, params):
    # degrees 9, 7 and 4..20 cover d odd, d = 2 mod 4 and d = 0 mod 4
    G = builtin_group(name, **params)
    assert audit_embedded_group(G) == audit_embedded_group_by_matrices(G)


def test_gf2_det_verdict_matches_nullity_verdict():
    G = builtin_group("pgl2", q=19)
    ident = BitMatrix.identity(18)
    for size, rep, order in G.conjugacy_classes():
        M = embed_permutation(rep)
        rank, _ = rank_nullspace(M + ident)
        assert (rank < 18) == (peval1(charpoly_mod2(M)) == 0)


def test_agl2_3_every_element_has_eigenvalue_one():
    # per-element confirmation of what the class audit asserts classwise
    mod = embed_group(builtin_group("agl2_3"))
    ident = BitMatrix.identity(8)
    for m in matrix_closure(mod.gens):
        rank, _ = rank_nullspace(m + ident)
        assert rank < 8


def test_census_trivial_input():
    entries = subgroup_census(PermGroup([identity_perm(9)]))
    assert len(entries) == 1
    e = entries[0]
    assert e["order"] == 1 and not e["irreducible"] and e["unisingular"]


def test_census_cyclic_nine_contains_non_unisingular():
    # the cyclic group generated by a 9-cycle: its generator has no
    # eigenvalue 1, so some census subgroup is not unisingular
    G = PermGroup([Permutation.from_cycles(9, [tuple(range(1, 10))])])
    assert G.order() == 9
    entries = subgroup_census(G)
    assert any(not e["unisingular"] for e in entries)
    orders = {e["order"] for e in entries}
    assert orders == {1, 3, 9}


def test_census_restriction_consistency():
    # subgroups of a unisingular group are unisingular on the audited classes
    entries = subgroup_census(builtin_group("asl2_3"))
    assert all(e["unisingular"] for e in entries)


def test_census_input_caps():
    # S_7: 5040 elements, over the 2000-element cap
    G = builtin_group("s_n", n=7)
    assert G.order() == 5040
    with pytest.raises(ValueError):
        subgroup_census(G)


def test_census_group_is_closed():
    # the census runs on the group's indexed closure
    G = PermGroup([Permutation.from_cycles(9, [(1, 2)]), Permutation.from_cycles(9, [(1, 2, 3)])])
    group = G.indexed
    assert len(group.elements) == 6
    assert all(a * b in group.index for a in group.elements for b in group.elements)
    assert {e["order"] for e in subgroup_census(G)} == {1, 2, 3, 6}


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
    assert subgroup_census(G) == payload


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


def test_flag_factor_classes_unisingular():
    # close the 8-dimensional flag-module factor and audit its own classes
    from eigenone.meataxe import composition_factors
    from eigenone.symplectic import permutation_module_gf2

    pm = permutation_module_gf2(builtin_group("l3_2_flags"))
    top = max(composition_factors(pm), key=lambda f: f.dim)
    classes = [(f"c{n}", size, order, M)
               for n, (size, order, M) in enumerate(matrix_classes(top.gens))]
    rep = audit_gf2_classes("flag-8dim", classes, top)
    assert rep["dim"] == 8
    assert rep["unisingular"]
    assert rep["irreducible"] and rep["absolutely_irreducible"]
    assert sorted((c["element_order"], c["size"]) for c in rep["classes"]) == [
        (1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)
    ]


def test_audit_gf2_classes_reducible_module_flags():
    from oracles import specht_mod2_module

    mod = specht_mod2_module(5, (3, 1, 1))
    classes = [("id", 1, 1, BitMatrix.identity(6))]
    rep = audit_gf2_classes("s311-mod2", classes, mod)
    assert rep["irreducible"] is False
    assert rep["absolutely_irreducible"] is False


def test_audit_gf2_classes_irreducible_not_absolutely():
    # C3 on GF(4) = GF(2)^2: irreducible over GF(2), commuting algebra GF(4)
    C = BitMatrix.from_entries([[0, 1], [1, 1]])  # companion of x^2+x+1
    classes = [("1", 1, 1, BitMatrix.identity(2)), ("3a", 1, 3, C), ("3b", 1, 3, C * C)]
    rep = audit_gf2_classes("c3-gf4", classes, GF2Module(2, [C]))
    assert rep["irreducible"] is True
    assert rep["absolutely_irreducible"] is False
    assert rep["offenders"] == ["3a", "3b"]
