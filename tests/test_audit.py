import itertools
import json
import random

import pytest

from eigenone.audit import (
    FIX_PRIME,
    _fixed_dims,
    _rank_one_minus,
    audit_embedded_group,
    audit_specht,
    conjecture_table,
)
from eigenone.cycletypes import (
    character_mn,
    fixed_space_dim_via_characters,
    hook_fixed_dim,
    is_even_class,
    sign_twisted,
)
from eigenone.errors import UsageError, VerificationError
from eigenone.gf2 import BitMatrix, GF2Module, rank_nullspace
from eigenone.perms import builtin_group, class_rep_for, class_reps_symmetric
from eigenone.specht import (
    FAMILY_HOOK,
    FAMILY_TWO,
    FAMILY_TWO_CONJ,
    action_matrix,
    family_dim,
    family_shape,
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
    det,
    from_entries,
    int_identity,
    matrix_classes,
    matrix_closure,
    matsub,
    peval1,
    rank_exact,
    twisted_action_matrix,
    twisted_two_row_fixed_dim_by_orbits,
    two_row_fixed_dim_by_orbits,
    word_product_matrices,
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
            (FAMILY_HOOK, "a_n"), (FAMILY_TWO, "a_n"), (FAMILY_TWO_CONJ, "a_n")]


@pytest.mark.parametrize("n", range(5, 12))
def test_audit_specht_equals_the_bareiss_oracle(n):
    # orbit counts or ranks mod p, and det(I - M) from the powers' fixed
    # dimensions, give the bytes that one exact elimination per class gives
    for family, group in VARIANTS:
        got = json.dumps(audit_specht(n, family, group), sort_keys=True)
        assert got == json.dumps(audit_specht_by_bareiss(n, family, group), sort_keys=True), \
            (n, family, group)


def test_conjecture_table_equals_the_bareiss_determinant():
    ns = list(range(5, 24, 2))
    for n, row in zip(ns, conjecture_table(ns)["rows"], strict=True):
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
        _fixed_dims((FIX_PRIME - 2, 2), 0, [])


def test_fixed_dims_check_the_matrix_size():
    with pytest.raises(VerificationError, match="class 5: a 5-row matrix on a module of dimension 6"):
        _fixed_dims((3, 2), 6, [((5,), class_rep_for((5,)))])


def test_sign_twist_needs_the_square_class():
    # (4,1) is odd, and its square (2,2,1) is not among the classes given
    fixed = {(4, 1): 1, (1, 1, 1, 1, 1): 5}
    with pytest.raises(VerificationError, match="class 4,1: no fixed dimension for its square 2,2,1"):
        sign_twisted(fixed)
    assert sign_twisted({**fixed, (2, 2, 1): 3}) == {(4, 1): 2, (1, 1, 1, 1, 1): 5, (2, 2, 1): 3}


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


@pytest.mark.parametrize("target,message", [
    # one more fixed vector on the 3-cycles is one more eigenvalue of order 2
    # for the class (3,2), whose square they are, and one fewer of order 6
    ((3, 1, 1), "class 3,2: 1 eigenvalues of order 6"),
    ((1, 1, 1, 1, 1), r"class 1,1,1,1,1: dim Fix = 7, outside 0\.\.6"),
])
def test_a_wrong_hook_orbit_count_fails_a_check(monkeypatch, target, message):
    import eigenone.audit

    monkeypatch.setattr(eigenone.audit, "hook_fixed_dim",
                        lambda ct: hook_fixed_dim(ct) + (ct == target))
    with pytest.raises(VerificationError, match=message):
        audit_specht(5, FAMILY_HOOK)


@pytest.mark.parametrize("group", ["s_n", "a_n"])
def test_hook_audit_takes_no_rank(monkeypatch, group):
    # the hook family reads its fixed dimensions from the cycle types alone
    import eigenone.audit

    def fail(*args):
        raise AssertionError("the hook audit reached the rank route")

    monkeypatch.setattr(eigenone.audit, "_fixed_dims", fail)
    assert audit_specht(9, FAMILY_HOOK, group)["unisingular"]


def test_audit_specht_rejects_bad_args():
    with pytest.raises(ValueError):
        audit_specht(4, FAMILY_HOOK)
    with pytest.raises(ValueError):
        audit_specht(7, "(n-3,3)")
    with pytest.raises(ValueError):
        audit_specht(7, FAMILY_HOOK, group="d_n")


def twisted_fixed_space_dim(shape, sigma):
    """The sign-twisted character averaged over the cyclic group of sigma."""
    total, x = 0, sigma
    for _ in range(sigma.order()):
        sign = 1 if x.is_even() else -1
        total += sign * character_mn(shape, x.cycle_type())
        x = x * sigma
    return total // sigma.order()


def test_geometric_multiplicity_matches_character_average():
    # dual routes: the fixed-space dimension is the average of the (twisted)
    # character over the cyclic group generated by a class representative,
    # and the algebraic multiplicity is the charpoly oracle's
    from oracles import eig1_multiplicity

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


ORBIT_FORMULAS = [
    (FAMILY_HOOK, hook_fixed_dim),
    (FAMILY_TWO, two_row_fixed_dim_by_orbits),
    (FAMILY_TWO_CONJ, twisted_two_row_fixed_dim_by_orbits),
]


@pytest.mark.parametrize("n", range(5, 19))
def test_orbit_formulas_match_characters_and_ranks(n):
    # the hook family's orbit count and the two-row families' against the
    # (twisted) character averaged over <g> on every class, and, while the
    # matrices stay small, against dim - rank(I - M) mod p of the class's
    # matrix; on the twist, against that of (n-2,2) with Fix(g^2) - Fix(g)
    # for odd g (`sign_twisted`)
    classes = class_reps_symmetric(n)
    for family, formula in ORBIT_FORMULAS:
        shape = family_shape(family, n)
        twisted = family == FAMILY_TWO_CONJ
        by_orbits = {ct: formula(ct) for ct, _ in classes}
        by_characters = {
            ct: twisted_fixed_space_dim(shape, g) if twisted
            else fixed_space_dim_via_characters(shape, ct)
            for ct, g in classes
        }
        assert by_orbits == by_characters, (n, family)
        if n <= 13:
            by_ranks = _fixed_dims(shape, family_dim(family, n), classes)
            if twisted:
                by_ranks = sign_twisted(by_ranks)
            assert by_ranks == by_orbits, (n, family)


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
    table = conjecture_table([5, 7, 9])
    rows = table["rows"]
    assert [int(r["det_one_minus"]) for r in rows] == [6, 20, 56]
    assert all(r["matches"] for r in rows) and table["all_match"] is True


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


def test_flag_factor_classes_unisingular():
    # close the 8-dimensional flag-module factor and audit its own classes
    from eigenone.meataxe import composition_factors
    from eigenone.symplectic import permutation_module_gf2

    pm = permutation_module_gf2(builtin_group("l3_2_flags"))
    top, _ = max(composition_factors(pm), key=lambda fc: fc[0].dim)
    classes = [(f"c{n}", size, order, M)
               for n, (size, order, M) in enumerate(matrix_classes(top.gens))]
    rep = audit_gf2_classes("flag-8dim", classes, top)
    assert rep["dim"] == 8
    assert rep["unisingular"]
    assert rep["irreducible"] and rep["absolutely_irreducible"]
    assert sorted((c["element_order"], c["size"]) for c in rep["classes"]) == [
        (1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)
    ]


PERMUTATION_MODULE_GROUPS = [("l3_2_flags", {})] + [
    ("pgl2", {"q": q}) for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)] + [
    (name, {"n": n}) for name in ("s_n", "a_n") for n in range(3, 9)]


@pytest.mark.parametrize("name,params", PERMUTATION_MODULE_GROUPS,
                         ids=[f"{g}{p}" for g, p in PERMUTATION_MODULE_GROUPS])
def test_carried_class_matrices_equal_the_word_products(name, params):
    # each class representative's permutation matrix, carried through the
    # MeatAxe's splits, is on every factor the product of that factor's
    # generators along the representative's tree word; the factors, in
    # order, are those of the run that carries nothing
    from eigenone.meataxe import composition_factors
    from eigenone.symplectic import permutation_matrix, permutation_module_gf2

    G = builtin_group(name, **params)
    reps = [rep for *_, rep in G.classes()]
    module = permutation_module_gf2(G)
    factors = composition_factors(module, carried=[permutation_matrix(r) for r in reps])
    assert [f.gens for f, _ in factors] == [f.gens for f, _ in composition_factors(module)]
    for f, mats in factors:
        assert mats == word_product_matrices(G, f.gens, reps)


def test_audit_gf2_classes_reducible_module_flags():
    from oracles import specht_mod2_module

    mod = specht_mod2_module(5, (3, 1, 1))
    classes = [("id", 1, 1, BitMatrix.identity(6))]
    rep = audit_gf2_classes("s311-mod2", classes, mod)
    assert rep["irreducible"] is False
    assert rep["absolutely_irreducible"] is False


def test_audit_gf2_classes_irreducible_not_absolutely():
    # C3 on GF(4) = GF(2)^2: irreducible over GF(2), commuting algebra GF(4)
    C = from_entries([[0, 1], [1, 1]])  # companion of x^2+x+1
    classes = [("1", 1, 1, BitMatrix.identity(2)), ("3a", 1, 3, C), ("3b", 1, 3, C * C)]
    rep = audit_gf2_classes("c3-gf4", classes, GF2Module(2, [C]))
    assert rep["irreducible"] is True
    assert rep["absolutely_irreducible"] is False
    assert rep["offenders"] == ["3a", "3b"]
