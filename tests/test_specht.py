import itertools
import operator
import random

import pytest

from eigenone.errors import UsageError, VerificationError
from eigenone.cycletypes import character_mn, fixed_space_dim_via_characters, partitions_of
from eigenone.perms import Permutation, class_reps_symmetric
from eigenone.specht import (
    FAMILIES,
    FAMILY_HOOK,
    FAMILY_TWO,
    FAMILY_TWO_CONJ,
    NotInSpechtModule,
    _basis,
    _dominance_key,
    action_matrix,
    family_dim,
    family_shape,
    mod2_factor_dims,
    polytabloid_expand,
    standard_tableaux,
    straighten,
    tv_apply_perm,
)
from oracles import (
    apply_tableau,
    det,
    dominance_counts,
    eig1_multiplicity,
    garnir_coords,
    generator_matrices,
    hook_length_count,
    identity_perm,
    int_identity,
    matmul,
    matsub,
    mod2_factor_dims_by_meataxe,
    rep_mod2,
    tabloid_action_matrix,
    tabloids_of_shape,
    trace,
    twisted_action_matrix,
)


def test_standard_tableaux_counts():
    assert len(standard_tableaux((3, 2))) == 5
    assert len(standard_tableaux((3, 1, 1))) == 6
    assert len(standard_tableaux((6,))) == 1


def test_dimension_formulas():
    for n in range(5, 14):
        two = len(standard_tableaux((n - 2, 2)))
        hook = len(standard_tableaux((n - 2, 1, 1)))
        assert two == n * (n - 3) // 2
        assert hook == two + 1
    # the closed forms that mod2-factors and the hook audit read
    for family in FAMILIES:
        for n in range(3, 13):
            try:
                shape = family_shape(family, n)
            except UsageError:
                with pytest.raises(UsageError):
                    family_dim(family, n)
                continue
            assert family_dim(family, n) == len(standard_tableaux(shape)), (family, n)


@pytest.mark.parametrize("family,n", [
    (family, n) for family in FAMILIES for n in range(FAMILIES[family][0] + 2, 17)
])
def test_mod2_factor_dims_equal_the_meataxe(family, n):
    # James's decomposition numbers against the MeatAxe on the generator
    # matrices mod 2, the twist's built as such; n = 3 and 4 are where the
    # guard 2j < n drops D^(n-2,2), and a digit test on n - 2j instead of
    # n - 2j + 1 already fails at n = 5
    assert mod2_factor_dims(family, n) == mod2_factor_dims_by_meataxe(family, n)


def test_mod2_factor_dims_at_n_100():
    # far above the MeatAxe's DIM_BOUND: 101 = 1100101 in base 2 has no
    # digit 2, so D^(100) is not a factor of S^(98,2); 99 is odd, so D^(99,1)
    # is, of dimension 99 - 1; D^(98,2) takes the rest of C(100,2) - 100
    assert mod2_factor_dims(FAMILY_TWO, 100) == [98, 4752]
    assert mod2_factor_dims(FAMILY_TWO_CONJ, 100) == [98, 4752]
    assert mod2_factor_dims(FAMILY_HOOK, 100) == [1, 98, 4752]


def test_mod2_factor_dims_check_their_sum(monkeypatch):
    import eigenone.specht

    monkeypatch.setattr(eigenone.specht, "family_dim", lambda family, n: 15)
    with pytest.raises(VerificationError, match="must sum to 15"):
        mod2_factor_dims(FAMILY_TWO, 7)


def test_hook_length_formula_agreement():
    for shape in [(3, 2), (3, 1, 1), (4, 2), (2, 2, 1), (5, 1, 1), (4, 4)]:
        assert len(standard_tableaux(shape)) == hook_length_count(shape)


def test_polytabloid_trivial_shape():
    t = ((2, 1, 3),)
    v = polytabloid_expand(t)
    assert v == {((1, 2, 3),): 1}


def test_polytabloid_two_one():
    t = ((1, 2), (3,))
    v = polytabloid_expand(t)
    assert v == {((1, 2), (3,)): 1, ((2, 3), (1,)): -1}


def test_polytabloid_hook_six_terms():
    t = ((1, 4, 5), (2,), (3,))
    v = polytabloid_expand(t)
    assert len(v) == 6
    assert sorted(v.values()) == [-1, -1, -1, 1, 1, 1]
    assert v[((1, 4, 5), (2,), (3,))] == 1


def test_straighten_standard_is_unit_vector():
    for shape in [(3, 2), (3, 1, 1), (4, 2)]:
        basis = standard_tableaux(shape)
        for i, t in enumerate(basis):
            coords = straighten(polytabloid_expand(t), shape)
            assert coords == [1 if j == i else 0 for j in range(len(basis))]


def test_straighten_garnir_identity_example():
    # columns (2,4) and (1,5), remainder {3,6} ascending in the first row
    t = ((2, 1, 3, 6), (4, 5))
    coords = straighten(polytabloid_expand(t), (4, 2))
    basis = standard_tableaux((4, 2))
    nonzero = {basis[i]: c for i, c in enumerate(coords) if c}
    assert nonzero == {
        ((1, 2, 3, 6), (4, 5)): 1,
        ((1, 3, 4, 6), (2, 5)): -1,
        ((1, 3, 5, 6), (2, 4)): 1,
    }


def test_ncycle_orbit_sum_vanishes_on_standard_rep():
    # sum of e_{sigma^j t} for an n-cycle on shape (n-1,1) is zero
    from eigenone.fixed_vectors import fixed_vector_sum

    for n in [4, 5, 6, 7]:
        sigma = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        t = tuple(map(tuple, [list(range(1, n)), [n]]))
        assert fixed_vector_sum(sigma, t) == {}


def test_dominance_key_extends_dominance_order():
    # straightening pops the tabloid of largest key first, so a tabloid that
    # dominates another must have the larger key: in ascending key order, no
    # tabloid dominates a later one
    for n in range(1, 7):
        for shape in partitions_of(n):
            tabs = sorted(tabloids_of_shape(shape), key=_dominance_key)
            assert len({_dominance_key(T) for T in tabs}) == len(tabs)
            # the rank table, which straightening reads, keeps that order
            assert sorted(tabs, key=_basis(shape).neg_rank.__getitem__, reverse=True) == tabs
            counts = [dominance_counts(T) for T in tabs]
            for i, low in enumerate(counts):
                for high in counts[i + 1 :]:
                    assert not all(map(operator.ge, low, high)), (tabs[i], n, shape)


def test_straighten_rejects_non_specht_vectors():
    with pytest.raises(NotInSpechtModule):
        straighten({((2, 3), (1,)): 1}, (2, 1))


@pytest.mark.parametrize("T", [
    ((1, 2, 3),),  # another shape of n = 3
    ((1, 2), (4,)),  # entries other than 1..3
    ((2, 1), (3,)),  # a row out of order
])
def test_straighten_rejects_a_tabloid_of_another_shape(T):
    # such a tabloid gets no rank, so the table holds only tabloids of its
    # shape, even one that another shape of the same n has ranked
    _basis((3,)).neg_rank[((1, 2, 3),)]
    B = _basis((2, 1))
    with pytest.raises(NotInSpechtModule, match="is not a tabloid of shape"):
        straighten({T: 1, ((1, 2), (3,)): 1}, (2, 1))
    assert T not in B.neg_rank


def test_straighten_soundness_exhaustive_small_n():
    # re-expanding the straightened coordinates reproduces the input exactly
    from oracles import expand_coords

    rng = random.Random(0)
    for n in range(3, 8):
        for shape in partitions_of(n):
            if len(shape) > 4 and shape[0] < 3:
                continue  # keep the run fast; tall narrow shapes are covered below
            perms = list(itertools.permutations(range(1, n + 1)))
            if len(perms) > 120:
                perms = rng.sample(perms, 120)
            for perm in perms:
                rows, k = [], 0
                for ln in shape:
                    rows.append(perm[k : k + ln])
                    k += ln
                t = tuple(rows)
                v = polytabloid_expand(t)
                coords = straighten(v, shape)
                assert expand_coords(coords, shape) == v


def test_garnir_route_equals_reduction_route():
    rng = random.Random(1)
    for n in range(3, 8):
        for shape in partitions_of(n):
            perms = list(itertools.permutations(range(1, n + 1)))
            if len(perms) > 60:
                perms = rng.sample(perms, 60)
            for perm in perms:
                rows, k = [], 0
                for ln in shape:
                    rows.append(perm[k : k + ln])
                    k += ln
                t = tuple(rows)
                assert garnir_coords(t) == straighten(polytabloid_expand(t), shape)


def test_action_matrix_columns_equal_garnir_rewriting():
    # column j holds the coordinates of e_{sigma t_j}; the shapes of each n
    # take turns on every class, so tabloid images kept from one sigma to
    # the next would show
    for n in range(1, 8):
        shapes = list(partitions_of(n))
        for ct, rep in class_reps_symmetric(n):
            for shape in shapes:
                cols = [garnir_coords(apply_tableau(rep, t)) for t in standard_tableaux(shape)]
                assert action_matrix(rep, shape) == [list(r) for r in zip(*cols)], (shape, ct)


def test_action_matrix_identity():
    for shape in [(3, 2), (4, 1, 1)]:
        n = sum(shape)
        M = action_matrix(identity_perm(n), shape)
        assert M == int_identity(len(M))


def test_action_matrix_homomorphism_random_pairs():
    rng = random.Random(2)
    for shape in [(3, 2), (3, 1, 1), (4, 2), (4, 1, 1), (5, 2), (5, 1, 1), (6, 2), (6, 1, 1)]:
        n = sum(shape)
        for _ in range(200):
            p = Permutation(tuple(rng.sample(range(n), n)))
            q = Permutation(tuple(rng.sample(range(n), n)))
            assert matmul(action_matrix(p, shape), action_matrix(q, shape)) == action_matrix(p * q, shape)


def test_trace_equals_murnaghan_nakayama():
    for n in range(5, 10):
        shapes = [(n - 2, 2), (n - 2, 1, 1), (n - 1, 1), (n,), tuple([1] * n)]
        for shape in shapes:
            for ct, rep in class_reps_symmetric(n):
                assert trace(action_matrix(rep, shape)) == character_mn(shape, ct)


def test_sign_shape_fast_path_matches_generic_route():
    # the 1-dimensional shapes short-circuit; check against the full
    # polytabloid expansion at small n
    for n in range(3, 7):
        sh = tuple([1] * n)
        t = standard_tableaux(sh)[0]
        exp = polytabloid_expand(t)
        for ct, rep in class_reps_symmetric(n):
            generic = straighten(tv_apply_perm(rep, exp), sh)
            assert action_matrix(rep, sh) == [[generic[0]]]
        sh_triv = (n,)
        for ct, rep in class_reps_symmetric(n):
            assert action_matrix(rep, sh_triv) == [[1]]


def test_character_mn_basics():
    assert character_mn((6,), (3, 2, 1)) == 1
    assert character_mn((1, 1, 1, 1, 1), (2, 1, 1, 1)) == -1
    assert character_mn((3, 2), (1, 1, 1, 1, 1)) == 5


def test_sign_twist():
    sh = (3, 2)
    even = Permutation.from_cycles(5, [(1, 2, 3)])
    odd = Permutation.from_cycles(5, [(1, 2)])
    assert twisted_action_matrix(even, sh) == action_matrix(even, sh)
    assert twisted_action_matrix(odd, sh) == [[-a for a in r] for r in action_matrix(odd, sh)]


def test_sign_twist_vanishes_mod_2():
    # -M = M mod 2, so the twist's generators reduce to those of (n-2,2),
    # and mod2-factors gives both families the same factors
    for n in range(5, 9):
        shape = (n - 2, 2)
        gens = [Permutation.from_cycles(n, [(1, 2)]),
                Permutation.from_cycles(n, [tuple(range(1, n + 1))])]
        twisted = [twisted_action_matrix(g, shape) for g in gens]
        assert twisted != generator_matrices(shape), n  # (1,2) is odd
        assert rep_mod2(twisted).gens == rep_mod2(generator_matrices(shape)).gens, n


def test_sign_rep_via_twist_of_trivial():
    sh = (5,)
    odd = Permutation.from_cycles(5, [(1, 2)])
    assert twisted_action_matrix(odd, sh) == [[-1]]


def test_twisted_det_value_n5():
    sh = (3, 2)
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    M = twisted_action_matrix(sigma, sh)
    assert det(matsub(int_identity(5), M)) == 6
    # same value through the characteristic polynomial at 1
    from oracles import charpoly_exact

    assert charpoly_exact(M)(1) == 6


def test_tabloid_module_dimension_and_eig1():
    # tabloid permutation module of shape (3,2): dim 10, algebraic
    # multiplicity of eigenvalue 1 on the (3,2) class is exactly 3
    sh = (3, 2)
    assert len(tabloids_of_shape((3, 2))) == 10
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    M = tabloid_action_matrix(sigma, sh)
    alg, geo = eig1_multiplicity(M)
    assert alg == 3


def test_m221_eigenvalue_multiplicity_cross_check():
    # the 30-dimensional tabloid module of shape (2,2,1) on the (3,2) class
    # has eigenvalue-1 multiplicity 6; its simple constituents (with Kostka
    # multiplicities 1,1,2,2,1) account for it via the character oracle,
    # leaving 0 for the (2,2,1) constituent
    sh = (2, 2, 1)
    assert len(tabloids_of_shape((2, 2, 1))) == 30
    sigma_type = (3, 2)
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    M = tabloid_action_matrix(sigma, sh)
    alg, geo = eig1_multiplicity(M)
    assert alg == geo == 6
    constituents = {(2, 2, 1): 1, (3, 1, 1): 1, (3, 2): 2, (4, 1): 2, (5,): 1}
    total = sum(
        mult * fixed_space_dim_via_characters(sh2, sigma_type)
        for sh2, mult in constituents.items()
    )
    assert total == 6
    assert fixed_space_dim_via_characters((2, 2, 1), sigma_type) == 0


def test_fixed_vector_coords_rank_one():
    # orbit-sum fixed vector as a coordinate row has rank 1
    from eigenone.fixed_vectors import build_fixed_vector, FAMILY_HOOK
    from oracles import rank_exact

    sigma = Permutation.from_cycles(7, [(3, 4), (5, 6, 7)])
    coords = [int(c) for c in build_fixed_vector(sigma, FAMILY_HOOK)["coords"]]
    assert rank_exact([coords]) == 1
    nonzero = sorted(c for c in coords if c)
    assert nonzero == [3, 3]  # (m/2) copies of two standard polytabloids, m=6
