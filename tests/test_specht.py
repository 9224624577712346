import itertools
import operator
import random

import pytest

from eigenone.intlinalg import IntMatrix, det_exact
from eigenone.perms import Partition, Permutation, class_reps_symmetric, partitions_of
from eigenone.specht import (
    NotInSpechtModule,
    Tableau,
    _dominance_key,
    action_matrix,
    character_mn,
    fixed_space_dim_via_characters,
    polytabloid_expand,
    standard_tableaux,
    straighten,
    tv_apply_perm,
    twisted_action_matrix,
)
from oracles import (
    dominance_counts,
    eig1_multiplicity,
    garnir_coords,
    hook_length_count,
    identity_perm,
    matmul,
    tabloid_action_matrix,
    tabloids_of_shape,
    trace,
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


def test_hook_length_formula_agreement():
    for shape in [(3, 2), (3, 1, 1), (4, 2), (2, 2, 1), (5, 1, 1), (4, 4)]:
        assert len(standard_tableaux(shape)) == hook_length_count(Partition(shape))


@pytest.mark.parametrize("rows,message", [
    ([[1, 2], [2]], "bijection onto 1..n"),
    ([[1, 2], [4]], "bijection onto 1..n"),
    ([[0, 1], [2]], "bijection onto 1..n"),
    ([[1], [2, 3]], "weakly decreasing"),
])
def test_tableau_rejects_bad_fillings(rows, message):
    with pytest.raises(ValueError, match=message):
        Tableau.of(rows)


def test_tableau_is_a_hashable_value():
    t = Tableau.of([[1, 3], [2]])
    assert t == Tableau.of([[1, 3], [2]]) != Tableau.of([[1, 2], [3]])
    assert len({t, Tableau.of([[1, 3], [2]])}) == 1


def test_polytabloid_trivial_shape():
    t = Tableau.of([[2, 1, 3]])
    v = polytabloid_expand(t)
    assert v == {((1, 2, 3),): 1}


def test_polytabloid_two_one():
    t = Tableau.of([[1, 2], [3]])
    v = polytabloid_expand(t)
    assert v == {((1, 2), (3,)): 1, ((2, 3), (1,)): -1}


def test_polytabloid_hook_six_terms():
    t = Tableau.of([[1, 4, 5], [2], [3]])
    v = polytabloid_expand(t)
    assert len(v) == 6
    assert sorted(v.values()) == [-1, -1, -1, 1, 1, 1]
    assert v[((1, 4, 5), (2,), (3,))] == 1


def test_straighten_standard_is_unit_vector():
    for shape in [(3, 2), (3, 1, 1), (4, 2)]:
        basis = standard_tableaux(shape)
        for i, t in enumerate(basis):
            coords = straighten(polytabloid_expand(t), Partition(shape))
            assert coords == [1 if j == i else 0 for j in range(len(basis))]


def test_straighten_garnir_identity_example():
    # columns (2,4) and (1,5), remainder {3,6} ascending in the first row
    t = Tableau.of([[2, 1, 3, 6], [4, 5]])
    coords = straighten(polytabloid_expand(t), Partition((4, 2)))
    basis = standard_tableaux((4, 2))
    nonzero = {basis[i].rows: c for i, c in enumerate(coords) if c}
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
        t = Tableau.of([list(range(1, n)), [n]])
        assert fixed_vector_sum(sigma, t) == {}


def test_dominance_key_extends_dominance_order():
    # straightening pops the tabloid of largest key first, so a tabloid that
    # dominates another must have the larger key: in ascending key order, no
    # tabloid dominates a later one
    for n in range(1, 7):
        for shape in partitions_of(n):
            tabs = sorted(tabloids_of_shape(shape.parts), key=_dominance_key)
            assert len({_dominance_key(T) for T in tabs}) == len(tabs)
            counts = [dominance_counts(T) for T in tabs]
            for i, low in enumerate(counts):
                for high in counts[i + 1 :]:
                    assert not all(map(operator.ge, low, high)), (tabs[i], n, shape)


def test_straighten_rejects_non_specht_vectors():
    with pytest.raises(NotInSpechtModule):
        straighten({((2, 3), (1,)): 1}, Partition((2, 1)))


def test_straighten_soundness_exhaustive_small_n():
    # re-expanding the straightened coordinates reproduces the input exactly
    from oracles import expand_coords

    rng = random.Random(0)
    for n in range(3, 8):
        for shape in partitions_of(n):
            if len(shape.parts) > 4 and shape.parts[0] < 3:
                continue  # keep the run fast; tall narrow shapes are covered below
            perms = list(itertools.permutations(range(1, n + 1)))
            if len(perms) > 120:
                perms = rng.sample(perms, 120)
            for perm in perms:
                rows, k = [], 0
                for ln in shape.parts:
                    rows.append(perm[k : k + ln])
                    k += ln
                t = Tableau.of(rows)
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
                for ln in shape.parts:
                    rows.append(perm[k : k + ln])
                    k += ln
                t = Tableau.of(rows)
                assert garnir_coords(t) == straighten(polytabloid_expand(t), shape)


def test_action_matrix_identity():
    for shape in [(3, 2), (4, 1, 1)]:
        n = sum(shape)
        M = action_matrix(identity_perm(n), Partition(shape))
        assert M == IntMatrix.identity(M.nrows)


def test_action_matrix_homomorphism_random_pairs():
    rng = random.Random(2)
    for shape in [(3, 2), (3, 1, 1), (4, 2), (4, 1, 1), (5, 2), (5, 1, 1), (6, 2), (6, 1, 1)]:
        n = sum(shape)
        sh = Partition(shape)
        for _ in range(200):
            p = Permutation(tuple(rng.sample(range(n), n)))
            q = Permutation(tuple(rng.sample(range(n), n)))
            assert matmul(action_matrix(p, sh), action_matrix(q, sh)) == action_matrix(p * q, sh)


def test_trace_equals_murnaghan_nakayama():
    for n in range(5, 10):
        shapes = [(n - 2, 2), (n - 2, 1, 1), (n - 1, 1), (n,), tuple([1] * n)]
        for shape in shapes:
            sh = Partition(shape)
            for ct, rep in class_reps_symmetric(n):
                assert trace(action_matrix(rep, sh)) == character_mn(shape, ct.parts)


def test_sign_shape_fast_path_matches_generic_route():
    # the 1-dimensional shapes short-circuit; check against the full
    # polytabloid expansion at small n
    for n in range(3, 7):
        sh = Partition(tuple([1] * n))
        t = standard_tableaux(sh.parts)[0]
        exp = polytabloid_expand(t)
        for ct, rep in class_reps_symmetric(n):
            generic = straighten(tv_apply_perm(rep, exp), sh)
            assert action_matrix(rep, sh).rows == [[generic[0]]]
        sh_triv = Partition((n,))
        for ct, rep in class_reps_symmetric(n):
            assert action_matrix(rep, sh_triv).rows == [[1]]


def test_character_mn_basics():
    assert character_mn((6,), (3, 2, 1)) == 1
    assert character_mn((1, 1, 1, 1, 1), (2, 1, 1, 1)) == -1
    assert character_mn((3, 2), (1, 1, 1, 1, 1)) == 5


def test_sign_twist():
    sh = Partition((3, 2))
    even = Permutation.from_cycles(5, [(1, 2, 3)])
    odd = Permutation.from_cycles(5, [(1, 2)])
    assert twisted_action_matrix(even, sh) == action_matrix(even, sh)
    assert twisted_action_matrix(odd, sh) == -action_matrix(odd, sh)


def test_sign_rep_via_twist_of_trivial():
    sh = Partition((5,))
    odd = Permutation.from_cycles(5, [(1, 2)])
    assert twisted_action_matrix(odd, sh).rows == [[-1]]


def test_twisted_det_value_n5():
    sh = Partition((3, 2))
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    M = twisted_action_matrix(sigma, sh)
    assert det_exact(IntMatrix.identity(5) - M) == 6
    # same value through the characteristic polynomial at 1
    from oracles import charpoly_exact

    assert charpoly_exact(M)(1) == 6


def test_tabloid_module_dimension_and_eig1():
    # tabloid permutation module of shape (3,2): dim 10, algebraic
    # multiplicity of eigenvalue 1 on the (3,2) class is exactly 3
    sh = Partition((3, 2))
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
    sh = Partition((2, 2, 1))
    assert len(tabloids_of_shape((2, 2, 1))) == 30
    sigma_type = Partition((3, 2))
    sigma = Permutation.from_cycles(5, [(1, 2, 3), (4, 5)])
    M = tabloid_action_matrix(sigma, sh)
    alg, geo = eig1_multiplicity(M)
    assert alg == geo == 6
    constituents = {(2, 2, 1): 1, (3, 1, 1): 1, (3, 2): 2, (4, 1): 2, (5,): 1}
    total = sum(
        mult * fixed_space_dim_via_characters(Partition(sh2), sigma_type)
        for sh2, mult in constituents.items()
    )
    assert total == 6
    assert fixed_space_dim_via_characters(Partition((2, 2, 1)), sigma_type) == 0


def test_fixed_vector_coords_rank_one():
    # orbit-sum fixed vector as a coordinate row has rank 1
    from eigenone.fixed_vectors import build_fixed_vector, FAMILY_HOOK
    from oracles import rank_exact

    sigma = Permutation.from_cycles(7, [(3, 4), (5, 6, 7)])
    coords = [int(c) for c in build_fixed_vector(sigma, FAMILY_HOOK)["coords"]]
    assert rank_exact(IntMatrix([coords])) == 1
    nonzero = sorted(c for c in coords if c)
    assert nonzero == [3, 3]  # (m/2) copies of two standard polytabloids, m=6
