import time

import pytest

from eigenone.fixed_vectors import (
    FAMILY_HOOK,
    FAMILY_TWO,
    FixedVectorError,
    build_fixed_vector,
    fixed_vector_sum,
    witness_tableau,
)
from eigenone.errors import VerificationError
from eigenone.perms import Permutation, class_rep_for, class_reps_symmetric
from eigenone.specht import family_shape, polytabloid_expand, tv_apply_perm
from oracles import expand_coords, fixed_vector_full_orbit, identity_perm


def vector_of(fv: dict, n: int) -> dict:
    """The tabloid expansion of a fixed vector from its coordinates."""
    return expand_coords([int(c) for c in fv["coords"]], family_shape(fv["family"], n))


def test_identity_gets_direct_polytabloid():
    sigma = identity_perm(6)
    t, direct = witness_tableau(sigma, FAMILY_HOOK)
    assert direct
    fv = build_fixed_vector(sigma, FAMILY_HOOK)
    assert vector_of(fv, 6) == polytabloid_expand(tuple(map(tuple, fv["tableau"])))


def test_three_fixed_points_hook_direct():
    sigma = Permutation.from_cycles(7, [(4, 5, 6, 7)])
    t, direct = witness_tableau(sigma, FAMILY_HOOK)
    assert direct is False or sorted(x for row in t[1:] for x in row) == [2, 3]
    vec = vector_of(build_fixed_vector(sigma, FAMILY_HOOK), 7)
    assert vec and tv_apply_perm(sigma, vec) == vec


def test_four_fixed_points_two_row_direct():
    sigma = Permutation.from_cycles(8, [(5, 6, 7, 8)])
    t, direct = witness_tableau(sigma, FAMILY_TWO)
    assert direct
    assert t[0][:2] == (1, 2) and t[1] == (3, 4)


def test_orbit_sum_is_always_fixed():
    sigma = Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)])
    t = ((1, 2, 3, 4), (5,), (6,))
    E = fixed_vector_sum(sigma, t)
    assert tv_apply_perm(sigma, E) == E


@pytest.mark.parametrize("n", range(5, 10))
def test_one_period_sum_equals_the_full_orbit_sum(n):
    # the terms repeat with the period of the entries in long columns, so
    # order / P times one period is the sum over the whole orbit
    for ct, rep in class_reps_symmetric(n):
        for fam in (FAMILY_HOOK, FAMILY_TWO):
            t, _ = witness_tableau(rep, fam)
            assert fixed_vector_sum(rep, t) == fixed_vector_full_orbit(rep, t), (ct, fam)


@pytest.mark.parametrize("cycle_type,family", [
    ((17, 13, 11, 7, 5, 4, 3), FAMILY_TWO),  # order 1021020, period 51
    ((19, 13, 11, 7, 5, 3, 2), FAMILY_HOOK),  # order 570570, period 3
    ((19, 13, 11, 7, 5, 3, 2), FAMILY_TWO),  # period 38
])
def test_degree_60_sums_one_period(cycle_type, family):
    # summing all order(sigma) terms had not finished after 60 s
    t0 = time.time()
    fv = build_fixed_vector(class_rep_for(cycle_type), family)
    assert any(int(c) for c in fv["coords"])
    assert time.time() - t0 < 10


def test_ncycle_on_standard_shape_vanishes():
    sigma = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    t = ((1, 2, 3, 4), (5,))
    assert fixed_vector_sum(sigma, t) == {}


def test_orbit_sum_of_identity_is_single_polytabloid():
    t = ((1, 3, 5), (2,), (4,))
    assert fixed_vector_sum(identity_perm(5), t) == polytabloid_expand(t)


def test_case1_transposition_pattern_n7():
    # smallest cycle a transposition, two fixed points: E = (m/2)(e_a + e_b)
    sigma = Permutation.from_cycles(7, [(3, 4), (5, 6, 7)])
    coords = [int(c) for c in build_fixed_vector(sigma, FAMILY_HOOK)["coords"]]
    assert sorted(c for c in coords if c) == [3, 3]


def test_single_big_cycle_term_count():
    # an (n-2)-cycle with two fixed points: a sum of 3n-8 basis vectors
    # (counted with multiplicity: one coefficient n-2, and 2(n-3) signs)
    for n in [7, 9, 11]:
        sigma = class_rep_for((n - 2, 1, 1))
        coords = [int(c) for c in build_fixed_vector(sigma, FAMILY_HOOK)["coords"]]
        assert sum(abs(c) for c in coords) == 3 * n - 8
        assert sum(1 for c in coords if c) == 2 * n - 5
        assert max(abs(c) for c in coords) == n - 2


@pytest.mark.parametrize("n", range(5, 11))
def test_every_class_both_families(n):
    for ct, rep in class_reps_symmetric(n):
        for fam in (FAMILY_HOOK, FAMILY_TWO):
            vec = vector_of(build_fixed_vector(rep, fam), n)
            assert vec  # nonzero
            assert tv_apply_perm(rep, vec) == vec


def test_verification_rejects_bad_selection(monkeypatch):
    # force the case table to hand back an unfixed polytabloid; the mandatory
    # verification must refuse it rather than return silently
    import eigenone.fixed_vectors as fvmod

    bad = ((1, 4, 5), (2,), (3,))
    monkeypatch.setattr(fvmod, "witness_tableau", lambda s, f: (bad, True))
    sigma = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    with pytest.raises(FixedVectorError):
        build_fixed_vector(sigma, FAMILY_HOOK)


@pytest.mark.parametrize("case,family,entries", [
    ("_hook_column", FAMILY_HOOK, (1, 1, 2)),  # a column with a repeat: e_t = 0
    ("_two_row_block", FAMILY_TWO, (1, 1, 3, 4)),  # a row with a repeat
])
def test_malformed_witness_fails_as_a_check(monkeypatch, case, family, entries):
    # a tableau is a plain tuple, so nothing refuses a repeated entry when the
    # witness is built; build_fixed_vector checks that it fills 1..n once
    # before it forms E
    import eigenone.fixed_vectors as fvmod

    monkeypatch.setattr(fvmod, case, lambda sigma: (entries, True))
    with pytest.raises(VerificationError, match="does not fill 1..6 once"):
        build_fixed_vector(identity_perm(6), family)


def test_degree_too_small_rejected():
    with pytest.raises(ValueError):
        build_fixed_vector(identity_perm(4), FAMILY_HOOK)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        build_fixed_vector(identity_perm(6), "(n-3,3)")


def test_payload_shape():
    sigma = class_rep_for((3, 2))
    payload = build_fixed_vector(sigma, FAMILY_TWO)
    assert payload["nonzero"] is True
    assert payload["sigma"] == "(1,2,3)(4,5)"
    assert payload["family"] == FAMILY_TWO
    assert tuple(map(tuple, payload["tableau"])) == witness_tableau(sigma, FAMILY_TWO)[0]
