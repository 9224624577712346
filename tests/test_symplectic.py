import json
import random

import pytest

from eigenone.cli import main
from eigenone.gf2 import BitMatrix, gf2_rank, preserves_form, rank_nullspace
from eigenone.perms import Permutation, builtin_group, class_reps_symmetric, partitions_of
from eigenone.symplectic import (
    build_space,
    cycle_type_charpoly,
    eig1_algebraic,
    eig1_nullity,
    embed_group,
    embed_permutation,
)
from oracles import charpoly_mod2, eig1_data_by_embedding, identity_perm, peval1


def test_dimensions():
    assert build_space(9).nrows == 8
    assert build_space(20).nrows == 18
    assert build_space(21).nrows == 20


def test_rejects_small_degree():
    with pytest.raises(ValueError):
        build_space(2)


def test_gram_alternating_invertible_all_degrees():
    for d in range(3, 65):
        g = build_space(d)
        dim = 2 * ((d - 1) // 2)
        assert (g.nrows, g.ncols) == (dim, dim)
        assert all(g.get(i, i) == 0 for i in range(dim))
        assert g == g.transpose()
        assert gf2_rank(g) == dim


def test_identity_embeds_to_identity():
    for d in [5, 8, 9, 12]:
        dim = 2 * ((d - 1) // 2)
        assert embed_permutation(identity_perm(d)) == BitMatrix.identity(dim)


def test_homomorphism_many_degrees():
    rng = random.Random(0)
    for d in range(5, 25):
        for _ in range(500):
            p = Permutation(tuple(rng.sample(range(d), d)))
            q = Permutation(tuple(rng.sample(range(d), d)))
            assert embed_permutation(p) * embed_permutation(q) == embed_permutation(p * q)


def test_form_preserved_random():
    rng = random.Random(1)
    for d in [6, 9, 14, 21]:
        gram = build_space(d)
        for _ in range(50):
            p = Permutation(tuple(rng.sample(range(d), d)))
            assert preserves_form(embed_permutation(p), gram)


def test_transposition_fixes_hyperplane():
    M = embed_permutation(Permutation.from_cycles(9, [(1, 2)]))
    _, ns = rank_nullspace(M + BitMatrix.identity(8))
    assert len(ns) == 7


def test_nine_cycle_charpoly():
    M = embed_permutation(Permutation.from_cycles(9, [tuple(range(1, 10))]))
    cp = charpoly_mod2(M)
    assert cp == (1 << 9) - 1  # (x^9+1)/(x+1) = x^8 + ... + 1
    assert peval1(cp) == 1


def test_space_payload(capsys):
    assert main(["embed", "audit", "--group", "asl2_3"]) == 0
    payload = json.loads(capsys.readouterr().out)["result"]["space"]
    assert payload["d"] == 9 and payload["dim"] == 8
    assert len(payload["gram_hex_rows"]) == 8
    assert payload["gram_hex_rows"] == build_space(9).to_hex_rows()


def test_nullity_equals_cycle_count_minus_one_odd_degree():
    for d in [3, 5, 7, 9, 11]:
        ident = BitMatrix.identity(d - 1)
        for ct, rep in class_reps_symmetric(d):
            M = embed_permutation(rep)
            _, ns = rank_nullspace(M + ident)
            assert len(ns) == len(ct) - 1


def test_cycle_type_forms_match_the_embedded_matrix():
    types = [tuple(ct) for d in range(3, 15) for ct in partitions_of(d)]
    assert len(types) == 504
    forms = [(eig1_nullity(ct), eig1_algebraic(ct), cycle_type_charpoly(ct)) for ct in types]
    assert forms == [eig1_data_by_embedding(ct) for ct in types]


def test_embed_group_agl2_3():
    from eigenone.meataxe import is_irreducible

    mod = embed_group(builtin_group("agl2_3"))
    assert mod.dim == 8
    assert is_irreducible(mod)


def test_s9_image_contains_agl2_3_image():
    # AGL2(3) sits inside S9, so its image is the restriction of the S9
    # embedding; the embedded copy is the full 432-element matrix group
    assert embed_group(builtin_group("s_n", n=9)).dim == 8
    images = {embed_permutation(g).rows for g in builtin_group("agl2_3").indexed.elements}
    assert len(images) == 432  # faithful


def test_pgl2_19_module_dim():
    mod = embed_group(builtin_group("pgl2", q=19))
    assert mod.dim == 18
