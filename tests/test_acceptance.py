"""Acceptance criteria, one test per criterion, each printing a PASS line on
success (run with `pytest -s tests/test_acceptance.py` to see them inline).
All tolerances are exact integer equalities.
"""

import json
import pathlib
import time

import pytest

from eigenone.arith import (
    bad_primes,
    disc_resultant,
    frobenius_charpoly_gf2,
    frobenius_scan,
    lpoly_from_counts,
    malle_disc_formula,
    malle_g,
    malle_r,
)
from eigenone.audit import (
    audit_embedded_group,
    audit_specht,
    conjecture_table,
)
from eigenone.census import subgroup_census
from eigenone.fixed_vectors import build_fixed_vector
from eigenone.gf2 import BitMatrix, rank_nullspace
from eigenone.meataxe import (
    composition_factors,
    is_irreducible,
)
from eigenone.perms import builtin_group, class_reps_symmetric
from eigenone.specht import FAMILY_HOOK, FAMILY_TWO, FAMILY_TWO_CONJ
from eigenone.symplectic import embed_group, permutation_module_gf2
from oracles import (
    charpoly_mod2,
    endomorphism_algebra_dim,
    factor_dimensions,
    matmul,
    matrix_closure,
    specht_mod2_module,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def _report(k, msg):
    print(f"\nACCEPTANCE {k}: PASS - {msg}")


def test_criterion_1_conjecture_table():
    t0 = time.time()
    table = conjecture_table([5, 7, 9, 11, 13])
    rows = table["rows"]
    values = [int(r["det_one_minus"]) for r in rows]
    assert values == [6, 20, 56, 144, 352]
    assert all(r["matches"] for r in rows) and table["all_match"] is True
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(1, f"table values {values} match 2^(k-1)(2k-1) exactly ({elapsed:.1f}s)")


@pytest.mark.extended
def test_criterion_1_extended_table():
    t0 = time.time()
    rows = conjecture_table([15, 17])["rows"]
    values = [int(r["det_one_minus"]) for r in rows]
    assert values == [832, 1920]
    elapsed = time.time() - t0
    assert elapsed < 900
    _report("1x", f"extended values {values} match exactly ({elapsed:.1f}s)")


def test_criterion_2_theorem_mechanization():
    t0 = time.time()
    for n in range(5, 13):
        for family in (FAMILY_HOOK, FAMILY_TWO):
            rep = audit_specht(n, family)
            assert rep["unisingular"], (n, family, rep["offenders"])
            assert all(c["det_one_minus"] == "0" for c in rep["classes"])
        for ct, sigma in class_reps_symmetric(n):
            for family in (FAMILY_HOOK, FAMILY_TWO):
                fv = build_fixed_vector(sigma, family)
                assert any(int(c) for c in fv["coords"])
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(2, f"det(I-M) = 0 and a verified nonzero fixed vector for every class, "
               f"5 <= n <= 12, both families ({elapsed:.1f}s)")


def test_criterion_3_conjecture_complement():
    for n in [5, 7, 9, 11, 13]:
        rep = audit_specht(n, FAMILY_TWO_CONJ)
        assert rep["offenders"] == [f"{n-2},2"], (n, rep["offenders"])
        repA = audit_specht(n, FAMILY_TWO_CONJ, group="a_n")
        assert repA["unisingular"]
    _report(3, "only offending class of the twisted module is the (n-2,2) class; "
               "restriction to even permutations is unisingular, n in {5,7,9,11,13}")


def test_criterion_4_agl2_3_unirealization_group_theory():
    t0 = time.time()
    G = builtin_group("agl2_3")
    module = embed_group(G)  # checks the form is preserved
    assert G.order() == 432
    assert is_irreducible(module)
    assert endomorphism_algebra_dim(module) == 1
    rep = audit_embedded_group(G)
    assert rep["unisingular"]
    assert subgroup_census(G)["irreducible_orders"] == [72, 144, 216, 432]
    elapsed = time.time() - t0
    assert elapsed < 1200
    _report(4, f"432 elements, form preserved, absolutely irreducible, unisingular; "
               f"irreducible 2-generated subgroup orders exactly {{72,144,216,432}} ({elapsed:.1f}s)")


def test_criterion_5_pgl2_19():
    t0 = time.time()
    G = builtin_group("pgl2", q=19)
    rep = audit_embedded_group(G)
    assert rep["dim"] == 18
    assert not rep["unisingular"]
    offenders = [c for c in rep["classes"] if not c["has_eigenvalue_one"]]
    assert offenders and all(c["element_order"] == 19 for c in offenders)
    keepers = [c for c in rep["classes"] if c["has_eigenvalue_one"]]
    assert all(c["element_order"] != 19 for c in keepers)
    # charpoly of the offender class is (x^19+1)/(x+1)
    from eigenone.symplectic import embed_permutation

    expect = (1 << 19) - 1
    for size, g, order in G.conjugacy_classes():
        if order == 19:
            assert charpoly_mod2(embed_permutation(g)) == expect
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(5, f"18-dim module not unisingular; offenders exactly the order-19 classes "
               f"with charpoly (x^19+1)/(x+1) ({elapsed:.1f}s)")


def test_criterion_6_steinberg_flag_module():
    t0 = time.time()
    L = builtin_group("l3_2_flags")
    pm = permutation_module_gf2(L)
    assert pm.dim == 21
    factors = [f for f, _ in composition_factors(pm)]
    dims = [f.dim for f in factors]
    # pinned from an independent oracle (2-modular decomposition of the flag
    # permutation character): one 8, four 3s, one 1
    assert dims == [1, 3, 3, 3, 3, 8]
    eights = [f for f in factors if f.dim == 8]
    assert len(eights) == 1
    st = eights[0]
    assert endomorphism_algebra_dim(st) == 1  # a factor is certified irreducible
    st_els = matrix_closure(st.gens)
    ident = BitMatrix.identity(8)
    assert all(rank_nullspace(m + ident)[0] < 8 for m in st_els)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(6, f"flag module factors {dims}; the unique 8-dim factor is absolutely "
               f"irreducible and unisingular ({elapsed:.1f}s)")


def test_criterion_7_mod2_specht_facts():
    t0 = time.time()
    assert factor_dimensions(specht_mod2_module(5, (3, 1, 1))) == [1, 1, 4]
    expectations = {5: False, 7: True, 9: False, 11: True, 13: False}
    for n, irr in expectations.items():
        mod = specht_mod2_module(n, (n - 2, 2))
        dims = factor_dimensions(mod)
        assert (dims == [mod.dim]) == irr, (n, dims)
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(7, f"S^(3,1,1) mod 2 splits as {{1,1,4}}; two-row family irreducible mod 2 "
               f"exactly at n = 7, 11 within 5..13 ({elapsed:.1f}s)")


def test_criterion_8_discriminant():
    import random

    t0 = time.time()
    rng = random.Random(0xC0FFEE)
    done = 0
    while done < 20:
        a, t = rng.randint(-50, 50), rng.randint(-50, 50)
        if a == 0 or t == 0 or malle_r(a, t) == 0:
            continue
        assert disc_resultant(malle_g(a, t)) == malle_disc_formula(a, t)
        done += 1
    g = malle_g(1, -32)
    assert disc_resultant(g) == -(2**58) * 3**9
    assert bad_primes(g, disc_resultant(g)) == [2, 3]
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(8, f"disc identity on 20 samples; disc(g_(1,-32)) = -2^58*3^9; "
               f"bad primes exactly {{2,3}} ({elapsed:.1f}s)")


def test_criterion_9_frobenius_parity():
    t0 = time.time()
    g = malle_g(1, -32)
    scan = frobenius_scan(g, 10**4, builtin_group("agl2_3"))
    assert scan["all_have_eigenvalue_one"] and scan["all_types_in_group"]
    # every record of the committed battery reports, not only the verdicts
    committed = json.loads((OUT / "frobenius_scan_g1_m32.json").read_text())["result"]
    assert scan == committed
    disc = disc_resultant(g)
    for p in [5, 7, 11, 13]:
        L = lpoly_from_counts(g, p, disc)
        assert sum(L) % 2 == 0  # #J(F_p) = P(1)
        # x^8 P(1/x) mod 2 against the charpoly of Frobenius on the 2-torsion
        assert sum((c % 2) << (8 - i) for i, c in enumerate(L)) == frobenius_charpoly_gf2(g, p, disc)
    g11 = malle_g(1, 1)
    scan11 = frobenius_scan(g11, 10**4, builtin_group("agammal1_9"))
    assert scan11["all_types_in_group"]
    committed = json.loads((OUT / "frobenius_scan_g1_1.json").read_text())["result"]
    assert scan11 == committed
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(9, f"all good p <= 10^4 have eigenvalue 1 with types in the target group, "
               f"{len(scan['records']) + len(scan11['records'])} records equal to out/; "
               f"#J(F_p) even and L-poly matches Frobenius mod 2 at p in {{5,7,11,13}} ({elapsed:.1f}s)")


def test_criterion_10_property_suites():
    # the exhaustive property tests live in the per-module files; this
    # criterion asserts the cross-cutting ones inline and cheaply
    import itertools
    import random

    from eigenone.cycletypes import character_mn
    from eigenone.perms import Permutation
    from eigenone.specht import (
        action_matrix,
        polytabloid_expand,
        straighten,
    )
    from oracles import expand_coords, trace

    t0 = time.time()
    # straightening brute-force equivalence, all tableaux of both audited
    # families for n <= 7
    for n in range(5, 8):
        for shape in [(n - 2, 2), (n - 2, 1, 1)]:
            for perm in itertools.permutations(range(1, n + 1)):
                rows, k = [], 0
                for ln in shape:
                    rows.append(perm[k : k + ln])
                    k += ln
                t = tuple(rows)
                v = polytabloid_expand(t)
                assert expand_coords(straighten(v, shape), shape) == v
    # homomorphism spot checks
    rng = random.Random(1)
    for shape in [(5, 2), (5, 1, 1)]:
        n = sum(shape)
        for _ in range(200):
            p = Permutation(tuple(rng.sample(range(n), n)))
            q = Permutation(tuple(rng.sample(range(n), n)))
            assert matmul(action_matrix(p, shape), action_matrix(q, shape)) == action_matrix(p * q, shape)
    # character oracle agreement for all classes, n <= 9
    for n in range(5, 10):
        for shape in [(n - 2, 2), (n - 2, 1, 1), (n - 1, 1), (n,), tuple([1] * n)]:
            for ct, rep in class_reps_symmetric(n):
                assert trace(action_matrix(rep, shape)) == character_mn(shape, ct)
    # MeatAxe basis-change invariance is covered in tests/test_meataxe.py and
    # Weil bounds are checked inside every lpoly_from_counts call
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(10, f"straightening equivalence (n <= 7), homomorphism checks, character "
                f"oracle agreement (n <= 9) all exact ({elapsed:.1f}s)")
