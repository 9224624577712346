import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenone.gf2 import (
    BitMatrix,
    eval_poly_at_matrix,
    fixed_space_dim,
    gf2_charpoly,
    pdeg,
    pdiv,
    pgcd,
    pmod,
    pmul,
    poly_factor,
    preserves_form,
    rank_nullspace,
)
from eigenone.perms import ClosureOverflow, closure
from oracles import from_hex_rows, gf2_det, is_irreducible_by_trial_division, peval1


def rand_bitmatrix(n, rng):
    return BitMatrix([rng.getrandbits(n) for _ in range(n)], n)


def test_rank_nullspace_identity():
    for d in [1, 5, 70]:
        rank, ns = rank_nullspace(BitMatrix.identity(d))
        assert rank == d and ns == []


def test_rank_nullspace_zero():
    rank, ns = rank_nullspace(BitMatrix.zeros(4))
    assert rank == 0 and len(ns) == 4


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 12)
        M = BitMatrix([rng.getrandbits(n) for _ in range(rng.randint(1, 12))], n)
        rank, ns = rank_nullspace(M)
        assert rank + len(ns) == n
        for v in ns:
            assert M.apply(v) == 0


def test_matmul_against_entry_formula():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 8)
        A = rand_bitmatrix(n, rng)
        B = rand_bitmatrix(n, rng)
        C = A * B
        for i in range(n):
            for j in range(n):
                s = sum(A.get(i, k) * B.get(k, j) for k in range(n)) % 2
                assert C.get(i, j) == s


def test_charpoly_identity_2x2():
    assert gf2_charpoly(BitMatrix.identity(2)) == 0b101  # x^2 + 1


def test_charpoly_companion():
    # companion matrix of x^3 + x + 1, column convention
    C = BitMatrix.from_entries([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert gf2_charpoly(C) == 0b1011


def test_charpoly_degree_and_det_term():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 10)
        M = rand_bitmatrix(n, rng)
        cp = gf2_charpoly(M)
        assert pdeg(cp) == n
        assert (cp & 1) == gf2_det(M)  # constant term = det over GF(2)


def test_charpoly_matches_integer_route_mod_2():
    # independent route: Berkowitz over ZZ, reduced mod 2
    from eigenone.intlinalg import IntMatrix
    from oracles import charpoly_exact, to_int_entries

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        M = rand_bitmatrix(n, rng)
        ip = charpoly_exact(IntMatrix(to_int_entries(M)))
        bits = 0
        for i, c in enumerate(ip.coeffs):
            if c % 2:
                bits |= 1 << i
        assert gf2_charpoly(M) == bits


def test_fixed_space_dim_counts_fixed_vectors():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 7)
        M = rand_bitmatrix(n, rng)
        fixed = sum(1 for v in range(1 << n) if M.apply(v) == v)
        assert 1 << fixed_space_dim(M) == fixed


def test_charpoly_value_at_1_iff_nullity():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(1, 10)
        M = rand_bitmatrix(n, rng)
        cp = gf2_charpoly(M)
        _, ns = rank_nullspace(M + BitMatrix.identity(n))
        assert (peval1(cp) == 0) == (len(ns) >= 1)


def test_preserves_form():
    J2 = BitMatrix.from_entries([[0, 1], [1, 0]])
    assert preserves_form(BitMatrix.identity(2), J2)
    # every invertible 2x2 over GF(2) is symplectic (SL2 = Sp2), so the
    # planted counterexample needs dimension 4: swap the two hyperbolic pairs'
    # first vectors only
    J4 = BitMatrix.from_entries(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    swap23 = BitMatrix.from_entries(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert not preserves_form(swap23, J4)
    assert preserves_form(BitMatrix.identity(4), J4)
    with pytest.raises(ValueError):
        preserves_form(BitMatrix.identity(3), J2)


def test_closure_identity():
    assert len(closure([BitMatrix.identity(4)])) == 1


def test_closure_s5_faithful_dim4():
    from eigenone.perms import builtin_group
    from eigenone.symplectic import embed_group

    G = builtin_group("s_n", n=5)
    mod = embed_group(G)
    assert mod.dim == 4
    assert len(closure(mod.gens)) == 120


def test_closure_bound():
    from eigenone.perms import builtin_group
    from eigenone.symplectic import embed_group

    mod = embed_group(builtin_group("s_n", n=5))
    with pytest.raises(ClosureOverflow):
        closure(mod.gens, bound=10)


def test_hex_round_trip_narrow_and_wide():
    rng = random.Random(4)
    for ncols in [1, 8, 63, 64, 65, 130]:
        rows = [rng.getrandbits(ncols) for _ in range(5)]
        M = BitMatrix(rows, ncols)
        assert from_hex_rows(M.to_hex_rows(), ncols) == M


def test_hex_word_convention():
    # single set bit in column 0 of a 2-word row: word 0 is most significant
    M = BitMatrix([1], 65)
    h = M.to_hex_rows()[0]
    assert len(h) == 32
    assert h == "0000000000000001" + "0000000000000000"
    # rows 1, 2^(ncols-1) and the bits 0, 1, 4, 64, 129 that fit, pinned
    pinned = {
        1: ["0000000000000001", "0000000000000001", "0000000000000001"],
        64: ["0000000000000001", "8000000000000000", "0000000000000013"],
        65: [
            "0000000000000001" "0000000000000000",
            "0000000000000000" "0000000000000001",
            "0000000000000013" "0000000000000001",
        ],
        130: [
            "0000000000000001" "0000000000000000" "0000000000000000",
            "0000000000000000" "0000000000000000" "0000000000000002",
            "0000000000000013" "0000000000000001" "0000000000000002",
        ],
    }
    for ncols, hex_rows in pinned.items():
        mask = sum(1 << b for b in (0, 1, 4, 64, 129) if b < ncols)
        assert BitMatrix([1, 1 << (ncols - 1), mask], ncols).to_hex_rows() == hex_rows


# GF(2)[x] helpers -----------------------------------------------------------

def test_poly_mul_mod():
    # (x+1)^2 = x^2+1 over GF(2)
    assert pmul(0b11, 0b11) == 0b101
    assert pmod(0b101, 0b11) == 0  # x^2+1 divisible by x+1
    assert pdiv(0b101, 0b11) == 0b11


def test_poly_gcd():
    f = pmul(0b111, 0b1011)  # (x^2+x+1)(x^3+x+1)
    g = pmul(0b111, 0b11)
    assert pgcd(f, g) == 0b111


def test_poly_factor_known():
    # x^9 + 1 = (x+1)(x^2+x+1)(x^6+x^3+1)
    f = (1 << 9) | 1
    fac = poly_factor(f)
    assert fac == {0b11, 0b111, 0b1001001}
    assert all(is_irreducible_by_trial_division(p) for p in fac)


def test_poly_factor_multiplicities():
    f = pmul(pmul(0b11, 0b11), 0b111)  # (x+1)^2 (x^2+x+1)
    assert poly_factor(f) == {0b11, 0b111}
    # inseparable square: (x^3+x+1)^2 has zero derivative
    sq = pmul(0b1011, 0b1011)
    assert poly_factor(sq) == {0b1011}
    # odd multiplicity above one: (x+1)^3 (x^3+x+1)^2 (x^2+x+1)^5
    f = 1
    for p, m in ((0b11, 3), (0b1011, 2), (0b111, 5)):
        for _ in range(m):
            f = pmul(f, p)
    assert poly_factor(f) == {0b11, 0b1011, 0b111}
    assert poly_factor(1) == set()


@given(st.integers(2, 400))
def test_poly_factor_product_reconstructs(f):
    # each factor is irreducible by trial division and divides f, and
    # dividing f by the factors as often as they go leaves 1
    fac = poly_factor(f)
    rest = f
    for p in fac:
        assert is_irreducible_by_trial_division(p)
        assert pmod(rest, p) == 0
        while pmod(rest, p) == 0:
            rest = pdiv(rest, p)
    assert rest == 1


def test_eval_poly_at_matrix():
    C = BitMatrix.from_entries([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    # Cayley-Hamilton: charpoly(C)(C) = 0
    assert eval_poly_at_matrix(0b1011, C) == BitMatrix.zeros(3)
