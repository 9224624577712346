import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenone.gf2 import (
    BitMatrix,
    GF2Module,
    distinct_degree_parts,
    eval_poly_at_matrix,
    fixed_space_dim,
    pdeg,
    pdiv,
    pgcd,
    pmod,
    pmul,
    preserves_form,
    rank_nullspace,
    vector_minpoly,
)
from oracles import (
    bit_apply,
    charpoly_mod2,
    distinct_factors_by_trial_division,
    from_entries,
    from_hex_rows,
    gf2_det,
    is_irreducible_by_trial_division,
    matrix_closure,
    peval1,
)


def rand_bitmatrix(n, rng):
    return BitMatrix([rng.getrandbits(n) for _ in range(n)], n)


def test_constructor_rejects_bits_beyond_ncols():
    assert BitMatrix([0b111, 0], 3).rows == (0b111, 0)
    for rows in ([0b1000], [0b1, 1 << 70], [-1]):
        with pytest.raises(ValueError, match="beyond ncols"):
            BitMatrix(rows, 3)


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
            assert bit_apply(M, v) == 0


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
    assert charpoly_mod2(BitMatrix.identity(2)) == 0b101  # x^2 + 1


def test_charpoly_companion():
    # companion matrix of x^3 + x + 1, column convention
    C = from_entries([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert charpoly_mod2(C) == 0b1011


def test_charpoly_degree_and_det_term():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 10)
        M = rand_bitmatrix(n, rng)
        cp = charpoly_mod2(M)
        assert pdeg(cp) == n
        assert (cp & 1) == gf2_det(M)  # constant term = det over GF(2)


def test_charpoly_matches_integer_route_mod_2():
    # the Krylov route: every vector's minimal polynomial divides the
    # Berkowitz charpoly mod 2, and equals it for a cyclic vector
    rng = random.Random(7)
    cyclic = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        M = rand_bitmatrix(n, rng)
        cp = charpoly_mod2(M)
        for v in range(1, 1 << n):
            m = vector_minpoly(M, v)
            assert pmod(cp, m) == 0
            if pdeg(m) == n:
                assert m == cp
                cyclic += 1
    assert cyclic > 1000


def test_fixed_space_dim_counts_fixed_vectors():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 7)
        M = rand_bitmatrix(n, rng)
        fixed = sum(1 for v in range(1 << n) if bit_apply(M, v) == v)
        assert 1 << fixed_space_dim(M) == fixed


def test_charpoly_value_at_1_iff_nullity():
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(1, 10)
        M = rand_bitmatrix(n, rng)
        cp = charpoly_mod2(M)
        _, ns = rank_nullspace(M + BitMatrix.identity(n))
        assert (peval1(cp) == 0) == (len(ns) >= 1)


def test_preserves_form():
    J2 = from_entries([[0, 1], [1, 0]])
    assert preserves_form(BitMatrix.identity(2), J2)
    # every invertible 2x2 over GF(2) is symplectic (SL2 = Sp2), so the
    # planted counterexample needs dimension 4: swap the two hyperbolic pairs'
    # first vectors only
    J4 = from_entries(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    swap23 = from_entries(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert not preserves_form(swap23, J4)
    assert preserves_form(BitMatrix.identity(4), J4)
    with pytest.raises(ValueError):
        preserves_form(BitMatrix.identity(3), J2)


@pytest.mark.parametrize("gen,message", [
    (BitMatrix([0b01, 0b10], 3), "dimension mismatch"),  # 2 x 3
    (BitMatrix.identity(3), "dimension mismatch"),  # square, but not 2 x 2
    (BitMatrix([0b11, 0b11], 2), "invertible"),
    (BitMatrix([0, 0], 2), "invertible"),
])
def test_module_rejects_bad_generators(gen, message):
    with pytest.raises(ValueError, match=message):
        GF2Module(2, [BitMatrix.identity(2), gen])


def test_closure_identity():
    assert len(matrix_closure([BitMatrix.identity(4)])) == 1


def test_closure_s5_faithful_dim4():
    from eigenone.perms import builtin_group
    from eigenone.symplectic import embed_group

    G = builtin_group("s_n", n=5)
    mod = embed_group(G)
    assert mod.dim == 4
    assert len(matrix_closure(mod.gens)) == 120


def test_closure_bound(capsys, monkeypatch):
    # no command closes a matrix group: the flag-module factor is read on the
    # classes of the permutation group, whose closure stops at the bound
    import eigenone.perms
    from eigenone.cli import main

    monkeypatch.setattr(eigenone.perms, "CLOSURE_BOUND", 10)
    assert main(["embed", "audit", "--group", "l3_2_flags", "--module", "permutation"]) == 2
    assert capsys.readouterr().err == "error: closure exceeded bound 10\n"


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


@st.composite
def square_bitmatrix_and_vector(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return BitMatrix(rows, n), draw(st.integers(1, (1 << n) - 1))


@given(square_bitmatrix_and_vector())
def test_vector_minpoly_is_the_least_killing_polynomial(Mv):
    # m kills v, no proper divisor does, and m divides the charpoly
    M, v = Mv
    m = vector_minpoly(M, v)
    assert eval_poly_at_matrix(m, M).row_apply(v) == 0
    for q in distinct_factors_by_trial_division(m):
        assert eval_poly_at_matrix(pdiv(m, q), M).row_apply(v) != 0
    assert pmod(charpoly_mod2(M), m) == 0


def test_vector_minpoly_known():
    # companion matrix of x^3 + x + 1 (row convention: e_i -> e_{i+1})
    C = BitMatrix([0b010, 0b100, 0b011], 3)
    assert vector_minpoly(C, 0b001) == 0b1011
    assert vector_minpoly(BitMatrix.identity(4), 0b0110) == 0b11  # x + 1
    assert vector_minpoly(BitMatrix.zeros(3), 0b101) == 0b10  # x


def test_distinct_degree_parts_known():
    # x^9 + 1 = (x+1)(x^2+x+1)(x^6+x^3+1)
    assert distinct_degree_parts((1 << 9) | 1) == {1: 0b11, 2: 0b111, 6: 0b1001001}
    # (x+1)^3 x^2 (x^3+x+1)^2 (x^3+x^2+1) (x^2+x+1)^5: repeated factors, two cubics
    f = 1
    for p, m in ((0b11, 3), (0b10, 2), (0b1011, 2), (0b1101, 1), (0b111, 5)):
        for _ in range(m):
            f = pmul(f, p)
    assert distinct_degree_parts(f) == {1: 0b110, 2: 0b111, 3: pmul(0b1011, 0b1101)}
    assert distinct_degree_parts(1) == {}


@given(st.integers(1, 1 << 24))
def test_distinct_degree_parts_multiply_to_the_radical(f):
    # the degree-d part is the product of f's distinct irreducible factors
    # of degree d, found by trial division
    want = {}
    for q in distinct_factors_by_trial_division(f):
        assert is_irreducible_by_trial_division(q)
        want[pdeg(q)] = pmul(want.get(pdeg(q), 1), q)
    assert distinct_degree_parts(f) == want


def test_eval_poly_at_matrix():
    C = from_entries([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    # Cayley-Hamilton: charpoly(C)(C) = 0
    assert eval_poly_at_matrix(0b1011, C) == BitMatrix.zeros(3)
