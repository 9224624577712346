import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenone.intlinalg import IntMatrix, det_exact
from oracles import (
    IntPoly,
    charpoly_exact,
    eig1_multiplicity,
    int_zeros,
    matmul,
    permutation_matrix,
    rank_exact,
    transpose,
)


def cofactor_det(rows):
    """Independent oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_det_diag():
    assert det_exact(IntMatrix([[2, 0], [0, 3]])) == 6


def test_det_zero_matrix():
    for d in [1, 3, 5]:
        assert det_exact(int_zeros(d)) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_exact(IntMatrix([[1, 2, 3], [4, 5, 6]]))


def test_det_against_cofactor_oracle():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(IntMatrix(M)) == cofactor_det(M)


def test_rank_basics():
    assert rank_exact(int_zeros(4)) == 0
    assert rank_exact(IntMatrix.identity(6)) == 6
    assert rank_exact(IntMatrix([[1, 2], [2, 4], [3, 6]])) == 1


def test_rank_against_fraction_elimination():
    rng = random.Random(1)
    for _ in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(m)] for _ in range(n)]
        rows = [[Fraction(x) for x in r] for r in M]
        # plain fraction Gauss as the oracle
        rank = 0
        for c in range(m):
            piv = next((i for i in range(rank, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            for i in range(rank + 1, n):
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        assert rank_exact(IntMatrix(M)) == rank


def test_charpoly_swap():
    p = charpoly_exact(IntMatrix([[0, 1], [1, 0]]))
    assert p.coeffs == (-1, 0, 1)  # x^2 - 1


def test_charpoly_identity():
    p = charpoly_exact(IntMatrix.identity(3))
    assert p.coeffs == (-1, 3, -3, 1)  # (x-1)^3


def test_charpoly_ncycle_companion():
    for n in [2, 3, 5, 8]:
        images = tuple((i + 1) % n for i in range(n))
        p = charpoly_exact(permutation_matrix(images))
        expect = [-1] + [0] * (n - 1) + [1]
        assert list(p.coeffs) == expect  # x^n - 1


def test_charpoly_conjugation_invariant():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(2, 6)
        M = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        images = list(range(n))
        rng.shuffle(images)
        P = permutation_matrix(tuple(images))
        Pinv = transpose(P)  # permutation matrices are orthogonal
        assert charpoly_exact(matmul(matmul(P, M), Pinv)).coeffs == charpoly_exact(M).coeffs


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_at_zero_is_det(rows):
    M = IntMatrix(rows)
    assert charpoly_exact(M)(0) == (-1) ** M.nrows * det_exact(M)


def test_eig1_identity():
    for d in [1, 4, 7]:
        assert eig1_multiplicity(IntMatrix.identity(d)) == (d, d)


def test_eig1_jordan_block():
    assert eig1_multiplicity(IntMatrix([[1, 1], [0, 1]])) == (2, 1)


def _random_unimodular(n, rng):
    P = IntMatrix.identity(n)
    mat = [list(r) for r in P.rows]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            mat[i][k] += c * mat[j][k]
    return IntMatrix(mat)


def _unimodular_inverse(U):
    # cofactor-based inverse for det = +/-1 matrices
    n = U.nrows
    d = det_exact(U)
    assert d in (1, -1)
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for k, r in enumerate(U.rows) if k != i]
            cof[j][i] = (-1) ** (i + j) * det_exact(IntMatrix(minor)) * d
    return IntMatrix(cof)


def test_eig1_planted_jordan_blocks():
    rng = random.Random(4)
    for _ in range(100):
        blocks = [rng.choice([(0,), (1, 1), (1, 2), (2, 1), (1, 3)]) for _ in range(rng.randint(1, 3))]
        rows = []
        size = 0
        alg = geo = 0
        shape = []
        for eig, *rest in blocks:
            k = rest[0] if rest else 1
            shape.append((eig, k))
            size += k
        M = [[0] * size for _ in range(size)]
        pos = 0
        for eig, k in shape:
            for i in range(k):
                M[pos + i][pos + i] = eig
                if i + 1 < k:
                    M[pos + i][pos + i + 1] = 1
            if eig == 1:
                alg += k
                geo += 1
            pos += k
        U = _random_unimodular(size, rng)
        Ui = _unimodular_inverse(U)
        A = matmul(matmul(U, IntMatrix(M)), Ui)
        got = eig1_multiplicity(A)
        assert got == (alg, geo)
        assert got[1] <= got[0]


def test_intpoly_division_by_x_minus_1():
    p = IntPoly.of([1, -2, 1])  # (x-1)^2
    q = p.divide_by_x_minus_1()
    assert q.coeffs == (-1, 1)
    assert q.divide_by_x_minus_1().coeffs == (1,)
    assert IntPoly.of([1, 1]).divide_by_x_minus_1() is None
    with pytest.raises(ValueError):
        IntPoly.of([]).divide_by_x_minus_1()
