"""MeatAxe-style composition factors and irreducibility over GF(2).

Randomized algebra elements are sums of short words in the generators, drawn
from a seeded PRNG (default seed 0xC0FFEE), so every run is reproducible.
Irreducibility is certified with Norton's criterion: for an algebra element a
and an irreducible charpoly factor p with nullity(p(a)) = deg p, the module is
irreducible iff one nullspace vector spins to the full space and one nullspace
vector of the transposed module does too.
"""

from __future__ import annotations

import random

from .errors import DEFAULT_SEED, UsageError, VerificationError
from .gf2 import (
    BitMatrix,
    GF2Module,
    echelon_insert,
    eval_poly_at_matrix,
    gf2_charpoly,
    pdeg,
    poly_factor,
    rank_nullspace,
)

MAX_ATTEMPTS = 64
MAX_WORD_LEN = 8
DIM_BOUND = 256


class MeatAxeError(RuntimeError):
    """The randomized search failed to reach a decision within its budget."""


def _random_algebra_element(gens: list[BitMatrix], rng: random.Random, dim: int) -> BitMatrix:
    acc = BitMatrix.zeros(dim)
    for _ in range(rng.randint(1, 3)):
        w = BitMatrix.identity(dim)
        for _ in range(rng.randint(1, MAX_WORD_LEN)):
            w = w * gens[rng.randrange(len(gens))]
        acc = acc + w
    if rng.random() < 0.25:
        acc = acc + BitMatrix.identity(dim)
    return acc


def spin(vectors: list[int], gens: list[BitMatrix]) -> dict[int, int]:
    """Smallest invariant subspace containing the row vectors, as a reduced
    {pivot column: row} basis (vectors act on the right: v -> v*g)."""
    basis: dict[int, int] = {}
    queue = list(vectors)
    while queue:
        v = echelon_insert(basis, queue.pop())
        if v:
            queue.extend(g.row_apply(v) for g in gens)
    return basis


def _split_by_subspace(module: GF2Module, sub: dict[int, int]) -> tuple[GF2Module, GF2Module]:
    """Restrict to an invariant row space (given as RREF pivot->row) and form
    the quotient module on the complementary coordinates."""
    pivots = sorted(sub)
    B = [sub[p] for p in pivots]
    k = len(B)
    n = module.dim
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    fidx = {c: i for i, c in enumerate(free)}

    def reduce_mod(v: int) -> int:
        for r, pcol in enumerate(pivots):
            if (v >> pcol) & 1:
                v ^= B[r]
        return v

    def coords_sub(v: int) -> int:
        out = 0
        for r, pcol in enumerate(pivots):
            if (v >> pcol) & 1:
                out |= 1 << r
                v ^= B[r]
        if v:
            raise VerificationError("vector not in the invariant subspace")
        return out

    def coords_quot(v: int) -> int:
        v = reduce_mod(v)
        out = 0
        while v:
            low = v & -v
            out |= 1 << fidx[low.bit_length() - 1]
            v ^= low
        return out

    sub_gens = [BitMatrix([coords_sub(g.row_apply(b)) for b in B], k) for g in module.gens]
    quot_gens = [
        BitMatrix([coords_quot(g.row_apply(1 << c)) for c in free], n - k)
        for g in module.gens
    ]
    return GF2Module(k, sub_gens), GF2Module(n - k, quot_gens)


def _decide(module: GF2Module, rng: random.Random):
    """Return ("irreducible", None) or ("split", sub_basis)."""
    n = module.dim
    gens = module.gens
    if n == 1:
        return "irreducible", None
    gens_t = [g.transpose() for g in gens]
    for _ in range(MAX_ATTEMPTS):
        a = _random_algebra_element(gens, rng, n)
        cp = gf2_charpoly(a)
        factors = sorted(poly_factor(cp), key=lambda p: (pdeg(p), p))
        for p in factors:
            pa = eval_poly_at_matrix(p, a)
            rank, left_null = rank_nullspace(pa.transpose())
            if not left_null:
                continue
            v = left_null[0]
            sub = spin([v], gens)
            if len(sub) < n:
                return "split", sub
            if n - rank == pdeg(p):
                _, right_null = rank_nullspace(pa)
                w = right_null[0]
                dual = spin([w], gens_t)
                if len(dual) < n:
                    # orthogonal complement of the dual submodule
                    W = BitMatrix([dual[c] for c in sorted(dual)], n)
                    _, comp = rank_nullspace(W)
                    sub = spin(comp, gens)
                    if not 0 < len(sub) < n:
                        raise VerificationError("the dual split must give a proper submodule")
                    return "split", sub
                return "irreducible", None
    raise MeatAxeError(f"no decision for a {n}-dimensional module after {MAX_ATTEMPTS} attempts")


def is_irreducible(module: GF2Module, seed: int = DEFAULT_SEED) -> bool:
    if module.dim > DIM_BOUND:
        raise UsageError(f"module dimension {module.dim} exceeds bound {DIM_BOUND}")
    verdict, _ = _decide(module, random.Random(seed))
    return verdict == "irreducible"


def composition_factors(module: GF2Module, seed: int = DEFAULT_SEED) -> list[GF2Module]:
    """Composition factors (with their generator matrices), sorted by
    dimension then by matrix content; dimensions sum to the module dimension."""
    if module.dim > DIM_BOUND:
        raise UsageError(f"module dimension {module.dim} exceeds bound {DIM_BOUND}")
    rng = random.Random(seed)
    out: list[GF2Module] = []

    def chop(m: GF2Module):
        verdict, sub = _decide(m, rng)
        if verdict == "irreducible":
            out.append(m)
            return
        s, q = _split_by_subspace(m, sub)
        chop(s)
        chop(q)

    chop(module)
    if sum(f.dim for f in out) != module.dim:
        raise VerificationError("composition factor dimensions must sum to the module dimension")
    out.sort(key=lambda f: (f.dim, [g.rows for g in f.gens]))
    return out


def factor_dimensions(module: GF2Module, seed: int = DEFAULT_SEED) -> list[int]:
    return [f.dim for f in composition_factors(module, seed)]


def endomorphism_algebra_dim(module: GF2Module) -> int:
    """Dimension over GF(2) of {X : XG = GX for all generators G}."""
    n = module.dim
    rows = []
    for G in module.gens:
        Gt = G.transpose()
        for r in range(n):
            row_r = G.rows[r]
            for c in range(n):
                eq = Gt.rows[c] << (r * n)
                rest = row_r
                while rest:
                    low = rest & -rest
                    k = low.bit_length() - 1
                    eq ^= 1 << (k * n + c)
                    rest ^= low
                if eq:
                    rows.append(eq)
    if not rows:
        return n * n
    rank, _ = rank_nullspace(BitMatrix(rows, n * n))
    return n * n - rank

