"""MeatAxe-style composition factors and irreducibility over GF(2).

Randomized algebra elements are sums of short words in the generators, drawn
from a seeded PRNG (default seed 0xC0FFEE), so every run is reproducible.
Irreducibility is certified with Norton's criterion: for an algebra element a
and an irreducible p with nullity(p(a)) = deg p, the module is irreducible iff
one nullspace vector spins to the full space and one nullspace vector of the
transposed module does too.  The candidates p are the irreducible factors of
the minimal polynomial of one random vector under a, grouped by degree: such a
p divides the characteristic polynomial of a, and ker p(a) of dimension deg p
is then a simple F_2[a]-module, which is all the criterion uses.  Every
nullspace vector that spins to a proper subspace splits the module, whatever p.
The same witness counts the commuting algebra of an irreducible module
(`endomorphism_dim`), so absolute irreducibility needs no n^2-unknown system.
"""

from __future__ import annotations

import random

from .errors import DEFAULT_SEED, UsageError, VerificationError
from .gf2 import (
    BitMatrix,
    GF2Module,
    distinct_degree_parts,
    echelon_insert,
    eval_poly_at_matrix,
    pdeg,
    rank_nullspace,
    vector_minpoly,
)

MAX_ATTEMPTS = 64
MAX_WORD_LEN = 8
# the largest module the MeatAxe takes.  `embed audit` and the census, its
# callers, build modules of at most 98 dimensions under the group-order caps
# (PGL(2,97) on the projective line), so only a new caller could reach it
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


def _split_by_subspace(module: GF2Module, sub: dict[int, int], carried: list[BitMatrix]):
    """Restrict to an invariant row space (given as RREF pivot->row) and form
    the quotient on the other coordinates, each with the `carried` matrices."""
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

    mats, m = module.gens + carried, len(module.gens)
    subs = [BitMatrix([coords_sub(g.row_apply(b)) for b in B], k) for g in mats]
    quots = [BitMatrix([coords_quot(g.row_apply(1 << c)) for c in free], n - k) for g in mats]
    return (GF2Module(k, subs[:m]), subs[m:]), (GF2Module(n - k, quots[:m]), quots[m:])


def _decide(module: GF2Module, rng: random.Random):
    """Return ("irreducible", kernel) or ("split", sub_basis).  The kernel is
    a basis of ker theta, the Norton witness, whose first vector spins to the
    whole module."""
    n = module.dim
    gens = module.gens
    if n == 1:
        return "irreducible", [1]
    gens_t = [g.transpose() for g in gens]
    for _ in range(MAX_ATTEMPTS):
        a = _random_algebra_element(gens, rng, n)
        # p divides the minimal polynomial of a vector, so p(a) is singular
        for d, p in distinct_degree_parts(vector_minpoly(a, rng.getrandbits(n) or 1)).items():
            pa = eval_poly_at_matrix(p, a)
            rank, left_null = rank_nullspace(pa.transpose())
            sub = spin([left_null[0]], gens)
            if len(sub) < n:
                return "split", sub
            # a part of degree d is one irreducible factor
            if n - rank == pdeg(p) == d:
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
                return "irreducible", left_null
    raise MeatAxeError(f"no decision for a {n}-dimensional module after {MAX_ATTEMPTS} attempts")


def is_irreducible(module: GF2Module, seed: int = DEFAULT_SEED) -> bool:
    if module.dim > DIM_BOUND:
        raise UsageError(f"module dimension {module.dim} exceeds bound {DIM_BOUND}")
    verdict, _ = _decide(module, random.Random(seed))
    return verdict == "irreducible"


def _norton_count(module: GF2Module, kernel: list[int]) -> int:
    """dim End of a module from a basis of ker theta, theta in its algebra,
    whose first vector v spins to the whole module (Holt & Rees 1994).

    An endomorphism commutes with theta, so it maps v into ker theta, and it
    is fixed by that image, since v generates the module.  So dim End is the
    dimension of the w in ker theta for which v * word -> w * word, along
    the spin of v, is a well-defined map: one that commutes with every
    generator.  The spin carries the images of every basis vector w_i along
    with each vector, and each vector it finds already in the span is a
    relation: the coefficients of w must annihilate the images it carries."""
    basis: dict[int, tuple[int, list[int]]] = {}  # top bit -> (row, images)
    relations = [0] * len(kernel)  # relations[i]: the images of w_i, concatenated
    n, gens = module.dim, module.gens
    queue = [(kernel[0], list(kernel))]
    while queue:
        v, images = queue.pop()
        while v and (v.bit_length() - 1) in basis:
            row, row_images = basis[v.bit_length() - 1]
            v ^= row
            images = [a ^ b for a, b in zip(images, row_images)]
        if v:
            basis[v.bit_length() - 1] = v, images
            queue.extend((g.row_apply(v), [g.row_apply(w) for w in images]) for g in gens)
        else:
            relations = [(r << n) | w for r, w in zip(relations, images)]
    if len(basis) != n:
        raise VerificationError("the Norton witness must spin to the whole module")
    pivots: dict[int, int] = {}
    for r in relations:
        echelon_insert(pivots, r)
    return len(kernel) - len(pivots)


def endomorphism_dim(module: GF2Module, seed: int = DEFAULT_SEED) -> int | None:
    """dim over GF(2) of the commuting algebra of an irreducible module,
    counted from the Norton witness that certifies it irreducible; None for
    a reducible module.  The module is absolutely irreducible iff this is 1."""
    if module.dim > DIM_BOUND:
        raise UsageError(f"module dimension {module.dim} exceeds bound {DIM_BOUND}")
    verdict, kernel = _decide(module, random.Random(seed))
    return _norton_count(module, kernel) if verdict == "irreducible" else None


def composition_factors(module: GF2Module, seed: int = DEFAULT_SEED, carried=()) -> list[tuple]:
    """Composition factors (with their generator matrices), sorted by
    dimension then by matrix content; dimensions sum to the module dimension.
    Each comes with the matrices `carried` (of group elements, say) acting on
    it; the random elements and the spins read only the generators."""
    if module.dim > DIM_BOUND:
        raise UsageError(f"module dimension {module.dim} exceeds bound {DIM_BOUND}")
    rng = random.Random(seed)
    out: list[tuple[GF2Module, list[BitMatrix]]] = []

    def chop(m: GF2Module, c: list[BitMatrix]):
        verdict, sub = _decide(m, rng)
        if verdict == "irreducible":
            out.append((m, c))
            return
        for part in _split_by_subspace(m, sub, c):
            chop(*part)

    chop(module, list(carried))
    if sum(f.dim for f, _ in out) != module.dim:
        raise VerificationError("composition factor dimensions must sum to the module dimension")
    out.sort(key=lambda fc: (fc[0].dim, [g.rows for g in fc[0].gens]))
    return out
