"""The degree-d permutation action on GF(2)^d, restricted to the even-weight
subspace (d odd) or its quotient by the all-ones vector (d even), carrying an
alternating nondegenerate form.  Dimension is 2*floor((d-1)/2) either way.

Basis: b_i = e_1 + e_{i+1} for 1 <= i <= d-1 when d is odd; for d even the
images of b_1..b_{d-2}, with b_{d-1} = b_1 + ... + b_{d-2} modulo the all-ones
vector.  The induced form has Gram matrix (all-ones + identity).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationError
from .gf2 import BitMatrix, GF2Module, gf2_rank, preserves_form
from .perms import PermGroup, Permutation


@dataclass(frozen=True)
class SymplecticSpace:
    d: int
    dim: int
    gram: BitMatrix

    def to_payload(self) -> dict:
        return {"d": self.d, "dim": self.dim, "gram_hex_rows": self.gram.to_hex_rows()}


def build_space(d: int) -> SymplecticSpace:
    if d < 3:
        raise ValueError("need degree >= 3")
    dim = 2 * ((d - 1) // 2)
    full = (1 << dim) - 1
    gram = BitMatrix([full ^ (1 << i) for i in range(dim)], dim)
    # alternating: zero diagonal, symmetric; nondegenerate: full rank
    if any(gram.get(i, i) for i in range(dim)):
        raise VerificationError("Gram matrix must have a zero diagonal")
    if gram != gram.transpose():
        raise VerificationError("Gram matrix must be symmetric")
    if gf2_rank(gram) != dim:
        raise VerificationError("Gram matrix must be nondegenerate")
    return SymplecticSpace(d, dim, gram)


def embed_permutation(p: Permutation, space: SymplecticSpace) -> BitMatrix:
    """Matrix of p on the space (column-vector convention)."""
    d = space.d
    if p.degree != d:
        raise ValueError("degree mismatch")
    dim = space.dim
    odd = d % 2 == 1
    nbasis = d - 1  # b_1..b_{d-1}; for d even, b_{d-1} folds into the rest
    all_low = (1 << (d - 2)) - 1 if not odd else None

    def basis_index_mask(i: int) -> int:
        # coordinate mask of b_i (1-based i up to d-1)
        if odd or i <= d - 2:
            return 1 << (i - 1)
        return all_low  # b_{d-1} = sum of b_1..b_{d-2} mod the all-ones vector

    p1 = p.apply(1)
    cols = []
    for i in range(1, dim + 1):
        # image of b_i = e_{p(1)} + e_{p(i+1)} = b_{p(1)-1} + b_{p(i+1)-1}
        mask = 0
        for pt in (p1, p.apply(i + 1)):
            if pt != 1:
                mask ^= basis_index_mask(pt - 1)
        cols.append(mask)
    rows = [0] * dim
    for j, mask in enumerate(cols):
        for i in range(dim):
            if (mask >> i) & 1:
                rows[i] |= 1 << j
    return BitMatrix(rows, dim)


def embed_group(G: PermGroup, space: SymplecticSpace | None = None) -> GF2Module:
    """Images of the group generators; checks the form is preserved."""
    if space is None:
        space = build_space(G.degree)
    if G.degree != space.d:
        raise ValueError("degree mismatch")
    gens = [embed_permutation(g, space) for g in G.generators]
    for m in gens:
        if not preserves_form(m, space.gram):
            raise VerificationError("embedded generator does not preserve the form")
    return GF2Module(space.dim, gens)


def permutation_module_gf2(G: PermGroup) -> GF2Module:
    """The full degree-d permutation module over GF(2) (no restriction)."""
    d = G.degree
    mats = []
    for g in G.generators:
        rows = [0] * d
        for j in range(d):
            rows[g.images[j]] |= 1 << j
        mats.append(BitMatrix(rows, d))
    return GF2Module(d, mats)
