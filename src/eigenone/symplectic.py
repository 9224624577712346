"""The degree-d permutation action on GF(2)^d, restricted to the even-weight
subspace W (d odd) or to W/<1>, its quotient by the all-ones vector (d even),
carrying an alternating nondegenerate form.  Dimension is 2*floor((d-1)/2).

Basis: b_i = e_1 + e_{i+1} for 1 <= i <= d-1 when d is odd; for d even the
images of b_1..b_{d-2}, with b_{d-1} = b_1 + ... + b_{d-2} modulo the all-ones
vector.  The induced form has Gram matrix (all-ones + identity).

A permutation g with cycle lengths l_1..l_c acts on the module as its cycle
type dictates.  Over <g>, F_2^d is the sum of the F_2[x]/(x^l_i + 1); W has
trivial quotient, and for d even <1> is a trivial submodule of W.  Hence
(`cycle_type_charpoly`, `cycletypes.eig1_algebraic` and `eig1_nullity`):
- charpoly = prod (x^l_i + 1) / (x + 1) for d odd, / (x + 1)^2 for d even;
- alg = sum 2^v_2(l_i) - 1 for d odd, - 2 for d even: x + 1 divides x^l + 1
  = (x^m + 1)^(2^v) exactly 2^v times, where l = 2^v m with m odd;
- geo = c - 1 for d odd; for d even, c - 2 with an odd cycle, else
  c - 1 + [4 | d].  The fixed vectors of F_2^d are the sums of cycle
  indicators, and for d odd parity is nonzero on them.  For d even, W/<1>
  has the fixed vectors of W modulo 1, plus one when gv = v + 1 has a
  solution in W: every cycle is then even, and v alternates on each cycle
  and has weight d/2.
"""

from __future__ import annotations

from .errors import VerificationError
from .gf2 import BitMatrix, GF2Module, gf2_rank, pdiv, pmul, preserves_form
from .perms import PermGroup, Permutation


def build_space(d: int) -> BitMatrix:
    """The Gram matrix of the form on the degree-d module, checked
    alternating and nondegenerate."""
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
    return gram


def embed_permutation(p: Permutation) -> BitMatrix:
    """Matrix of p on the module of its degree (column-vector convention)."""
    d = p.degree
    dim = 2 * ((d - 1) // 2)
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


def embed_group(G: PermGroup) -> GF2Module:
    """Images of the group generators; checks the form is preserved."""
    gram = build_space(G.degree)
    gens = [embed_permutation(g) for g in G.generators]
    for m in gens:
        if not preserves_form(m, gram):
            raise VerificationError("embedded generator does not preserve the form")
    return GF2Module(gram.nrows, gens)


def cycle_type_charpoly(cycle_type: tuple[int, ...]) -> int:
    """GF(2) characteristic polynomial (bit-poly) of a permutation with these
    cycle lengths on the module: prod (x^l + 1) over (x + 1) for d odd, over
    (x + 1)^2 = x^2 + 1 for d even."""
    full = 1
    for k in cycle_type:
        full = pmul(full, (1 << k) | 1)
    return pdiv(full, 0b11 if sum(cycle_type) % 2 else 0b101)


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
