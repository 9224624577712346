"""Explicit eigenvector-1 witnesses: for a permutation sigma and one of the
two audited shapes, a tableau t whose orbit sum E = sum_j e_{sigma^j t} is a
nonzero fixed vector of sigma.

Case selection: permutations with enough fixed points (3 for the hook shape,
4 for the two-row shape) get a directly fixed polytabloid; otherwise the
tableau is chosen by the size of the smallest cycle.  Every returned vector
is verified nonzero (a nonzero straightened coordinate) and fixed in the
tabloid module, hence by its action matrix: S^lambda lies in M^lambda, and
straightening is linear and injective on it.  A failed check raises.
"""

from __future__ import annotations

from math import lcm

from .errors import UsageError, VerificationError
from .perms import Permutation
from .specht import (
    FAMILY_HOOK,
    FAMILY_TWO,
    Tableau,
    Tabloid,
    columns,
    family_shape,
    polytabloid_expand,
    straighten,
    tv_add_scaled,
    tv_apply_perm,
)


# Bounds straightening into a basis of dimension about n^2/2 (0.4-1.0 s per
# n = 60 witness on a 2-vCPU VM); the orbit sum runs over one period only.
# The CLI checks it before it builds the degree-n class representative.
FIXED_VECTOR_N_MAX = 60


class FixedVectorError(VerificationError):
    """The case analysis produced a zero or unfixed vector: an implementation
    bug or a genuine gap in the case table, never a refuted claim."""


def fixed_vector_sum(sigma: Permutation, t: Tableau) -> dict[Tabloid, int]:
    """E = sum of e_{sigma^j t} over 0 <= j < order(sigma); always fixed by
    sigma, not guaranteed nonzero (an n-cycle on the (n-1,1) shape gives 0).

    e_t depends only on the entries of t in columns of length >= 2, since
    every other entry sits in row 1.  So the terms repeat with period P, the
    lcm of the lengths of the cycles of sigma through those entries, and E is
    order / P times the sum over one period."""
    if sigma.degree != sum(map(len, t)):
        raise ValueError("degree mismatch")
    length = {x: len(c) for c in sigma.cycles(include_fixed=True) for x in c}
    period = lcm(*(length[x] for col in columns(t) if len(col) > 1 for x in col))
    acc: dict[Tabloid, int] = {}
    cur = t
    for _ in range(period):
        tv_add_scaled(acc, polytabloid_expand(cur), 1)
        cur = tuple(tuple(sigma.apply(x) for x in row) for row in cur)
    scale = sigma.order() // period
    return {T: scale * c for T, c in acc.items()}


def _cycles_sorted(sigma: Permutation):
    return sorted(sigma.cycles(), key=lambda c: (len(c), c))


def _hook_column(sigma: Permutation) -> tuple[tuple[int, int, int], bool]:
    """(column entries, direct) for the (n-2,1,1) shape; direct means
    sigma e_t = e_t so E is just a multiple of e_t."""
    fixed = sorted(sigma.fixed_points())
    cycles = _cycles_sorted(sigma)
    if len(fixed) >= 3:
        return (fixed[0], fixed[1], fixed[2]), True
    c0 = cycles[0]
    others = cycles[1:]
    k = len(c0)
    if len(fixed) == 2:
        if k == 3:
            return (c0[0], c0[1], c0[2]), True
        if len(cycles) == 1 and k >= 4:
            return (c0[0], fixed[0], fixed[1]), False
        return (fixed[0], fixed[1], c0[0]), False
    if len(fixed) == 1:
        f = fixed[0]
        if k == 2:
            return (f, others[0][0], c0[1]), False
        if k == 3:
            return (c0[0], c0[1], c0[2]), True
        if len(cycles) == 1:
            return (c0[0], c0[-1], f), False
        return (f, c0[-2], c0[-1]), False
    # fixed-point-free
    if len(cycles) == 1:
        return (c0[0], c0[-2], c0[-1]), False
    if k == 2:
        q = next((c for c in others if len(c) >= 3), None)
        if q is not None:
            return (q[0], q[1], q[2]), False
        return (c0[0], others[-1][-1], c0[1]), False
    if k == 3:
        return (c0[0], c0[1], c0[2]), True
    return (c0[0], c0[-2], c0[-1]), False


def _two_row_block(sigma: Permutation) -> tuple[tuple[int, int, int, int], bool]:
    """(2x2 block entries (p, q, r, s), direct) for the (n-2,2) shape; rows of
    the block are (p, q) and (r, s)."""
    fixed = sorted(sigma.fixed_points())
    cycles = _cycles_sorted(sigma)
    if len(fixed) >= 4:
        return (fixed[0], fixed[1], fixed[2], fixed[3]), True
    c0 = cycles[0]
    others = cycles[1:]
    k = len(c0)
    if len(fixed) == 3:
        return (fixed[0], fixed[1], fixed[2], c0[0]), False
    if len(fixed) == 2:
        return (fixed[0], fixed[1], c0[0], c0[1]), False
    if len(fixed) == 1:
        f = fixed[0]
        if len(cycles) == 1 or k >= 4:
            return (f, c0[2], c0[0], c0[1]), False
        return (f, c0[0], others[0][0], others[0][1]), False
    if len(cycles) == 1:
        return (c0[0], c0[1], c0[-2], c0[-1]), False
    q = others[-1]
    return (c0[0], c0[1], q[0], q[1]), False


def witness_tableau(sigma: Permutation, family: str) -> tuple[Tableau, bool]:
    """The tableau of the case analysis, plus whether e_t itself is fixed."""
    n = sigma.degree
    if n < 5:
        raise UsageError(f"fixed vectors need n >= 5, got n={n}")
    if family == FAMILY_HOOK:
        col, direct = _hook_column(sigma)
        rest = sorted(set(range(1, n + 1)) - set(col))
        return ((col[0], *rest), (col[1],), (col[2],)), direct
    if family == FAMILY_TWO:
        block, direct = _two_row_block(sigma)
        rest = sorted(set(range(1, n + 1)) - set(block))
        return ((block[0], block[1], *rest), (block[2], block[3])), direct
    raise UsageError(f"no fixed-vector construction for family {family}")


def build_fixed_vector(sigma: Permutation, family: str) -> dict:
    """Select the witness tableau for sigma, check that it fills 1..n once,
    form E, and verify it nonzero (a nonzero straightened coordinate) and
    fixed by sigma.  Returns the tableau and E's coordinates on the standard
    basis; raises FixedVectorError when any check fails."""
    n = sigma.degree
    shape = family_shape(family, n)
    t, direct = witness_tableau(sigma, family)
    if sorted(x for row in t for x in row) != list(range(1, n + 1)):
        raise FixedVectorError(
            f"witness tableau {[list(r) for r in t]} for {sigma.cycle_string()} on {family} "
            f"does not fill 1..{n} once"
        )
    vec = polytabloid_expand(t) if direct else fixed_vector_sum(sigma, t)
    coords = straighten(vec, shape)
    if not any(coords):
        raise FixedVectorError(
            f"case analysis produced the zero vector for {sigma.cycle_string()} on {family}"
        )
    if tv_apply_perm(sigma, vec) != vec:
        raise FixedVectorError(
            f"vector for {sigma.cycle_string()} on {family} is not fixed (tabloid level)"
        )
    return {
        "sigma": sigma.cycle_string(),
        "family": family,
        "tableau": [list(r) for r in t],
        "coords": [str(c) for c in coords],
        "nonzero": True,
    }
