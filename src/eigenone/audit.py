"""Eigenvalue-1 audits: check det(I - M) = 0 on every conjugacy class of a
representation, over the integers or, from the cycle types, on the
symplectic GF(2) module.
"""

from __future__ import annotations

from math import lcm

from .cycletypes import (
    det_from_powers,
    divisors,
    eig1_algebraic,
    eig1_nullity,
    hook_fixed_dim,
    is_even_class,
    label,
    power_cycle_type,
    sign_twisted,
    sn_class_size,
)
from .errors import DEFAULT_SEED, UsageError, VerificationError
from .perms import PermGroup, class_rep_for, class_reps_symmetric

# Each audit imports the layers it runs where it runs: the integral one
# (specht; the hook family's fixed dimensions are orbit counts read from the
# cycle type, (n-2,2)'s are ranks taken mod a prime here, and its sign
# twist's are derived from those) and the GF(2) ones (meataxe, symplectic).
# So `embed audit` loads no integral layer, and `specht audit` no GF(2) one
# and no exact elimination.  perfbench's tracer wraps each layer where it is
# defined, so it counts these calls.


def class_payload(name: str, size: int, order: int, det: int, alg: int, geo: int) -> dict:
    """One conjugacy class of an audit; det is det(I - M), over GF(2) 0 or 1."""
    return {
        "class": name,
        "size": size,
        "element_order": order,
        "det_one_minus": str(det),
        "eig1_algebraic": alg,
        "eig1_geometric": geo,
        "has_eigenvalue_one": det == 0,
    }


def audit_payload(rep_id: str, dim: int, ring: str, classes: list[dict]) -> dict:
    """An audit report over ring "ZZ" or "GF2": unisingular when every class
    has eigenvalue 1, with the labels of the classes that have not."""
    return {
        "representation": rep_id,
        "dim": dim,
        "ring": ring,
        "unisingular": all(c["has_eigenvalue_one"] for c in classes),
        "offenders": [c["class"] for c in classes if not c["has_eigenvalue_one"]],
        "classes": classes,
    }


# ---------------------------------------------------------------------------
# Specht audits
# ---------------------------------------------------------------------------

# A prime above every degree the integral audits accept: see _rank_one_minus.
FIX_PRIME = 32749


def _rank_one_minus(M: list[list[int]], p: int) -> int:
    """The rank of I - M over F_p, by elimination on plain row lists that
    skips every row whose entry in the pivot column is 0.

    For an integral M of finite order o prime to p, this is the rank over
    QQ.  E = (1/o) sum_{k<o} M^k has entries in Z_(p), as o is a unit there.
    E is idempotent, ME = E and E fixes every fixed vector of M, so the image
    of E is Fix(M).  Over the local ring Z_(p), the image of an idempotent is
    a free direct summand, here of rank dim Fix_QQ(M).  Reducing mod p keeps
    that rank, and since o is a unit in F_p, the image of E mod p is
    Fix(M mod p) by the same argument.  So rank_{F_p}(I - M) =
    rank_QQ(I - M).  A Specht matrix of g has order dividing ord(g), whose
    prime factors are at most n: so p > n suffices.
    """
    rows = []
    for i, row in enumerate(M):
        r = [-a % p for a in row]
        r[i] = (1 - row[i]) % p
        rows.append(r)
    rank = 0
    for c in range(len(M)):
        piv = next((i for i, r in enumerate(rows) if r[c]), None)
        if piv is None:
            continue
        pivot = rows.pop(piv)
        inv = pow(pivot[c], -1, p)
        tail = [a * inv % p for a in pivot[c + 1:]]
        for r in rows:
            f = r[c]
            if f:
                r[c + 1:] = [(a - f * b) % p for a, b in zip(r[c + 1:], tail)]
                r[c] = 0
        rank += 1
    return rank


def _fixed_dims(shape: tuple[int, ...], dim: int, classes: list) -> dict:
    """dim Fix(g) on the Specht module of a shape, of dimension dim, for each
    (cycle type, representative g) in classes, as dim - rank(I - M) over F_p
    with p = FIX_PRIME.  Each matrix is checked to have dim rows."""
    from .specht import action_matrix

    n = sum(shape)
    if n >= FIX_PRIME:
        raise UsageError(f"fixed dimensions mod {FIX_PRIME} need n < {FIX_PRIME}, got n={n}")
    fixed = {}
    for ct, rep in classes:
        M = action_matrix(rep, shape)
        if len(M) != dim:
            raise VerificationError(
                f"class {label(ct)}: a {len(M)}-row matrix on a module of dimension {dim}")
        fixed[ct] = dim - _rank_one_minus(M, FIX_PRIME)
    return fixed


def audit_specht(n: int, family: str, group: str = "s_n") -> dict:
    """Audit a Specht-family representation over the integers, class by
    class (dim Fix and det(I - M) are class functions).

    Each class's dim Fix on the hook family (n-2,1,1) is an orbit count read
    from its cycle type (`hook_fixed_dim`), with no matrix; on (n-2,2) it is
    read from one matrix per class and its rank mod p (`_fixed_dims`), and
    on its sign twist (n-2,2)' it is derived from those of (n-2,2) and the
    class's square (`sign_twisted`), with no matrix of its own.  The
    dimension is `specht.family_dim`, and each dim Fix is checked to lie in
    0..dim.  det(I - M) comes from the fixed dimensions of the class's powers
    (`det_from_powers`).  The powers and squares are classes of the same
    audit: for s_n it lists every class, and for a_n the even ones.  M has
    finite order, so it is semisimple over QQ: the algebraic multiplicity of
    eigenvalue 1 equals the geometric one.

    family: specht.FAMILY_HOOK, FAMILY_TWO or FAMILY_TWO_CONJ; group: "s_n" or "a_n".
    Supported range is 5 <= n <= 17 (the class count grows as p(n); n = 17
    takes a few seconds per two-row family, and well under one for the
    hook).  For a_n only even classes are audited (every element of A_n
    lies in an even S_n class, whose powers are even too, and the
    invariants are constant on S_n classes); reported sizes are S_n class
    sizes.
    """
    from .specht import FAMILY_HOOK, FAMILY_TWO_CONJ, family_dim, family_shape

    if group not in ("s_n", "a_n"):
        raise UsageError(f"unknown group {group!r}")
    if not 5 <= n <= 17:
        raise UsageError(f"n={n} outside supported range 5..17")
    shape = family_shape(family, n)
    dim = family_dim(family, n)
    classes = [(ct, rep) for ct, rep in class_reps_symmetric(n)
               if group == "s_n" or is_even_class(ct)]
    if family == FAMILY_HOOK:
        fixed = {ct: hook_fixed_dim(ct) for ct, _ in classes}
    else:
        fixed = _fixed_dims(shape, dim, classes)
        if family == FAMILY_TWO_CONJ:  # for a_n every class is even, and the twist changes none
            fixed = sign_twisted(fixed)
    for ct, geo in fixed.items():
        if not 0 <= geo <= dim:
            raise VerificationError(f"class {label(ct)}: dim Fix = {geo}, outside 0..{dim}")
    records = []
    for ct, rep in classes:
        geo = fixed[ct]
        records.append(class_payload(label(ct), sn_class_size(ct), rep.order(),
                                     det_from_powers(ct, fixed, dim), geo, geo))
    return audit_payload(f"specht:{family}:n={n}:{group}", dim, "ZZ", records)


# The table's module has dimension n(n - 3)/2; its determinant comes from
# the fixed dimensions of the powers of one class: n = 31 (434 dimensions)
# takes 0.32-0.34 s (`conjecture-table --n 31`, three runs on a 2-vCPU VM,
# CPython 3.11.7).
TABLE_N_MAX = 31


def conjecture_table(ns: list[int]) -> list[dict]:
    """det(I - M) for the sign-twisted two-row module on the class of an
    (n-2)-cycle times a transposition, with the closed form 2^(k-1)(2k-1).

    The fixed dimensions of the class's powers g^d on the twist are derived
    from those on (n-2,2) (`sign_twisted`).  An odd g^d has d odd, so d
    divides n - 2 and g^(2d), its square, is a power of g too."""
    from .specht import FAMILY_TWO_CONJ, family_dim, family_shape

    for n in ns:
        if n < 5 or n % 2 == 0:
            raise UsageError("table rows need odd n >= 5")
        if n > TABLE_N_MAX:
            raise UsageError(f"table rows need n <= {TABLE_N_MAX}, got {n}")
    rows = []
    for n in ns:
        shape = ct = family_shape(FAMILY_TWO_CONJ, n)
        dim = family_dim(FAMILY_TWO_CONJ, n)
        # g^d has order ord(g)/d, so each divisor gives another class
        powers = [power_cycle_type(ct, d) for d in divisors(lcm(*ct))]
        fixed = sign_twisted(_fixed_dims(shape, dim, [(c, class_rep_for(c)) for c in powers]))
        det = det_from_powers(ct, fixed, dim)
        k = (n - 1) // 2
        rows.append(
            {
                "n": n,
                "dim": dim,
                "class": label(ct),
                "det_one_minus": str(det),
                "closed_form": str(2 ** (k - 1) * (2 * k - 1)),
                "matches": det == 2 ** (k - 1) * (2 * k - 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Embedded permutation-group audits
# ---------------------------------------------------------------------------

def audit_embedded_group(G: PermGroup, seed: int = DEFAULT_SEED) -> dict:
    """Audit a permutation group on its symplectic module over GF(2).

    Each class record is read off its cycle type (`cycletypes`), from the
    classes pgl2, s_n and a_n carry in closed form, or from the closure for
    the other groups; so pgl2 and s_n form no group product.  The MeatAxe
    certifies the embedded generators irreducible or not, and an irreducible
    module is absolutely irreducible iff its commuting algebra, counted from
    the Norton witness, is GF(2)."""
    from . import meataxe
    from .symplectic import embed_group

    module = embed_group(G)
    classes = []
    for size, ct, order in G.classes():
        geo = eig1_nullity(ct)
        # over GF(2), det(I - M) is 0 exactly when M has eigenvalue 1
        det = 0 if geo else 1
        classes.append(class_payload(label(ct), size, order, det, eig1_algebraic(ct), geo))
    end_dim = meataxe.endomorphism_dim(module, seed)
    return {
        **audit_payload(f"embed:{G.name}:d={G.degree}", module.dim, "GF2", classes),
        "irreducible": end_dim is not None,
        "absolutely_irreducible": end_dim == 1,
    }
