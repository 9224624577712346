"""Eigenvalue-1 audits: check det(I - M) = 0 on every conjugacy class of a
representation, over the integers or, from the cycle types, on the
symplectic GF(2) module, and scan 2-generated subgroups of a GF(2) matrix
group for irreducibility and the same property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DEFAULT_SEED, UsageError
from .gf2 import GF2Module, fixed_space_dim
from .intlinalg import IntMatrix, _bareiss, det_exact
from .perms import (
    IndexedGroup,
    Partition,
    PermGroup,
    class_rep_for,
    class_reps_symmetric,
    orbit,
    orbits,
)
from .specht import (  # the FAMILY_* names are audit_specht's family argument
    FAMILY_HOOK,
    FAMILY_TWO,
    FAMILY_TWO_CONJ,
    action_matrix,
    family_shape,
    twisted_action_matrix,
)

# The GF(2) audits import meataxe and symplectic where they run: an integral
# Specht audit then loads neither, and perfbench's tracer, which loads this
# module before it wraps the GF(2) layers, still reaches every call.

@dataclass
class ClassRecord:
    label: str
    size: int
    element_order: int
    det_one_minus: int  # det(I - M); over GF(2) this is 0 or 1
    alg_mult: int
    geo_mult: int

    @property
    def has_eigenvalue_one(self) -> bool:
        return self.det_one_minus == 0

    def to_payload(self) -> dict:
        return {
            "class": self.label,
            "size": self.size,
            "element_order": self.element_order,
            "det_one_minus": str(self.det_one_minus),
            "eig1_algebraic": self.alg_mult,
            "eig1_geometric": self.geo_mult,
            "has_eigenvalue_one": self.has_eigenvalue_one,
        }


@dataclass
class AuditReport:
    rep_id: str
    dim: int
    ring: str  # "ZZ" | "GF2"
    records: list[ClassRecord]
    irreducible: bool | None = None
    absolutely_irreducible: bool | None = None

    @property
    def unisingular(self) -> bool:
        return all(r.has_eigenvalue_one for r in self.records)

    @property
    def offenders(self) -> list[str]:
        return [r.label for r in self.records if not r.has_eigenvalue_one]

    def to_payload(self) -> dict:
        out = {
            "representation": self.rep_id,
            "dim": self.dim,
            "ring": self.ring,
            "unisingular": self.unisingular,
            "offenders": self.offenders,
            "classes": [r.to_payload() for r in self.records],
        }
        if self.irreducible is not None:
            out["irreducible"] = self.irreducible
        if self.absolutely_irreducible is not None:
            out["absolutely_irreducible"] = self.absolutely_irreducible
        return out


def _int_class_record(label: str, size: int, order: int, M: IntMatrix) -> ClassRecord:
    rank, det = _bareiss([list(r) for r in (IntMatrix.identity(M.nrows) - M).rows])
    geo = M.nrows - rank
    # M has finite order, so it is semisimple over QQ: the algebraic
    # multiplicity of eigenvalue 1 equals the geometric one
    return ClassRecord(label, size, order, det, geo, geo)


def audit_int_classes(rep_id: str, classes: list[tuple[str, int, int, IntMatrix]]) -> AuditReport:
    """classes: (label, class size, element order, matrix), one per class."""
    if not classes:
        raise ValueError("no classes to audit")
    dim = classes[0][3].nrows
    records = [_int_class_record(*c) for c in classes]
    return AuditReport(rep_id, dim, "ZZ", records)


# ---------------------------------------------------------------------------
# Specht audits
# ---------------------------------------------------------------------------

def audit_specht(n: int, family: str, group: str = "s_n") -> AuditReport:
    """Audit a Specht-family representation over the integers, one matrix per
    conjugacy class (det(I - M) is a class function).

    family: FAMILY_HOOK, FAMILY_TWO or FAMILY_TWO_CONJ; group: "s_n" or "a_n".
    Supported range is 5 <= n <= 17 (the class count grows as p(n); n = 17
    takes tens of seconds per family).  For a_n only even
    classes are audited (every element of A_n lies in an even S_n class and
    det(I - M) is constant on S_n classes); reported sizes are S_n class
    sizes.
    """
    if group not in ("s_n", "a_n"):
        raise UsageError(f"unknown group {group!r}")
    if not 5 <= n <= 17:
        raise UsageError(f"n={n} outside supported range 5..17")
    shape, twisted = family_shape(family, n)
    classes = []
    for ct, rep in class_reps_symmetric(n):
        if group == "a_n" and not ct.is_even_class():
            continue
        M = twisted_action_matrix(rep, shape) if twisted else action_matrix(rep, shape)
        classes.append((str(ct), ct.sn_class_size(), rep.order(), M))
    rep_id = f"specht:{family}:n={n}:{group}"
    return audit_int_classes(rep_id, classes)


def conjecture_table(ns: list[int]) -> list[dict]:
    """det(I - M) for the sign-twisted two-row module on the class of an
    (n-2)-cycle times a transposition, with the closed form 2^(k-1)(2k-1)."""
    rows = []
    for n in ns:
        if n < 5 or n % 2 == 0:
            raise UsageError("table rows need odd n >= 5")
        shape = Partition((n - 2, 2))
        ct = Partition((n - 2, 2))
        M = twisted_action_matrix(class_rep_for(ct), shape)
        det = det_exact(IntMatrix.identity(M.nrows) - M)
        k = (n - 1) // 2
        rows.append(
            {
                "n": n,
                "dim": M.nrows,
                "class": str(ct),
                "det_one_minus": str(det),
                "closed_form": str(2 ** (k - 1) * (2 * k - 1)),
                "matches": det == 2 ** (k - 1) * (2 * k - 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Embedded permutation-group audits
# ---------------------------------------------------------------------------

def audit_embedded_group(G: PermGroup, seed: int = DEFAULT_SEED) -> AuditReport:
    """Audit a permutation group on its symplectic module over GF(2).

    Each class record is read off the cycle type of its representative
    (`symplectic`); the MeatAxe certifies the embedded generators irreducible
    or not, and an irreducible module is absolutely irreducible iff its
    commuting algebra is GF(2)."""
    from . import meataxe
    from .symplectic import eig1_algebraic, eig1_nullity, embed_group

    module = embed_group(G)
    records = []
    for size, rep, order in G.conjugacy_classes():
        ct = rep.cycle_type()
        geo = eig1_nullity(ct.parts)
        # over GF(2), det(I - M) is 0 exactly when M has eigenvalue 1
        det = 0 if geo else 1
        records.append(ClassRecord(str(ct), size, order, det, eig1_algebraic(ct.parts), geo))
    irreducible = meataxe.is_irreducible(module, seed)
    absolutely = irreducible and meataxe.endomorphism_algebra_dim(module) == 1
    rep_id = f"embed:{G.name}:d={G.degree}"
    return AuditReport(rep_id, module.dim, "GF2", records, irreducible, absolutely)


# ---------------------------------------------------------------------------
# 2-generated subgroup census
# ---------------------------------------------------------------------------

@dataclass
class CensusEntry:
    order: int
    irreducible: bool
    unisingular: bool
    count: int
    class_size_fingerprints: list[tuple[int, ...]] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "order": self.order,
            "irreducible": self.irreducible,
            "unisingular": self.unisingular,
            "count": self.count,
            "class_size_fingerprints": [list(f) for f in self.class_size_fingerprints],
        }


def two_generated_subgroups(
    group: IndexedGroup,
) -> dict[frozenset[int], tuple[frozenset[int], tuple[int, int]]]:
    """Every 2-generated subgroup, as a set of element indices, mapped to the
    representative of its conjugacy class and a generator pair of that
    representative.

    <x, y> depends only on <x> and <y>, so only cyclic-subgroup generators
    are paired.  If <a> = g<x>g^-1, then <a, b> = g<x, b'>g^-1 where b'
    generates <g^-1 b g>: so x runs over one cyclic subgroup per conjugacy
    class, y over the cyclic subgroups whose class has not had its turn as
    x yet, and every subgroup found brings in its conjugates.
    """
    times = [row.__getitem__ for row in group.cayley_table]
    maps = [lambda S, c=c.__getitem__: frozenset(map(c, S)) for c in group.conjugators()]
    cyclic = {i: frozenset(group.powers(i)) for i in group.cyclic_generators()}
    done: set[frozenset[int]] = set()  # cyclic subgroups already taken as <x>
    subgroups: dict[frozenset[int], tuple[frozenset[int], tuple[int, int]]] = {}
    for x, X in cyclic.items():
        if X in done:
            continue
        partners = [y for y, Y in cyclic.items() if Y not in done]
        done.update(orbit(X, maps))
        for y in partners:
            K = frozenset(orbit(x, (times[x], times[y])))
            if K not in subgroups:
                for H in orbit(K, maps):
                    subgroups[H] = (K, (x, y))
    return subgroups


def subgroup_census(group: IndexedGroup, seed: int = DEFAULT_SEED) -> list[CensusEntry]:
    """Find every 2-generated subgroup of a GF(2) matrix group and record
    (order, irreducible?, unisingular?) per distinct subgroup.  Class-size
    fingerprints are attached to irreducible subgroups.

    All three are invariant under conjugation, so they are computed once per
    conjugacy class of subgroups, on its representative; the MeatAxe certifies
    either verdict, so it does not depend on the generator pair.  Makes no
    claim of finding subgroups that need three or more generators.
    """
    from . import meataxe

    elements = group.elements
    if len(elements) > 2000:
        raise UsageError("census input capped at 2000 elements")
    dim = elements[0].nrows
    table = group.cayley_table  # table[b][a] = index of x_a * x_b
    eig1 = [False] * len(elements)  # dim ker(M + I) is a class function
    for cls in group.class_orbits():
        has = fixed_space_dim(elements[cls[0]]) > 0
        for x in cls:
            eig1[x] = has

    def invariants(K: frozenset[int], gens: tuple[int, int]) -> tuple:
        irr = meataxe.is_irreducible(GF2Module(dim, [elements[g] for g in gens]), seed)
        uni = all(eig1[x] for x in K)
        if not irr:
            return irr, uni, None
        # y * g -> g * y is conjugation by g
        conj = [{table[g][y]: table[y][g] for y in K}.__getitem__ for g in gens]
        return irr, uni, tuple(sorted(len(c) for c in orbits(sorted(K), conj)))

    per_class: dict[frozenset[int], tuple] = {}
    agg: dict[tuple[int, bool, bool], list] = {}
    for H, (K, gens) in sorted(
        two_generated_subgroups(group).items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        if K not in per_class:
            per_class[K] = invariants(K, gens)
        irr, uni, fp = per_class[K]
        rec = agg.setdefault((len(H), irr, uni), [0, []])
        rec[0] += 1
        if irr and fp not in rec[1]:
            rec[1].append(fp)
    out = [
        CensusEntry(order, irr, uni, count, fps)
        for (order, irr, uni), (count, fps) in sorted(agg.items())
    ]
    return out


def irreducible_orders(census: list[CensusEntry]) -> set[int]:
    return {e.order for e in census if e.irreducible}
