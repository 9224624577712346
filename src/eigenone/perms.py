"""Permutations, partitions, permutation groups, and exact conjugacy classes.

Points are 1-based in all external interfaces (cycle strings, apply) and
0-based internally.  Composition is right-to-left throughout the package:
(p * q)(x) = p(q(x)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, lcm

from .errors import ClosureOverflow, UsageError, VerificationError

CLOSURE_BOUND = 10**6


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"partition parts must be positive: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = self.parts[0]
        return Partition(tuple(sum(1 for p in self.parts if p > j) for j in range(cols)))

    def is_even_class(self) -> bool:
        """Parity of the S_n class with this cycle type: even iff n - #parts is even."""
        return (self.n - len(self.parts)) % 2 == 0

    def sn_class_size(self) -> int:
        """Size of the S_n conjugacy class with this cycle type: n!/prod(i^m_i m_i!)."""
        cent = 1
        for length in set(self.parts):
            m = self.parts.count(length)
            cent *= length**m * factorial(m)
        return factorial(self.n) // cent

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def partitions_of(n: int):
    """All partitions of n in descending lexicographic order."""

    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


class Permutation:
    """A bijection of {1..d}, stored as a 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images must be a bijection of 0..d-1")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(d))

    @classmethod
    def from_cycles(cls, d: int, cycles) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles(9, [(1,2),(3,4,5,6,7,8,9)])."""
        images = list(range(d))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if not (1 <= a <= d):
                    raise ValueError(f"point {a} out of range for degree {d}")
                images[a - 1] = b - 1
        p = cls(images)
        return p

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Right-to-left composition: (p*q)(x) = p(q(x))."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        product = object.__new__(Permutation)  # a composite of bijections needs no check
        product.images = tuple(map(self.images.__getitem__, other.images))
        return product

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based tuples, each starting at its minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        lengths = sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True)
        return Partition(tuple(lengths))

    def fixed_points(self) -> list[int]:
        return [i + 1 for i in range(self.degree) if self.images[i] == i]

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def is_even(self) -> bool:
        return self.cycle_type().is_even_class()

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, d={self.degree})"


def class_rep_for(ct: Partition) -> Permutation:
    """Canonical S_n representative of a cycle type: cycles filled consecutively."""
    cycles = []
    next_pt = 1
    for length in ct.parts:
        cycles.append(tuple(range(next_pt, next_pt + length)))
        next_pt += length
    return Permutation.from_cycles(ct.n, [c for c in cycles if len(c) > 1])


def class_reps_symmetric(n: int) -> list[tuple[Partition, Permutation]]:
    """One canonical representative per partition of n."""
    return [(ct, class_rep_for(ct)) for ct in partitions_of(n)]


def orbit(start, maps) -> list:
    """Breadth-first orbit of `start` under the callables `maps`, in the
    order found.  The orbit must be finite: only `closure` enforces a bound."""
    seen = {start}
    out = [start]
    for x in out:
        for m in maps:
            y = m(x)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def orbits(points, maps) -> list[list[int]]:
    """Split `points`, ascending indices closed under `maps`, into orbits;
    each orbit is found from, and listed first by, its least point."""
    found = bytearray(points[-1] + 1)
    out = []
    for p in points:
        if not found[p]:
            orb = orbit(p, maps)
            for x in orb:
                found[x] = 1
            out.append(orb)
    return out


def _canonical_key(x) -> tuple[int, ...]:
    return x.images if isinstance(x, Permutation) else x.rows


class Closure(list):
    """The elements of a finite group, sorted by canonical key, with the
    Schreier graph that found them.

    For the k-th generator g, `right[k][i]` is the index of x_i * g.  The
    tree edges say how each element was first reached: x_i is
    x_parent[i] * g_via[i], except the root, the first generator, whose
    parent is -1.  `bfs` lists the indices in the order found, so a parent
    comes before its children.
    """

    right: list[list[int]]
    parent: list[int]
    via: list[int]
    bfs: list[int]


def closure(generators, bound: int | None = None) -> Closure:
    """Exact closure of a list of Permutations or of square BitMatrices,
    sorted by canonical key (`images` or `rows`).

    The finite group is the orbit of its first generator under right
    multiplication by the generators; each product x * g is computed once
    and recorded in the Schreier graph.  Raises ClosureOverflow if more than
    `bound` (default CLOSURE_BOUND) elements are found.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    bound = CLOSURE_BOUND if bound is None else bound
    found = [gens[0]]
    index = {gens[0]: 0}
    rows = [[] for _ in gens]  # rows[k][i]: index in `found` of found[i] * g_k
    parent, via = [-1], [-1]
    for i, x in enumerate(found):
        for k, g in enumerate(gens):
            y = x * g
            j = index.get(y)
            if j is None:
                j = index[y] = len(found)
                found.append(y)
                parent.append(i)
                via.append(k)
                if j >= bound:
                    raise ClosureOverflow(f"closure exceeded bound {bound}")
            rows[k].append(j)
    # renumber from the order found to the canonical order
    order = sorted(range(len(found)), key=lambda j: _canonical_key(found[j]))
    pos = [0] * len(found)
    for s, j in enumerate(order):
        pos[j] = s
    out = Closure(found[j] for j in order)
    out.right = [[pos[row[j]] for j in order] for row in rows]
    out.parent = [-1 if parent[j] < 0 else pos[parent[j]] for j in order]
    out.via = [via[j] for j in order]
    out.bfs = pos
    return out


class IndexedGroup:
    """A finite group of Permutations or BitMatrices with numbered elements.

    `elements` is the closure of `generators` sorted by canonical key, and
    `index` maps each element to its number 0..N-1.  For the k-th generator
    g, `left[k][i]` and `right[k][i]` are the indices of g * x_i and x_i * g.
    Powers, orders, conjugation maps, classes, cyclic subgroups, the full
    Cayley table, inverses and normalizers of cyclic subgroups are computed
    on demand.

    Every table comes from the closure's Schreier graph: x_i is its tree
    parent times one generator, so right multiplication by any element is
    the composite of `right` rows along its tree word.  No method multiplies
    two elements.  The closure raises ClosureOverflow past `bound` elements.
    """

    def __init__(self, generators, bound: int | None = None):
        self.generators = list(generators)
        els = closure(self.generators, bound)
        self.elements = els
        self.index = {x: i for i, x in enumerate(els)}
        self.right = els.right
        self._parent, self._via, self._bfs = els.parent, els.via, els.bfs
        root = self._bfs[0]  # the first generator
        # x_e * g_0 = g_0 picks out the identity e; then g_k = x_e * g_k, and
        # g_k * x_i = (g_k * x_parent) * g_via along the tree
        self.identity = self.right[0].index(root)
        self.left = []
        for r in self.right:
            row = [0] * len(els)
            row[root] = self.right[0][r[self.identity]]
            for i in self._bfs[1:]:
                row[i] = self.right[self._via[i]][row[self._parent[i]]]
            self.left.append(row)

    def _word(self, b: int) -> list[list[int]]:
        """The `right` rows whose composite, first to last, is right
        multiplication by x_b: x_b = g_0 * g_v1 * ... * g_vm along the tree."""
        rows = []
        while b != self._bfs[0]:
            rows.append(self.right[self._via[b]])
            b = self._parent[b]
        rows.append(self.right[0])
        rows.reverse()
        return rows

    def powers(self, i: int) -> list[int]:
        """Indices of x, x^2, ..., x^ord(x) (the identity) for x = elements[i]."""
        word = self._word(i)

        def times_x(a):
            for r in word:
                a = r[a]
            return a

        out = [i]
        x = times_x(i)
        while x != i:
            out.append(x)
            x = times_x(x)
        return out

    def order(self, i: int) -> int:
        return len(self.powers(i))

    def conjugators(self) -> list[list[int]]:
        """For the k-th generator g, `conjugators()[k][i]` is the index of
        g * x_i * g^-1."""
        n = len(self.elements)
        out = []
        for lt, r in zip(self.left, self.right):
            c = [0] * n
            for a, b in zip(r, lt):
                c[a] = b  # x_a * g -> g * x_a is conjugation by g
            out.append(c)
        return out

    def class_orbits(self) -> list[list[int]]:
        """The conjugacy classes as lists of indices: each is the conjugation
        orbit of its least index under the generators, listed first."""
        conj = [c.__getitem__ for c in self.conjugators()]
        return orbits(range(len(self.elements)), conj)

    def conjugacy_classes(self) -> list[tuple[int, int, int]]:
        """Exact classes as (class size, representative index, element order),
        the representative being the least index in its class.  Sorted by
        (element order, class size, representative).
        """
        classes = [(len(orb), orb[0], self.order(orb[0])) for orb in self.class_orbits()]
        return sorted(classes, key=lambda c: (c[2], c[0], c[1]))

    def cyclic_generators(self) -> list[int]:
        """One generator per cyclic subgroup, the least index generating it;
        ascending."""
        seen = set()
        out = []
        for i in range(len(self.elements)):
            cyclic = frozenset(self.powers(i))
            if cyclic not in seen:
                seen.add(cyclic)
                out.append(i)
        return out

    @cached_property
    def cayley_table(self) -> list[tuple[int, ...]]:
        """table[b][a] is the index of x_a * x_b.

        Row b is right multiplication by x_b: the row of its tree parent
        followed by the `right` row of its tree generator.
        """
        table = [()] * len(self.elements)
        root = self._bfs[0]
        table[root] = tuple(self.right[0])
        for b in self._bfs[1:]:
            table[b] = tuple(map(self.right[self._via[b]].__getitem__, table[self._parent[b]]))
        return table

    @cached_property
    def inverses(self) -> list[int]:
        """inverses[b] is the index of x_b^-1: the a with x_a * x_b = e."""
        e = self.identity
        return [row.index(e) for row in self.cayley_table]

    def normalizer(self, i: int) -> list[int]:
        """Indices of the normalizer of <x_i>, ascending: the g with
        g * x_i * g^-1 in <x_i>, read off the Cayley table."""
        inside = bytearray(len(self.elements))
        for h in self.powers(i):
            inside[h] = 1
        table, inv = self.cayley_table, self.inverses
        gx = table[i]  # gx[g] is the index of g * x_i
        return [g for g in range(len(inside)) if inside[table[inv[g]][gx[g]]]]


@dataclass
class PermGroup:
    """A permutation group given by generators, with its indexed closure."""

    generators: list[Permutation]
    name: str = "group"
    # set by builtin_group where the cycle types are known without a closure
    _cycle_types: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.generators[0].degree

    @cached_property
    def indexed(self) -> IndexedGroup:
        return IndexedGroup(self.generators)

    def elements(self) -> list[Permutation]:
        return self.indexed.elements

    def order(self) -> int:
        return len(self.indexed.elements)

    def conjugacy_classes(self) -> list[tuple[int, Permutation, int]]:
        """Exact classes as (class size, representative, element order),
        sorted by (element order, class size, representative images); the
        representative has the least images in its class."""
        G = self.indexed
        return [(size, G.elements[i], order) for size, i, order in G.conjugacy_classes()]

    def cycle_types(self) -> frozenset[tuple[int, ...]]:
        """Cycle types in the group: recorded for s_n and a_n, else from its classes."""
        return self._cycle_types or frozenset(
            rep.cycle_type().parts for _, rep, _ in self.conjugacy_classes())

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "degree": self.degree,
            "generators": [g.cycle_string() for g in self.generators],
        }


# ---------------------------------------------------------------------------
# Built-in groups
# ---------------------------------------------------------------------------

def _perm_from_point_map(points, fn) -> Permutation:
    idx = {p: i for i, p in enumerate(points)}
    return Permutation(tuple(idx[fn(p)] for p in points))


_F3_IDENTITY = [[1, 0], [0, 1]]


def _affine_f3_square(maps) -> list[Permutation]:
    """The affine maps p -> A p + b of F_3^2, given as (A, b) pairs, as
    permutations of the points (i, j) in lexicographic order."""
    pts = [(i, j) for i in range(3) for j in range(3)]
    return [
        _perm_from_point_map(
            pts,
            lambda p, A=A, b=b: (
                (A[0][0] * p[0] + A[0][1] * p[1] + b[0]) % 3,
                (A[1][0] * p[0] + A[1][1] * p[1] + b[1]) % 3,
            ),
        )
        for A, b in maps
    ]


def _primitive_root(q: int) -> int:
    """The least g whose powers run through all q - 1 units mod the prime q."""
    for g in range(2, q):
        if len(orbit(1, [lambda x: x * g % q])) == q - 1:
            return g
    raise VerificationError("no primitive root found")


def _pgl2_gens(q: int) -> list[Permutation]:
    # Moebius action on P^1(F_q) = {0..q-1, infinity=index q}.
    points = list(range(q + 1))
    inf = q

    def mob(a, b, c, d):
        images = []
        for x in range(q):
            num, den = (a * x + b) % q, (c * x + d) % q
            images.append(inf if den == 0 else (num * pow(den, -1, q)) % q)
        images.append(inf if c % q == 0 else (a % q) * pow(c, -1, q) % q)
        return Permutation(images)

    g = _primitive_root(q)
    return [mob(1, 1, 0, 1), mob(g, 0, 0, 1), mob(0, 1, 1, 0)]


def _l3_2_flag_gens() -> list[Permutation]:
    # GL_3(2) on the 21 incident (point, line) flags of the projective plane
    # over F2: points are nonzero vectors, lines nonzero covectors, incidence
    # l(p) = 0.  g sends (p, l) to (g p, l g^-1).
    vecs = [v for v in itertools.product(range(2), repeat=3) if any(v)]
    flags = [(p, l) for p in vecs for l in vecs if sum(a * b for a, b in zip(p, l)) % 2 == 0]

    def matvec(A, v):
        return tuple(sum(A[i][j] * v[j] for j in range(3)) % 2 for i in range(3))

    gens = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            E = [[1 if r == c else 0 for c in range(3)] for r in range(3)]
            E[i][j] = 1
            E = tuple(tuple(r) for r in E)
            # the transvection E = I + e_ij is an involution over F2, so the
            # covector action l -> l E^-1 is l -> E^T l as a column
            ET = tuple(tuple(E[j2][i2] for j2 in range(3)) for i2 in range(3))
            gens.append(
                _perm_from_point_map(flags, lambda f, E=E, T=ET: (matvec(E, f[0]), matvec(T, f[1])))
            )
    return gens


def _refuse_large_order(n: int, first: int) -> None:
    """Raise ClosureOverflow up front when first * (first + 1) * ... * n, the
    order of S_n (first = 2) or A_n (first = 3), exceeds CLOSURE_BOUND."""
    order = 1
    for k in range(first, n + 1):
        order *= k
        if order > CLOSURE_BOUND:
            raise ClosureOverflow(f"closure exceeded bound {CLOSURE_BOUND}")


def builtin_group(name: str, **params) -> PermGroup:
    """Constructors for the explicitly named groups.

    Supported names: agl2_3, asl2_3, agl1_9, agammal1_9, pgl2 (param q, odd
    prime), l3_2_flags, s_n (param n >= 3), a_n (param n >= 3).  Invalid
    names and parameters raise UsageError: they come from the command line.
    """
    if name in ("agl2_3", "asl2_3"):
        linear = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]  # generate SL(2,3)
        if name == "agl2_3":
            linear.append([[2, 0], [0, 1]])
        maps = [(_F3_IDENTITY, b) for b in ((1, 0), (0, 1))] + [(A, (0, 0)) for A in linear]
        return PermGroup(_affine_f3_square(maps), name=name)
    if name in ("agl1_9", "agammal1_9"):
        # F_9 = F_3[i], i^2 = -1, with a + b i at the point (a, b): multiplying
        # by the generator 1 + i of F_9^*, adding 1, and Frobenius x -> x^3
        maps = [([[1, 2], [1, 1]], (0, 0)), (_F3_IDENTITY, (1, 0))]
        if name == "agammal1_9":
            maps.append(([[1, 0], [0, 2]], (0, 0)))
        return PermGroup(_affine_f3_square(maps), name=name)
    if name == "pgl2":
        from .arith import is_prime  # arith imports perms

        q = params["q"]
        if not is_prime(q) or q == 2:
            raise UsageError(f"pgl2 requires an odd prime q, got {q}")
        return PermGroup(_pgl2_gens(q), name=f"pgl2_{q}")
    if name == "l3_2_flags":
        return PermGroup(_l3_2_flag_gens(), name="l3_2_flags")
    if name in ("s_n", "a_n"):
        n = params["n"]
        if n < 3:
            raise UsageError(f"{name} requires n >= 3, got {n}")
        alternating = name == "a_n"
        _refuse_large_order(n, 3 if alternating else 2)
        # (1,2) or (1,2,3), then the n-cycle, or for A_n, n even, the cycle (2,..,n)
        first = (1, 2, 3) if alternating else (1, 2)
        last = tuple(range(2 if alternating and n % 2 == 0 else 1, n + 1))
        cycles = [first] if alternating and n == 3 else [first, last]
        G = PermGroup([Permutation.from_cycles(n, [c]) for c in cycles], name=f"{name[0]}_{n}")
        # S_n has every cycle type and A_n every even one
        G._cycle_types = frozenset(
            ct.parts for ct in partitions_of(n) if not alternating or ct.is_even_class())
        return G
    raise UsageError(f"unsupported builtin group: {name}")
