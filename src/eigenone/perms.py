"""Permutations, permutation groups, and exact conjugacy classes.

A partition, and so a cycle type, is a weakly decreasing tuple of positive
ints; the functions of a cycle type live in `cycletypes`.

Points are 1-based in all external interfaces (cycle strings, apply) and
0-based internally.  Composition is right-to-left throughout the package:
(p * q)(x) = p(q(x)).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import factorial, lcm

from .cycletypes import euler_phi, is_even_class, is_prime, partitions_of, prime_factors, sn_class_size
from .errors import ClosureOverflow, UsageError, VerificationError

CLOSURE_BOUND = 10**6


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
    def from_cycles(cls, d: int, cycles) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles(9, [(1,2),(3,4,5,6,7,8,9)])."""
        images = list(range(d))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if not (1 <= a <= d):
                    raise ValueError(f"point {a} out of range for degree {d}")
                images[a - 1] = b - 1
        return cls(images)

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

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True))

    def fixed_points(self) -> list[int]:
        return [i + 1 for i in range(self.degree) if self.images[i] == i]

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def is_even(self) -> bool:
        return is_even_class(self.cycle_type())

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


def class_rep_for(ct: tuple[int, ...]) -> Permutation:
    """Canonical S_n representative of a cycle type: cycles filled consecutively."""
    cycles = []
    next_pt = 1
    for length in ct:
        cycles.append(tuple(range(next_pt, next_pt + length)))
        next_pt += length
    return Permutation.from_cycles(sum(ct), [c for c in cycles if len(c) > 1])


def class_reps_symmetric(n: int) -> list[tuple[tuple[int, ...], Permutation]]:
    """One canonical representative per partition of n."""
    return [(ct, class_rep_for(ct)) for ct in partitions_of(n)]


def orbit(start, maps) -> list:
    """Breadth-first orbit of `start` under the callables `maps`, in the
    order found.  The orbit must be finite: only `IndexedGroup` enforces a bound."""
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


class IndexedGroup:
    """A finite permutation group with numbered elements.

    `elements` is the closure of `generators` sorted by image tuple, and
    `index` maps each element to its number 0..N-1.  For the k-th generator
    g, `left[k][i]` and `right[k][i]` are the indices of g * x_i and x_i * g.
    Tree words, powers, conjugation maps, classes, the full Cayley table,
    inverses and normalizers of cyclic subgroups are computed on demand.

    The closure is the orbit of the first generator under right
    multiplication by the generators; each product x * g is formed once and
    recorded.  Its tree edges say how each element was first reached: x_i
    is x_parent[i] * g_via[i], except the root, the first generator.  So
    right multiplication by any element is the composite of `right` rows
    along its tree word, and no method multiplies two elements.  Raises
    ClosureOverflow if more than `bound` (default CLOSURE_BOUND) elements
    are found.
    """

    def __init__(self, generators, bound: int | None = None):
        gens = self.generators = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        bound = CLOSURE_BOUND if bound is None else bound
        found = [gens[0]]
        index = {gens[0]: 0}
        right = [[] for _ in gens]  # right[k][i]: index in `found` of found[i] * g_k
        parent, via = [-1], [0]  # the root is g_0, reached from nothing
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
                right[k].append(j)
        # renumber from the order found to the order of the image tuples
        order = sorted(range(len(found)), key=lambda j: found[j].images)
        pos = [0] * len(found)
        for s, j in enumerate(order):
            pos[j] = index[found[j]] = s
        self.elements = [found[j] for j in order]
        self.index = index
        self.right = [[pos[row[j]] for j in order] for row in right]
        self._parent = [-1 if parent[j] < 0 else pos[parent[j]] for j in order]
        self._via = [via[j] for j in order]
        self._bfs = pos  # the indices in the order found: a parent before its children
        root = pos[0]
        # x_e * g_0 = g_0 picks out the identity e; then g_k = x_e * g_k, and
        # g_k * x_i = (g_k * x_parent) * g_via along the tree
        self.identity = self.right[0].index(root)
        self.left = []
        for r in self.right:
            row = [0] * len(found)
            row[root] = self.right[0][r[self.identity]]
            for i in pos[1:]:
                row[i] = self.right[self._via[i]][row[self._parent[i]]]
            self.left.append(row)

    def word(self, i: int) -> list[int]:
        """Generator indices k_0 = 0, k_1, ..., k_m along the tree, so that
        x_i = g_k0 * g_k1 * ... * g_km."""
        out = []
        while i >= 0:
            out.append(self._via[i])
            i = self._parent[i]
        return out[::-1]

    def powers(self, i: int) -> list[int]:
        """Indices of x, x^2, ..., x^ord(x) (the identity) for x = elements[i]."""
        row = self.cayley_table[i]  # row[a] is the index of x_a * x_i
        out = [i]
        x = row[i]
        while x != i:
            out.append(x)
            x = row[x]
        return out

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

    def conjugacy_classes(self) -> list[tuple[int, int, int]]:
        """Exact classes as (class size, representative index, element order),
        each class being the conjugation orbit of its representative, its
        least index, under the generators.  Sorted by (element order, class
        size, representative)."""
        conj = [c.__getitem__ for c in self.conjugators()]
        classes = [(len(orb), orb[0], self.elements[orb[0]].order())
                   for orb in orbits(range(len(self.elements)), conj)]
        return sorted(classes, key=lambda c: (c[2], c[0], c[1]))

    @cached_property
    def cayley_table(self) -> list[tuple[int, ...]]:
        """table[b][a] is the index of x_a * x_b.

        Row b is right multiplication by x_b: the row of its tree parent
        followed by the `right` row of its tree generator.
        """
        table = [()] * len(self.elements)
        for b in self._bfs:
            p = self._parent[b]
            r = self.right[self._via[b]]
            table[b] = tuple(r) if p < 0 else tuple(map(r.__getitem__, table[p]))
        return table

    @cached_property
    def inverses(self) -> list[int]:
        """inverses[b] is the index of x_b^-1: the a with x_a * x_b = e."""
        e = self.identity
        return [row.index(e) for row in self.cayley_table]

    def normalizer(self, X: list[int]) -> list[int]:
        """Indices of the normalizer of the cyclic subgroup X = `powers(i)`,
        ascending: the g with g * x_i * g^-1 in X, read off the Cayley table."""
        inside = bytearray(len(self.elements))
        for h in X:
            inside[h] = 1
        table, inv = self.cayley_table, self.inverses
        gx = table[X[0]]  # gx[g] is the index of g * x_i
        return [g for g in range(len(inside)) if inside[table[inv[g]][gx[g]]]]


class PermGroup:
    """A permutation group given by generators, with its indexed closure."""

    def __init__(self, generators: list[Permutation], name: str = "group",
                 classes: list[tuple[int, tuple[int, ...], int]] | None = None):
        self.generators = generators
        self.name = name
        # set by builtin_group where the classes have a closed form
        self._classes = classes

    @property
    def degree(self) -> int:
        return self.generators[0].degree

    @cached_property
    def indexed(self) -> IndexedGroup:
        return IndexedGroup(self.generators)

    def order(self) -> int:
        if self._classes is not None:
            return sum(size for size, _, _ in self._classes)
        return len(self.indexed.elements)

    def conjugacy_classes(self) -> list[tuple[int, Permutation, int]]:
        """Exact classes as (class size, representative, element order),
        sorted by (element order, class size, representative images); the
        representative has the least images in its class."""
        G = self.indexed
        return [(size, G.elements[i], order) for size, i, order in G.conjugacy_classes()]

    def classes(self) -> list[tuple[int, tuple[int, ...], int]]:
        """Classes as (class size, cycle type, element order), in the order of
        `conjugacy_classes`: recorded for pgl2, s_n and a_n, else read off the
        closure."""
        if self._classes is not None:
            return self._classes
        return [(size, rep.cycle_type(), order) for size, rep, order in self.conjugacy_classes()]

    def cycle_types(self) -> frozenset[tuple[int, ...]]:
        return frozenset(ct for _, ct, _ in self.classes())

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
    """The least g whose powers run through all q - 1 units mod the prime q:
    g has order q - 1 iff g^((q-1)/r) != 1 for every prime r dividing q - 1."""
    primes = prime_factors(q - 1)
    return next(g for g in range(2, q) if all(pow(g, (q - 1) // r, q) != 1 for r in primes))


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


def _class_key(c: tuple[int, tuple[int, ...], int]) -> tuple:
    """The closure's class order: element order, then class size, then the
    images of the representative with its cycles laid out consecutively in
    ascending length, which has the least images in its S_n class."""
    size, ct, order = c
    images, start = [], 0
    for k in reversed(ct):
        images.extend(range(start + 1, start + k))
        images.append(start)
        start += k
    return order, size, images


def _pgl2_classes(q: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The q + 2 classes of PGL(2,q) on the q + 1 points of P^1(F_q), q an
    odd prime: the identity, the unipotent class (q, 1), and the classes
    that meet a cyclic torus, split of order q - 1 (two fixed points) or
    nonsplit of order q + 1 (none).  A torus holds phi(d) elements of each
    order d dividing its order, and t is conjugate to t^-1 only: so phi(d)/2
    classes of order d > 2, centralized by the torus alone, and one class of
    involutions, whose centralizer is twice the torus."""
    classes = [(1, (1,) * (q + 1), 1), (q * q - 1, (q, 1), q)]
    for m, fixed, size in ((q - 1, (1, 1), q * (q + 1)), (q + 1, (), q * (q - 1))):
        for d in range(2, m + 1):
            if m % d == 0:
                ct = (d,) * (m // d) + fixed
                if d == 2:
                    classes.append((size // 2, ct, d))
                else:
                    classes.extend([(size, ct, d)] * (euler_phi(d) // 2))
    return sorted(classes, key=_class_key)


def _symmetric_classes(n: int, alternating: bool) -> list[tuple[int, tuple[int, ...], int]]:
    """The classes of S_n, one per cycle type, or of A_n: the even S_n
    classes, each split into two halves when its cycle lengths are distinct
    and odd (the centralizer in S_n then lies in A_n)."""
    classes = []
    for ct in partitions_of(n):
        size, order = sn_class_size(ct), lcm(*ct)
        if not alternating:
            classes.append((size, ct, order))
        elif is_even_class(ct):
            halves = len(set(ct)) == len(ct) and all(k % 2 for k in ct)
            classes += [(size // 2, ct, order)] * 2 if halves else [(size, ct, order)]
    return sorted(classes, key=_class_key)


def _with_classes(gens: list[Permutation], name: str, order: int,
                  classes: list[tuple[int, tuple[int, ...], int]]) -> PermGroup:
    """A group with its classes recorded, checked by the class equation."""
    if sum(size for size, _, _ in classes) != order:
        raise VerificationError(f"the class sizes of {name} must sum to its order {order}")
    return PermGroup(gens, name, classes)


def _refuse_large_order(first: int, last: int) -> None:
    """Raise ClosureOverflow up front when first * (first + 1) * ... * last,
    the order of S_n (2..n), A_n (3..n) or PGL(2,q) (q-1..q+1), exceeds
    CLOSURE_BOUND."""
    order = 1
    for k in range(first, last + 1):
        order *= k
        if order > CLOSURE_BOUND:
            raise ClosureOverflow(f"closure exceeded bound {CLOSURE_BOUND}")


def builtin_group(name: str, q: int | None = None, n: int | None = None) -> PermGroup:
    """Constructors for the explicitly named groups.

    Supported names: agl2_3, asl2_3, agl1_9, agammal1_9, pgl2 (param q, odd
    prime), l3_2_flags, s_n (param n >= 3), a_n (param n >= 3).  Invalid
    names and parameters, and a parameter the group does not take, raise
    UsageError: they come from the command line.  pgl2, s_n and a_n carry
    their classes in closed form, so no closure lists them.
    """
    takes = {"pgl2": "q", "s_n": "n", "a_n": "n"}.get(name)
    for flag, value in (("q", q), ("n", n)):
        if value is not None and flag != takes:
            raise UsageError(f"--group {name} takes no --{flag}")
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
        if q is None:
            raise UsageError("--group pgl2 requires --q")
        if q > 0:  # the order first: is_prime trial-divides up to sqrt(q)
            _refuse_large_order(q - 1, q + 1)
        if not is_prime(q) or q == 2:
            raise UsageError(f"pgl2 requires an odd prime q, got {q}")
        return _with_classes(_pgl2_gens(q), f"pgl2_{q}", q**3 - q, _pgl2_classes(q))
    if name == "l3_2_flags":
        return PermGroup(_l3_2_flag_gens(), name="l3_2_flags")
    if name in ("s_n", "a_n"):
        if n is None:
            raise UsageError(f"--group {name} requires --n")
        if n < 3:
            raise UsageError(f"{name} requires n >= 3, got {n}")
        alternating = name == "a_n"
        _refuse_large_order(3 if alternating else 2, n)
        # (1,2) or (1,2,3), then the n-cycle, or for A_n, n even, the cycle (2,..,n)
        first = (1, 2, 3) if alternating else (1, 2)
        last = tuple(range(2 if alternating and n % 2 == 0 else 1, n + 1))
        cycles = [first] if alternating and n == 3 else [first, last]
        return _with_classes([Permutation.from_cycles(n, [c]) for c in cycles], f"{name[0]}_{n}",
                             factorial(n) // (2 if alternating else 1),
                             _symmetric_classes(n, alternating))
    raise UsageError(f"unsupported builtin group: {name}")
