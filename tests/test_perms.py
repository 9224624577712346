import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenone.cycletypes import partitions_of, power_cycle_type, sn_class_size
from eigenone.perms import (
    ClosureOverflow,
    IndexedGroup,
    Permutation,
    builtin_group,
    class_rep_for,
    class_reps_symmetric,
    is_prime,
)
from oracles import (
    conjugate_by,
    conjugate_partition,
    cyclic_subgroups_by_definition,
    identity_perm,
    inverse,
    is_identity,
    is_transitive,
)

BUILTIN_ORDERS = {
    "agl2_3": 432,
    "asl2_3": 216,
    "agl1_9": 72,
    "agammal1_9": 144,
    "l3_2_flags": 168,
}


def perm(d, *cycles):
    return Permutation.from_cycles(d, list(cycles))


def test_compose_involution():
    p = perm(2, (1, 2))
    assert is_identity(p * p)


def test_inverse_three_cycle():
    assert inverse(perm(3, (1, 2, 3))) == perm(3, (1, 3, 2))


def test_apply_point():
    p = perm(9, (1, 2), (3, 4, 5, 6, 7, 8, 9))
    assert p.apply(3) == 4
    assert p.apply(9) == 3
    assert p.apply(1) == 2


def test_compose_convention_right_to_left():
    # (p*q)(x) = p(q(x))
    p = perm(3, (1, 2))
    q = perm(3, (2, 3))
    assert (p * q).apply(3) == p.apply(q.apply(3))


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        perm(3, (1, 2)) * perm(4, (1, 2))


@pytest.mark.parametrize("n", range(1, 10))
def test_power_cycle_type_is_the_cycle_type_of_the_power(n):
    for ct, g in class_reps_symmetric(n):
        power = identity_perm(n)
        for j in range(2 * g.order() + 1):
            assert power_cycle_type(ct, j) == power.cycle_type(), (ct, j)
            power = power * g


def test_cycle_type_examples():
    assert perm(9, (1, 2), (3, 4, 5, 6, 7, 8, 9)).cycle_type() == (7, 2)
    assert identity_perm(5).cycle_type() == (1, 1, 1, 1, 1)
    assert perm(7, (1, 2), (3, 4, 5, 6, 7)).cycle_type() == (5, 2)


@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_cycle_type_conjugation_invariant(d, rnd):
    images = list(range(d))
    rnd.shuffle(images)
    p = Permutation(images)
    images2 = list(range(d))
    rnd.shuffle(images2)
    g = Permutation(images2)
    assert conjugate_by(p, g).cycle_type() == p.cycle_type()


def test_partition_conjugate_involution():
    for lam in [(3, 2), (4, 1, 1), (2, 2, 1), (5,), (1, 1, 1)]:
        assert conjugate_partition(conjugate_partition(lam)) == lam


def test_class_reps_counts():
    assert len(class_reps_symmetric(5)) == 7
    assert len(class_reps_symmetric(7)) == 15


def test_class_rep_canonical_filling():
    rep = class_rep_for((3, 2))
    assert rep == perm(5, (1, 2, 3), (4, 5))


def test_cycle_string_round_trip():
    p = perm(9, (1, 2), (3, 4, 5, 6, 7, 8, 9))
    assert p.cycle_string() == "(1,2)(3,4,5,6,7,8,9)"
    assert identity_perm(4).cycle_string() == "()"


def test_closure_identity_only():
    assert len(IndexedGroup([identity_perm(5)]).elements) == 1


def test_closure_s9():
    els = IndexedGroup([perm(9, (1, 2)), perm(9, tuple(range(1, 10)))]).elements
    assert len(els) == 362880


def test_closure_bound_enforced():
    with pytest.raises(ClosureOverflow):
        IndexedGroup([perm(9, (1, 2)), perm(9, tuple(range(1, 10)))], bound=1000)


def test_s_n_a_n_refused_from_order_before_closing(monkeypatch):
    import eigenone.perms

    def no_closure(*args, **kwargs):
        raise AssertionError("closure must not run")

    monkeypatch.setattr(eigenone.perms, "CLOSURE_BOUND", 360)
    monkeypatch.setattr(IndexedGroup, "__init__", no_closure)
    assert builtin_group("s_n", n=5).degree == 5  # 5! = 120
    assert builtin_group("a_n", n=6).degree == 6  # 6!/2 = 360, at the bound
    for name, n in [("s_n", 6), ("a_n", 7), ("s_n", 10**9)]:
        with pytest.raises(ClosureOverflow, match="^closure exceeded bound 360$"):
            builtin_group(name, n=n)


@pytest.mark.parametrize("n", range(3, 8))
def test_s_n_a_n_cycle_types_recorded(n):
    # s_n and a_n list their cycle types without a closure, and the list is
    # the one the closure's conjugacy classes give
    for name in ("s_n", "a_n"):
        G = builtin_group(name, n=n)
        types = G.cycle_types()
        assert "indexed" not in vars(G)
        assert types == {rep.cycle_type() for _, rep, _ in G.conjugacy_classes()}


# S_9 is the first group where the tie-break reads the layout's direction:
# cycles laid out in descending length would misplace some of its classes
CLOSED_FORM_GROUPS = [("pgl2", {"q": q}) for q in range(3, 32) if is_prime(q)] + [
    (name, {"n": n}) for name in ("s_n", "a_n") for n in range(3, 9)] + [("s_n", {"n": 9})]


@pytest.mark.parametrize("name,params", CLOSED_FORM_GROUPS,
                         ids=[f"{g}{p}" for g, p in CLOSED_FORM_GROUPS])
def test_closed_form_classes_equal_the_closure(name, params):
    # pgl2, s_n and a_n list their classes without a closure, and the list,
    # in order, is the one the closure's conjugacy classes give: the payloads
    # of both routes are the same bytes.  S_6, S_8 and S_9 have ties in order
    # and size between different cycle types, which the least images break
    G = builtin_group(name, **params)
    closed = G.classes()
    order = G.order()
    assert "indexed" not in vars(G)
    assert closed == [(size, rep.cycle_type(), order)
                      for size, rep, order in G.conjugacy_classes()]
    assert order == len(G.indexed.elements)


def test_closure_is_closed_spot_check():
    G = builtin_group("agl2_3")
    els = G.indexed.elements
    elset = {e.images for e in els}
    rng = random.Random(0)
    for _ in range(10**4):
        a = els[rng.randrange(len(els))]
        b = els[rng.randrange(len(els))]
        assert (a * b).images in elset


@pytest.mark.parametrize("name,order,degree", [
    ("agl2_3", 432, 9),
    ("asl2_3", 216, 9),
    ("agl1_9", 72, 9),
    ("agammal1_9", 144, 9),
    ("l3_2_flags", 168, 21),
])
def test_builtin_groups(name, order, degree):
    G = builtin_group(name)
    assert G.degree == degree
    assert G.order() == order == BUILTIN_ORDERS[name]
    assert is_transitive(G)


def test_pgl2_19():
    G = builtin_group("pgl2", q=19)
    assert G.degree == 20
    assert G.order() == 6840
    assert is_transitive(G)


def test_builtin_generators_pinned():
    # the reports print these generators, so their cycles and order are pinned
    pinned = {
        ("agl1_9", None): ["(2,8,4,5,3,6,7,9)", "(1,4,7)(2,5,8)(3,6,9)"],
        ("agammal1_9", None): ["(2,8,4,5,3,6,7,9)", "(1,4,7)(2,5,8)(3,6,9)", "(2,3)(5,6)(8,9)"],
        ("pgl2", 19): [
            "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19)",
            "(2,3,5,9,17,14,8,15,10,19,18,16,12,4,7,13,6,11)",
            "(1,20)(3,11)(4,14)(5,6)(7,17)(8,12)(9,13)(10,18)(15,16)",
        ],
    }
    for (name, q), cycles in pinned.items():
        G = builtin_group(name) if q is None else builtin_group(name, q=q)
        assert [g.cycle_string() for g in G.generators] == cycles


def test_pgl2_multiplier_is_least_primitive_root():
    # the second generator multiplies by the least primitive root g mod q,
    # so its cycle through 1 lists the powers g^0, g^1, ... of that root
    for q in [p for p in range(3, 100) if all(p % d for d in range(2, p))]:
        g = min(a for a in range(2, q) if len({pow(a, k, q) for k in range(q - 1)}) == q - 1)
        mult = builtin_group("pgl2", q=q).generators[1]
        assert mult.apply(2) == g + 1  # point k + 1 holds k in F_q


def test_pgl2_rejects_non_prime():
    with pytest.raises(ValueError):
        builtin_group("pgl2", q=9)
    with pytest.raises(ValueError):
        builtin_group("pgl2", q=2)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_group("m_11")


def test_s5_classes():
    G = builtin_group("s_n", n=5)
    classes = G.conjugacy_classes()
    assert len(classes) == 7
    assert sorted(sz for sz, _, _ in classes) == [1, 10, 15, 20, 20, 24, 30]


def test_agl2_3_class_sizes_sum():
    G = builtin_group("agl2_3")
    classes = G.conjugacy_classes()
    assert sum(sz for sz, _, _ in classes) == 432


def test_pgl2_19_has_order_19_class():
    G = builtin_group("pgl2", q=19)
    assert any(order == 19 for _, _, order in G.conjugacy_classes())


def test_l3_2_class_structure():
    # textbook class data for the simple group of order 168:
    # element orders 1,2,3,4,7,7 with sizes 1,21,56,42,24,24
    G = builtin_group("l3_2_flags")
    classes = G.conjugacy_classes()
    data = sorted((order, size) for size, _, order in classes)
    assert data == [(1, 1), (2, 21), (3, 56), (4, 42), (7, 24), (7, 24)]


def test_agl2_3_class_size_fingerprint():
    # pinned regression: 11 classes
    G = builtin_group("agl2_3")
    sizes = sorted(size for size, _, _ in G.conjugacy_classes())
    assert sizes == [1, 8, 9, 24, 36, 48, 54, 54, 54, 72, 72]


def test_class_cycle_type_constant_sampled():
    G = builtin_group("asl2_3")
    els = G.indexed.elements
    rng = random.Random(1)
    for size, rep, order in G.conjugacy_classes():
        ct = rep.cycle_type()
        for _ in range(3):
            g = els[rng.randrange(len(els))]
            assert conjugate_by(rep, g).cycle_type() == ct


def _identity_first_repeated():
    a, b = builtin_group("asl2_3").generators[2:]  # generate SL(2,3)
    return [identity_perm(9), a, b, a]


def test_indexed_group_tables_and_powers():
    for gens in [builtin_group("asl2_3").generators, builtin_group("agl2_3").generators,
                 _identity_first_repeated()]:
        G = IndexedGroup(gens)
        els = G.elements
        keys = [x.images for x in els]
        assert keys == sorted(keys)
        assert G.index == {x: i for i, x in enumerate(els)}
        e = els[G.identity]
        assert all(e * x == x for x in els)
        for k, g in enumerate(G.generators):
            assert G.left[k] == [G.index[g * x] for x in els]
            assert G.right[k] == [G.index[x * g] for x in els]
        table = G.cayley_table
        assert all(table[b][a] == G.index[x * y]
                   for a, x in enumerate(els) for b, y in enumerate(els))
        for i, x in enumerate(els):
            word = G.word(i)
            assert word[0] == 0
            y = G.generators[0]
            for k in word[1:]:
                y = y * G.generators[k]
            assert y == x
            powers = G.powers(i)
            assert x.order() == len(powers)
            y = x
            for p in powers:
                assert p == G.index[y]
                y = y * x
            assert powers[-1] == G.identity


@pytest.mark.parametrize("gens", [
    lambda: builtin_group("agl2_3").generators,
    _identity_first_repeated,
], ids=["agl2_3", "identity-first-repeated"])
def test_only_the_closure_multiplies(gens, monkeypatch):
    # every table is read off the closure's Schreier graph: the closure forms
    # x * g once per element and generator, and nothing after it multiplies
    from eigenone.census import _cyclic_subgroups

    gens = gens()
    products = [0]
    mul = Permutation.__mul__

    def counted(self, other):
        products[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    G = IndexedGroup(gens)
    assert products[0] == len(G.elements) * len(gens)
    products[0] = 0
    G.cayley_table
    for i in range(len(G.elements)):
        G.word(i)
        G.normalizer(G.powers(i))
    G.inverses
    _cyclic_subgroups(G)
    G.conjugators()
    G.conjugacy_classes()
    assert products[0] == 0


@pytest.mark.parametrize("gens", [lambda: builtin_group("agl2_3").generators], ids=["agl2_3"])
def test_closure_bound_is_the_largest_allowed_order(gens):
    assert len(IndexedGroup(gens(), bound=432).elements) == 432  # |AGL(2,3)|
    with pytest.raises(ClosureOverflow, match="^closure exceeded bound 431$"):
        IndexedGroup(gens(), bound=431)


def test_cyclic_generators_agl2_3():
    from eigenone.census import _cyclic_subgroups

    G = builtin_group("agl2_3").indexed
    cyclic, _ = _cyclic_subgroups(G)
    assert len(cyclic) == 212
    assert list(cyclic) == sorted(cyclic_subgroups_by_definition(G).values())


@pytest.mark.parametrize("name,params", [("agl2_3", {}), ("pgl2", {"q": 7}), ("s_n", {"n": 5})],
                         ids=["agl2_3", "pgl2_7", "s_5"])
def test_normalizer_of_every_cyclic_subgroup(name, params):
    # the table route against {g : g X g^-1 = X} from explicit products, and
    # orbit-stabilizer: [G : N(X)] is the number of conjugates of X
    G = builtin_group(name, **params).indexed
    els = G.elements
    inverses = [inverse(g) for g in els]
    assert [els[i] for i in G.inverses] == inverses
    for i in cyclic_subgroups_by_definition(G).values():
        X = frozenset(els[h] for h in G.powers(i))
        conjugates = [frozenset(g * h * g_inv for h in X) for g, g_inv in zip(els, inverses)]
        normalizer = G.normalizer(G.powers(i))
        assert normalizer == [g for g, C in enumerate(conjugates) if C == X]
        assert len(normalizer) * len(set(conjugates)) == len(els)


def test_partitions_of_count():
    assert sum(1 for _ in partitions_of(7)) == 15
    assert sum(1 for _ in partitions_of(12)) == 77


def test_class_size_formula():
    # sizes over all classes sum to n!
    import math
    for n in [5, 6, 7]:
        assert sum(sn_class_size(ct) for ct in partitions_of(n)) == math.factorial(n)
