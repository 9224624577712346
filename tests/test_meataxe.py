import json
import random

import pytest

from eigenone.gf2 import BitMatrix, GF2Module
from eigenone.errors import DEFAULT_SEED
from eigenone.meataxe import (
    composition_factors,
    endomorphism_dim,
    is_irreducible,
)
from eigenone.perms import builtin_group
from eigenone.symplectic import embed_group, permutation_module_gf2
from oracles import (
    endomorphism_algebra_dim,
    factor_dimensions,
    from_entries,
    specht_mod2_module,
)


def test_trivial_module():
    mod = GF2Module(1, [BitMatrix.identity(1)])
    assert factor_dimensions(mod) == [1]
    assert is_irreducible(mod)
    assert endomorphism_algebra_dim(mod) == 1


def test_specht_311_mod2():
    mod = specht_mod2_module(5, (3, 1, 1))
    assert factor_dimensions(mod) == [1, 1, 4]


def test_specht_52_mod2_irreducible():
    mod = specht_mod2_module(7, (5, 2))
    assert factor_dimensions(mod) == [14]
    assert is_irreducible(mod)


def test_agl2_3_absolutely_irreducible():
    mod = embed_group(builtin_group("agl2_3"))
    assert is_irreducible(mod)
    assert endomorphism_algebra_dim(mod) == 1


def test_flag_module_8dim_factor_absolutely_irreducible():
    pm = permutation_module_gf2(builtin_group("l3_2_flags"))
    factors = [f for f, _ in composition_factors(pm)]
    eight = [f for f in factors if f.dim == 8]
    assert len(eight) == 1
    assert endomorphism_algebra_dim(eight[0]) == 1  # a factor is certified irreducible


def test_not_absolutely_irreducible_example():
    # C9 acting on the 2-dimensional GF(2) factor: commuting algebra is GF(4)
    C = from_entries([[0, 1], [1, 1]])  # companion of x^2+x+1
    mod = GF2Module(2, [C])
    assert is_irreducible(mod)
    assert endomorphism_algebra_dim(mod) == 2
    assert endomorphism_dim(mod) == 2


def test_companion_of_x3_x_1_has_gf8_endomorphisms():
    # C7 acting through the companion matrix of x^3 + x + 1: commuting algebra GF(8)
    C = from_entries([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    mod = GF2Module(3, [C])
    assert endomorphism_algebra_dim(mod) == endomorphism_dim(mod) == 3


BUILTIN_MODULE_GROUPS = [
    ("agl2_3", {}), ("asl2_3", {}), ("agl1_9", {}), ("agammal1_9", {}), ("l3_2_flags", {}),
    ("pgl2", {"q": 3}), ("pgl2", {"q": 5}), ("pgl2", {"q": 7}), ("pgl2", {"q": 19}),
    ("s_n", {"n": 4}), ("s_n", {"n": 5}), ("s_n", {"n": 6}),
    ("a_n", {"n": 3}), ("a_n", {"n": 4}), ("a_n", {"n": 5}), ("a_n", {"n": 6}),
]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
@pytest.mark.parametrize("group,params", BUILTIN_MODULE_GROUPS,
                         ids=[f"{g}{p}" for g, p in BUILTIN_MODULE_GROUPS])
def test_norton_count_matches_the_commuting_algebra(group, params, seed):
    # the symplectic module and every composition factor of the permutation
    # module: the count from the Norton witness is the nullity of the n^2
    # linear system.  A_3 = C_3 acts on its 2-dimensional modules through
    # GF(4), and the symplectic module of l3_2_flags is reducible
    G = builtin_group(group, **params)
    perm = permutation_module_gf2(G)
    for mod in [embed_group(G), *(f for f, _ in composition_factors(perm, seed))]:
        expected = endomorphism_algebra_dim(mod) if is_irreducible(mod, seed) else None
        assert endomorphism_dim(mod, seed) == expected
    # reducible: the all-ones vector spans a submodule
    assert endomorphism_dim(perm, seed) is None


def _direct_sum(a: GF2Module, b: GF2Module) -> GF2Module:
    n = a.dim + b.dim
    gens = []
    for ga, gb in zip(a.gens, b.gens):
        rows = [r for r in ga.rows] + [r << a.dim for r in gb.rows]
        gens.append(BitMatrix(rows, n))
    return GF2Module(n, gens)


def test_direct_sum_factors_are_multiset_union():
    m1 = specht_mod2_module(5, (3, 1, 1))
    m2 = specht_mod2_module(5, (3, 2))
    d1 = factor_dimensions(m1)
    d2 = factor_dimensions(m2)
    assert factor_dimensions(_direct_sum(m1, m2)) == sorted(d1 + d2)


def _inverse(M: BitMatrix) -> BitMatrix | None:
    """Gauss-Jordan inverse over GF(2) on rows [M | I]; None when singular."""
    n = M.nrows
    aug = [(r << n) | (1 << i) for i, r in enumerate(M.rows)]
    pivots = {}
    for v in aug:
        for c, pr in pivots.items():
            if (v >> (c + n)) & 1:
                v ^= pr
        if v >> n:
            c = (v >> n).bit_length() - 1
            for c2 in list(pivots):
                if (pivots[c2] >> (c + n)) & 1:
                    pivots[c2] ^= v
            pivots[c] = v
    if len(pivots) != n:
        return None
    mask = (1 << n) - 1
    return BitMatrix([pivots[i] & mask for i in range(n)], n)


def _random_basis_change(mod: GF2Module, rng: random.Random) -> GF2Module:
    n = mod.dim
    Pi = None
    while Pi is None:
        P = BitMatrix([rng.getrandbits(n) for _ in range(n)], n)
        Pi = _inverse(P)
    return GF2Module(n, [P * g * Pi for g in mod.gens])


def test_factors_invariant_under_basis_change():
    rng = random.Random(99)
    mod = specht_mod2_module(5, (3, 1, 1))
    base = factor_dimensions(mod)
    for _ in range(10):
        assert factor_dimensions(_random_basis_change(mod, rng)) == base


def test_dimension_sum_check_fires(monkeypatch):
    # a split that hands back the submodule twice, in place of the submodule
    # and the quotient, breaks the dimension count, which must raise
    import eigenone.meataxe as mx
    from eigenone.errors import VerificationError

    split = mx._split_by_subspace
    monkeypatch.setattr(mx, "_split_by_subspace", lambda m, sub, c: (split(m, sub, c)[0],) * 2)
    with pytest.raises(VerificationError, match="must sum to the module dimension"):
        composition_factors(specht_mod2_module(5, (3, 1, 1)))


def test_factors_re_irreducible():
    pm = permutation_module_gf2(builtin_group("l3_2_flags"))
    for f, _ in composition_factors(pm):
        assert is_irreducible(f)


def test_determinism_of_seeded_runs():
    mod = specht_mod2_module(5, (3, 1, 1))
    a = [tuple(g.rows) for f, _ in composition_factors(mod, seed=0xC0FFEE) for g in f.gens]
    b = [tuple(g.rows) for f, _ in composition_factors(mod, seed=0xC0FFEE) for g in f.gens]
    assert a == b


def test_factor_dims_independent_of_seed():
    mod = specht_mod2_module(7, (5, 1, 1))
    base = factor_dimensions(mod, seed=1)
    for seed in [2, 3, 0xC0FFEE]:
        assert factor_dimensions(mod, seed=seed) == base


def test_dimension_bound():
    big = GF2Module(1, [BitMatrix.identity(1)])
    big.dim = 257  # simulate oversize
    big.gens = [BitMatrix.identity(257)]
    with pytest.raises(ValueError):
        factor_dimensions(big)


def _irreducible_module():
    return specht_mod2_module(7, (5, 2))  # irreducible, dimension 14


def _run_cli(capsys, argv: str):
    """A command whose verdict rests on the MeatAxe."""
    from eigenone.cli import main

    code = main(argv.split())
    return code, capsys.readouterr()


def test_split_check_fires_on_a_non_invariant_subspace(monkeypatch, capsys):
    # a spin that stops at its seed vector hands back a subspace that the
    # generators move; restricting to it must raise, in the library and as
    # exit 3 from the command line
    import eigenone.meataxe as mx
    from eigenone.errors import VerificationError

    spin = mx.spin
    monkeypatch.setattr(mx, "spin", lambda vectors, gens: spin(vectors, []))
    with pytest.raises(VerificationError, match="^vector not in the invariant subspace$"):
        composition_factors(_irreducible_module())
    # the flag module's composition factors
    code, captured = _run_cli(capsys, "embed audit --group l3_2_flags --module permutation")
    assert code == 3
    assert captured.out == ""
    assert "VerificationError: vector not in the invariant subspace" in captured.err


def test_agl2_3_audit_needs_an_absolutely_irreducible_module(monkeypatch, capsys):
    # the agl2_3 claim states absolute irreducibility: a spin that stops at its
    # seed vector finds a proper submodule, and the verdict must then be refuted
    # though every class keeps eigenvalue 1; the generic and pgl2 claims rest
    # on unisingularity alone
    import eigenone.meataxe as mx

    assert _run_cli(capsys, "embed audit --group agl2_3")[0] == 0
    assert _run_cli(capsys, "embed audit --group pgl2 --q 19")[0] == 1
    spin = mx.spin
    monkeypatch.setattr(mx, "spin", lambda vectors, gens: spin(vectors, []))
    code, captured = _run_cli(capsys, "embed audit --group agl2_3")
    result = json.loads(captured.out)["result"]
    assert code == 1
    assert result["unisingular"] and not result["irreducible"]
    assert not result["absolutely_irreducible"]


def test_dual_split_check_fires_on_a_full_complement(monkeypatch, capsys):
    # a dual spin that stops at its seed vector claims a proper dual
    # submodule of an irreducible module; the complement then spins to the
    # whole space, which must raise, in the library and as exit 3
    import eigenone.meataxe as mx
    from eigenone.errors import VerificationError

    spin = mx.spin
    seen = []

    def short_dual_spin(vectors, gens):
        if not seen:
            seen.append(gens)  # the first spin runs on the module's own generators
        return spin(vectors, gens if gens is seen[0] else [])

    monkeypatch.setattr(mx, "spin", short_dual_spin)
    with pytest.raises(VerificationError, match="^the dual split must give a proper submodule$"):
        composition_factors(_irreducible_module())
    seen.clear()
    # the irreducibility of the embedded AGL(2,3), whose module is irreducible
    code, captured = _run_cli(capsys, "embed audit --group agl2_3")
    assert code == 3
    assert captured.out == ""
    assert "VerificationError: the dual split must give a proper submodule" in captured.err


SWEEP_MODULES = {
    "S^(3,1,1)": (lambda: specht_mod2_module(5, (3, 1, 1)), [1, 1, 4]),
    "S^(5,2)": (lambda: specht_mod2_module(7, (5, 2)), [14]),
    "S^(5,1,1)": (lambda: specht_mod2_module(7, (5, 1, 1)), [1, 14]),
    "agl2_3": (lambda: embed_group(builtin_group("agl2_3")), [8]),
    "flags": (lambda: permutation_module_gf2(builtin_group("l3_2_flags")), [1, 3, 3, 3, 3, 8]),
    "S^(4,3,2)": (lambda: specht_mod2_module(9, (4, 3, 2)), [8, 160]),
}


@pytest.mark.parametrize("name", sorted(SWEEP_MODULES))
def test_factor_dims_over_a_seed_sweep(name):
    # every seed reaches the same certified factors within the attempt
    # budget: a MeatAxeError would fail the test
    build, dims = SWEEP_MODULES[name]
    mod = build()
    for seed in range(50):
        assert factor_dimensions(mod, seed=seed) == dims, seed
