import itertools
import random
import signal
from contextlib import contextmanager

import pytest

from eigenone.arith import (
    PackedFp,
    bad_primes,
    check_count_prime,
    disc_resultant,
    factor_mod_p,
    frobenius_charpoly_gf2,
    frobenius_scan,
    lpoly_from_counts,
    malle_disc_formula,
    malle_g,
    malle_r,
    primes_up_to,
    resultant,
)
from eigenone.errors import UsageError
from eigenone.perms import builtin_group
from oracles import (
    Fq,
    curve_count,
    ddf_degrees_per_degree_powmod,
    field_modulus,
    fp_divmod,
    fp_gcd,
    fp_mod,
    fp_mul,
    fp_powmod,
    fp_powmod_lists,
    lpoly_by_enumeration,
    packed_powmod,
    zp_eval,
)


def _disc(f):
    """disc(f) as factor_mod_p takes it: 1 at degree 1."""
    return disc_resultant(f) if len(f) > 2 else 1


def test_malle_g_special_coefficients():
    # the distinguished specialization, descending coefficients
    assert malle_g(1, -32)[::-1] == [1, -15, 84, -204, 150, 150, -172, -12, -15, 1]


def test_malle_r_in_t_at_a1():
    # r(1,t) = t^2 + 128 t + 4096
    for t in [-32, 0, 1, 7, 100]:
        assert malle_r(1, t) == t * t + 128 * t + 4096
    assert malle_r(1, -32) == 1024


def test_squarefree_specialization_guard():
    from eigenone.arith import malle_is_squarefree_specialization

    assert malle_is_squarefree_specialization(1, -32)
    assert not malle_is_squarefree_specialization(0, 5)
    assert not malle_is_squarefree_specialization(5, 0)
    # r(1,t) = t^2 + 128t + 4096 = (t+64)^2 vanishes at t = -64
    assert malle_r(1, -64) == 0
    assert not malle_is_squarefree_specialization(1, -64)
    assert disc_resultant(malle_g(1, -64)) == 0


def test_disc_x2_plus_1():
    assert disc_resultant([1, 0, 1]) == -4


def test_disc_special_value():
    assert disc_resultant(malle_g(1, -32)) == -(2**58) * 3**9


def test_disc_formula_at_2_3():
    d = disc_resultant(malle_g(2, 3))
    assert d == -(2**8) * 3**9 * 3**4 * 2**6 * malle_r(2, 3) ** 3


def test_disc_identity_20_samples_and_negative_control():
    rng = random.Random(42)
    n = 0
    while n < 20:
        a, t = rng.randint(-50, 50), rng.randint(-50, 50)
        if a == 0 or t == 0 or malle_r(a, t) == 0:
            continue
        assert disc_resultant(malle_g(a, t)) == malle_disc_formula(a, t)
        n += 1
    # negative control: corrupt one coefficient and the identity must fail
    g = malle_g(3, 5)
    g[4] += 1
    assert disc_resultant(g) != malle_disc_formula(3, 5)


def test_disc_resultant_division_check_fires(monkeypatch):
    # Res(f, f') = 1 is not divisible by lc(2x^2 + 1) = 2
    import eigenone.arith
    from eigenone.errors import VerificationError

    monkeypatch.setattr(eigenone.arith, "resultant", lambda f, g: 1)
    with pytest.raises(VerificationError, match="divisible by lc"):
        disc_resultant([1, 0, 2])


def test_resultant_against_root_product():
    # Res(f, g) for f = (x-1)(x-2), g = (x-3)(x+4): product of g at roots of f
    f = [2, -3, 1]
    g = [-12, 1, 1]
    assert resultant(f, g) == zp_eval(g, 1) * zp_eval(g, 2)


def test_bad_primes_special():
    assert bad_primes(malle_g(1, -32)) == [2, 3]
    assert bad_primes(malle_g(1, 1)) == [2, 3, 5, 13]


def test_bad_primes_refuse_a_zero_discriminant():
    # every prime divides disc(x^2) = 0: refused, not factored forever
    with _ends_within(5), pytest.raises(ValueError, match="m >= 1, got 0"):
        bad_primes([0, 0, 1])


def test_factor_mod_p_quadratic():
    assert factor_mod_p([1, 0, 1], 5, -4) == (1, 1)
    assert factor_mod_p([1, 0, 1], 7, -4) == (2,)


def test_factor_mod_p_pinned_oracle_values():
    # degrees pinned from an independent computer-algebra run
    g = malle_g(1, -32)
    disc = disc_resultant(g)
    assert factor_mod_p(g, 5, disc) == (1, 8)
    assert factor_mod_p(g, 7, disc) == (3, 3, 3)
    assert factor_mod_p(g, 11, disc) == (1, 8)
    assert factor_mod_p(g, 13, disc) == (1, 2, 6)


def test_factor_mod_p_non_squarefree_flag():
    assert factor_mod_p([1, 2, 1], 3, 0) is None  # (x+1)^2


def test_factor_mod_p_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_mod_p([1, 0, 1], 2, -4)
    with pytest.raises(ValueError):
        factor_mod_p([1, 0, 5], 5, -20)
    with pytest.raises(ValueError, match="degree >= 1"):
        factor_mod_p([4], 5, 1)


def test_scan_decides_no_primality(monkeypatch):
    # the sieve proves each scanned p prime, so factor_mod_p trial-divides none
    import eigenone.arith

    calls = [0]
    is_prime = eigenone.arith.is_prime

    def counted(n):
        calls[0] += 1
        return is_prime(n)

    monkeypatch.setattr(eigenone.arith, "is_prime", counted)
    result = frobenius_scan(malle_g(1, -32), 10**4, builtin_group("agl2_3"))
    assert len(result["records"]) > 1000
    assert calls[0] == 0


def _trial_division_degrees(f, p):
    """Irreducible-factor degrees of a monic f mod p, found by dividing by
    every monic polynomial of degree <= deg f / 2 in increasing degree (the
    first divisor of each degree left is irreducible); None when a factor
    divides f twice."""
    f = [c % p for c in f]
    n = len(f) - 1
    degrees = []
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            q, r = fp_divmod(f, g, p)
            if not r:
                if not fp_divmod(q, g, p)[1]:
                    return None
                degrees.append(d)
                f = q
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return tuple(sorted(degrees))


def test_factor_mod_p_degrees_match_trial_division():
    rng = random.Random(11)
    squarefree = 0
    for p in (3, 5, 7):
        for _ in range(40):
            f = [rng.randint(-10, 10) for _ in range(rng.randint(1, 9))] + [1]
            expected = _trial_division_degrees(f, p)
            assert factor_mod_p(f, p, _disc(f)) == expected, (f, p)
            squarefree += expected is not None
    assert squarefree >= 40


# 10^9 + 7 and 2^31 - 1 need slots wider than 64 bits
ORACLE_PRIMES = (3, 5, 7, 101, 10007, 10**9 + 7, 2**31 - 1)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_factor_mod_p_matches_per_degree_powering(p):
    rng = random.Random(p)
    squarefree = 0
    for _ in range(60):
        n = rng.randint(1, 12)
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        if n >= 3 and rng.random() < 0.25:  # a repeated factor, which large p rarely draws
            linear = [rng.randrange(p), 1]
            f = fp_mul(f[2:], fp_mul(linear, linear, p), p)
        expected = ddf_degrees_per_degree_powmod(f, p)
        assert factor_mod_p(f, p, _disc(f)) == expected, (f, p)
        squarefree += expected is not None
        base = [rng.randrange(p) for _ in range(rng.randint(0, 2 * n))]
        e = rng.choice([0, 1, p, p**2, rng.randrange(2**40)])
        assert fp_powmod(base, e, f, p) == fp_powmod_lists(base, e, f, p), (base, e, f)
    assert squarefree >= 30


def test_fp_divmod_reduces_and_trims_a_short_dividend():
    # a dividend of lower degree than the divisor is the remainder, taken
    # mod p and trimmed like every other remainder
    assert fp_mod([5, 0], [1, 2, 1], 3) == [2]
    assert fp_divmod([-1, 4, 0], [1, 0, 0, 1], 3) == ([], [2, 1])


def _random_monic(rng, n, p):
    return [rng.randrange(p) for _ in range(n)] + [1]


def _slot_values(n, p):
    """Slot values for the reduction at the edges of its range [0, B): B - 1,
    p - 1, every multiple of p below B and the value before it (at 2^31 - 1,
    the first and last thousand multiples and a thousand random ones)."""
    B = (2 * n + 2) * p * p
    quotients = range(1, B // p + 1)
    if p > 10**6:
        rng = random.Random(n)
        quotients = [*quotients[:1000], *quotients[-1000:],
                     *(rng.randrange(1, B // p + 1) for _ in range(1000))]
    values = [0, p - 1, B - 1]
    for a in quotients:
        values += [a * p - 1] + [a * p] * (a * p < B)
    return values


@pytest.mark.parametrize("p", (3, 10007, 2**31 - 1))
def test_packed_reduce_takes_every_slot_mod_p(p):
    for n in range(1, 13):
        F = PackedFp([1] * n + [1], p)
        values = _slot_values(n, p)
        width = 2 * n  # the most slots any polynomial in the kernel has
        shifts = [j * F.S for j in range(width)]
        for i in range(0, len(values), width):
            chunk = values[i:i + width]
            t = sum(v << s for v, s in zip(chunk, shifts))
            assert F.reduce(t) == sum(v % p << s for v, s in zip(chunk, shifts)), (n, chunk)


@pytest.mark.parametrize("p", (3, 5, 101, 10007, 2**31 - 1))
def test_packed_kernel_matches_list_oracles(p):
    rng = random.Random(p)
    for n in [1, 1, 2, 2, *range(3, 13)] * 3:
        f = _random_monic(rng, n, p)
        F = PackedFp([c * 3 for c in f] if p != 3 else f, p)  # non-monic unless p = 3
        assert F.unpack(F.f) == f
        a = [rng.randrange(p) for _ in range(n)]
        b = [rng.randrange(p) for _ in range(n)]
        A, Bp = F.pack(a), F.pack(b)
        assert F.unpack(F.mulmod(A, Bp)) == fp_mod(fp_mul(a, b, p), f, p)
        e = rng.choice([0, 1, 2, p, p**2 + 1, rng.randrange(2**20)])
        assert F.unpack(packed_powmod(F, A, e)) == fp_powmod_lists(a, e, f, p), (f, a, e)
        # gcd of two products sharing a factor, and exact division by it
        g = _random_monic(rng, rng.randint(0, n), p)
        u = fp_mul(g, _random_monic(rng, rng.randint(0, n - len(g) + 1), p), p)
        w = fp_mul(g, [rng.randrange(p) for _ in range(rng.randint(0, n - len(g) + 2))], p)
        assert F.unpack(F.gcd(F.pack(u), F.pack(w))) == fp_gcd(u, w, p), (u, w)
        q, r = F.divmod(F.pack(u), F.pack(g))
        assert (F.unpack(q), F.unpack(r)) == fp_divmod(u, g, p)
        assert r == 0
        z = fp_mul(u, [rng.randrange(p) for _ in range(n)], p)[: 2 * n]
        q, r = F.divmod(F.pack(z), F.f)
        assert (F.unpack(q), F.unpack(r)) == fp_divmod(z, f, p), z


@contextmanager
def _ends_within(seconds):
    """Fail, instead of hanging, when the block runs longer than seconds:
    a Euclid step that leaves the top slot in place never ends."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", (3, 10007, 2**31 - 1))
def test_packed_gcd_edge_cases_match_the_list_gcd(p):
    rng = random.Random(p)
    for n in (1, 2, 5, 9):
        F = PackedFp([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p)
        a = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
        g = [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]
        short = [rng.randrange(1, p)]
        for u, w in [
            ([], []),  # both zero
            (a, []), ([], a),  # one zero operand
            ([rng.randrange(1, p)], short), (a, short), (short, a),  # constants
            (g, a), (a, g),  # deg u < deg w, and the reverse
            (a, a),
            # a common factor g of degree n - 1; a g has degree 2n - 1, the kernel's top
            (fp_mul(a, g, p), fp_mul(g, g, p)),
        ]:
            with _ends_within(10):
                packed = F.unpack(F.gcd(F.pack(u), F.pack(w)))
            assert packed == fp_gcd(u, w, p), (n, u, w)


@pytest.mark.parametrize("p", (3, 5, 10007, 2**31 - 1))
@pytest.mark.parametrize("n", (1, 2, 9, 12))
def test_x_power_matches_list_powering(p, n):
    rng = random.Random(p * n)
    for _ in range(3):
        f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(2, p) if p > 3 else 2]
        F = PackedFp(f, p)  # not monic: x_power reduces mod f made monic
        for e in (0, 1, 2, p, p**2 + 1, rng.randrange(2**39, 2**40)):
            assert F.unpack(F.x_power(e)) == fp_powmod_lists([0, 1], e, f, p), (f, e)


@pytest.mark.parametrize("p", (3, 5, 7, 10007))
def test_factor_mod_p_with_the_exact_disc_matches_the_gcd_oracle(p):
    # squarefreeness read off disc(f) mod p against gcd(f, f') in the
    # oracle; at p = 3 the degrees 9 and 12 are multiples of p, where f' loses
    # its leading term
    rng = random.Random(p + 1)
    squarefree = repeated = 0
    for n in [9, 12] * 10 + [rng.randint(2, 12) for _ in range(20)]:
        f = [rng.randint(-20, 20) for _ in range(n)] + [rng.choice([1, 2, -1, 4])]
        if rng.random() < 0.3:  # force a repeated factor (x - c)^2 mod p
            c = rng.randrange(p)
            rest = [0, 0] + f[2:] + [0, 0]  # f[2:] times x^2 - 2cx + c^2
            f = [rest[k] - 2 * c * rest[k + 1] + c * c * rest[k + 2] for k in range(n + 1)]
        disc = disc_resultant(f)
        expected = ddf_degrees_per_degree_powmod(f, p)
        assert (expected is None) == (disc % p == 0), (f, p)
        assert factor_mod_p(f, p, disc) == expected, (f, p)
        squarefree += expected is not None
        repeated += expected is None
    assert squarefree >= 10 and repeated >= 5


def test_frobenius_scan_x9_minus_2_has_eig1_offenders():
    f = [-2] + [0] * 8 + [1]
    scan = frobenius_scan(f, 10**3, builtin_group("s_n", n=9))
    assert not scan["all_have_eigenvalue_one"]
    assert scan["all_types_in_group"]  # S9 contains every cycle type
    # irreducible reductions give 9-cycles, which lack eigenvalue 1
    offenders = [r for r in scan["records"] if not r["has_eigenvalue_one"]]
    assert offenders and all(r["cycle_type"] == [9] for r in offenders)
    assert scan["eig1_offender_primes"] == [r["p"] for r in offenders]


def test_stickelberger_parity_check_fires(monkeypatch, capsys):
    # with x in place of x^p mod f every gcd is the whole remainder, so each
    # reduction reads as nine linear factors and still multiplies back to
    # f; at p = 5, disc = -2^58 3^9 is a non-square and demands an even
    # number of factors
    import eigenone.arith
    from eigenone.cli import main
    from eigenone.errors import VerificationError

    monkeypatch.setattr(eigenone.arith.PackedFp, "x_power", lambda self, e: self.x)
    assert factor_mod_p(malle_g(1, -32), 5, -(2**58) * 3**9) == (1,) * 9
    with pytest.raises(VerificationError, match="Stickelberger"):
        frobenius_scan(malle_g(1, -32), 50, builtin_group("agl2_3"))
    code = main(["nt", "frobenius-scan", "--a", "1", "--t", "-32", "--pmax", "50",
                 "--group", "agl2_3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "VerificationError" in captured.err and "Stickelberger" in captured.err


def test_frobenius_scan_jobs_parallel_matches_serial():
    # 166 good primes to 1000 make three chunks of 64, so two jobs start a pool
    f = malle_g(1, -32)
    G = builtin_group("agl2_3")
    a = frobenius_scan(f, 1000, G, jobs=1)
    b = frobenius_scan(f, 1000, G, jobs=2)
    assert a == b


def test_frobenius_scan_starts_no_more_workers_than_cpus_or_chunks(monkeypatch):
    # the pool is recorded, never started: it runs its map in this process
    import concurrent.futures
    import os

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    f = malle_g(1, -32)
    G = builtin_group("agl2_3")
    serial = frobenius_scan(f, 1000, G, jobs=1)
    for cpus, jobs, pmax, workers in [
        (4, 10**6, 1000, 3),  # 166 good primes: three chunks
        (4, 2, 1000, 2),
        (2, 10**6, 1000, 2),
        (1, 10**6, 1000, None),  # one CPU: serial
        (4, 10**6, 300, None),  # 60 good primes: one chunk, serial
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started.clear()
        scan = frobenius_scan(f, pmax, G, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        if pmax == 1000:
            assert scan == serial


def test_field_modulus_lexicographically_least():
    # F_9 = F_3[x]/(x^2+1) is the least irreducible monic quadratic
    assert field_modulus(3, 2) == (1, 0, 1)
    assert field_modulus(5, 1) == (0, 1)
    # degree-4 modulus over F_5 is irreducible and minimal
    m = field_modulus(5, 4)
    assert len(m) == 5 and m[-1] == 1


def test_fq_arithmetic():
    F = Fq(3, 2)
    # (1 + x)^2 = 1 + 2x + x^2 = 2x  (since x^2 = -1)
    a = F.encode([1, 1])
    assert F.mul(a, a) == F.encode([0, 2])
    sq = F.squares()
    assert len(sq) == 5  # 0 plus (9-1)/2 nonzero squares


def test_curve_count_genus1_sanity():
    assert curve_count([1, 0, 0, 1], 5, 1) == 6


def test_curve_count_weil_bound_and_bad_prime_rejection():
    g = malle_g(1, -32)
    for p in [5, 7]:
        for k in [1, 2]:
            c = curve_count(g, p, k)
            q = p**k
            assert (c - (q + 1)) ** 2 <= 64 * q  # genus 4
    with pytest.raises(ValueError):
        curve_count(g, 3, 1)  # bad prime


def test_curve_count_budget():
    # 101^4 monic polynomials of degree 4 exceed POINT_BUDGET
    with pytest.raises(UsageError, match="exceeds the enumeration budget"):
        lpoly_from_counts(malle_g(1, -32), 101, -(2**58) * 3**9)


def test_lpoly_structure():
    g = malle_g(1, -32)
    L = lpoly_from_counts(g, 5, _disc(g))
    assert len(L) == 9 and L[0] == 1
    # functional equation c_{8-i} = p^{4-i} c_i
    for i in range(4):
        assert L[8 - i] == 5 ** (4 - i) * L[i]


@pytest.mark.parametrize("f", [
    malle_g(1, -32),
    malle_g(1, 1),
    [4, 0, 0, -1, 0, 0, 0, 2, 0, 1],  # x^9 + 2x^7 - x^3 + 4
    [5, -2, 0, 0, 1, 0, 0, 0, 0, 3],  # 3x^9 + x^4 - 2x + 5, not monic
])
@pytest.mark.parametrize("p", [5, 7])
def test_lpoly_equals_the_point_count_oracle(f, p):
    # the character sums over monic polynomials against point counts over
    # F_{p^k} and Newton's identities; g_{1,1} has bad reduction at 5
    if p in bad_primes(f):
        with pytest.raises(UsageError, match=f"bad prime {p}"):
            lpoly_from_counts(f, p, _disc(f))
        with pytest.raises(UsageError, match=f"bad prime {p}"):
            lpoly_by_enumeration(f, p)
        return
    assert lpoly_from_counts(f, p, _disc(f)) == lpoly_by_enumeration(f, p)


def test_lpoly_parity_and_frobenius_match():
    g = malle_g(1, -32)
    disc = _disc(g)
    for p in [5, 7, 11, 13]:
        L = lpoly_from_counts(g, p, disc)
        assert sum(L) % 2 == 0  # #J(F_p) = P(1)
        # x^8 P(1/x) mod 2 against the charpoly of Frobenius on the 2-torsion
        assert sum((c % 2) << (8 - i) for i, c in enumerate(L)) == frobenius_charpoly_gf2(g, p, disc)


def test_frobenius_charpoly_refuses_a_prime_dividing_the_disc():
    # disc(g_{1,-32}) = -2^58 3^9, so 3 is bad although g is monic
    with pytest.raises(UsageError, match="bad prime 3"):
        frobenius_charpoly_gf2(malle_g(1, -32), 3, -(2**58) * 3**9)


@pytest.mark.parametrize("disc,message", [
    (0, r"disc\(f\) = 0, so no prime is good"),
    (-(5**3) * 7, "bad prime 5"),
])
def test_lpoly_steps_refuse_the_disc_they_are_given(disc, message):
    # lpoly-check computes disc(f) once and passes it on, so each step reads
    # the disc it is given, not one of its own; g_{1,-32} itself is good at 5
    g = malle_g(1, -32)
    with pytest.raises(UsageError, match=message):
        check_count_prime(g, 5, disc)
    with pytest.raises(UsageError, match=message):
        lpoly_from_counts(g, 5, disc)
    with pytest.raises(UsageError, match="bad prime 5"):
        frobenius_charpoly_gf2(g, 5, disc)


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
