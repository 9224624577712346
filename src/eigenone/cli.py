"""Command-line surface.

Exit codes: 0 = checked claim verified, 1 = claim refuted (payload lists the
offenders), 2 = usage error (`UsageError`, or argparse) or a group too large to
close (`ClosureOverflow`), 3 = internal error or a failed check (any other
exception, a failed internal check included; a traceback on standard error
and nothing on standard output), so a crash never reads as a refutation; 4 =
undecided: the run had nothing to check (a Frobenius scan with no good prime up
to --pmax), so it neither verifies nor refutes.  Every verdict, undecided
included, prints a JSON report on standard output.

Each handler checks its flags, takes its result from one layer call and
returns (anchor keys, result, verdict); `main` alone times the run, prints
the report and maps the verdict to the exit code.  Each handler imports the
layers it runs when it runs, so a process loads only those of its subcommand.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import DEFAULT_SEED, ClosureOverflow, UsageError
from .reports import CLAIMS, render

# disc-verify keeps every sample in its payload; 10^4 samples take about 4 s
DISC_SAMPLES_MAX = 10**4
# a scan sieves to --pmax and keeps a record per prime: 10^6 takes about 12 s
# (7.3 s with --jobs 2) on a 2-vCPU VM and prints 7.7 MB
PMAX_MAX = 10**6

GROUP_CHOICES = ["agl2_3", "asl2_3", "agl1_9", "agammal1_9", "pgl2", "l3_2_flags", "s_n", "a_n"]


def _family_arg(s: str) -> str:
    from .specht import FAMILY_HOOK, FAMILY_TWO, FAMILY_TWO_CONJ

    aliases = {
        "n-2,1,1": FAMILY_HOOK,
        FAMILY_HOOK: FAMILY_HOOK,
        "hook": FAMILY_HOOK,
        "n-2,2": FAMILY_TWO,
        FAMILY_TWO: FAMILY_TWO,
        "two": FAMILY_TWO,
        "n-2,2'": FAMILY_TWO_CONJ,
        FAMILY_TWO_CONJ: FAMILY_TWO_CONJ,
        "twisted": FAMILY_TWO_CONJ,
    }
    if s not in aliases:
        raise argparse.ArgumentTypeError(f"family must be one of {sorted(set(aliases))}")
    return aliases[s]


def _int_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",") if x.strip()]


def _refuse_repeats(flag: str, values: list[int]) -> None:
    """A repeated value would redo its work and print its row twice."""
    seen = set()
    for v in values:
        if v in seen:
            raise UsageError(f"{flag} repeats {v}")
        seen.add(v)


def _expect(result: dict, key: str, expected: list[int] | None, found: list[int]) -> bool:
    """True unless an --expect-* list was given and differs from `found`; a
    given list is recorded, sorted, under `key`."""
    if expected is None:
        return True
    result[key] = sorted(expected)
    return result[key] == found


def _group_anchor(claim: str, group: str) -> str:
    """The claim stated for this --group, or the claim for any group."""
    return f"{claim}-{group}" if f"{claim}-{group}" in CLAIMS else claim


# ---------------------------------------------------------------------------
# specht subcommands
# ---------------------------------------------------------------------------

def cmd_specht_audit(args):
    from .audit import audit_specht
    from .specht import FAMILY_HOOK, FAMILY_TWO, FAMILY_TWO_CONJ

    result = audit_specht(args.n, args.family, args.group)
    anchor = {
        FAMILY_HOOK: "specht-audit-hook",
        FAMILY_TWO: "specht-audit-two",
        FAMILY_TWO_CONJ: "specht-audit-twisted" if args.group == "s_n" else "specht-audit-alternating",
    }[args.family]
    return [anchor], result, result["unisingular"]


def cmd_specht_table(args):
    from .audit import conjecture_table

    if not args.n:
        raise UsageError("--n lists no value of n")
    _refuse_repeats("--n", args.n)
    rows = conjecture_table(args.n)
    ok = all(r["matches"] for r in rows)
    return ["conjecture-table"], {"rows": rows, "all_match": ok}, ok


def cmd_specht_mod2(args):
    from .specht import family_dim, mod2_factor_dims

    # James's decomposition numbers, in closed form: no matrix and no MeatAxe
    factors = mod2_factor_dims(args.family, args.n)
    dim = family_dim(args.family, args.n)
    result = {
        "n": args.n,
        "family": args.family,
        "dim": dim,
        "factor_dims": factors,
        "irreducible": factors == [dim],
    }
    return ["mod2-factors"], result, _expect(result, "expected_dims", args.expect_dims, factors)


def cmd_specht_fixed_vector(args):
    from .fixed_vectors import FIXED_VECTOR_N_MAX, build_fixed_vector
    from .perms import class_rep_for

    if args.n > FIXED_VECTOR_N_MAX:  # before a degree-n permutation is built
        raise UsageError(f"fixed vectors need n <= {FIXED_VECTOR_N_MAX}, got n={args.n}")
    parts = tuple(sorted(args.cycle_type, reverse=True))
    if not parts or parts[-1] <= 0 or sum(parts) != args.n:
        raise UsageError(f"cycle type {args.cycle_type} does not partition n={args.n}")
    return ["fixed-vector"], build_fixed_vector(class_rep_for(parts), args.family), True


# ---------------------------------------------------------------------------
# embed subcommands
# ---------------------------------------------------------------------------

def cmd_embed_audit(args):
    from .perms import builtin_group

    G = builtin_group(args.group, args.q, args.n)
    if args.module == "permutation":
        from .audit import audit_permutation_module

        result = audit_permutation_module(G, args.seed)
        top = result["top_factor"]
        verdict = (_expect(result, "expected_dims", args.expect_dims, result["factor_dims"])
                   and top["unisingular"] and top["absolutely_irreducible"])
        return [_group_anchor("perm-module-factors", args.group)], result, verdict
    from .audit import audit_embedded_group

    result = audit_embedded_group(G, args.seed)
    anchor = _group_anchor("embed-audit", args.group)
    verdict = result["unisingular"]
    if anchor == "embed-audit-agl2_3":  # that claim states absolute irreducibility too
        verdict = verdict and result["irreducible"] and result["absolutely_irreducible"]
    return [anchor], result, verdict


def cmd_embed_census(args):
    from .census import subgroup_census
    from .perms import builtin_group

    result = subgroup_census(builtin_group(args.group, args.q, args.n), args.seed)
    verdict = _expect(result, "expected_irreducible_orders", args.expect_irreducible_orders,
                      result["irreducible_orders"])
    return [_group_anchor("embed-census", args.group)], result, verdict


# ---------------------------------------------------------------------------
# nt subcommands
# ---------------------------------------------------------------------------

def cmd_nt_disc_verify(args):
    from .arith import disc_verify

    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > DISC_SAMPLES_MAX:
        raise UsageError(f"--samples must be at most {DISC_SAMPLES_MAX}, got {args.samples}")
    result = disc_verify(args.samples, args.seed)
    special = result["special"]
    verdict = (result["identity_holds"] and special["matches"]
               and special["bad_primes"] == special["bad_primes_expected"])
    return ["disc-identity", "disc-special"], result, verdict


def cmd_nt_frobenius_scan(args):
    from .arith import frobenius_scan, malle_g
    from .perms import builtin_group

    if args.pmax < 0:
        raise UsageError(f"--pmax must not be negative, got {args.pmax}")
    if args.pmax > PMAX_MAX:
        raise UsageError(f"--pmax must be at most {PMAX_MAX}, got {args.pmax}")
    if args.poly is None and (args.a is None or args.t is None):
        raise UsageError("frobenius-scan needs --a and --t, or --poly")
    G = builtin_group(args.group, args.q, args.n)
    f = malle_g(args.a, args.t) if args.poly is None else args.poly
    if len(f) < 4 or f[-1] == 0:
        raise UsageError(f"--poly needs degree >= 3 and a nonzero last coefficient, got {f}")
    result = frobenius_scan(f, args.pmax, G, jobs=args.jobs)
    # with no good prime up to --pmax there is nothing to check: undecided
    verdict = None
    if result["records"]:
        verdict = result["all_have_eigenvalue_one"] and result["all_types_in_group"]
    return ["frobenius-scan"], result, verdict


def cmd_nt_lpoly_check(args):
    from .arith import lpoly_check

    if not args.primes:
        raise UsageError("--primes lists no prime")
    _refuse_repeats("--primes", args.primes)
    result = lpoly_check(args.a, args.t, args.primes)
    return ["lpoly-parity"], result, result["all_pass"]


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eigenone",
        description="Exact eigenvalue-1 audits for Specht modules and mod-2 symplectic permutation representations.",
    )
    sub = ap.add_subparsers(dest="topic", required=True)

    def common(p, fn):
        p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
        p.add_argument("--jobs", type=int, default=1)
        p.set_defaults(fn=fn)

    def group(p):
        p.add_argument("--group", required=True, choices=GROUP_CHOICES)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--n", type=int, default=None)

    specht = sub.add_parser("specht", help="Specht-module audits").add_subparsers(
        dest="verb", required=True
    )
    p = specht.add_parser("audit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", type=_family_arg, required=True)
    p.add_argument("--group", choices=["s_n", "a_n"], default="s_n")
    common(p, cmd_specht_audit)

    p = specht.add_parser("conjecture-table")
    p.add_argument("--n", type=_int_list, default=[5, 7, 9, 11, 13])
    common(p, cmd_specht_table)

    p = specht.add_parser("mod2-factors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", type=_family_arg, default="(n-2,2)")
    p.add_argument("--expect-dims", type=_int_list, default=None)
    common(p, cmd_specht_mod2)

    p = specht.add_parser("fixed-vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cycle-type", type=_int_list, required=True)
    p.add_argument("--family", type=_family_arg, default="(n-2,1,1)")
    common(p, cmd_specht_fixed_vector)

    embed = sub.add_parser("embed", help="symplectic embedding audits").add_subparsers(
        dest="verb", required=True
    )
    p = embed.add_parser("audit")
    group(p)
    p.add_argument("--module", choices=["symplectic", "permutation"], default="symplectic")
    p.add_argument("--expect-dims", type=_int_list, default=None)
    common(p, cmd_embed_audit)

    p = embed.add_parser("census")
    group(p)
    p.add_argument("--expect-irreducible-orders", type=_int_list, default=None)
    common(p, cmd_embed_census)

    nt = sub.add_parser("nt", help="arithmetic checks").add_subparsers(dest="verb", required=True)
    p = nt.add_parser("disc-verify")
    p.add_argument("--samples", type=int, default=20)
    common(p, cmd_nt_disc_verify)

    p = nt.add_parser("frobenius-scan")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--pmax", type=int, default=10**4)
    group(p)
    p.add_argument("--poly", type=_int_list, default=None,
                   help="override polynomial, ascending coefficients; write --poly=-2,0,... "
                        "when the first coefficient is negative")
    common(p, cmd_nt_frobenius_scan)

    p = nt.add_parser("lpoly-check")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--primes", type=_int_list, default=[5, 7, 11, 13])
    common(p, cmd_nt_lpoly_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        anchors, result, verdict = args.fn(args)
        sys.stdout.write(render(list(argv), args.seed, [CLAIMS[a] for a in anchors], result,
                                time.time() - t0) + "\n")
        return {True: 0, False: 1, None: 4}[verdict]
    except (UsageError, ClosureOverflow) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
