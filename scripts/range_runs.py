#!/usr/bin/env python3
"""Run each claim at the top of its supported range through the CLI and
check its verdict.

Usage: python scripts/range_runs.py

Each row of RANGE_RUNS is one command: its name, argv, expected exit code,
timeout in seconds, the result field that must read false when it is
refuted (exit 1), and an optional check on the result.  A run passes by the
battery's rule (`reproduce_all.check_run`): the expected exit, a JSON report
on stdout that agrees with it, and the row's check.  A timeout or any other
verdict is a miss.  One line is printed per row, and the script exits 1 on
any miss.  No report is written or compared.

The rows stay out of reproduce_all.py, whose (name, argv) tuples the
benchmark reads as the battery it must cover; these runs take seconds each,
and the battery stops well below them.
"""

import subprocess
import sys
import time
from typing import Callable, NamedTuple

from reproduce_all import check_run, run


class RangeRun(NamedTuple):
    name: str
    argv: list[str]
    expect: int
    timeout: float
    false_field: str = "unisingular"  # read only when expect is 1
    check: Callable[[dict], bool] | None = None


# the L that point counting over F_{17^k} gave
LPOLY_17 = "1,8,48,200,866,3400,13872,39304,83521".split(",")


def lpoly_is_the_point_count(result: dict) -> bool:
    return [row.get("lpoly") for row in result.get("primes", [])] == [LPOLY_17]


RANGE_RUNS = [
    # both scans of the battery ten times further (1.6-2.4 s each on a
    # 2-vCPU VM), and x^9 - x - 1, whose Galois group S_9 is not AGL(2,3)
    RangeRun("frobenius_scan_g1_m32_1e5", ["nt", "frobenius-scan", "--pmax", "100000",
                                           "--a", "1", "--t", "-32", "--group", "agl2_3"], 0, 60),
    RangeRun("frobenius_scan_g1_1_1e5", ["nt", "frobenius-scan", "--pmax", "100000",
                                         "--a", "1", "--t", "1", "--group", "agammal1_9"], 0, 60),
    RangeRun("frobenius_scan_x9_1e5", ["nt", "frobenius-scan", "--pmax", "100000",
                                       "--poly=-1,-1,0,0,0,0,0,0,0,1", "--group", "agl2_3"], 1, 60,
             false_field="all_types_in_group"),
    # PMAX_MAX on two processes, in chunks of 64 good primes: the one run of
    # the pool at scale (7.3-7.6 s on a 2-vCPU VM)
    RangeRun("frobenius_scan_pool_1e6", ["nt", "frobenius-scan", "--a", "1", "--t", "-32",
                                         "--group", "agl2_3", "--pmax", "1000000", "--jobs", "2"],
             0, 120),
    # PGL(2,97) has 912576 elements and S_9 362880; both are audited from
    # their closed-form classes, with no closure
    RangeRun("embed_audit_pgl2_97", ["embed", "audit", "--group", "pgl2", "--q", "97"], 1, 30),
    RangeRun("embed_audit_s9", ["embed", "audit", "--group", "s_n", "--n", "9"], 1, 30),
    # the permutation-module audit reads the same class records, each with a
    # representative whose matrix the MeatAxe carries onto the top factor,
    # so it closes none of these groups (0.1-0.5 s and 16-17 MiB each on a
    # 2-vCPU VM); the battery runs it only on the 168-element flag group
    RangeRun("perm_module_pgl2_47", ["embed", "audit", "--group", "pgl2", "--q", "47",
                                     "--module", "permutation"], 1, 10,
             false_field="top_factor.unisingular"),
    RangeRun("perm_module_pgl2_97", ["embed", "audit", "--group", "pgl2", "--q", "97",
                                     "--module", "permutation"], 1, 30,
             false_field="top_factor.unisingular"),
    RangeRun("perm_module_s9", ["embed", "audit", "--group", "s_n", "--n", "9",
                                "--module", "permutation"], 1, 10,
             false_field="top_factor.unisingular"),
    RangeRun("perm_module_a9", ["embed", "audit", "--group", "a_n", "--n", "9",
                                "--module", "permutation"], 1, 10,
             false_field="top_factor.unisingular"),
    # n = 17 is audit_specht's cap: 297 classes of a 119- or 120-dimensional
    # module, where the battery stops at n = 13.  (n-2,2) takes one rank mod p
    # per class (1-3 s); the hook is read from orbit counts (about 0.1 s).
    # The twisted family fails on the class (15,2) at odd n
    RangeRun("specht_audit_hook_n17", ["specht", "audit", "--n", "17", "--family", "n-2,1,1"],
             0, 120),
    RangeRun("specht_audit_hook_a17", ["specht", "audit", "--n", "17", "--family", "n-2,1,1",
                                       "--group", "a_n"], 0, 120),
    RangeRun("specht_audit_two_n17", ["specht", "audit", "--n", "17", "--family", "n-2,2"], 0, 120),
    RangeRun("specht_audit_twisted_n17", ["specht", "audit", "--n", "17", "--family", "n-2,2'"],
             1, 120),
    RangeRun("specht_audit_twisted_a17", ["specht", "audit", "--n", "17", "--family", "n-2,2'",
                                          "--group", "a_n"], 0, 120),
    # -M = M mod 2, so the twisted family has the factors of (n-2,2)
    RangeRun("mod2_factors_twisted_n7", ["specht", "mod2-factors", "--n", "7", "--family", "n-2,2'",
                                         "--expect-dims", "14"], 0, 60),
    # James's decomposition numbers need no matrix: the module has dimension
    # 4850, which the MeatAxe's DIM_BOUND (256) refused
    RangeRun("mod2_factors_two_n100", ["specht", "mod2-factors", "--n", "100", "--family", "n-2,2",
                                       "--expect-dims", "98,4752"], 0, 60),
    # TABLE_N_MAX is 31; the battery stops at n = 13
    RangeRun("conjecture_table_29_31", ["specht", "conjecture-table", "--n", "29,31"], 0, 60),
    # FIXED_VECTOR_N_MAX is 60; the battery stops at n = 7
    RangeRun("fixed_vector_two_n60", ["specht", "fixed-vector", "--n", "60",
                                      "--cycle-type", "17,13,11,7,5,4,3", "--family", "n-2,2"],
             0, 60),
    RangeRun("fixed_vector_hook_n60", ["specht", "fixed-vector", "--n", "60", "--cycle-type", "60",
                                       "--family", "n-2,1,1"], 0, 60),
    # the battery checks p = 5, 7, 11, 13; at p = 17 the character sums take
    # 17 + 17^2 + 17^3 + 17^4 = 88740 resultants
    RangeRun("lpoly_check_17", ["nt", "lpoly-check", "--a", "1", "--t", "-32", "--primes", "17"],
             0, 120, check=lpoly_is_the_point_count),
]


def main() -> int:
    misses = 0
    for row in RANGE_RUNS:
        t0 = time.time()
        try:
            proc = run(row.argv, timeout=row.timeout)
        except subprocess.TimeoutExpired:
            code, status = "-", f"UNEXPECTED timeout after {row.timeout:g} s"
        else:
            code, status = proc.returncode, check_run(proc, row.expect, row.false_field, row.check)
            if status != "ok":
                sys.stderr.write(proc.stderr)
        misses += status != "ok"
        print(f"{row.name:28s} exit={code} [{time.time()-t0:6.1f}s] {status}")
    print(f"\n{len(RANGE_RUNS) - misses}/{len(RANGE_RUNS)} range runs matched their expected verdict")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
