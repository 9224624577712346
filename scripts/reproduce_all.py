#!/usr/bin/env python3
"""Run the full verification battery through the CLI and write one JSON
report per claim into out/ (created next to the repo root).

Usage: python scripts/reproduce_all.py [--pmax N] [--jobs N]
"""

import argparse
import json
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent.parent
OUT = HERE / "out"

RUNS = [
    ("conjecture_table", ["specht", "conjecture-table", "--n", "5,7,9,11,13"], 0),
    ("conjecture_table_extended", ["specht", "conjecture-table", "--n", "15,17"], 0),
    ("specht_audit_hook_n9", ["specht", "audit", "--n", "9", "--family", "n-2,1,1"], 0),
    ("specht_audit_two_n9", ["specht", "audit", "--n", "9", "--family", "n-2,2"], 0),
    ("specht_audit_twisted_n9", ["specht", "audit", "--n", "9", "--family", "n-2,2'"], 1),
    ("specht_audit_twisted_a9", ["specht", "audit", "--n", "9", "--family", "n-2,2'", "--group", "a_n"], 0),
    ("mod2_factors_311", ["specht", "mod2-factors", "--n", "5", "--family", "n-2,1,1", "--expect-dims", "1,1,4"], 0),
    ("mod2_factors_52", ["specht", "mod2-factors", "--n", "7", "--family", "n-2,2", "--expect-dims", "14"], 0),
    ("fixed_vector_52_hook", ["specht", "fixed-vector", "--n", "7", "--cycle-type", "5,2", "--family", "n-2,1,1"], 0),
    ("embed_audit_agl2_3", ["embed", "audit", "--group", "agl2_3"], 0),
    ("embed_audit_pgl2_19", ["embed", "audit", "--group", "pgl2", "--q", "19"], 1),
    ("flag_module_l3_2", ["embed", "audit", "--group", "l3_2_flags", "--module", "permutation",
                          "--expect-dims", "1,3,3,3,3,8"], 0),
    ("census_agl2_3", ["embed", "census", "--group", "agl2_3",
                       "--expect-irreducible-orders", "72,144,216,432"], 0),
    ("disc_verify", ["nt", "disc-verify", "--samples", "20"], 0),
    ("lpoly_check", ["nt", "lpoly-check", "--a", "1", "--t", "-32", "--primes", "5,7,11,13"], 0),
]


def check_run(proc: subprocess.CompletedProcess, expect: int) -> str:
    """"ok" when the run exited with the expected verdict and printed a report
    that agrees with it; a crash also exits 1, so a refutation must say so."""
    if proc.returncode != expect:
        return f"UNEXPECTED exit {proc.returncode} (wanted {expect})"
    try:
        result = json.loads(proc.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "UNEXPECTED output: no JSON report on stdout"
    if not isinstance(result, dict):
        return "UNEXPECTED output: report has no result object"
    if expect == 1 and result.get("unisingular") is not False:
        return 'UNEXPECTED report: exit 1 without result["unisingular"] == false'
    return "ok"


def battery(pmax: int = 10**4, jobs: int = 1) -> list[tuple[str, list[str], int]]:
    """(report name, CLI argv, expected exit code) of every run; the committed
    reports in out/ are those of the defaults."""
    runs = list(RUNS)
    runs.append((
        "frobenius_scan_g1_m32",
        ["nt", "frobenius-scan", "--a", "1", "--t", "-32", "--pmax", str(pmax),
         "--group", "agl2_3", "--jobs", str(jobs)], 0))
    runs.append((
        "frobenius_scan_g1_1",
        ["nt", "frobenius-scan", "--a", "1", "--t", "1", "--pmax", str(pmax),
         "--group", "agammal1_9", "--jobs", str(jobs)], 0))
    return runs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pmax", type=int, default=10**4)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    runs = battery(args.pmax, args.jobs)
    OUT.mkdir(exist_ok=True)
    failures = 0
    for name, argv, expect in runs:
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-m", "eigenone"] + argv, capture_output=True, text=True
        )
        dest = OUT / f"{name}.json"
        if proc.stdout.strip():
            dest.write_text(proc.stdout)
        status = check_run(proc, expect)
        if status != "ok":
            failures += 1
            sys.stderr.write(proc.stderr)
        print(f"{name:32s} exit={proc.returncode} [{time.time()-t0:6.1f}s] {status}")
    print(f"\n{len(runs) - failures}/{len(runs)} runs matched their expected verdict; reports in {OUT}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
