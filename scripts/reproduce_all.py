#!/usr/bin/env python3
"""Run the full verification battery through the CLI and compare each JSON
report with the committed one in out/ (next to the repo root).

Usage: python scripts/reproduce_all.py

Reports are compared without their wall_time_s.  Only a report that differs
from out/<name>.json (or has none there) is written, so a clean run leaves
the tree clean and a changed result shows in `git diff out/`.  Exit 1 when a
run misses its expected verdict or a report differs; both are named.
"""

import json
import os
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
    ("frobenius_scan_g1_m32", ["nt", "frobenius-scan", "--a", "1", "--t", "-32", "--pmax", "10000",
                               "--group", "agl2_3", "--jobs", "1"], 0),
    ("frobenius_scan_g1_1", ["nt", "frobenius-scan", "--a", "1", "--t", "1", "--pmax", "10000",
                             "--group", "agammal1_9", "--jobs", "1"], 0),
]


def child_env() -> dict:
    """The caller's environment with this checkout's src/ first on the import
    path, so every run uses the checkout's code, installed or not."""
    path = [str(HERE / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run(argv: list[str], timeout: float | None = None) -> subprocess.CompletedProcess:
    """One command in a fresh interpreter; past `timeout` seconds the child is
    killed and subprocess.TimeoutExpired raised."""
    return subprocess.run(
        [sys.executable, "-m", "eigenone"] + argv, capture_output=True, text=True, env=child_env(),
        timeout=timeout,
    )


def check_run(proc: subprocess.CompletedProcess, expect: int, false_field: str = "unisingular",
              check=None) -> str:
    """"ok" when the run exited with the expected verdict and printed a report
    that agrees with it; a crash also exits 1, so a refutation must say so:
    the result's `false_field` (dotted for a nested field) must read false.
    `check`, if given, is a predicate the result must also satisfy."""
    if proc.returncode != expect:
        return f"UNEXPECTED exit {proc.returncode} (wanted {expect})"
    try:
        result = json.loads(proc.stdout)["result"]
    except (ValueError, KeyError, TypeError):
        return "UNEXPECTED output: no JSON report on stdout"
    if not isinstance(result, dict):
        return "UNEXPECTED output: report has no result object"
    if expect == 1:
        value = result
        for key in false_field.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if value is not False:
            return f"UNEXPECTED report: exit 1 without result.{false_field} == false"
    if check is not None and not check(result):
        return f"UNEXPECTED result: {check.__name__} does not hold"
    return "ok"


def canonical(text: str) -> str | None:
    """A JSON report without its wall_time_s, in the form of
    eigenone.reports.render called without wall_time_s; None when text is no
    JSON report."""
    try:
        report = json.loads(text)
    except ValueError:
        return None
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def main() -> int:
    OUT.mkdir(exist_ok=True)
    failures = 0
    differ = []
    for name, argv, expect in RUNS:
        t0 = time.time()
        proc = run(argv)
        dest = OUT / f"{name}.json"
        report = canonical(proc.stdout)
        if report is not None and (not dest.exists() or canonical(dest.read_text()) != report):
            dest.write_text(proc.stdout)
            differ.append(name)
        status = check_run(proc, expect)
        if status != "ok":
            failures += 1
            sys.stderr.write(proc.stderr)
        print(f"{name:32s} exit={proc.returncode} [{time.time()-t0:6.1f}s] {status}")
    print(f"\n{len(RUNS) - failures}/{len(RUNS)} runs matched their expected verdict")
    if differ:
        print(f"{len(differ)} reports differ from {OUT}/ and were written there: {', '.join(differ)}")
    else:
        print(f"every report equals its committed copy in {OUT}/")
    return 1 if failures or differ else 0


if __name__ == "__main__":
    sys.exit(main())
