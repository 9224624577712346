"""The benchmark's workloads: fixed lists of eigenone CLI commands.

Each command runs as ``python -m eigenone <argv> --seed <seed> --jobs 1`` in a
fresh process.  ``expect`` is the exit code of the verdict the command must
reach; ``ref`` names its reference in ``references.json`` and, for a command
of ``scripts/reproduce_all.py``, the battery run it repeats (whose committed
report is ``out/<ref>.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    ref: str
    argv: tuple[str, ...]
    expect: int = 0
    battery: bool = True


def _cmd(ref: str, line: str, expect: int = 0, battery: bool = True) -> Command:
    return Command(ref, tuple(line.split()), expect, battery)


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # Integral Specht layers (specht, intlinalg, audit).  The audits share one
    # shape across many classes, so the per-shape basis is reused; the
    # conjecture table has one class per shape and builds a basis per row.
    "specht-zz": (
        _cmd("conjecture_table", "specht conjecture-table --n 5,7,9,11,13"),
        _cmd("specht_audit_hook_n9", "specht audit --n 9 --family n-2,1,1"),
        _cmd("specht_audit_two_n9", "specht audit --n 9 --family n-2,2"),
        _cmd("specht_audit_twisted_n9", "specht audit --n 9 --family n-2,2'", expect=1),
        _cmd("specht_audit_twisted_a9", "specht audit --n 9 --family n-2,2' --group a_n"),
        _cmd("specht_audit_hook_n13", "specht audit --n 13 --family n-2,1,1", battery=False),
        _cmd("specht_audit_two_n13", "specht audit --n 13 --family n-2,2", battery=False),
        # odd n: the twisted module fails on the (n-2,2) class, so the verdict is "refuted"
        _cmd("specht_audit_twisted_n13", "specht audit --n 13 --family n-2,2'", expect=1,
             battery=False),
        _cmd("conjecture_table_extended", "specht conjecture-table --n 15,17"),
    ),
    # GF(2) and the group machinery (gf2, meataxe, perms, symplectic, the census).
    "gf2-groups": (
        _cmd("census_agl2_3",
             "embed census --group agl2_3 --expect-irreducible-orders 72,144,216,432"),
        _cmd("embed_audit_agl2_3", "embed audit --group agl2_3"),
        _cmd("embed_audit_pgl2_19", "embed audit --group pgl2 --q 19", expect=1),
        _cmd("flag_module_l3_2",
             "embed audit --group l3_2_flags --module permutation --expect-dims 1,3,3,3,3,8"),
        _cmd("mod2_factors_311", "specht mod2-factors --n 5 --family n-2,1,1 --expect-dims 1,1,4"),
        _cmd("mod2_factors_52", "specht mod2-factors --n 7 --family n-2,2 --expect-dims 14"),
        _cmd("fixed_vector_52_hook", "specht fixed-vector --n 7 --cycle-type 5,2 --family n-2,1,1"),
    ),
    # F_p[x] and F_{p^k} arithmetic (arith): degree-9 reductions with large
    # exponents in the scans, degree <= 4 products through Fq.mul in lpoly-check.
    "nt-arith": (
        _cmd("frobenius_scan_g1_m32",
             "nt frobenius-scan --a 1 --t -32 --pmax 10000 --group agl2_3"),
        _cmd("frobenius_scan_g1_1",
             "nt frobenius-scan --a 1 --t 1 --pmax 10000 --group agammal1_9"),
        _cmd("lpoly_check", "nt lpoly-check --a 1 --t -32 --primes 5,7,11,13"),
        _cmd("disc_verify", "nt disc-verify --samples 20"),
    ),
}

# Per-layer metrics that must be nonzero on a workload, by layer prefix; a
# full metric name overrides its layer.  EXPECTED_ZEROS are zero by design
# today (the character route of the integral audit is not in production).
LAYER_WORKLOAD = {
    "specht": "specht-zz",
    "intlinalg": "specht-zz",
    "intlinalg.det_exact.self_s": "nt-arith",
    "audit": "gf2-groups",
    "gf2": "gf2-groups",
    "meataxe": "gf2-groups",
    "perms": "gf2-groups",
    "symplectic": "gf2-groups",
    "arith": "nt-arith",
    "reports": "nt-arith",
}
EXPECTED_ZEROS = {"specht.character_mn.calls"}


# Work units per command kind, for the throughput metrics: (metric, units
# done by one command, read from its result).
RATES = {
    ("specht", "audit"): ("specht_classes_per_s", lambda r: len(r["classes"])),
    ("embed", "census"): ("census_pairs_per_s",
                          lambda r: r["group_order"] * (r["group_order"] + 1) // 2),
    ("nt", "frobenius-scan"): ("frob_primes_per_s", lambda r: len(r["records"])),
    ("nt", "lpoly-check"): ("fq_points_per_s",
                            lambda r: sum(row["p"] ** k for row in r["primes"] for k in range(1, 5))),
}
# The rate reported as the end-to-end ``work_per_s`` of each workload.
PRIMARY_RATE = {
    "specht-zz": "specht_classes_per_s",
    "gf2-groups": "census_pairs_per_s",
    "nt-arith": "frob_primes_per_s",
}


def result_digest(result) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def result_matches(cmd: Command, result: dict, refs: dict) -> bool:
    """Compare a command's result section with its reference.

    disc-verify draws its samples from --seed, so for it the verdict fields
    and the seed-independent special value are checked instead."""
    if cmd.ref != "disc_verify":
        return result_digest(result) == refs.get(cmd.ref)
    samples = result.get("samples", [])
    return (
        result.get("identity_holds") is True
        and len(samples) == 20
        and all(s.get("matches") is True for s in samples)
        and result.get("special", {}).get("matches") is True
        and result_digest(result["special"]) == refs.get("disc_verify.special")
    )
