"""Run reports: JSON payloads with claim anchors.

A report is deterministic for a fixed command and seed (sorted keys, no
timestamps inside the result); wall time is printed alongside but is not part
of the canonical form.
"""

from __future__ import annotations

import json

from . import __version__

# Static registry of the claims each subcommand checks.  Anchor strings name
# the claim being verified; reports carry them so every payload row is
# attributable to a specific checked statement.  A key "<claim>-<group>"
# states what holds for that --group only; other groups get "<claim>".
CLAIMS = {
    "specht-audit-hook": "the (n-2,1,1) Specht module has eigenvalue 1 on every conjugacy class",
    "specht-audit-two": "the (n-2,2) Specht module has eigenvalue 1 on every conjugacy class",
    "specht-audit-twisted": "the sign-twisted (n-2,2)' module fails eigenvalue 1 exactly on the (n-2)-cycle-times-transposition class for odd n",
    "specht-audit-alternating": "restricted to even permutations the twisted module is unisingular",
    "conjecture-table": "det(I-M) on the twisted two-row module at the (n-2,2) class equals 2^(k-1)(2k-1) for n = 2k+1",
    "mod2-factors": "composition factor dimensions of the mod-2 reduction (irreducible exactly at n = 7, 11 for the two-row family, 5 <= n <= 13)",
    "fixed-vector": "an explicit nonzero fixed vector exists for the class representative (mechanized unisingularity witness)",
    "embed-audit": "the symplectic mod-2 embedding of the group is audited for eigenvalue 1 on every class, with irreducibility flags",
    "embed-audit-agl2_3": "the embedded 432-element group at degree 9 is absolutely irreducible and unisingular",
    "embed-audit-pgl2": "the embedded group at degree q+1 fails eigenvalue 1 exactly on the order-q classes when q = 3 mod 4, and on those and the classes of orders (q+1)/2 and q+1 when q = 1 mod 4",
    "perm-module-factors": "the largest composition factor of the group's mod-2 permutation module is absolutely irreducible and unisingular",
    "perm-module-factors-l3_2_flags": "the degree-21 flag permutation module has one 8-dimensional factor, absolutely irreducible and unisingular",
    "embed-census": "the 2-generated subgroups of the group, up to conjugacy, are each flagged irreducible or not on the symplectic mod-2 module",
    "embed-census-agl2_3": "2-generated subgroups acting irreducibly have order set {72, 144, 216, 432} for the degree-9 affine group image",
    "disc-identity": "disc(g_{a,t}) = -2^8 3^9 t^4 a^6 r(a,t)^3 exactly",
    "disc-special": "disc(g_{1,-32}) = -2^58 3^9 and its bad-prime set is {2, 3}",
    "frobenius-scan": "every good prime's Frobenius cycle type has eigenvalue 1 after embedding and occurs in the target group (statistical consistency with the expected image, not a proof of the Galois group)",
    "lpoly-parity": "#J(F_p) = P(1) is even and P reversed mod 2 equals the embedded Frobenius characteristic polynomial",
}


def render(command: list[str], seed: int, anchors: list[str], result: dict,
           wall_time_s: float | None = None) -> str:
    """The JSON report of one run.  Without wall_time_s this is the canonical
    form, the same text for a fixed command and seed."""
    report = {"version": __version__, "command": command, "seed": seed, "anchors": anchors,
              "result": result}
    if wall_time_s is not None:
        report["wall_time_s"] = round(wall_time_s, 3)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
