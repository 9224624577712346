"""Run reports: canonical JSON payloads with claim anchors.

Payloads are deterministic for a fixed command and seed (sorted keys, no
timestamps inside the result); wall time is reported alongside but excluded
from the canonical bytes.
"""

from __future__ import annotations

import json

from . import __version__

# Static registry of the claims each subcommand checks.  Anchor strings name
# the claim being verified; reports carry them so every payload row is
# attributable to a specific checked statement.
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
    "perm-module-factors": "the degree-21 flag permutation module has one 8-dimensional factor, absolutely irreducible and unisingular",
    "embed-census": "2-generated subgroups acting irreducibly have order set {72, 144, 216, 432} for the degree-9 affine group image",
    "disc-identity": "disc(g_{a,t}) = -2^8 3^9 t^4 a^6 r(a,t)^3 exactly",
    "disc-special": "disc(g_{1,-32}) = -2^58 3^9 and its bad-prime set is {2, 3}",
    "frobenius-scan": "every good prime's Frobenius cycle type has eigenvalue 1 after embedding and occurs in the target group (statistical consistency with the expected image, not a proof of the Galois group)",
    "lpoly-parity": "#J(F_p) = P(1) is even and P reversed mod 2 equals the embedded Frobenius characteristic polynomial",
}


class RunReport:
    __slots__ = ("command", "seed", "anchors", "result", "wall_time_s", "version")

    def __init__(self, command: list[str], seed: int, anchors: list[str], result: dict,
                 wall_time_s: float = 0.0, version: str = __version__):
        self.command = command
        self.seed = seed
        self.anchors = anchors
        self.result = result
        self.wall_time_s = wall_time_s
        self.version = version

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "version": self.version,
            "command": self.command,
            "seed": self.seed,
            "anchors": self.anchors,
            "result": self.result,
        }
        if include_wall_time:
            out["wall_time_s"] = round(self.wall_time_s, 3)
        return out

    def to_json(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_time), sort_keys=True, separators=(",", ":"))

    def canonical_bytes(self) -> bytes:
        """Deterministic bytes for a fixed command and seed (no timings)."""
        return self.to_json(include_wall_time=False).encode()
