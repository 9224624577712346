"""Layer tracer for one eigenone process, installed from outside the package.

Every target below is wrapped where it is defined and rebound in every
``eigenone.*`` module namespace that imported it by name, so calls through
``from .gf2 import rank_nullspace`` are counted as well.  Each wrapped call
keeps a frame on one call stack; a name's self time is its total time minus
the time of wrapped calls made inside it.  Hot kernels are only aggregated
(calls, total, self, size); layer entry points also keep one span each
(name, start, end, enclosing span).  Nothing is written until ``export``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _len_arg0(args, result) -> int:
    return len(args[0])


def _len_result(args, result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    metric: str  # per-layer metric prefix, e.g. "gf2.BitMatrix.mul"
    module: str  # module under eigenone, e.g. "gf2"
    attr: str  # "function" or "Class.method"
    span: bool = False  # layer entry point: keep one span per call
    size: Callable | None = None  # (args, result) -> number, summed per call
    size_name: str = ""


TARGETS = (
    Target("cli.command", "cli", "main", span=True),
    # specht
    Target("specht.action_matrix", "specht", "action_matrix"),
    Target("specht.straighten", "specht", "straighten"),
    Target("specht.polytabloid_expand", "specht", "polytabloid_expand"),
    Target("specht.character_mn", "specht", "character_mn"),
    Target("specht.rep_mod2", "specht", "rep_mod2", span=True),
    # intlinalg
    Target("intlinalg.bareiss", "intlinalg", "_bareiss", size=_len_arg0, size_name="dim_sum"),
    Target("intlinalg.rank_exact", "intlinalg", "rank_exact"),
    Target("intlinalg.det_exact", "intlinalg", "det_exact"),
    Target("intlinalg.IntMatrix.mul", "intlinalg", "IntMatrix.__mul__"),
    # audit
    Target("audit.audit_specht", "audit", "audit_specht", span=True),
    Target("audit.conjecture_table", "audit", "conjecture_table", span=True),
    Target("audit.audit_embedded_group", "audit", "audit_embedded_group", span=True),
    Target("audit.subgroup_census", "audit", "subgroup_census", span=True),
    # gf2
    Target("gf2.BitMatrix.mul", "gf2", "BitMatrix.__mul__"),
    Target("gf2.rank_nullspace", "gf2", "rank_nullspace"),
    Target("gf2.gf2_charpoly", "gf2", "gf2_charpoly"),
    Target("gf2.poly_factor", "gf2", "poly_factor"),
    Target("gf2.matrix_group_closure", "gf2", "matrix_group_closure", span=True,
           size=_len_result, size_name="elements"),
    # meataxe
    Target("meataxe.composition_factors", "meataxe", "composition_factors", span=True),
    Target("meataxe.is_irreducible", "meataxe", "is_irreducible", span=True),
    Target("meataxe.is_absolutely_irreducible", "meataxe", "is_absolutely_irreducible", span=True),
    Target("meataxe.decide", "meataxe", "_decide"),
    Target("meataxe.random_algebra_element", "meataxe", "_random_algebra_element"),
    Target("meataxe.spin", "meataxe", "spin"),
    # perms
    Target("perms.closure", "perms", "closure", span=True, size=_len_result, size_name="elements"),
    Target("perms.PermGroup.conjugacy_classes", "perms", "PermGroup.conjugacy_classes", span=True),
    # symplectic
    Target("symplectic.embed_permutation", "symplectic", "embed_permutation"),
    Target("symplectic.embed_group", "symplectic", "embed_group", span=True),
    # fixed_vectors
    Target("fixed_vectors.build_fixed_vector", "fixed_vectors", "build_fixed_vector", span=True),
    # arith
    Target("arith.frobenius_scan", "arith", "frobenius_scan", span=True),
    Target("arith.lpoly_from_counts", "arith", "lpoly_from_counts", span=True),
    Target("arith.factor_mod_p", "arith", "factor_mod_p"),
    Target("arith.fp_powmod", "arith", "fp_powmod"),
    Target("arith.fp_divmod", "arith", "fp_divmod"),
    Target("arith.fp_mul", "arith", "fp_mul"),
    Target("arith.fp_trim", "arith", "fp_trim"),
    Target("arith.fp_gcd", "arith", "fp_gcd"),
    Target("arith.Fq.mul", "arith", "Fq.mul"),
    Target("arith.Fq.add", "arith", "Fq.add"),
    Target("arith.curve_count", "arith", "curve_count", span=True),
    Target("arith.field_modulus", "arith", "field_modulus"),
    Target("arith.disc_resultant", "arith", "disc_resultant", span=True),
    # reports
    Target("reports.RunReport.to_json", "reports", "RunReport.to_json", span=True),
)

# Bindings that must point at the wrapper after install: names imported into
# another module's namespace.  A missing attribute is skipped (the code moved).
EXPECTED_REBINDINGS = (
    ("audit", "_bareiss"), ("audit", "rank_exact"), ("audit", "action_matrix"),
    ("audit", "gf2_charpoly"), ("audit", "rank_nullspace"),
    ("meataxe", "gf2_charpoly"), ("meataxe", "rank_nullspace"), ("meataxe", "poly_factor"),
    ("arith", "gf2_charpoly"), ("arith", "rank_nullspace"), ("arith", "det_exact"),
    ("arith", "embed_permutation"),
    ("cli", "frobenius_scan"), ("cli", "matrix_group_closure"), ("cli", "rank_nullspace"),
    ("cli", "subgroup_census"), ("cli", "disc_resultant"),
    ("fixed_vectors", "straighten"), ("fixed_vectors", "rank_exact"),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # metric -> [calls, total_s, self_s, size]
        self.stack: list[list] = []  # frames: [child_s, span_index or None]
        self.spans: list[list] = []  # [name, start_s, end_s, parent span index]
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.originals: dict[int, str] = {}  # id of each wrapped original -> metric
        self.wrappers: set[int] = set()
        self.t0 = time.perf_counter()

    def wrap(self, target: Target, fn):
        stat = self.stats.setdefault(target.metric, [0, 0.0, 0.0, 0])
        stack, spans, clock, size = self.stack, self.spans, time.perf_counter, target.size
        name, keep_span = target.metric, target.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if keep_span:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, self._enclosing_span()])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep_span:
                    spans[frame[1]][1:3] = [start - self.t0, start + elapsed - self.t0]
            if size is not None:
                stat[3] += size(args, result)
            return result

        return traced

    def _enclosing_span(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "eigenone" or n.startswith("eigenone.")) and m is not None]
        for target in TARGETS:
            try:
                owner = importlib.import_module(f"eigenone.{target.module}")
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.metric)
                continue
            wrapper = self.wrap(target, original)
            self.originals[id(original)] = target.metric
            self.wrappers.add(id(wrapper))
            setattr(owner, attr, wrapper)
            bound = [target.module]
            if not path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            if mod.__name__ != f"eigenone.{target.module}":
                                bound.append(mod.__name__.removeprefix("eigenone."))
            self.bindings[target.metric] = bound

    def binding_errors(self) -> list[str]:
        """Names in the package that still reach an unwrapped target."""
        errors = []
        for n, mod in list(sys.modules.items()):
            if mod is None or not (n == "eigenone" or n.startswith("eigenone.")):
                continue
            for key, value in vars(mod).items():
                if id(value) in self.originals:
                    errors.append(f"{n}.{key} still reaches {self.originals[id(value)]} unwrapped")
        for module, attr in EXPECTED_REBINDINGS:
            value = getattr(sys.modules.get(f"eigenone.{module}"), attr, None)
            if value is not None and id(value) not in self.wrappers:
                errors.append(f"eigenone.{module}.{attr} is not wrapped")
        return errors

    def export(self) -> dict:
        return {
            "stats": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2], "size": s[3]}
                for name, s in self.stats.items()
            },
            "spans": self.spans,
            "bindings": self.bindings,
            "missing": self.missing,
        }
