#!/usr/bin/env python3
"""eigenone benchmark: time to verdict of the CLI on fixed workloads.

Run from the repository root (Python >= 3.10, standard library only):

    python3 perfbench/run.py --workload specht-zz --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

--trace 0  untraced run: the set-up time (``import eigenone.cli`` in fresh
           interpreters), then whole passes over the workload's command list
           for about --seconds; prints the end-to-end metrics.
--trace 1  one untraced pass, then one traced pass in which every command
           runs in its own process under perfbench/traced_cli.py; prints the
           per-layer metrics and trace.overhead_s.

Load model: closed loop with one client.  Commands run one at a time, each
in a fresh interpreter as ``python -m eigenone ... --seed <seed> --jobs 1``.
A command passes when its exit code is the expected verdict and its result
equals the reference in perfbench/references.json; every other command run
counts as failed.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}; the lines before it list every metric with its unit.  Warnings
go to standard error.  The full record of a run (environment, per-command
samples, spans of the traced run) is written to .perfbench/ at the root.
Exit code 2, with no JSON line, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import TARGETS
from workloads import (
    EXPECTED_ZEROS,
    LAYER_WORKLOAD,
    PRIMARY_RATE,
    RATES,
    WORKLOADS,
    Command,
    result_matches,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
COMMAND_TIMEOUT_S = 150
MAX_TIMED_S = 120  # no further pass starts once this much of a run is spent
SETUP_SAMPLES = 15
TRACE_MARK = "PERFBENCH_TRACE "

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "work_per_s": "1/s",
}
PER_LAYER = (
    "specht.action_matrix.calls", "specht.action_matrix.built", "specht.action_matrix.self_s",
    "specht.straighten.calls", "specht.straighten.self_s", "specht.polytabloid_expand.self_s",
    "specht.character_mn.calls",
    "intlinalg.bareiss.calls", "intlinalg.bareiss.self_s", "intlinalg.bareiss.dim_sum",
    "intlinalg.rank_exact.calls", "intlinalg.rank_exact.self_s",
    "intlinalg.IntMatrix.mul.calls", "intlinalg.IntMatrix.mul.self_s",
    "intlinalg.det_exact.self_s",
    "audit.subgroup_census.self_s", "audit.census.subgroups",
    "gf2.BitMatrix.mul.calls", "gf2.BitMatrix.mul.self_s",
    "gf2.rank_nullspace.calls", "gf2.rank_nullspace.self_s",
    "gf2.gf2_charpoly.calls", "gf2.gf2_charpoly.self_s", "gf2.poly_factor.self_s",
    "gf2.matrix_group_closure.calls", "gf2.matrix_group_closure.self_s",
    "gf2.matrix_group_closure.elements",
    "meataxe.is_irreducible.calls", "meataxe.decide.calls", "meataxe.decide.self_s",
    "meataxe.attempts", "meataxe.decisions_per_attempt",
    "meataxe.spin.calls", "meataxe.spin.self_s",
    "perms.closure.calls", "perms.closure.self_s", "perms.closure.elements",
    "perms.PermGroup.conjugacy_classes.self_s",
    "symplectic.embed_permutation.calls", "symplectic.embed_permutation.self_s",
    *(f"arith.{k}.{s}" for k in ("factor_mod_p", "fp_powmod", "fp_divmod", "fp_mul", "fp_trim",
                                 "fp_gcd", "Fq.mul", "Fq.add", "curve_count")
      for s in ("calls", "self_s")),
    "arith.field_modulus.self_s", "arith.disc_resultant.self_s",
    "reports.RunReport.to_json.self_s", "reports.payload_bytes",
    "trace.overhead_s",
)
SIZE_NAMES = {t.metric: t.size_name for t in TARGETS if t.size_name}
COUNT_SUFFIXES = (".calls", ".built", ".elements", ".dim_sum")
EXACT_COUNTS = ("meataxe.attempts", "audit.census.subgroups")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"meataxe.decisions_per_attempt": "ratio", "reports.payload_bytes": "bytes"}.get(name, "count")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    rc: int
    out: str
    err: str
    seconds: float
    maxrss_kib: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str]) -> Proc:
    """Run argv to completion; wall time and peak RSS come from os.wait4."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as p:
        killer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
        killer.start()
        err: list[str] = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        try:
            out = p.stdout.read()
            reader.join()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, out, "".join(err), time.perf_counter() - start, usage.ru_maxrss)


def cli_argv(cmd: Command, seed: int, traced: bool = False) -> list[str]:
    entry = [str(HERE / "traced_cli.py")] if traced else ["-m", "eigenone"]
    return [sys.executable, *entry, *cmd.argv, "--seed", str(seed), "--jobs", "1"]


@dataclass
class Outcome:
    cmd: Command
    proc: Proc
    result: dict | None
    error: str | None


def gate(cmd: Command, proc: Proc, refs: dict, expected_result: dict | None = None) -> Outcome:
    """Correctness gate: the verdict's exit code and the result section."""
    if proc.rc != cmd.expect:
        return Outcome(cmd, proc, None, f"exit {proc.rc}, expected {cmd.expect}")
    try:
        result = json.loads(proc.out)["result"]
    except (ValueError, KeyError, TypeError):
        return Outcome(cmd, proc, None, "no JSON report on stdout")
    if not result_matches(cmd, result, refs):
        return Outcome(cmd, proc, result, "result differs from the reference")
    if expected_result is not None and result != expected_result:
        return Outcome(cmd, proc, result, "traced result differs from the untraced one")
    return Outcome(cmd, proc, result, None)


def measure_setup() -> list[float]:
    """Seconds to ``import eigenone.cli`` in fresh interpreters; the first,
    which may compile bytecode, is not counted."""
    code = ("import time; t = time.perf_counter(); import eigenone.cli; "
            "print(time.perf_counter() - t); print(eigenone.cli.__file__)")
    values = []
    for i in range(SETUP_SAMPLES + 1):
        proc = run_process([sys.executable, "-c", code])
        if proc.rc != 0:
            raise BenchError(f"import eigenone.cli failed:\n{proc.err}")
        seconds, path = proc.out.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"eigenone was imported from {path}, not from {SRC}")
        if i:
            values.append(float(seconds))
    return values


# ---------------------------------------------------------------------------
# statistics and metrics
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    out = {"n": n, "median": statistics.median(s)}
    if n > 10:
        out["tail_pct"] = round(100 * (n - 10) / n, 1)
        out["tail"] = s[n - 11]
    return out


def rate_metrics(outcomes: list[Outcome], seconds_of) -> dict[str, float]:
    """Work units per second of the commands that do them, by rate metric."""
    units: dict[str, float] = {}
    spent: dict[str, float] = {}
    seen = set()
    for o in outcomes:
        rate = RATES.get(o.cmd.argv[:2])
        if rate is None or o.result is None or o.cmd.ref in seen:
            continue
        seen.add(o.cmd.ref)
        name, count = rate
        units[name] = units.get(name, 0) + count(o.result)
        spent[name] = spent.get(name, 0.0) + seconds_of(o.cmd.ref)
    return {name: units[name] / spent[name] for name in units}


def timed_passes(cmds: tuple[Command, ...], seed: int, seconds: float, refs: dict):
    """Whole passes over the command list while the next one fits in `seconds`
    (at least one).  Returns (pass wall times, outcomes in run order)."""
    walls: list[float] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for cmd in cmds:
            outcomes.append(gate(cmd, run_process(cli_argv(cmd, seed)), refs))
        walls.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if spent + statistics.median(walls) > min(seconds, MAX_TIMED_S):
            return walls, outcomes


def untraced_run(workload: str, seed: int, seconds: float, refs: dict) -> tuple[dict, dict]:
    setup = measure_setup()
    walls, outcomes = timed_passes(WORKLOADS[workload], seed, seconds, refs)
    per_cmd = {}
    for o in outcomes:
        per_cmd.setdefault(o.cmd.ref, []).append(o.proc.seconds)
    medians = {ref: statistics.median(v) for ref, v in per_cmd.items()}
    rates = rate_metrics(outcomes, medians.__getitem__)
    failed = sum(o.error is not None for o in outcomes)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": max(o.proc.maxrss_kib for o in outcomes) / 1024,
        "work_per_s": rates.get(PRIMARY_RATE[workload], 0.0),
    }
    record = {
        "passes": len(walls),
        "wall_s": summary(walls),
        "setup_s": summary(setup),
        "commands": {ref: summary(v) for ref, v in per_cmd.items()},
        "rates": rates,
        "failed_frac": failed / len(outcomes),
        "failures": [(o.cmd.ref, o.error) for o in outcomes if o.error],
        "attempted": len(outcomes),
        "failed": failed,
        "correct": failed == 0,
    }
    return metrics, record


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def parse_trace(err: str) -> dict | None:
    for line in reversed(err.splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


def layer_metrics(traces: list[dict], outcomes: list[Outcome]) -> dict[str, float]:
    stats: dict[str, dict] = {}
    for tr in traces:
        for name, s in tr["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "size": 0})
            for key in acc:
                acc[key] += s[key]
    out = {}
    for name in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        s = stats.get(prefix)
        if s is not None and field in ("calls", "self_s"):
            out[name] = s[field]
        elif s is not None and SIZE_NAMES.get(prefix) == field:
            out[name] = s["size"]
        else:
            out[name] = 0
    attempts = stats.get("meataxe.random_algebra_element", {}).get("calls", 0)
    out["meataxe.attempts"] = attempts
    out["meataxe.decisions_per_attempt"] = (
        stats.get("meataxe.decide", {}).get("calls", 0) / attempts if attempts else 0.0)
    out["specht.action_matrix.built"] = sum(tr["matrix_cache_size"] for tr in traces)
    out["audit.census.subgroups"] = sum(
        e["count"] for o in outcomes if o.result and o.cmd.argv[:2] == ("embed", "census")
        for e in o.result["census"])
    out["reports.payload_bytes"] = sum(len(o.proc.out.encode()) for o in outcomes)
    return out


def layer_checks(workload: str, metrics: dict) -> list[str]:
    """Per-layer metrics mapped to this workload that are zero, and expected
    zeros that are not."""
    warnings = []
    for name, value in metrics.items():
        mapped = LAYER_WORKLOAD.get(name) or LAYER_WORKLOAD.get(name.split(".")[0])
        if mapped != workload:
            continue
        if name in EXPECTED_ZEROS and value:
            warnings.append(f"{name} is {value}, listed as an expected zero")
        elif name not in EXPECTED_ZEROS and not value:
            warnings.append(f"{name} is 0 on {workload}, which should exercise it")
    return warnings


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(SRC / "eigenone").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def counts_repeat(workload: str, seed: int, metrics: dict) -> bool | None:
    """Compare the exact counts with the last traced run of the same workload,
    seed and sources in this tree; None when there is none yet."""
    counts = {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES) or k in EXACT_COUNTS}
    path = RECORDS / f"counts-{workload}-seed{seed}.json"
    key = source_digest()
    previous = json.loads(path.read_text()) if path.exists() else None
    path.write_text(json.dumps({"source": key, "counts": counts}, sort_keys=True))
    if previous is None or previous["source"] != key:
        return None
    return previous["counts"] == counts


def traced_run(workload: str, seed: int, refs: dict) -> tuple[dict, dict]:
    cmds = WORKLOADS[workload]
    walls, plain = timed_passes(cmds, seed, 0, refs)
    untraced = {o.cmd.ref: o.result for o in plain}
    outcomes, traces, spans, binding_errors = [], [], {}, set()
    t0 = time.perf_counter()
    for cmd in cmds:
        proc = run_process(cli_argv(cmd, seed, traced=True))
        trace = parse_trace(proc.err)
        o = gate(cmd, proc, refs, untraced[cmd.ref])
        if trace is None and o.error is None:
            o.error = "no trace from the traced runner"
        outcomes.append(o)
        if trace is not None:
            traces.append(trace)
            spans[cmd.ref] = trace["spans"]
            binding_errors.update(trace["binding_errors"])
    traced_wall = time.perf_counter() - t0
    metrics = layer_metrics(traces, outcomes)
    metrics["trace.overhead_s"] = traced_wall - walls[0]
    repeat = counts_repeat(workload, seed, metrics)
    all_outcomes = plain + outcomes
    failures = [(o.cmd.ref, o.error) for o in all_outcomes if o.error]
    record = {
        "untraced_wall_s": walls[0],
        "traced_wall_s": traced_wall,
        "counts_repeat": repeat,
        "layer_warnings": layer_checks(workload, metrics),
        "binding_errors": sorted(binding_errors),
        "bindings": traces[0]["bindings"] if traces else {},
        "missing_targets": traces[0]["missing"] if traces else [],
        "spans": spans,
        "failures": failures,
        "attempted": len(all_outcomes),
        "failed": len(failures),
        "correct": not failures and repeat is not False,
    }
    return metrics, record


# ---------------------------------------------------------------------------
# environment, coverage, guards
# ---------------------------------------------------------------------------

def git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "loadavg": list(os.getloadavg()),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


def battery_runs() -> dict[str, tuple]:
    """Name -> argv of each run in scripts/reproduce_all.py, read with ast;
    argv entries that are not literals become None, and --jobs is dropped."""
    path = ROOT / "scripts" / "reproduce_all.py"
    if not path.exists():
        return {}
    runs = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[0], ast.Constant) and isinstance(node.elts[0].value, str)
                and isinstance(node.elts[1], ast.List)):
            argv = [e.value if isinstance(e, ast.Constant) else None for e in node.elts[1].elts]
            if "--jobs" in argv:
                i = argv.index("--jobs")
                del argv[i:i + 2]
            runs[node.elts[0].value] = tuple(argv)
    return runs


def coverage(workload: str) -> dict:
    runs = battery_runs()

    def covers(cmd: Command) -> bool:
        argv = runs.get(cmd.ref) if cmd.battery else None
        return argv is not None and len(argv) == len(cmd.argv) and all(
            a is None or a == b for a, b in zip(argv, cmd.argv))

    covered = {w: [c.ref for c in cmds if covers(c)] for w, cmds in WORKLOADS.items()}
    everywhere = {ref for refs in covered.values() for ref in refs}
    return {
        "covers": covered[workload],
        "drifted": [c.ref for c in WORKLOADS[workload] if c.battery and not covers(c)],
        "uncovered": sorted(set(runs) - everywhere),
    }


def check_runnable() -> None:
    if sys.flags.optimize > 0:
        raise BenchError("refusing to run under python -O: the asserts that check "
                         "the claims would be stripped, so a different program would be timed")
    if not (SRC / "eigenone" / "cli.py").is_file():
        raise BenchError(f"no eigenone sources under {SRC}")


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    RECORDS.mkdir(exist_ok=True)
    env = environment()
    cov = coverage(workload)
    for ref in cov["drifted"]:
        print(f"warning: {workload} command {ref} no longer matches reproduce_all.py", file=sys.stderr)
    for ref in cov["uncovered"]:
        print(f"warning: reproduce_all.py run {ref} is covered by no workload", file=sys.stderr)
    if trace:
        metrics, record = traced_run(workload, seed, refs)
        units = {name: per_layer_unit(name) for name in metrics}
        for w in record["layer_warnings"] + record["binding_errors"]:
            print(f"warning: {w}", file=sys.stderr)
    else:
        metrics, record = untraced_run(workload, seed, seconds, refs)
        units = dict(END_TO_END)
    for ref, error in record["failures"]:
        print(f"FAILED {workload} {ref}: {error}", file=sys.stderr)
    record.update(workload=workload, seed=seed, trace=int(trace), environment=env, coverage=cov,
                  metrics={name: {"value": v, "unit": units[name]} for name, v in metrics.items()})
    (RECORDS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"== {workload} seed={seed} trace={int(trace)} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} load={env['loadavg'][0]:.2f} "
          f"commit={env['git_commit']} dirty={env['git_dirty']}")
    print(f"   covers reproduce_all runs: {', '.join(cov['covers']) or '-'}")
    if not trace:
        extra = {name: (v, "1/s") for name, v in record["rates"].items()}
        extra["failed_frac"] = (record["failed_frac"], "ratio")
        print(f"   passes={record['passes']} setup samples={record['setup_s']['n']}")
        for ref, s in record["commands"].items():
            print(f"   {ref:28s} {s['median']:9.3f} s  (n={s['n']})")
        rows = [(n, v, units[n]) for n, v in metrics.items()]
        rows += [(n, v, u) for n, (v, u) in extra.items()]
    else:
        rows = [(n, v, units[n]) for n, v in metrics.items()]
        print(f"   counts repeat: {record['counts_repeat']}")
        if record["counts_repeat"] is False:
            print(f"FAILED {workload}: exact counts differ from the last traced run", file=sys.stderr)
    for name, value, unit in rows:
        print(f"   {name:44s} {value:14.6g} {unit}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        check_runnable()
        refs = json.loads((HERE / "references.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), refs) for w in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
