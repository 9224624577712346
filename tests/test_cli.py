import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from eigenone.cli import main
from eigenone.reports import CLAIMS, render

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_conjecture_table_verified(capsys):
    code, out = run_cli(capsys, "specht", "conjecture-table", "--n", "5,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_match"] is True
    vals = [r["det_one_minus"] for r in payload["result"]["rows"]]
    assert vals == ["6", "20"]
    assert payload["anchors"]


def test_specht_audit_twisted_refuted(capsys):
    code, out = run_cli(capsys, "specht", "audit", "--n", "5", "--family", "n-2,2'")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["offenders"] == ["3,2"]


def test_specht_audit_alternating_verified(capsys):
    code, out = run_cli(capsys, "specht", "audit", "--n", "5", "--family", "n-2,2'", "--group", "a_n")
    assert code == 0


def test_embed_audit_agl2_3(capsys):
    code, out = run_cli(capsys, "embed", "audit", "--group", "agl2_3")
    assert code == 0
    payload = json.loads(out)
    res = payload["result"]
    assert res["unisingular"] and res["irreducible"] and res["absolutely_irreducible"]
    assert res["group_order"] == 432


def test_embed_audit_pgl2_19_refuted(capsys):
    code, out = run_cli(capsys, "embed", "audit", "--group", "pgl2", "--q", "19")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"]["offenders"] == ["19,1"]


def test_mod2_factors(capsys):
    code, out = run_cli(capsys, "specht", "mod2-factors", "--n", "5", "--family", "n-2,1,1",
                        "--expect-dims", "1,1,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["factor_dims"] == [1, 1, 4]


@pytest.mark.parametrize("n", range(5, 9))
def test_mod2_factors_of_the_twist_are_those_of_the_two_row_family(capsys, n):
    # the sign twist is -M = M mod 2, so both families have the same factors
    dims = []
    for family in ("n-2,2", "n-2,2'"):
        code, out = run_cli(capsys, "specht", "mod2-factors", "--n", str(n), "--family", family)
        assert code == 0
        dims.append(json.loads(out)["result"]["factor_dims"])
    assert dims[0] == dims[1], n


def test_fixed_vector(capsys):
    code, out = run_cli(capsys, "specht", "fixed-vector", "--n", "7", "--cycle-type", "5,2",
                        "--family", "n-2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["nonzero"] is True


def test_fixed_vector_bad_cycle_type(capsys):
    code, _ = run_cli(capsys, "specht", "fixed-vector", "--n", "7", "--cycle-type", "5,3")
    assert code == 2


def test_nt_disc_verify(capsys):
    code, out = run_cli(capsys, "nt", "disc-verify", "--samples", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["special"]["bad_primes"] == [2, 3]


def test_nt_lpoly_check(capsys):
    code, out = run_cli(capsys, "nt", "lpoly-check", "--a", "1", "--t", "-32", "--primes", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["primes"][0]["even"] is True


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "specht", "conjecture-table", "--n", "5", "--seed", "7")
    _, out2 = run_cli(capsys, "specht", "conjecture-table", "--n", "5", "--seed", "7")
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("wall_time_s"), p2.pop("wall_time_s")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_specht_audit_n_range(capsys):
    code, _ = run_cli(capsys, "specht", "audit", "--n", "14", "--family", "hook")
    assert code == 0
    assert main(["specht", "audit", "--n", "18", "--family", "hook"]) == 2
    assert capsys.readouterr().err == "error: n=18 outside supported range 5..17\n"


def test_embed_audit_payload_has_group_and_space(capsys):
    code, out = run_cli(capsys, "embed", "audit", "--group", "asl2_3")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["group"]["degree"] == 9
    assert all("(" in g for g in res["group"]["generators"])
    assert res["space"]["d"] == 9 and res["space"]["dim"] == 8
    assert len(res["space"]["gram_hex_rows"]) == 8


@pytest.mark.parametrize("verb", ["audit", "census"])
@pytest.mark.parametrize("group,flag", [("pgl2", "--q"), ("s_n", "--n"), ("a_n", "--n")])
def test_embed_group_missing_parameter(capsys, verb, group, flag):
    code = main(["embed", verb, "--group", group])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --group {group} requires {flag}\n"


def test_closure_overflow_is_usage_error(capsys, monkeypatch):
    import eigenone.perms

    def no_closure(*args, **kwargs):
        raise AssertionError("S_10 must be refused from its order, before closing")

    monkeypatch.setattr(eigenone.perms, "CLOSURE_BOUND", 1000)
    monkeypatch.setattr(eigenone.perms.IndexedGroup, "__init__", no_closure)
    code = main(["embed", "audit", "--group", "s_n", "--n", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: closure exceeded bound 1000\n"


TOP_FACTOR_GROUPS = [
    ("l3_2_flags", {}), ("agl2_3", {}), ("pgl2", {"q": 5}), ("pgl2", {"q": 7}),
    ("s_n", {"n": 4}), ("s_n", {"n": 5}), ("a_n", {"n": 4}),
]


@pytest.mark.parametrize("group,params", TOP_FACTOR_GROUPS,
                         ids=[f"{g}{p}" for g, p in TOP_FACTOR_GROUPS])
def test_top_factor_matches_the_closed_factor_matrices(capsys, group, params):
    # the flag route reads the factor on G's classes; the oracle closes the
    # factor's own matrices.  S_4 and A_4 act with the Klein four-group as kernel
    from eigenone.perms import builtin_group
    from oracles import top_factor_by_matrices

    flags = [s for k, v in params.items() for s in (f"--{k}", str(v))]
    main(["embed", "audit", "--group", group, *flags, "--module", "permutation"])
    top = json.loads(capsys.readouterr().out)["result"]["top_factor"]
    G = builtin_group(group, **params)
    assert top == top_factor_by_matrices(G)
    assert top["group_size"] == {"s_4": 6, "a_4": 3}.get(G.name, G.order())


def load_script(name):
    """scripts/<name>.py as a module, loaded as the script runs: with
    scripts/ first on the import path."""
    import importlib.util

    scripts = str(ROOT / "scripts")
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    sys.path.insert(0, scripts)
    try:
        spec.loader.exec_module(script)
    finally:
        sys.path.remove(scripts)
    return script


def test_reproduce_all_rejects_crash_as_refutation(monkeypatch, capsys):
    script = load_script("reproduce_all")

    def run(code, out):
        return subprocess.CompletedProcess([], code, stdout=out, stderr="")

    refuted = json.dumps({"result": {"unisingular": False}})
    assert script.check_run(run(1, refuted), 1) == "ok"
    assert script.check_run(run(1, ""), 1) != "ok"  # a traceback also exits 1
    assert script.check_run(run(1, json.dumps({"result": {"unisingular": True}})), 1) != "ok"
    assert script.check_run(run(0, refuted), 1) != "ok"
    assert script.check_run(run(0, json.dumps({"result": {"all_match": True}})), 0) == "ok"
    # the battery's refutations read "unisingular" and no other field
    assert script.check_run(run(1, json.dumps({"result": {"all_types_in_group": False}})), 1) != "ok"

    # the range runner judges each exit-1 row by the same rule, on the field
    # the row names
    ranges = load_script("range_runs")
    refuting = [row for row in ranges.RANGE_RUNS if row.expect == 1]
    assert {row.false_field for row in refuting} == {
        "unisingular", "top_factor.unisingular", "all_types_in_group"}
    for row in refuting:
        *outer, last = row.false_field.split(".")
        result = {last: False}
        for key in reversed(outer):
            result = {key: result}
        outputs = [("", False), (json.dumps({"result": {}}), False),
                   (json.dumps({"result": {"verdict": False}}), False),
                   (json.dumps({"result": result}), True)]
        for out, passes in outputs:
            monkeypatch.setattr(ranges, "RANGE_RUNS", [row])
            monkeypatch.setattr(ranges, "run", lambda argv, timeout: run(1, out))
            assert ranges.main() == (0 if passes else 1), (row.name, out)
    capsys.readouterr()


def test_range_runs_leave_the_battery_alone():
    # a range run is not a battery run, so perfbench's coverage check, which
    # reads every (str, list) tuple of reproduce_all.py, never sees one
    battery = load_script("reproduce_all")
    ranges = load_script("range_runs")

    def without_jobs(argv):
        argv = list(argv)
        if "--jobs" in argv:
            i = argv.index("--jobs")
            del argv[i:i + 2]
        return tuple(argv)

    battery_argvs = {without_jobs(argv) for _, argv, _ in battery.RUNS}
    names = [row.name for row in ranges.RANGE_RUNS]
    assert len(set(names)) == len(names)
    assert not set(names) & {name for name, _, _ in battery.RUNS}
    for row in ranges.RANGE_RUNS:
        assert without_jobs(row.argv) not in battery_argvs, row.name
        assert row.expect in (0, 1), row.name
        assert row.timeout > 0, row.name
    tree = ast.parse((ROOT / "scripts" / "reproduce_all.py").read_text())
    tuples = [node.elts[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Tuple) and len(node.elts) >= 2
              and isinstance(node.elts[0], ast.Constant) and isinstance(node.elts[1], ast.List)]
    assert tuples == [name for name, _, _ in battery.RUNS]


def test_range_runs_exit_1_on_a_missed_verdict(monkeypatch, capsys):
    ranges = load_script("range_runs")
    [row] = [row for row in ranges.RANGE_RUNS if row.name == "mod2_factors_two_n100"]
    monkeypatch.setattr(ranges, "RANGE_RUNS", [row])
    assert ranges.main() == 0
    monkeypatch.setattr(ranges, "RANGE_RUNS", [row._replace(expect=1 - row.expect)])
    assert ranges.main() == 1
    assert "UNEXPECTED exit 0 (wanted 1)" in capsys.readouterr().out
    # a run that outlives its timeout is killed and counted as a miss
    monkeypatch.setattr(ranges, "RANGE_RUNS", [row._replace(timeout=0.001)])
    assert ranges.main() == 1
    assert "UNEXPECTED timeout" in capsys.readouterr().out


def test_range_run_checks_compare_the_result():
    # the p = 17 row's L-polynomial is compared, not asserted, so python -O
    # keeps the comparison
    ranges = load_script("range_runs")
    [row] = [row for row in ranges.RANGE_RUNS if row.check is not None]
    L = "1,8,48,200,866,3400,13872,39304,83521".split(",")
    assert row.check({"primes": [{"p": 17, "lpoly": L}]})
    assert not row.check({"primes": [{"p": 17, "lpoly": L[:-1] + ["83522"]}]})
    assert not row.check({"primes": []})
    assert not row.check({})


def test_reproduce_all_runs_the_checkout(monkeypatch, tmp_path):
    # with no install and no PYTHONPATH, from any directory, the battery's
    # children import eigenone from this checkout's src/
    script = load_script("reproduce_all")
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    assert script.child_env()["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
    proc = script.run(["nt", "disc-verify", "--samples", "1"])
    assert proc.returncode == 0, proc.stderr
    assert script.check_run(proc, 0) == "ok"


def test_reproduce_all_writes_only_reports_that_differ(monkeypatch, tmp_path, capsys):
    script = load_script("reproduce_all")
    monkeypatch.setattr(script, "OUT", tmp_path)
    monkeypatch.setattr(script, "RUNS", [("disc", ["nt", "disc-verify", "--samples", "1"], 0)])
    dest = tmp_path / "disc.json"
    assert script.main() == 1  # no committed copy yet: written and named
    assert "disc" in capsys.readouterr().out.splitlines()[-1]
    committed = json.loads(dest.read_text())
    committed["wall_time_s"] = -1.0  # the wall time is not compared
    dest.write_text(json.dumps(committed))
    assert script.main() == 0
    assert json.loads(dest.read_text())["wall_time_s"] == -1.0  # left as it was
    committed["result"]["identity_holds"] = False
    dest.write_text(json.dumps(committed))
    assert script.main() == 1
    assert json.loads(dest.read_text())["result"]["identity_holds"] is True


REPRODUCE_ALL = load_script("reproduce_all")


@pytest.mark.parametrize("name,argv,expect", REPRODUCE_ALL.RUNS,
                         ids=[name for name, _, _ in REPRODUCE_ALL.RUNS])
def test_battery_report_equals_the_committed_one(capsys, name, argv, expect):
    # each battery command, run in this process, reaches its expected verdict
    # and prints out/<name>.json but for the wall time
    code, out = run_cli(capsys, *argv)
    assert code == expect
    committed = (ROOT / "out" / f"{name}.json").read_text()
    assert REPRODUCE_ALL.canonical(out) == REPRODUCE_ALL.canonical(committed)


def test_committed_reports_match_the_battery():
    # each out/<name>.json is what reproduce_all.py writes for <name> at its
    # defaults: the same command, and anchors that are current claims
    battery = {name: argv for name, argv, _ in load_script("reproduce_all").RUNS}
    claims = set(CLAIMS.values())
    reports = sorted((ROOT / "out").glob("*.json"))
    assert reports
    for path in reports:
        report = json.loads(path.read_text())
        assert report["command"] == battery.get(path.stem), path.name
        assert report["anchors"] and set(report["anchors"]) <= claims, path.name


def test_unknown_flag_usage_error():
    for flag in (["--frobnicate"], ["--format", "csv"]):  # --format was removed
        with pytest.raises(SystemExit) as exc:
            main(["specht", "audit", "--n", "5", "--family", "hook", *flag])
        assert exc.value.code == 2


def test_internal_error_is_not_a_refutation(capsys, monkeypatch):
    import eigenone.audit

    def crash(*args, **kwargs):
        raise RuntimeError("planted internal failure")

    monkeypatch.setattr(eigenone.audit, "audit_specht", crash)
    code = main(["specht", "audit", "--n", "5", "--family", "hook"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err and "planted internal failure" in captured.err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # only UsageError and ClosureOverflow read as bad input (exit 2); a
    # ValueError raised inside a layer is an internal error
    import eigenone.specht

    def mismatch(*args, **kwargs):
        raise ValueError("planted degree mismatch")

    # audit_specht imports action_matrix from specht when it runs; of the
    # three families, only the hook builds no matrix
    monkeypatch.setattr(eigenone.specht, "action_matrix", mismatch)
    code = main(["specht", "audit", "--n", "5", "--family", "two"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err and "ValueError: planted degree mismatch" in captured.err


@pytest.mark.parametrize("argv,message", [
    ("embed audit --group pgl2 --q 9", "pgl2 requires an odd prime q, got 9"),
    ("embed audit --group s_n --n 2", "s_n requires n >= 3, got 2"),
    ("specht conjecture-table --n 5,6", "table rows need odd n >= 5"),
    ("specht mod2-factors --n 3 --family n-2,2", "family (n-2,2) needs n >= 4, got n=3"),
    ("specht fixed-vector --n 7 --cycle-type 7,0", "cycle type [7, 0] does not partition n=7"),
    ("specht fixed-vector --n 4 --cycle-type 4", "fixed vectors need n >= 5, got n=4"),
    ("specht fixed-vector --n 7 --cycle-type 7 --family twisted",
     "no fixed-vector construction for family (n-2,2)'"),
    ("nt lpoly-check --a 1 --t -32 --primes 3", "bad prime 3"),
    ("nt lpoly-check --a 1 --t -32 --primes 9", "p must be an odd prime, got 9"),
    ("nt lpoly-check --a 1 --t -32 --primes 5,59",
     "59^4 = 12117361 exceeds the enumeration budget 10000000"),
    ("nt frobenius-scan --a 1 --t 1 --group agl2_3 --poly=1,1",
     "--poly needs degree >= 3 and a nonzero last coefficient, got [1, 1]"),
    ("nt frobenius-scan --a 1 --t -32 --pmax -5 --group agl2_3",
     "--pmax must not be negative, got -5"),
    # with discriminant 0 every prime is bad, at any --pmax
    ("nt frobenius-scan --a 1 --t 1 --pmax 50 --group agl2_3 --poly=0,0,0,0,0,0,0,0,0,1",
     "disc(f) = 0, so no prime is good"),
    ("nt frobenius-scan --a 0 --t 0 --group agl2_3", "disc(f) = 0, so no prime is good"),
    ("nt lpoly-check --a 0 --t 1 --primes 5", "disc(f) = 0, so no prime is good"),
    ("nt lpoly-check --a 1 --t 0 --primes 5", "disc(f) = 0, so no prime is good"),
    # a degree mismatch would read every prime as a type outside the group
    ("nt frobenius-scan --a 1 --t -32 --pmax 100 --group pgl2 --q 7",
     "polynomial degree 9 differs from the degree 8 of pgl2_7"),
    ("nt frobenius-scan --a 1 --t -32 --group agl2_3 --poly=1,1,0,0,1",
     "polynomial degree 4 differs from the degree 9 of agl2_3"),
    # (2,2) acts trivially on the degree-4 module, so the census would
    # describe a quotient of the group
    ("embed census --group s_n --n 4",
     "the degree-4 module of s_4 is not faithful: (2,2) acts trivially"),
    ("embed census --group a_n --n 4",
     "the degree-4 module of a_4 is not faithful: (2,2) acts trivially"),
    ("embed census --group pgl2 --q 3",
     "the degree-4 module of pgl2_3 is not faithful: (2,2) acts trivially"),
    # inputs that check nothing would print a vacuous "verified"
    ("nt disc-verify --samples 0", "--samples must be at least 1, got 0"),
    ("nt disc-verify --samples -3", "--samples must be at least 1, got -3"),
    ("specht conjecture-table --n ,", "--n lists no value of n"),
    ("nt lpoly-check --a 1 --t -32 --primes ,", "--primes lists no prime"),
    # a repeated value would redo its work and print its row twice
    ("nt lpoly-check --a 1 --t -32 --primes 5,5", "--primes repeats 5"),
    ("nt lpoly-check --a 1 --t -32 --primes 5,7,11,7", "--primes repeats 7"),
    ("specht conjecture-table --n 7,7", "--n repeats 7"),
    # sizes whose run time has no bound
    ("specht conjecture-table --n 5,103", "table rows need n <= 31, got 103"),
    ("nt disc-verify --samples 100000000", "--samples must be at most 10000, got 100000000"),
    ("nt frobenius-scan --a 1 --t -32 --pmax 300000000 --group agl2_3",
     "--pmax must be at most 1000000, got 300000000"),
    ("specht fixed-vector --n 61 --cycle-type 61", "fixed vectors need n <= 60, got n=61"),
    # PGL(2,101) has 101^3 - 101 = 1030200 elements
    ("embed audit --group pgl2 --q 101", "closure exceeded bound 1000000"),
    # a parameter the group does not take names no computation
    ("embed audit --group agl2_3 --q 5 --n 99", "--group agl2_3 takes no --q"),
    ("embed audit --group agl2_3 --n 99", "--group agl2_3 takes no --n"),
    ("embed audit --group pgl2 --q 7 --n 5", "--group pgl2 takes no --n"),
    ("embed census --group s_n --n 5 --q 7", "--group s_n takes no --q"),
    ("embed audit --group a_n --n 5 --q 7 --module permutation", "--group a_n takes no --q"),
    ("nt frobenius-scan --a 1 --t -32 --pmax 50 --group agl2_3 --q 7",
     "--group agl2_3 takes no --q"),
    # a scan needs a polynomial
    ("nt frobenius-scan --group agl2_3", "frobenius-scan needs --a and --t, or --poly"),
    ("nt frobenius-scan --a 1 --group agl2_3", "frobenius-scan needs --a and --t, or --poly"),
    # no worker would run
    ("nt frobenius-scan --a 1 --t 1 --group agl2_3 --jobs 0", "--jobs must be at least 1, got 0"),
    ("specht audit --n 5 --family hook --jobs -2", "--jobs must be at least 1, got -2"),
])
def test_bad_input_is_usage_error(capsys, argv, message):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("primes", ["5,59", "5,3", "5,9", "7,5,2"])
def test_lpoly_check_refuses_a_bad_prime_before_counting(capsys, monkeypatch, primes):
    # a prime too large, of bad reduction or not an odd prime is refused
    # before any L-polynomial is computed, wherever it stands in the list
    import eigenone.arith

    def no_lpoly(*args):
        raise AssertionError("an L-polynomial was computed before the primes were checked")

    monkeypatch.setattr(eigenone.arith, "lpoly_from_counts", no_lpoly)
    assert main(["nt", "lpoly-check", "--a", "1", "--t", "-32", "--primes", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_lpoly_check_computes_the_discriminant_once(capsys, monkeypatch):
    # every check of every prime reads the one exact disc(f)
    import eigenone.arith

    calls = [0]
    disc_resultant = eigenone.arith.disc_resultant

    def counting(f):
        calls[0] += 1
        return disc_resultant(f)

    monkeypatch.setattr(eigenone.arith, "disc_resultant", counting)
    code, _ = run_cli(capsys, "nt", "lpoly-check", "--a", "1", "--t", "-32", "--primes", "5,7")
    assert code == 0
    assert calls[0] == 1


def test_oversized_input_is_usage_error(capsys, monkeypatch):
    # the MeatAxe dimension bound and the census size cap read the size of
    # the module or group that the command line chose
    import eigenone.meataxe

    monkeypatch.setattr(eigenone.meataxe, "DIM_BOUND", 10)
    assert main(["embed", "audit", "--group", "l3_2_flags", "--module", "permutation"]) == 2
    assert capsys.readouterr().err == "error: module dimension 21 exceeds bound 10\n"
    assert main(["embed", "census", "--group", "s_n", "--n", "7"]) == 2
    assert capsys.readouterr().err == "error: census input capped at 2000 elements\n"


@pytest.mark.parametrize("family,dim", [("n-2,1,1", 276), ("n-2,2", 275), ("n-2,2'", 275)])
def test_oversized_module_builds_no_matrix(capsys, monkeypatch, family, dim):
    # above the MeatAxe's DIM_BOUND (256), James's decomposition numbers give
    # the factors with no action matrix: at n = 25, D^(24,1) does not occur
    # in S^(23,2), and D^(25) does once
    import eigenone.specht

    def no_matrix(*args, **kwargs):
        raise AssertionError("an action matrix was built")

    monkeypatch.setattr(eigenone.specht, "action_matrix", no_matrix)
    code, out = run_cli(capsys, "specht", "mod2-factors", "--n", "25", "--family", family)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim"] == dim
    assert result["factor_dims"] == [1] * (dim - 274) + [274]


def test_mod2_factors_at_n_100(capsys):
    # n(n-3)/2 = 4850, far above the MeatAxe's DIM_BOUND: D^(99,1), of
    # dimension 99 - 1, and D^(98,2)
    code, out = run_cli(capsys, "specht", "mod2-factors", "--n", "100", "--family", "n-2,2",
                        "--expect-dims", "98,4752")
    assert code == 0
    assert json.loads(out)["result"]["factor_dims"] == [98, 4752]


@pytest.mark.parametrize("argv", [
    "embed audit --group pgl2 --q 101",
    "embed census --group pgl2 --q 101",
    "nt frobenius-scan --a 1 --t -32 --group pgl2 --q 101",
])
def test_pgl2_above_the_bound_is_refused_before_closing(capsys, monkeypatch, argv):
    # PGL(2,101) has 101^3 - 101 = 1030200 elements, an order known before
    # any closure, as for S_n and A_n
    from eigenone.perms import Permutation

    def no_product(self, other):
        raise AssertionError("a group product was formed")

    monkeypatch.setattr(Permutation, "__mul__", no_product)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == "error: closure exceeded bound 1000000\n"


@pytest.mark.parametrize("group", [
    ["pgl2", "--q", "97"],
    ["s_n", "--n", "9"],
    ["pgl2", "--q", "47", "--module", "permutation"],
    ["s_n", "--n", "9", "--module", "permutation"],
    ["a_n", "--n", "9", "--module", "permutation"],
])
def test_named_group_audit_forms_no_product(capsys, monkeypatch, group):
    # pgl2, s_n and a_n carry their classes, each with a representative, in
    # closed form, so neither module's audit closes the group or multiplies
    # two of its elements; each has offenders on its module
    from eigenone.perms import IndexedGroup, Permutation

    def no_product(*args):
        raise AssertionError("a group product was formed")

    monkeypatch.setattr(Permutation, "__mul__", no_product)
    monkeypatch.setattr(IndexedGroup, "__init__", no_product)
    assert main(["embed", "audit", "--group", *group]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    if "permutation" in group:
        assert result["top_factor"]["unisingular"] is False
    else:
        assert result["irreducible"] is True


def test_embed_audit_builds_the_space_once(capsys, monkeypatch):
    # the payload's space is the Gram matrix the generators were checked
    # against (test_symplectic.py::test_space_payload checks its rows)
    import eigenone.symplectic

    calls = [0]
    build_space = eigenone.symplectic.build_space

    def counting(d):
        calls[0] += 1
        return build_space(d)

    monkeypatch.setattr(eigenone.symplectic, "build_space", counting)
    code, _ = run_cli(capsys, "embed", "audit", "--group", "agl2_3")
    assert code == 0
    assert calls[0] == 1


@pytest.mark.parametrize("group", [["pgl2", "--q", "61"], ["s_n", "--n", "9"]])
def test_census_cap_stops_the_closure(capsys, monkeypatch, group):
    # PGL(2,61) has 226920 elements and S_9 362880: the census refuses them
    # after closing at most 2001, each multiplied once by each of at most
    # three generators
    from eigenone.perms import Permutation

    products = [0]
    mul = Permutation.__mul__

    def counting_mul(self, other):
        products[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Permutation, "__mul__", counting_mul)
    assert main(["embed", "census", "--group", *group]) == 2
    assert capsys.readouterr().err == "error: census input capped at 2000 elements\n"
    assert 0 < products[0] <= 2001 * 3


def run_python(program: str, *flags: str, timeout: float = 120):
    """Run a Python program in a fresh interpreter with src/ on the import path."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *flags, "-c", program], capture_output=True, text=True,
                          env=env, timeout=timeout)


def loaded_modules(program: str) -> list[str]:
    """The modules that a fresh interpreter has loaded after program."""
    proc = run_python(program + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_layers(program: str) -> list[str]:
    """The eigenone modules that a fresh interpreter has loaded after program."""
    return [m for m in loaded_modules(program) if m.split(".")[0] == "eigenone"]


def test_cli_import_loads_no_layer():
    assert loaded_layers("import eigenone.cli") == [
        "eigenone", "eigenone.cli", "eigenone.errors", "eigenone.reports"]


def test_nt_command_loads_only_its_layers():
    loaded = loaded_layers("from eigenone.cli import main\n"
                           "assert main(['nt', 'disc-verify', '--samples', '1']) == 0")
    assert "eigenone.arith" in loaded
    # arith reads is_prime and prime_factors from cycletypes, and perms only to type a scan's group
    for layer in ("audit", "specht", "meataxe", "fixed_vectors", "perms"):
        assert f"eigenone.{layer}" not in loaded
    # the parity cross-check reads the Frobenius charpoly from gf2 alone
    loaded = loaded_layers("from eigenone.cli import main\n"
                           "assert main(['nt', 'lpoly-check', '--a', '1', '--t', '-32', "
                           "'--primes', '5']) == 0")
    assert "eigenone.arith" in loaded and "eigenone.gf2" in loaded
    for layer in ("perms", "symplectic"):
        assert f"eigenone.{layer}" not in loaded


@pytest.mark.parametrize("subcommand", ["census", "audit"])
def test_embed_command_loads_no_integral_layer(subcommand):
    loaded = loaded_layers("from eigenone.cli import main\n"
                           f"assert main(['embed', '{subcommand}', '--group', 'agl2_3']) == 0")
    # each subcommand runs from its namesake module: audit or census
    assert f"eigenone.{subcommand}" in loaded and "eigenone.meataxe" in loaded
    for layer in ("specht", "intlinalg"):
        assert f"eigenone.{layer}" not in loaded


def test_permutation_module_audit_runs_from_audit():
    loaded = loaded_layers("from eigenone.cli import main\n"
                           "assert main(['embed', 'audit', '--group', 'l3_2_flags', "
                           "'--module', 'permutation']) == 0")
    assert "eigenone.audit" in loaded and "eigenone.meataxe" in loaded
    for layer in ("census", "specht", "intlinalg", "arith"):
        assert f"eigenone.{layer}" not in loaded


def test_pgl2_audit_loads_no_arith_layer():
    # pgl2 tests q with cycletypes.is_prime, so only frobenius-scan loads arith
    loaded = loaded_layers("from eigenone.cli import main\n"
                           "assert main(['embed', 'audit', '--group', 'pgl2', '--q', '19']) == 1")
    assert "eigenone.perms" in loaded
    for layer in ("arith", "specht", "intlinalg"):
        assert f"eigenone.{layer}" not in loaded


@pytest.mark.parametrize("argv", ["audit --n 5 --family n-2,2", "conjecture-table --n 5"])
def test_integral_specht_command_loads_no_gf2_layer(argv):
    loaded = loaded_layers("from eigenone.cli import main\n"
                           f"assert main(['specht', *{argv.split()}]) == 0")
    assert "eigenone.specht" in loaded and "eigenone.intlinalg" not in loaded
    for layer in ("gf2", "meataxe", "symplectic", "census"):
        assert f"eigenone.{layer}" not in loaded


@pytest.mark.parametrize("family", ["n-2,1,1", "n-2,2", "n-2,2'"])
def test_mod2_factors_loads_no_gf2_layer(family):
    # James's decomposition numbers build no matrix, so neither GF(2) nor
    # the MeatAxe is loaded
    loaded = loaded_layers("from eigenone.cli import main\n"
                           f"assert main(['specht', 'mod2-factors', '--n', '9', '--family', {family!r}]) == 0")
    assert "eigenone.specht" in loaded
    # specht names Permutation only in annotations, so no group layer either
    for layer in ("gf2", "meataxe", "intlinalg", "symplectic", "perms", "cycletypes"):
        assert f"eigenone.{layer}" not in loaded


def test_frobenius_scan_loads_no_gf2_layer():
    # each nullity is read off the cycle type in cycletypes, so the scan loads
    # neither the symplectic module nor GF(2)
    loaded = loaded_layers("from eigenone.cli import main\n"
                           "assert main(['nt', 'frobenius-scan', '--a', '1', '--t', '-32', "
                           "'--group', 'agl2_3', '--pmax', '100']) == 0")
    assert "eigenone.arith" in loaded and "eigenone.cycletypes" in loaded
    for layer in ("gf2", "symplectic", "meataxe"):
        assert f"eigenone.{layer}" not in loaded


def test_no_module_imports_dataclasses():
    for path in sorted((ROOT / "src" / "eigenone").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


SLOW_IMPORTS = ["dataclasses", "inspect"]
# one fast run of each battery subcommand; each verifies its claim
BATTERY_SUBCOMMANDS = [
    "specht audit --n 5 --family n-2,2",
    "specht conjecture-table --n 5",
    "specht mod2-factors --n 5 --family n-2,1,1",
    "specht fixed-vector --n 7 --cycle-type 5,2 --family n-2,1,1",
    "embed audit --group agl2_3",
    "embed audit --group l3_2_flags --module permutation",
    "embed census --group agl2_3",
    "nt disc-verify --samples 1",
    "nt frobenius-scan --a 1 --t -32 --pmax 100 --group agl2_3",
    "nt lpoly-check --a 1 --t -32 --primes 5",
]


@pytest.mark.parametrize("argv", BATTERY_SUBCOMMANDS)
def test_battery_subcommand_loads_no_dataclasses(argv):
    # the interpreter itself may load them through the standard library that
    # the CLI needs; the package must add neither
    bare = set(loaded_modules("import argparse, json, random"))
    loaded = set(loaded_modules("from eigenone.cli import main\n"
                                f"assert main({argv.split()!r}) == 0"))
    assert [m for m in SLOW_IMPORTS if m in loaded - bare] == []


def test_frobenius_scan_poly_needs_no_family_parameters(capsys):
    # x^9 - x - 1: by Dedekind, a type outside AGL(2,3) shows Gal is not in it
    code, out = run_cli(capsys, "nt", "frobenius-scan", "--poly=-1,-1,0,0,0,0,0,0,0,1",
                        "--group", "agl2_3", "--pmax", "200")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["poly"] == ["-1", "-1", "0", "0", "0", "0", "0", "0", "0", "1"]
    assert result["type_offender_primes"][:5] == [5, 17, 29, 31, 41]


def run_optimized(program: str):
    """Run a Python program under python -O, which strips assert statements."""
    return run_python(program, "-O")


def test_embed_audit_form_check_survives_optimize():
    # the payload's "form_preserved": true rests on this check, so it must
    # still fire under python -O
    proc = run_optimized(
        "import sys, eigenone.symplectic\n"
        "from eigenone.cli import main\n"
        "eigenone.symplectic.preserves_form = lambda M, J: False\n"
        "sys.exit(main(['embed', 'audit', '--group', 'agl2_3']))\n"
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "does not preserve the form" in proc.stderr


def test_lpoly_check_weil_bound_survives_optimize():
    # with every resultant a square, c_e = p^e, and the power sum s_3 = -125
    # puts #C(F_125) = 251 outside the Weil bound |#C - (q + 1)| <= 2g sqrt(q);
    # the guard must fire under python -O
    proc = run_optimized(
        "import sys, eigenone.arith\n"
        "from eigenone.cli import main\n"
        "eigenone.arith.resultant = lambda f, g: 1\n"
        "sys.exit(main(['nt', 'lpoly-check', '--a', '1', '--t', '-32', '--primes', '5']))\n"
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "VerificationError: Weil bound violated: 251 points over F_125" in proc.stderr


def test_failed_fixed_vector_check_is_internal_error(capsys, monkeypatch):
    # an unfixed witness is a failed check, not a refuted claim
    import eigenone.fixed_vectors

    bad = ((1, 4, 5), (2,), (3,))
    monkeypatch.setattr(eigenone.fixed_vectors, "witness_tableau", lambda s, f: (bad, True))
    code = main(["specht", "fixed-vector", "--n", "5", "--cycle-type", "5", "--family", "n-2,1,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "FixedVectorError" in captured.err


@pytest.mark.parametrize("direct", [True, False])
def test_malformed_witness_is_internal_error(capsys, monkeypatch, direct):
    # a repeated entry in the case table's column is a failed check, whether
    # the polytabloid is taken as it is or summed over sigma's orbit
    import eigenone.fixed_vectors

    monkeypatch.setattr(eigenone.fixed_vectors, "_hook_column", lambda s: ((1, 1, 2), direct))
    code = main(["specht", "fixed-vector", "--n", "6", "--cycle-type", "3,3", "--family", "n-2,1,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert ("FixedVectorError: witness tableau [[1, 3, 4, 5, 6], [1], [2]] for (1,2,3)(4,5,6) "
            "on (n-2,1,1) does not fill 1..6 once") in captured.err


def test_wrong_fixed_dimension_is_internal_error(capsys, monkeypatch):
    # one class's dim Fix off by one breaks the eigenvalue counts of a class
    # whose power it is: a failed check (exit 3), not a refuted claim
    import eigenone.audit
    from eigenone.perms import class_rep_for
    from eigenone.specht import action_matrix

    target = action_matrix(class_rep_for((3, 1, 1)), (3, 2))
    rank = eigenone.audit._rank_one_minus
    monkeypatch.setattr(eigenone.audit, "_rank_one_minus",
                        lambda M, p: rank(M, p) - (M == target))
    code = main(["specht", "audit", "--n", "5", "--family", "n-2,2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "VerificationError: class 3,2: 1 eigenvalues of order 6" in captured.err


def test_wrong_hook_orbit_count_is_internal_error(capsys, monkeypatch):
    # the hook family's fixed dimensions are orbit counts: one more fixed
    # vector on the 3-cycles breaks the eigenvalue counts of the class (3,2)
    import eigenone.audit

    count = eigenone.audit.hook_fixed_dim
    monkeypatch.setattr(eigenone.audit, "hook_fixed_dim",
                        lambda ct: count(ct) + (ct == (3, 1, 1)))
    code = main(["specht", "audit", "--n", "5", "--family", "n-2,1,1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "VerificationError: class 3,2: 1 eigenvalues of order 6" in captured.err


def test_straightening_failure_is_internal_error(capsys, monkeypatch):
    # a vector outside the Specht module is a failed check, not a usage error
    import eigenone.audit
    from eigenone.specht import NotInSpechtModule

    def fail(*args, **kwargs):
        raise NotInSpechtModule("planted straightening failure")

    monkeypatch.setattr(eigenone.audit, "audit_specht", fail)
    code = main(["specht", "audit", "--n", "9", "--family", "hook"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "planted straightening failure" in captured.err


def test_frobenius_scan_poly_with_negative_first_coefficient(capsys):
    code, out = run_cli(capsys, "nt", "frobenius-scan", "--a", "1", "--t", "1", "--pmax", "50",
                        "--group", "agl2_3", "--poly=-2,0,0,0,0,0,0,0,0,1")
    assert code == 1  # x^9 - 2 has eigenvalue-1 offenders, e.g. p = 7
    result = json.loads(out)["result"]
    assert result["poly"][0] == "-2"
    assert result["eig1_offender_primes"] == [7, 13, 19, 37]


@pytest.mark.parametrize("argv", [
    ("--a", "1", "--t", "-32", "--pmax", "3"),  # 2 and 3 are the bad primes
    *[("--a", "1", "--t", "-32", "--pmax", pmax) for pmax in ("0", "1", "2")],  # no odd prime
])
def test_frobenius_scan_with_no_good_prime_is_undecided(capsys, argv):
    code, out = run_cli(capsys, "nt", "frobenius-scan", *argv, "--group", "agl2_3")
    assert code == 4
    result = json.loads(out)["result"]
    assert result["records"] == []
    assert result["bad_primes"] == [p for p in range(2, int(argv[5]) + 1)
                                    if all(p % d for d in range(2, p))]


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_render_canonical_form():
    assert "wall_time" not in render(["x"], 1, ["a"], {"k": 1})
    assert json.loads(render(["x"], 1, ["a"], {"k": 1}, wall_time_s=1.23456))["wall_time_s"] == 1.235


def test_printed_report_is_the_canonical_form_plus_wall_time(capsys):
    argv = ["specht", "conjecture-table", "--n", "5", "--seed", "7"]
    _, out = run_cli(capsys, *argv)
    printed = json.loads(out)
    assert isinstance(printed.pop("wall_time_s"), float)
    assert json.dumps(printed, sort_keys=True, separators=(",", ":")) == render(
        argv, 7, [CLAIMS["conjecture-table"]], printed["result"])


@pytest.mark.parametrize("argv,claim", [
    # AGL(1,9) has irreducible orders [72], not AGL(2,3)'s {72, 144, 216, 432}
    ("embed census --group agl1_9", "embed-census"),
    # AGL(2,3)'s permutation module has factor dims [1, 8], not the flag module's
    ("embed audit --group agl2_3 --module permutation", "perm-module-factors"),
])
def test_group_specific_anchor_goes_only_to_its_group(capsys, argv, claim):
    # the battery's census_agl2_3 and flag_module_l3_2 keep the group-specific ones
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert json.loads(out)["anchors"] == [CLAIMS[claim]]


@pytest.mark.parametrize("argv,message", [
    ("embed audit --group pgl2 --q 1000000000000000003", "closure exceeded bound 1000000"),
    ("nt frobenius-scan --a 1 --t -32 --group pgl2 --q 1000000000000000003",
     "closure exceeded bound 1000000"),
    ("nt lpoly-check --a 1 --t -32 --primes 1000000000000000003", "exceeds the enumeration budget"),
])
def test_huge_prime_is_refused_by_its_size(argv, message):
    # the size bound comes before is_prime, whose trial division would not
    # end; a fresh process with a timeout fails fast if it ever runs first
    proc = run_python(f"import sys\nfrom eigenone.cli import main\nsys.exit(main({argv.split()!r}))",
                      timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == "" and message in proc.stderr


def test_fixed_vector_above_the_cap_builds_no_permutation(capsys, monkeypatch):
    import eigenone.perms

    def no_permutation(*args, **kwargs):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(eigenone.perms.Permutation, "__init__", no_permutation)
    assert main(["specht", "fixed-vector", "--n", "3000000", "--cycle-type", "3000000"]) == 2
    assert capsys.readouterr().err == "error: fixed vectors need n <= 60, got n=3000000\n"
