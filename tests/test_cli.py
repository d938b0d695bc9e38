import ast
import concurrent.futures
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from conftest import reference_semigroup_subset_condition

import wpsauto.ambient
import wpsauto.cli
from wpsauto import orders
from wpsauto.checks import CHECK_NAMES
from wpsauto.cli import main
from wpsauto.orders import _canonical_rows as canonical_rows

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orders_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "orders", "--weights", "3,7,2,4,5", "--degree", "37", "--max-order", "37"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    by_q = {v["q"]: v for v in report["verdicts"]}
    assert by_q[23]["status"] == "refuted"
    assert by_q[23]["provenance"] == "oracle"


def test_orders_sextic_certified_set(capsys):
    code, out, _ = run_cli(capsys, "orders", "--weights", "1,1,1,2,3", "--degree", "6")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    certified = {
        v["q"]
        for v in report["verdicts"]
        if v["status"] == "certified" and _is_prime(v["q"])
    }
    assert certified == {2, 3, 5, 7}


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, n))


def test_orders_rejects_two_weights(capsys):
    code, _, err = run_cli(capsys, "orders", "--weights", "1,1", "--degree", "3")
    assert code == 1
    assert "weights" in err


def test_orders_byte_identical(capsys):
    args = ("orders", "--weights", "1,1,1,1,1", "--degree", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_orders_timings(capsys):
    args = ("orders", "--weights", "1,1,1", "--degree", "4", "--max-order", "7")
    code, out, _ = run_cli(capsys, *args, "--timings")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    timings = report.pop("timings")
    assert list(timings) == ["total_s"]
    assert type(timings["total_s"]) in (int, float) and timings["total_s"] >= 0
    # without its timings, the report is that of the request without the flag
    code, plain, _ = run_cli(capsys, *args)
    assert (code, report) == (0, json.loads(plain))


def test_monomial_budget_applies_to_its_own_call_only(capsys):
    # the budget stops this family's Klein eigenspace counts, so `orders`
    # prints the sections before them, the message as "error" and no verdicts
    code, out, err = run_cli(
        capsys, "orders", "--weights", "1,1,2,3", "--degree", "7", "--max-order", "8",
        "--monomial-budget", "3",
    )
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert (report["error"], report["verdicts"]) == ("more than 3 monomials", [])
    assert "klein" not in report and "bounds" in report
    assert err == "budget exhausted: more than 3 monomials\n"
    family = ("orders", "--weights", "1,1,2,5", "--degree", "11", "--max-order", "8")
    code, out, _ = run_cli(capsys, *family)
    assert code == 0
    statuses = sorted(v["status"] for v in json.loads(out)["verdicts"])
    assert statuses == ["certified"] * 5 + ["refuted"]
    # the family's tables are cached now, and must not bypass a smaller budget
    code, out, _ = run_cli(capsys, *family, "--monomial-budget", "3")
    assert code == 2
    notes = {tuple(v["notes"]) for v in json.loads(out)["verdicts"]}
    assert notes == {("more than 3 monomials",)}


def test_check_explain_contradiction(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--weights", "3,7,2,4,5", "--degree", "37", "--order", "23", "--explain",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["verdicts"][0]["status"] == "refuted"
    entries = {e["variable"]: e["anchors"] for e in report["explain"]["offchain"]}
    solutions = {
        tuple(a["monomial"]): a["solutions"] for a in entries[4]
    }
    assert solutions[(0, 1, 0, 0, 6)] == [17]
    assert solutions[(0, 0, 1, 0, 7)] == [6]
    coupled = entries[3][0]
    assert coupled["monomial"] == [0, 0, 0, 8, 1]
    assert coupled["couples"] == [4]


def test_check_certified_includes_falsifier(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--weights", "1,1,1,1,1", "--degree", "3", "--order", "11",
        "--falsifier-budget", "4000",
    )
    assert code == 0
    report = json.loads(out)
    verdict = report["verdicts"][0]
    assert verdict["status"] == "certified"
    assert len(verdict["witness_monomials"]) == 5
    assert all(entry["witness"] is None for entry in report["falsifier"])


def test_check_skips_a_prime_where_a_coefficient_vanishes(capsys):
    code, out, _ = run_cli(
        capsys,
        "--seed", "1390486307", "check", "--weights", "1,2,2,3", "--degree", "21",
        "--order", "3", "--falsifier-budget", "10000",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["verdicts"][0]["status"] == "certified"
    assert report["falsifier"] == [
        {"prime": 101, "witness": None, "tested": 0, "mode": "skipped",
         "reason": "coefficient of (1, 1, 6, 2) vanishes mod 101"},
        {"prime": 499, "witness": None, "tested": 10000, "mode": "sampled"},
        {"prime": 997, "witness": None, "tested": 0, "mode": "skipped",
         "reason": "coefficient of (0, 3, 0, 5) vanishes mod 997"},
    ]


def test_check_prime_power_order(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--weights", "1,1,1", "--degree", "4", "--order", "8"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"][0]["provenance"] == "oracle"
    assert report["verdicts"][0]["status"] in ("certified", "refuted")


def test_klein_subcommand(capsys):
    code, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1", "--degree", "4")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    klein = report["klein"]
    assert klein["exists"] and klein["quasi_smooth"]
    assert klein["max_prime"]["value"] == 7
    assert klein["eigenspace"]["check"] is True

    code, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1,2", "--degree", "4")
    assert json.loads(out)["klein"] == {"exists": False}

    for weights, degree in (("1,1,1,1", "2"), ("1,1,2,2", "3")):
        code, out, _ = run_cli(capsys, "klein", "--weights", weights, "--degree", degree)
        assert json.loads(out)["klein"]["quasi_smooth"] is False


# (1,1,1) d = 10**17 - 1: the Klein candidate (m**3 + 1) / d, m = d - 1, is
# about 10**34, past the range where `is_prime` is exact
HUGE_KLEIN = ("--weights", "1,1,1", "--degree", "99999999999999999")


def test_klein_reports_a_candidate_beyond_the_primality_limit(capsys):
    code, out, err = run_cli(capsys, "klein", *HUGE_KLEIN)
    assert (code, err) == (0, "")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["klein"]["max_prime"] == {"value": None, "reason": "beyond-primality-limit"}
    assert report["klein"]["eigenspace"] is None


def test_orders_reports_a_klein_candidate_beyond_the_primality_limit(capsys):
    # the Klein section no longer raises; the monomial budget, not the
    # candidate, leaves both orders of this n = 1 family unresolved
    code, out, err = run_cli(capsys, "orders", *HUGE_KLEIN, "--max-order", "3")
    assert (code, err) == (2, "")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["klein"]["max_prime"]["reason"] == "beyond-primality-limit"
    assert [(v["q"], v["status"]) for v in report["verdicts"]] == [(2, "unresolved"), (3, "unresolved")]


def test_orders_checks_the_hypotheses_before_the_bound(capsys):
    # d = 1 gives this family no bound; its invalid degree is the error
    code, out, err = run_cli(capsys, "orders", "--weights", "1,1,1,2", "--degree", "1")
    assert (code, out, err) == (1, "", "error: degree must be at least 3\n")


def test_scan_records_a_hypothesis_failure_before_a_missing_bound(capsys):
    # of the four d = 1 families, 1,1,1,2 and 1,2,2,2 have no bound
    code, out, _ = run_cli(capsys, "scan", "--dim", "2", "--max-weight", "2", "--degree", "1")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [r["weights"] for r in records] == [[1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 2], [1, 2, 2, 2]]
    assert [r["bounds"]["divides_d"] is None for r in records] == [False, True, True, True]
    assert [r["bounds"]["coprime"] is None for r in records] == [True, True, True, True]
    for record in records:
        assert record["error"] == "degree must be at least 3"
        assert (record["verdicts"], record["klein"]) == ([], {"exists": False})
        assert "max_order" not in record


def test_scan_single_record(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scan", "--dim", "1", "--max-weight", "1", "--degree", "4..4")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    record = json.loads(lines[0])
    jsonschema.validate(record, SCHEMA)
    assert record["weights"] == [1, 1, 1] and record["degree"] == 4
    assert record["klein"]["max_prime"]["value"] == 7


def test_scan_deterministic_across_workers(tmp_path, capsys):
    args = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5")
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    run_cli(capsys, *args, "--out", str(one))
    run_cli(capsys, *args, "--out", str(two), "--workers", "3")
    assert one.read_bytes() == two.read_bytes()


def test_scan_resume_discards_torn_tail(tmp_path, capsys):
    args = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5")
    full = tmp_path / "full.jsonl"
    run_cli(capsys, *args, "--out", str(full))
    lines = full.read_text().splitlines()
    assert len(lines) >= 3

    # simulate an interrupted run: two complete records, a torn third line
    part = tmp_path / "part.jsonl"
    part.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2])

    run_cli(capsys, *args, "--out", str(part), "--resume")
    assert part.read_bytes() == full.read_bytes()


# nine families; the oracle budget of 3 classes leaves verdicts unresolved
BUDGET_SCAN = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5", "--oracle-budget", "3")


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "full.jsonl"
    assert main([*BUDGET_SCAN, "--out", str(out)]) == 2
    return out.read_bytes()


@pytest.mark.parametrize(
    "kept, torn", [(k, torn) for k in range(10) for torn in (False, True) if k < 9 or not torn]
)
def test_scan_resumes_from_every_line(tmp_path, capsys, uninterrupted, kept, torn):
    # an interrupted run leaves `kept` complete lines, and maybe a torn one;
    # resuming finishes the uninterrupted bytes and exit code, and the
    # output is the only file a scan writes
    lines = uninterrupted.splitlines(keepends=True)
    assert len(lines) == 9
    part = tmp_path / "part.jsonl"
    part.write_bytes(b"".join(lines[:kept]) + (lines[kept][:40] if torn else b""))
    assert run_cli(capsys, *BUDGET_SCAN, "--out", str(part), "--resume") == (2, "", "")
    assert part.read_bytes() == uninterrupted
    assert [p.name for p in tmp_path.iterdir()] == ["part.jsonl"]


def test_scan_resume_without_an_output_starts_afresh(tmp_path, capsys, uninterrupted):
    part = tmp_path / "part.jsonl"
    assert run_cli(capsys, *BUDGET_SCAN, "--out", str(part), "--resume") == (2, "", "")
    assert part.read_bytes() == uninterrupted


@pytest.mark.parametrize(
    "foreign, line",
    [
        # another scan: its third family is 1,1,2 d=3, not 1,1,1 d=5
        (("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..4"), 3),
        (None, 10),  # one line more than the scan has families
        ("not a scan\n", 1),
    ],
)
def test_scan_resume_refuses_a_foreign_output(tmp_path, capsys, uninterrupted, foreign, line):
    part = tmp_path / "part.jsonl"
    if foreign is None:
        part.write_bytes(uninterrupted + uninterrupted.splitlines(keepends=True)[-1])
    elif isinstance(foreign, str):
        part.write_text(foreign)
    else:
        run_cli(capsys, *foreign, "--out", str(part))
    before = part.read_bytes()
    code, out, err = run_cli(capsys, *BUDGET_SCAN, "--out", str(part), "--resume")
    assert (code, out) == (64, "")
    assert err.startswith(f"usage error: cannot resume: line {line} of ")
    assert part.read_bytes() == before


def test_scan_resume_needs_an_output(capsys):
    assert run_cli(capsys, *BUDGET_SCAN, "--resume") == (
        64, "", "usage error: --resume needs --out, the output to continue\n"
    )


@pytest.mark.parametrize("resume", [(), ("--resume",)])
def test_scan_to_a_directory_is_a_usage_error(tmp_path, capsys, resume):
    # it used to end in an IsADirectoryError traceback
    args = ("scan", "--dim", "1", "--max-weight", "1", "--degree", "3", "--out", str(tmp_path), *resume)
    assert run_cli(capsys, *args) == (64, "", f"usage error: cannot write {tmp_path}: Is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "seed, max_order, message",
    [
        (("--seed", "5"), (), "was written under seed 0, not 5"),
        ((), ("--max-order", "7"), "has max order 4, not 7"),
        (("--seed", "5"), ("--max-order", "7"), "was written under seed 0, not 5"),
    ],
)
def test_scan_resume_refuses_lines_of_another_seed_or_max_order(tmp_path, capsys, seed, max_order, message):
    # three lines of a scan under seed 0 and the default max orders (4, 9
    # and 16), resumed under another seed or max order: the rest used to be
    # appended under the new ones
    args = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5")
    part = tmp_path / "part.jsonl"
    run_cli(capsys, *args, "--out", str(part))
    part.write_text("".join(part.read_text().splitlines(keepends=True)[:3]))
    before = part.read_bytes()
    code, out, err = run_cli(capsys, *seed, *args, *max_order, "--out", str(part), "--resume")
    assert (code, out) == (64, "")
    assert err == f"usage error: cannot resume: line 1 of {part} {message}\n"
    assert part.read_bytes() == before


def test_scan_resume_checks_an_explicit_max_order(tmp_path, capsys):
    # lines written under --max-order 7 are kept only under --max-order 7
    args = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5", "--out", str(tmp_path / "m.jsonl"))
    run_cli(capsys, *args, "--max-order", "7")
    full = (tmp_path / "m.jsonl").read_bytes()
    (tmp_path / "m.jsonl").write_bytes(b"".join(full.splitlines(keepends=True)[:3]))
    assert run_cli(capsys, *args, "--resume")[0] == 64
    assert run_cli(capsys, *args, "--max-order", "7", "--resume")[0] == 0
    assert (tmp_path / "m.jsonl").read_bytes() == full


def test_scan_resume_counts_a_kept_budget_error(tmp_path, capsys):
    # line 4 of the --monomial-budget 3 scan below is 1,1,1 d=4, cut short
    # by the budget.  Kept as the whole output of a scan of that one family,
    # it holds no verdict, so only its error can make the resumed run exit 2
    budget = ("--monomial-budget", "3")
    wide = tmp_path / "wide.jsonl"
    run_cli(capsys, "scan", "--dim", "1", "--max-weight", "2", "--max-degree", "8", *budget, "--out", str(wide))
    line = wide.read_text().splitlines()[3]
    assert json.loads(line)["error"] == "more than 3 monomials"
    part = tmp_path / "part.jsonl"
    part.write_text(line + "\n")
    args = ("scan", "--dim", "1", "--max-weight", "1", "--degree", "4", *budget, "--out", str(part))
    assert run_cli(capsys, *args, "--resume") == (2, "", "")
    assert part.read_text() == line + "\n"


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("budget, expected_code", [("1", 2), ("2000000", 0)])
def test_scan_exit_code_follows_unresolved_verdicts(tmp_path, capsys, to_file, budget, expected_code):
    out_file = tmp_path / "scan.jsonl"
    args = ["scan", "--dim", "1", "--max-weight", "1", "--degree", "4..4", "--oracle-budget", budget]
    if to_file:
        args += ["--out", str(out_file)]
    code, out, _ = run_cli(capsys, *args)
    (record,) = [json.loads(l) for l in (out_file.read_text() if to_file else out).splitlines()]
    statuses = {v["status"] for v in record["verdicts"]}
    assert code == expected_code
    assert ("unresolved" in statuses) == (expected_code == 2)


def test_scan_records_a_klein_budget_error_and_goes_on(tmp_path, capsys):
    # the Klein section of (1,1,1) d=4 already needs more than 3 monomials;
    # that family's line names the error, and the scan goes on to the rest
    out_file = tmp_path / "scan.jsonl"
    args = ("scan", "--dim", "1", "--max-weight", "2", "--max-degree", "8", "--monomial-budget", "3")
    code, _, err = run_cli(capsys, *args, "--out", str(out_file))
    assert code == 2 and err == ""
    records = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert len(records) == 24
    for record in records:
        jsonschema.validate(record, SCHEMA)
    cut = [(r["weights"], r["degree"]) for r in records if r.get("error") == "more than 3 monomials"]
    assert cut == [([1, 1, 1], 4), ([1, 1, 1], 5), ([1, 1, 1], 7), ([1, 1, 1], 8), ([1, 1, 2], 7)]


def test_scan_lines_are_orders_reports(capsys):
    # scan and orders build one report; scan only adds "error" where one is raised
    code, out, _ = run_cli(capsys, "scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5")
    assert code == 0
    lines = [line for line in out.splitlines() if "error" not in json.loads(line)]
    assert len(lines) == 5
    for line in lines:
        record = json.loads(line)
        family = ("--weights", ",".join(map(str, record["weights"])), "--degree", str(record["degree"]))
        assert run_cli(capsys, "orders", *family) == (0, line + "\n", "")


@pytest.mark.parametrize(
    "bounds",
    [
        pytest.param(("--max-weight", "1", "--degree", "5..4"), id="reversed-degree-range"),
        pytest.param(("--max-weight", "0", "--degree", "4"), id="max-weight-0"),
        pytest.param(("--max-weight", "1", "--max-degree", "0"), id="max-degree-0"),
    ],
)
def test_scan_empty_range_is_a_usage_error(capsys, bounds):
    code, out, err = run_cli(capsys, "scan", "--dim", "1", *bounds)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ")


def test_scan_divides_d_respects_bound(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(
        capsys,
        "scan", "--dim", "2", "--max-weight", "2", "--degree", "3..6", "--divides-d",
        "--out", str(out_file),
    )
    records = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert records
    for record in records:
        jsonschema.validate(record, SCHEMA)
        if record.get("error") or record["bounds"]["divides_d"] is None:
            continue
        bound = record["bounds"]["divides_d"]["bound"]
        for v in record["verdicts"]:
            if v["status"] == "certified" and _is_prime(v["q"]):
                assert v["q"] <= bound, record


def test_verify_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "11/11 checks passed" in out


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "counterexample-chain" in out.splitlines()


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_verify_injected_failure(capsys, name):
    code, out, _ = run_cli(capsys, "verify", "--inject-failure", name)
    assert code == 3
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails == [f"FAIL {name}"]
    assert "expected:" in out
    assert f"{len(CHECK_NAMES) - 1}/{len(CHECK_NAMES)} checks passed" in out


def test_usage_error_exit_64(capsys):
    code, _, err = run_cli(capsys, "orders", "--weights", "1,1,1")
    assert code == 64

    code, _, err = run_cli(capsys, "scan", "--dim", "1", "--max-weight", "1")
    assert code == 64


def test_check_hypothesis_violated_exit_1(capsys):
    # not well-formed: no criterion applies and the oracle rejects
    code, out, _ = run_cli(
        capsys, "check", "--weights", "1,2,2", "--degree", "4", "--order", "3"
    )
    assert code == 1
    assert json.loads(out)["verdicts"][0]["status"] == "hypothesis-violated"


@pytest.mark.parametrize("weights, degree, order", [("1,1,3,3", 6, 2), ("1,1,1,1,4", 4, 3)])
def test_check_enforces_the_preconditions_of_orders(capsys, weights, degree, order):
    # both families pass the divides-d criterion's own tests, but their
    # linear automorphism group is infinite: check agrees with orders
    family = ("--weights", weights, "--degree", str(degree))
    code, out, _ = run_cli(capsys, "check", *family, "--order", str(order))
    assert code == 1
    (verdict,) = json.loads(out)["verdicts"]
    assert (verdict["status"], verdict["notes"]) == (
        "hypothesis-violated",
        ["the linear automorphism group is not finite"],
    )
    code, out, err = run_cli(capsys, "orders", *family)
    assert (code, out, err) == (1, "", "error: the linear automorphism group is not finite\n")


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("WPSAUTO_SEED", "42")
    _, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1", "--degree", "4")
    assert json.loads(out)["seed"] == 42


def test_seed_env_read_per_call(capsys, monkeypatch):
    # the parser is built once per process; the seed default is not
    seeds = []
    for value in ("7", "1234"):
        monkeypatch.setenv("WPSAUTO_SEED", value)
        _, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1", "--degree", "4")
        seeds.append(json.loads(out)["seed"])
    assert seeds == [7, 1234]
    _, out, _ = run_cli(capsys, "--seed", "5", "klein", "--weights", "1,1,1", "--degree", "4")
    assert json.loads(out)["seed"] == 5
    monkeypatch.delenv("WPSAUTO_SEED")
    _, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1", "--degree", "4")
    assert json.loads(out)["seed"] == 0


def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WPSAUTO_SEED", "x1")
    code, out, err = run_cli(capsys, "klein", "--weights", "1,1,1", "--degree", "4")
    assert (code, out) == (64, "")
    assert "WPSAUTO_SEED must be an integer, got 'x1'" in err


@pytest.mark.parametrize("command", ["check", "orders", "klein", "scan"])
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, command):
    # the falsifier's PCG64 stream takes no negative seed; check used to
    # compute its verdict and then exit 1, the other commands to exit 0
    args = {
        "check": ["--weights", "1,1,1,1", "--degree", "3", "--order", "2"],
        "orders": ["--weights", "1,1,1", "--degree", "4"],
        "klein": ["--weights", "1,1,1", "--degree", "4"],
        "scan": ["--dim", "1", "--max-weight", "1", "--degree", "3"],
    }[command]
    code, out, err = run_cli(capsys, "--seed", "-1", command, *args)
    assert (code, out) == (64, "")
    assert "--seed must be nonnegative, got -1" in err
    monkeypatch.setenv("WPSAUTO_SEED", "-5")
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (64, "")
    assert "WPSAUTO_SEED must be nonnegative, got -5" in err


def test_check_all_chains(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--weights", "3,7,2,4,5", "--degree", "37", "--order", "23", "--all",
    )
    assert code == 0
    report = json.loads(out)
    chains = report["all_chains"]
    assert {"indices": [0, 1, 2], "exponents": [10, 5, 17]} in chains


# Exit code and sha256 of stdout for representative requests: any change to
# a report byte must be deliberate.
PINNED_REPORTS = [
    (("orders", "--weights", "3,7,2,4,5", "--degree", "37", "--max-order", "37"), 0,
     "6fc982ee0b2b5aaa460c46fce48eeaa51aac117b2c5bea9acab6bf56744c14c1"),
    (("check", "--weights", "3,7,2,4,5", "--degree", "37", "--order", "23", "--explain", "--all"), 0,
     "967914781d477e092ec7e34f4ca07de12dd28ce579359c1320058d2fa91dd0c8"),
    (("check", "--weights", "1,1,1,1,1", "--degree", "3", "--order", "11",
      "--falsifier-budget", "4000"), 0,
     "1ffaa6102604fc4c0bfc32325259b1960d057fee2250e37501d5c1a2163c60cb"),
    (("klein", "--weights", "1,1,1", "--degree", "4"), 0,
     "be5ef83b37a3f700536441f16da4e8792f0c73f58417c112f8e7960fb743480a"),
    (("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5"), 0,
     "1cb0973816de819d9e5efb7a904ed4027d61069b4fd75eb88951db928d5931a6"),
    # certified by an early chain, unresolved where the 2 cycles run out
    (("orders", "--weights", "1,1,1,3", "--degree", "7", "--max-order", "16",
      "--cycle-budget", "2"), 2,
     "af9ee42cd5739a3ace786e3cafe8ed45bc657132cc2d5731010cfd33fe427c9a"),
    (("orders", "--weights", "1,1,1,1,1", "--degree", "5", "--max-order", "16",
      "--cycle-budget", "3"), 2,
     "161f127d63ec22fc46bf3c9ad1f9eefaed87f1406dd972858c24be91a56f4f9a"),
    # a sweep-panel request: 20 of its 24 oracle refutations divide no
    # anchor determinant and skip the scan
    (("orders", "--weights", "2,5,6,7", "--degree", "20", "--max-order", "64"), 0,
     "1e7edb0864f43b5df0b714af2cd41e1fa69d1fa797f989c8fc30c5fb6c762531"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_REPORTS)
def test_report_bytes_are_pinned(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# Requests on families with no quasi-smooth member, and their bytes as they
# were before the oracle and the chain walk read the semigroup subset
# condition.  (1,1,2,2,2) d=27 fails it at I = {2, 3, 4}; of the scan's
# four families, (1,1,1,3) and (1,1,3,3) d=8 fail it at I = {the 3s}.
NO_QUASI_SMOOTH_MEMBER = [
    (("orders", "--weights", "1,1,2,2,2", "--degree", "27", "--max-order", "13"), 0,
     "e3493c326f4cebeb447f475ea5b930e04a2e28e1ba11b5d1e9425149ba3c49dc"),
    (("check", "--weights", "1,1,2,2,2", "--degree", "27", "--order", "13"), 0,
     "d3fd1ecc60d85c0a059d11b70ab6fb2cbf295ad1f75f568d5210430ecaf9b738"),
    (("scan", "--dim", "2", "--max-weight", "3", "--degree", "8", "--coprime", "--max-order", "13"), 0,
     "115f8911af5444ebd18202ef0d128de8fcde2dd14764cc4a917e202bf0d28b13"),
]


@pytest.mark.parametrize("argv, code, digest", NO_QUASI_SMOOTH_MEMBER, ids=[argv[0] for argv, _, _ in NO_QUASI_SMOOTH_MEMBER])
def test_a_family_with_no_quasi_smooth_member_builds_no_table(capsys, monkeypatch, argv, code, digest):
    # Such a family builds no monomial table, no anchor matrices and no
    # anchor determinants, so no class slice either: the oracle's scan reads
    # the table first
    def refuse(fam):
        if not reference_semigroup_subset_condition(fam):
            raise AssertionError(f"{fam} has no quasi-smooth member, yet its tables were built")

    enumerate_monomials = orders.enumerate_monomials

    def guarded_enumerate(fam, *args):
        refuse(fam)
        return enumerate_monomials(fam, *args)

    def guarded(name):
        build = getattr(orders.FamilyAnalysis, name).func

        def field(an):
            refuse(an.family)
            return build(an)

        return property(field)

    monkeypatch.setattr(orders, "enumerate_monomials", guarded_enumerate)
    for name in ("anchors", "anchor_determinants"):
        monkeypatch.setattr(orders.FamilyAnalysis, name, guarded(name))
    got, out, _ = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_each_order_gets_one_verdict(capsys, monkeypatch):
    # the catalog's median request: a family with no quasi-smooth member,
    # whose nine orders up to 13 the routing hands, but for the chain
    # refutations, to the oracle; each builds one verdict, not a copy
    built = []
    post_init = orders.OrderVerdict.__post_init__

    def counted(verdict):
        built.append(verdict.q)
        post_init(verdict)

    monkeypatch.setattr(orders.OrderVerdict, "__post_init__", counted)
    code, out, _ = run_cli(capsys, "orders", "--weights", "2,3,3,4,4", "--degree", "20", "--max-order", "13")
    assert code == 0
    assert built == [v["q"] for v in json.loads(out)["verdicts"]] == [2, 3, 4, 5, 7, 8, 9, 11, 13]


def test_the_routing_reaches_the_oracle_by_its_module_name(capsys, monkeypatch):
    # a wrapper put at `orders.oracle_exists_order`, as the benchmark's
    # tracer puts one, sees exactly the calls whose verdicts name the oracle;
    # the counterexample's chain refutations never reach it
    calls = []
    oracle = orders.oracle_exists_order

    def counted(*args, **kwargs):
        calls.append(args[1])
        return oracle(*args, **kwargs)

    monkeypatch.setattr(orders, "oracle_exists_order", counted)
    code, out, _ = run_cli(capsys, "orders", "--weights", "3,7,2,4,5", "--degree", "37", "--max-order", "37")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert Counter(v["provenance"] for v in verdicts) == {"oracle": 16, "necessary-condition": 3}
    assert [pp.q for pp in calls] == [v["q"] for v in verdicts if v["provenance"] == "oracle"]


def test_all_chains_past_the_cycle_budget_exits_2(capsys):
    # the report is printed, with the chains walked before the budget ran out
    argv = ("check", "--weights", "3,7,2,4,5", "--degree", "37", "--order", "23", "--explain", "--cycle-budget", "1")
    code, out, err = run_cli(capsys, *argv, "--all")
    assert (code, err) == (2, "budget exhausted: more than 1 cycles\n")
    report = json.loads(out)
    assert report.pop("all_chains") == [{"exponents": [10, 5, 17], "indices": [0, 1, 2]}]
    assert report == json.loads(run_cli(capsys, *argv)[1])


def test_klein_counts_cycles_under_a_raised_cycle_budget(capsys):
    # (1^10) d=3 has 9! = 362880 Hamiltonian cycles: the default budget
    # stops their count, and with it the report, a raised one lets it through
    argv = ("orders", "--weights", ",".join(["1"] * 10), "--degree", "3", "--max-order", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "budget exhausted: more than 100000 cycles\n")
    assert "klein" not in json.loads(out) and json.loads(out)["error"] == "more than 100000 cycles"
    code, out, err = run_cli(capsys, *argv, "--cycle-budget", "1000000")
    assert (code, err) == (0, "")
    assert json.loads(out)["klein"]["cycle_count"] == 362880


def test_max_order_too_large_to_sieve_is_an_error(capsys):
    # the sieve's 10^18 bytes cannot be allocated: exit 1, not a MemoryError
    code, out, err = run_cli(
        capsys, "orders", "--weights", "1,1,1", "--degree", "4",
        "--max-order", "1000000000000000000",
    )
    assert (code, out) == (1, "")
    assert err == "error: not enough memory to sieve the prime powers up to 1000000000000000000\n"


@pytest.mark.parametrize(
    "family",
    [("orders", "--weights", "1,1,1", "--degree", "4"), ("scan", "--dim", "1", "--max-weight", "1", "--degree", "4")],
    ids=["orders", "scan"],
)
def test_max_order_beyond_a_bytearray_is_an_error(capsys, family):
    # 10^20 is no bytearray length: exit 1, not an OverflowError
    code, out, err = run_cli(capsys, *family, "--max-order", str(10**20))
    assert (code, out) == (1, "")
    assert err == f"error: not enough memory to sieve the prime powers up to {10**20}\n"


def test_degree_beyond_int64_is_an_error(capsys):
    code, out, err = run_cli(capsys, "check", "--weights", "1,1,1", "--degree", str(10**19), "--order", "7")
    assert (code, out, err) == (1, "", "error: degree must be below 2**63\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--weights", "1,1,1", "--degree", str(2**63 - 1), "--order", "3"),
        ("scan", "--dim", "1", "--max-weight", "1", "--degree", str(2**63 - 1), "--max-order", "2"),
        ("check", "--weights", f"{2**40},1,1", "--degree", str(2**40 * (2**23 - 1)), "--order", "2"),
    ],
    ids=["check-ones", "scan-ones", "check-2^40"],
)
def test_counts_past_int64_leave_the_order_unresolved(capsys, argv):
    # the monomial tables of these families once came out empty, and every
    # order was refuted; the budget stops them, as at d = 2**63 - 2
    code, out, err = run_cli(capsys, *argv)
    (verdict,) = json.loads(out)["verdicts"]
    assert (code, err) == (2, "")
    assert (verdict["status"], verdict["notes"]) == ("unresolved", ["more than 10000000 monomials"])


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--weights", "1,2147483648,2147483649", "--degree", str(2**62), "--order", "2"),
        ("orders", "--weights", "1,2147483648,2147483649", "--degree", str(2**62), "--max-order", "3"),
    ],
    ids=["check", "orders"],
)
def test_a_semigroup_table_past_the_limit_is_an_error(capsys, argv):
    # the suffix (2**31, 2**31 + 1) of the weights would need a table of
    # about 2**62 bits: once a MemoryError traceback
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: a semigroup table of ")
    assert err.endswith(f"past SEMIGROUP_TABLE_LIMIT = {1 << 20}\n")


@pytest.mark.parametrize("nvars", [21, 24])
def test_a_closed_row_past_the_limit_is_an_error(nvars):
    # one closed row of the subset criterion, (nvars + 1) * 2**nvars float32
    # entries, is 176 MiB at 21 variables: refused before it is allocated
    argv = ["check", "--weights", ",".join(["1"] * nvars), "--degree", "3", "--order", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(wpsauto.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "wpsauto.cli", *argv], env=env, capture_output=True, text=True)
    entries = (nvars + 1) << nvars
    message = f"error: a closed row of {nvars} variables has {entries} entries, past CLOSURE_ROW_LIMIT = {1 << 25}\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


def test_monomial_budget_zero_is_honoured(capsys):
    budget = ("--max-order", "5", "--monomial-budget", "0")
    code, out, err = run_cli(capsys, "orders", "--weights", "1,1,1", "--degree", "4", *budget)
    assert code == 2
    assert "more than 0 monomials" in err
    jsonschema.validate(json.loads(out), SCHEMA)
    # the stopped report is the family's scan record, byte for byte
    assert run_cli(capsys, "scan", "--dim", "1", "--max-weight", "1", "--degree", "4", *budget) == (2, out, "")


@pytest.mark.parametrize(
    "flag", ["--oracle-budget", "--cycle-budget", "--monomial-budget", "--falsifier-budget"]
)
def test_negative_budget_is_a_usage_error(capsys, flag):
    code, out, err = run_cli(
        capsys, "check", "--weights", "1,1,1", "--degree", "4", "--order", "5", flag, "-1"
    )
    assert (code, out) == (64, "")
    assert "nonnegative" in err


def test_family_data_computed_once_per_request(capsys, monkeypatch):
    counts = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "wpsauto" or n.startswith("wpsauto.")]
    for name in ("klein_exists", "enumerate_monomials", "weight_digraph", "simple_cycles"):
        original = getattr(next(m for m in modules if hasattr(m, name)), name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    code, _, _ = run_cli(
        capsys, "orders", "--weights", "3,7,2,4,5", "--degree", "37", "--max-order", "37"
    )
    assert code == 0
    assert counts["klein_exists"] <= 1
    assert counts["enumerate_monomials"] <= 1
    assert counts["weight_digraph"] <= 1
    assert counts["simple_cycles"] <= 2  # the cycle chains, and the Klein cycles


@pytest.fixture
def built_analyses(monkeypatch):
    """A weak reference to each `FamilyAnalysis` built while the test runs."""
    built = []
    init = orders.FamilyAnalysis.__init__

    def recorded(an, *args, **kwargs):
        init(an, *args, **kwargs)
        built.append(weakref.ref(an))

    monkeypatch.setattr(orders.FamilyAnalysis, "__init__", recorded)
    return built


def test_one_analysis_per_request(capsys, built_analyses):
    # the divides-d criterion reads the request's analysis, not a default one
    argv = ("orders", "--weights", "1,1,1,2,3", "--degree", "6", "--monomial-budget", "1000")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(built_analyses) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("orders", "--weights", "1,1,1,2,3", "--degree", "6"),
        ("check", "--weights", "1,1,1,1", "--degree", "4", "--order", "7"),
        ("klein", "--weights", "1,1,1", "--degree", "4"),
        ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_analysis_outlives_its_request(capsys, built_analyses, argv):
    # nothing in the process keeps an analysis, so once a request returns,
    # every analysis it built is gone, with its tables and Klein rows
    assert run_cli(capsys, *argv)[0] == 0
    gc.collect()
    assert built_analyses
    assert [ref for ref in built_analyses if ref() is not None] == []


def test_check_bytes_do_not_depend_on_an_earlier_sweep(capsys):
    # (1,1,1,1) d=4 at q = 64, which no anchor quotient det K / d refutes:
    # the oracle scans its 7168 classes to refute it, in the same bytes
    # after a sweep to 64 has left its class slices in the process
    family = ("--weights", "1,1,1,1", "--degree", "4")
    alone = run_cli(capsys, "check", *family, "--order", "64")
    assert json.loads(alone[1])["verdicts"][0]["notes"][-1] == "exhausted all 7168 signature classes"
    run_cli(capsys, "orders", *family, "--max-order", "64")
    assert run_cli(capsys, "check", *family, "--order", "64") == alone


def test_report_bytes_are_the_same_with_cold_and_warm_caches(capsys, monkeypatch):
    # the pinned requests, first with no class slice kept, then again with
    # the slices the first pass left
    def replay():
        return [run_cli(capsys, *argv) for argv, _, _ in PINNED_REPORTS]

    monkeypatch.setattr(orders, "_slice_cache", {})
    cold = replay()
    assert orders._slice_cache
    assert replay() == cold


def test_a_patched_canonical_rows_sees_a_warm_slice(capsys, monkeypatch):
    # (1,1,1,1) d=4 at q = 7 scans a slice of 343 ranks, which the first
    # request keeps; the next request's analysis scans it again, through
    # _canonical_rows
    family = ("--weights", "1,1,1,1", "--degree", "4")
    monkeypatch.setattr(orders, "_slice_cache", {})
    first = run_cli(capsys, "check", *family, "--order", "7")
    assert list(orders._slice_cache) == [(7, 3)]
    scanned = []

    def counted_rows(*args):
        scanned.append(args)
        return canonical_rows(*args)

    monkeypatch.setattr(orders, "_canonical_rows", counted_rows)
    assert run_cli(capsys, "check", *family, "--order", "7") == first
    assert scanned == [(7, 7, 1, 3)]


def test_requests_read_only_the_exponent_matrices(capsys, monkeypatch):
    # no report needs a table's or a witness's tuple form
    def tuple_form(system):
        raise AssertionError("a request built MonomialSystem.monomials")

    monkeypatch.setattr(wpsauto.ambient.MonomialSystem, "monomials", property(tuple_form))
    for argv, code, _ in PINNED_REPORTS:
        assert run_cli(capsys, *argv)[0] == code, argv
    assert run_cli(capsys, "check", "--weights", "1,1,1,1", "--degree", "4", "--order", "7")[0] == 0


def test_order_with_two_large_prime_factors_fails_fast(capsys):
    q = (10**9 + 7) * (10**9 + 9)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", "--weights", "1,1,1", "--degree", "4", "--order", str(q))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: {q} is not a prime power\n"


# A plane quartic has no prime route and fails the linearity hypothesis, so
# the oracle decides these orders, over about q classes each.  Its arrays
# must not grow with q: a (classes x q) bucket matrix would need 65 GB here.
# Neither q divides an anchor determinant of the quartic, so the test
# replaces the determinants by {0}, which every q divides: the oracle then
# scans every class, as it would for a family with a zero determinant.
LARGE_ORDERS = [(1000003, 1000004), (1018081, 1019090)]


@pytest.mark.parametrize("q, classes", LARGE_ORDERS)
def test_oracle_at_a_large_order_is_bounded_by_its_classes(capsys, monkeypatch, q, classes):
    monkeypatch.setattr(orders.FamilyAnalysis, "anchor_determinants", property(lambda an: frozenset({0})))
    scanned = []

    def counted_rows(*args):
        scanned.append(args)
        return canonical_rows(*args)

    monkeypatch.setattr(orders, "_canonical_rows", counted_rows)
    tracemalloc.start()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", "--weights", "1,1,1", "--degree", "4", "--order", str(q))
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    (verdict,) = json.loads(out)["verdicts"]
    assert len(scanned) == 1
    assert (code, err) == (0, "")
    assert (verdict["status"], verdict["provenance"]) == ("refuted", "oracle")
    assert verdict["notes"][-1] == f"exhausted all {classes} signature classes"
    assert peak < 64 << 20
    assert elapsed < 20.0


@pytest.mark.parametrize("q, classes", LARGE_ORDERS)
def test_anchor_determinants_refute_a_large_order_without_a_scan(capsys, monkeypatch, q, classes):
    def no_scan(*args):
        raise AssertionError("the oracle scanned its classes")

    monkeypatch.setattr(orders, "_canonical_rows", no_scan)
    code, out, err = run_cli(capsys, "check", "--weights", "1,1,1", "--degree", "4", "--order", str(q))
    (verdict,) = json.loads(out)["verdicts"]
    assert (code, err) == (0, "")
    assert (verdict["status"], verdict["provenance"]) == ("refuted", "oracle")
    assert verdict["notes"][-1] == f"exhausted all {classes} signature classes"


def test_cli_imports_no_private_names():
    tree = ast.parse(Path(wpsauto.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--dim", "1", "--max-weight", "1", "--degree", "3..x"),
        ("scan", "--dim", "1", "--max-weight", "1", "--degree", "..5"),
        ("scan", "--dim", "-5", "--max-weight", "1", "--degree", "4"),
        ("scan", "--dim", "0", "--max-weight", "1", "--degree", "4"),
        ("scan", "--dim", "1", "--max-weight", "1", "--degree", "4", "--max-order", "0"),
        ("scan", "--dim", "1", "--max-weight", "1", "--degree", "4", "--max-order", "-3"),
        ("scan", "--dim", "1", "--max-weight", "1", "--degree", "4", "--workers", "0"),
        ("orders", "--weights", "1,1,1", "--degree", "4", "--max-order", "0"),
        ("orders", "--weights", "1,1,1", "--degree", "4", "--max-order", "-3"),
    ],
)
def test_out_of_range_integer_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ")


def test_pooled_scan_to_stdout(capsys, monkeypatch):
    args = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5")
    serial = run_cli(capsys, *args)
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            pools.append(self)
            super().__init__(*a, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    assert run_cli(capsys, *args, "--workers", "2") == serial
    assert len(pools) == 1


def test_scan_workers_are_capped_by_the_families_left(capsys, monkeypatch):
    # a forked pool starts all its workers at its first task
    pools = []

    class RecordingPool:  # records its size and starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    nine = ("scan", "--dim", "1", "--max-weight", "2", "--degree", "3..5")
    serial = run_cli(capsys, *nine)
    assert run_cli(capsys, *nine, "--workers", "64") == serial
    assert pools == [9]
    # one family: no pool at all
    code, out, _ = run_cli(capsys, "scan", "--dim", "1", "--max-weight", "1", "--degree", "4", "--workers", "64")
    assert (code, len(out.splitlines()), pools) == (0, 1, [9])


def test_the_cli_imports_no_process_pool():
    # the pool machinery is imported only where `scan --workers N` starts one
    code = (
        "import sys, wpsauto.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in {'concurrent', 'multiprocessing'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wpsauto.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("degrees", [("--max-degree", "3", "--degree", "5"), ()])
def test_scan_takes_exactly_one_degree_flag(capsys, degrees):
    # --max-degree was once dropped without a word when --degree was given
    code, out, err = run_cli(capsys, "scan", "--dim", "1", "--max-weight", "1", *degrees)
    assert (code, out) == (64, "")
    assert err.startswith("usage error: ")
