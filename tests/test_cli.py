import json
from pathlib import Path

import jsonschema
import pytest

from wpsauto.cli import main

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


def test_monomial_budget_applies_to_its_own_call_only(capsys):
    code, _, err = run_cli(
        capsys, "orders", "--weights", "1,1,2,3", "--degree", "7", "--max-order", "8",
        "--monomial-budget", "3",
    )
    assert code == 2
    assert "more than 3 monomials" in err
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

    code, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1,1", "--degree", "2")
    assert json.loads(out)["klein"]["quasi_smooth"] is False


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

    # simulate an interrupted run: two complete records, a torn third line,
    # and a cursor pointing at the second record
    part = tmp_path / "part.jsonl"
    part.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2])
    record = json.loads(lines[1])
    key = [len(record["weights"]) - 2, record["weights"], record["degree"]]
    (tmp_path / "part.jsonl.cursor").write_text(json.dumps({"key": key}))

    run_cli(capsys, *args, "--out", str(part), "--resume")
    assert part.read_bytes() == full.read_bytes()


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


def test_scan_empty_range(capsys):
    code, out, _ = run_cli(capsys, "scan", "--dim", "1", "--max-weight", "1", "--degree", "5..4")
    assert code == 0
    assert out.strip() == ""


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


def test_verify_injected_failure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inject-failure", "klein-quartic-curve")
    assert code == 3
    assert "FAIL klein-quartic-curve" in out
    assert "expected:" in out


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


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("WPSAUTO_SEED", "42")
    _, out, _ = run_cli(capsys, "klein", "--weights", "1,1,1", "--degree", "4")
    assert json.loads(out)["seed"] == 42


def test_check_all_chains(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--weights", "3,7,2,4,5", "--degree", "37", "--order", "23", "--all",
    )
    assert code == 0
    report = json.loads(out)
    chains = report["all_chains"]
    assert {"indices": [0, 1, 2], "exponents": [10, 5, 17]} in chains
