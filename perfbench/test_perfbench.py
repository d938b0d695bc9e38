"""Self-tests of the benchmark's own code; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest

import check
import workloads

sys.path.insert(0, str(check.ROOT / "src"))
from wpsauto.ambient import WeightedFamily, is_linear_cone, lin_finite, well_formed  # noqa: E402
from wpsauto.cli import main as wpsauto_main  # noqa: E402


def _report(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = wpsauto_main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def reports() -> list[tuple[list[str], int, str]]:
    """Reports for the requests of short runs of every workload at seed 3."""
    out = []
    for workload, count in (("catalog", 40), ("certify", 14), ("sweep", 1)):
        for argv in workloads.requests(workload, 3, count):
            rc, text = _report(argv)
            if rc in (0, 2):
                out.append((argv, rc, text))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.requests(workload, 11, 60)
    assert first == workloads.requests(workload, 11, 60)
    assert first != workloads.requests(workload, 12, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_sends_the_same_requests(workload):
    size = workloads.run_size(workload, 10)
    assert sorted(workloads.requests(workload, 1, size)) == sorted(workloads.requests(workload, 2, size))
    assert len(workloads.requests(workload, 1, size)) == size


def test_certify_repeats_a_family_only_after_a_pass_over_the_others():
    block = len(workloads.certify_families())
    argv = workloads.requests("certify", 4, 2 * block)
    families = [tuple(a[a.index("--weights") : a.index("--order")]) for a in argv]
    assert len(set(families[:block])) == block
    assert len(set(families[block:])) == block


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_families_are_accepted_by_the_program_predicates(workload):
    for argv in workloads.requests(workload, 5, 200):
        request = check.parse_request(argv)
        fam = WeightedFamily(tuple(request["weights"]), request["degree"])
        assert well_formed(fam) and lin_finite(fam) and not is_linear_cone(fam)
        if workload != "catalog":
            assert workloads.anchored(fam.weights, fam.degree)


def test_checker_accepts_real_reports(reports):
    schema = check.Schema.load()
    for argv, rc, text in reports:
        assert check.report_problems(argv, rc, text, schema, {}) == [], argv


def test_checker_rejects_a_certificate_with_one_signature_entry_altered(reports):
    altered = 0
    for argv, _, text in reports:
        request = check.parse_request(argv)
        for verdict in json.loads(text)["verdicts"]:
            if verdict["status"] != "certified":
                continue
            assert check.certificate_problem(request["weights"], request["degree"], verdict) is None
            for i in range(len(verdict["signature"])):
                bad = copy.deepcopy(verdict)
                bad["signature"][i] = (bad["signature"][i] + 1) % bad["q"]
                exponents = {e[i] % bad["q"] for e in bad["witness_monomials"]}
                if len(exponents) > 1:  # otherwise every bucket shifts together
                    assert check.certificate_problem(request["weights"], request["degree"], bad)
                    altered += 1
    assert altered > 50


def test_schema_walker_agrees_with_jsonschema(reports):
    jsonschema = pytest.importorskip("jsonschema")
    schema = check.Schema.load()
    reference = jsonschema.Draft202012Validator(schema.root)
    report = json.loads(reports[0][2])
    mutations = [
        ("seed", "x"), ("weights", [1, 2]), ("degree", 0), ("flags", {}), ("verdicts", [{"q": 1}]),
        ("bounds", {"divides_d": {"bound": "1/x", "kind": "coprime"}}), ("klein", {"exists": "no"}),
    ]
    cases = [report]
    for key, value in mutations:
        bad = copy.deepcopy(report)
        bad[key] = value
        cases.append(bad)
    bad = copy.deepcopy(report)
    bad["verdicts"][0]["signature"] = [1, True, None]
    cases.append(bad)
    for case in cases:
        assert bool(schema.errors(case)) == bool(list(reference.iter_errors(case))), case
    assert not schema.errors(report)


def test_reference_allows_only_unresolved_to_decided():
    ref = {"k": "cru"}
    assert check.reference_problem("k", "crc", ref) is None
    assert check.reference_problem("k", "crr", ref) is None
    assert check.reference_problem("k", "rru", ref)
    assert check.reference_problem("k", "cuu", ref)
    assert check.reference_problem("other", "rrr", ref) is None


def test_traced_worker_reports_layers_and_same_bytes():
    def worker(*extra):
        proc = subprocess.run(
            [sys.executable, str(check.ROOT / "perfbench" / "worker.py"), "--workload", "catalog",
             "--seed", "2", "--size", "6", *extra],
            capture_output=True, text=True, check=True, timeout=120,
        )
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        return lines[:-1], lines[-1]["done"]

    plain, _ = worker()
    traced, done = worker("--trace")
    assert [(r["argv"], r["rc"], r["out"]) for r in plain] == [(r["argv"], r["rc"], r["out"]) for r in traced]
    layers = done["layers"]
    assert layers["cli.main.calls"] == 6
    assert layers["ambient.enumerate_monomials.monomials"] > 0
    self_s = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0.97 <= self_s / sum(r["s"] for r in traced) <= 1.0 + 1e-6
