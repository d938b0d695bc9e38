"""The wpsauto benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,catalog,certify} --seed N \\
        --seconds S --trace {0,1}

One caller drives `wpsauto.cli.main(argv)` in a closed loop (each request
sent after the previous one returns) inside one child process per pass; see
workloads.py for what each workload sends and why.  A pass sends a fixed
number of requests, about S seconds of them at the seed commit, so every
run of a workload does the same work whatever its seed.  Every report is
checked (check.py) after the timed loop.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics:

* --trace 0: end-to-end metrics of one pass, plus set-up time (median of
  fresh interpreters importing `wpsauto.cli` and answering one tiny request,
  half of them before the pass and half after it).
* --trace 1: an untraced pass of S/2 seconds' requests, then the same
  requests again in a fresh process with spans around each layer
  (spans.py).  The traced reports must be byte-identical to the untraced
  ones and the layers' self times must account for the traced wall time.

The line before it is a JSON summary: environment, request and verdict
counts, shares by status and provenance, and what failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed before the pass and again after it.
SETUP_RUNS = 6
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); from wpsauto.cli import main; "
    "main(['orders', '--weights', '1,1,1', '--degree', '3', '--max-order', '3'])"
)
# Exit codes of requests that returned a report; 1 and 64 are failures.
REPORTED = (0, 2)
PROVENANCE_GROUPS = {
    "oracle": "oracle",
    "divides-d-criterion": "divides-d",
    "sufficient-condition": "chain",
    "necessary-condition": "chain",
    "bound-divides-d": "bound",
    "bound-coprime": "bound",
}
# Traced self times must cover at least this share of traced request time.
ACCOUNTED_MIN = 0.97
# wpsauto makes no BLAS calls (its matrix products are on integers), but
# numpy's OpenBLAS starts a thread per core at import.  On two cores those
# threads made a fresh interpreter's set-up time jump between about 0.20 s
# and 0.30 s, depending on whether the second core was free, so every child
# gets one.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def run_pass(workload: str, seed: int, size: int, trace: bool) -> tuple[list[dict], dict]:
    """One worker process; returns its request records and its final summary."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--size", str(size)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines[:-1], lines[-1]["done"]


def setup_seconds() -> list[float]:
    """Wall times of SETUP_RUNS fresh interpreters, each answering one tiny request."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL
        )
        # wait() with a timeout polls in sleeps of up to 50 ms, which rounded
        # set-up times to 50 ms steps; without one it blocks until the exit.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        returncode = proc.wait()
        times.append(time.perf_counter() - start)
        watchdog.cancel()
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, proc.args)
    return times


def judge(records: list[dict], schema: check.Schema, reference: dict) -> dict:
    """Per-request outcome: ok, failed (and why), verdict statuses and provenances."""
    ok, failures, problems = [], [], []
    statuses: Counter = Counter()
    provenances: Counter = Counter()
    for rec in records:
        if rec["rc"] not in REPORTED:
            failures.append(f"{' '.join(rec['argv'])}: exit {rec['rc']}: {rec['err'].strip()[-300:]}")
            continue
        found = check.report_problems(rec["argv"], rec["rc"], rec["out"], schema, reference)
        if found:
            problems.append(f"{' '.join(rec['argv'])}: {'; '.join(found)}")
            continue
        ok.append(rec)
        for verdict in json.loads(rec["out"])["verdicts"]:
            statuses[verdict["status"]] += 1
            provenances[verdict["provenance"]] += 1
    return {
        "attempted": len(records), "ok": ok, "failures": failures, "problems": problems,
        "statuses": statuses, "provenances": provenances,
    }


def environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def shares(outcome: dict) -> dict:
    attempted = outcome["attempted"]
    verdicts = sum(outcome["statuses"].values())
    groups: Counter = Counter()
    for prov, n in outcome["provenances"].items():
        groups[PROVENANCE_GROUPS.get(prov, prov)] += n
    return {
        "requests": attempted,
        "requests_ok": len(outcome["ok"]),
        "verdicts": verdicts,
        "unresolved_share": outcome["statuses"]["unresolved"] / verdicts if verdicts else 0.0,
        "failed_share": (attempted - len(outcome["ok"])) / attempted,
        "status_share": {k: n / verdicts for k, n in sorted(outcome["statuses"].items())},
        "provenance_share": {k: n / verdicts for k, n in sorted(groups.items())},
    }


def untraced(args, schema, reference) -> tuple[dict, dict, dict]:
    setup = setup_seconds()
    size = workloads.run_size(args.workload, args.seconds)
    records, done = run_pass(args.workload, args.seed, size, trace=False)
    setup += setup_seconds()
    outcome = judge(records, schema, reference)
    latencies = sorted(rec["s"] * 1000 for rec in outcome["ok"])
    verdicts = sum(outcome["statuses"].values())
    metrics = {
        "items_per_s": (len(outcome["ok"]) / done["wall_s"], "1/s"),
        "item_p50_ms": (statistics.median(latencies), "ms"),
        "resolved_share": (1 - outcome["statuses"]["unresolved"] / verdicts, "ratio"),
        "ok_share": (len(outcome["ok"]) / outcome["attempted"], "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (done["peak_rss_kb"] / 1024, "MB"),
    }
    tail = {"item_p90_ms": statistics.quantiles(latencies, n=10)[-1], "latency_samples": len(latencies)}
    return metrics, outcome, tail


def traced(args, schema, reference) -> tuple[dict, dict, dict]:
    size = workloads.run_size(args.workload, args.seconds / 2)
    plain, _ = run_pass(args.workload, args.seed, size, trace=False)
    records, done = run_pass(args.workload, args.seed, size, trace=True)
    outcome = judge(records, schema, reference)
    mismatched = [
        " ".join(a["argv"]) for a, b in zip(plain, records)
        if (a["argv"], a["rc"], a["out"]) != (b["argv"], b["rc"], b["out"])
    ]
    if len(plain) != len(records):
        mismatched.append(f"{len(plain)} untraced requests, {len(records)} traced")
    outcome["problems"] += [f"traced report differs: {m}" for m in mismatched]
    layers = done["layers"]
    traced_s = sum(rec["s"] for rec in records)
    accounted = sum(v for k, v in layers.items() if k.endswith(".self_s")) / traced_s
    if not ACCOUNTED_MIN <= accounted <= 1.0 + 1e-6:
        outcome["problems"].append(f"layer self times account for {accounted:.4f} of traced time")
    layers["trace.overhead_ratio"] = traced_s / sum(rec["s"] for rec in plain)
    units = {"calls": "count", "self_s": "s", "pass_ratio": "ratio", "points_per_s": "1/s", "overhead_ratio": "ratio"}
    metrics = {k: (v, units.get(k.rsplit(".", 1)[1], "count")) for k, v in layers.items()}
    return metrics, outcome, {"accounted": accounted}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wpsauto" / "cli.py").is_file():
        print(f"no wpsauto sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    schema = check.Schema.load()
    reference = check.load_reference()
    metrics, outcome, extra = (traced if args.trace else untraced)(args, schema, reference)
    summary = {
        "environment": environment(args),
        **shares(outcome),
        **extra,
        "failures": outcome["failures"][:20],
        "problems": outcome["problems"][:20],
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["attempted"] - len(outcome["ok"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
