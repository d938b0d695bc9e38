"""One workload process: a single caller driving `wpsauto.cli.main` in a closed loop.

Each request is sent only after the previous one returns.  Every request
becomes one JSON line on stdout (argv, exit code, report text, stderr,
latency); a final line carries the loop's wall time, the process's peak
RSS and, when traced, the per-layer metrics.  Reports are checked by the
parent, outside the timed loop.

    python3 perfbench/worker.py --workload W --seed S --size N [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WARMUP = ["orders", "--weights", "1,1,1", "--degree", "3", "--max-order", "3"]


def _call(main, argv: list[str]) -> tuple[object, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc: object = main(argv)
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    os.environ.pop("WPSAUTO_SEED", None)  # reports must echo the seed the request names
    sys.path.insert(0, str(ROOT / "src"))
    import wpsauto.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "wpsauto":
        raise SystemExit(f"imported wpsauto from {cli.__file__}, not from this checkout")

    _call(cli.main, WARMUP)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    stdout = sys.stdout
    started = time.perf_counter()
    for argv in workloads.requests(args.workload, args.seed, args.size):
        rc, out, err, elapsed = _call(cli.main, argv)
        stdout.write(json.dumps({"argv": argv, "rc": rc, "out": out, "err": err, "s": elapsed}) + "\n")
    wall = time.perf_counter() - started
    final = {"wall_s": wall, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["layers"] = tracer.layer_metrics()
    stdout.write(json.dumps({"done": final}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
