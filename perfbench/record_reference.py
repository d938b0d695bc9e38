"""Write reference.json: the verdict statuses wpsauto gives today.

For every request of each workload's panel, the status letters of the
report's verdicts are stored under the family and the orders asked for.
check.py compares every later report whose key is here.
Run it at the commit whose verdicts are the reference:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import check
import workloads


def main() -> int:
    sys.path.insert(0, str(check.ROOT / "src"))
    from wpsauto.cli import main as wpsauto_main

    statuses = {}
    for workload in workloads.WORKLOADS:
        for argv in map(list, workloads.panel(workload)):
            if "--falsifier-budget" in argv:  # the verdict does not depend on it
                argv = argv[: argv.index("--falsifier-budget")] + ["--falsifier-budget", "0"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = wpsauto_main(argv)
            if rc in (0, 2):
                report = json.loads(out.getvalue())
                statuses[check.reference_key(check.parse_request(argv))] = check.statuses(report)
        print(f"{workload}: {len(workloads.panel(workload))} requests", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=check.ROOT, capture_output=True, text=True
    ).stdout.strip()
    check.REFERENCE.write_text(
        json.dumps({"commit": commit, "counts": workloads.PANEL_SIZE, "statuses": statuses}, indent=0, sort_keys=True)
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
