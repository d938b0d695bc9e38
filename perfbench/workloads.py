"""Seeded request lists for the three benchmark workloads.

The generator uses only its own integer arithmetic, never wpsauto, so the
program under test receives nothing but command-line arguments.  Each
workload has a fixed panel of requests, drawn once with a fixed seed.  A run
of S seconds sends the first ``run_size(workload, S)`` requests of the panel,
each exactly once, in an order drawn from the run's seed.  Every run of a
workload therefore does the same work and meets the same failures; the seed
changes only the order.

* ``sweep``: ``orders --max-order 64`` on n = 2 families (weights <= 7,
  d <= 40, not every weight dividing d, every variable anchored).  The
  signature-class oracle does most of the work, on its numpy bitmask path
  (q <= 62) and its pure-Python set path (q = 64), reusing one family's
  tables across 27 values of q.
* ``catalog``: ``orders --max-order 13`` on families the oracle accepts
  (n = 1, 2, 3, weights <= 6, 3 <= d <= 30).  Scan breadth: each family's
  monomial table, digraph, cycles, Klein data and bounds are built and then
  used for only 9 small q.
* ``certify``: ``--seed s check --falsifier-budget 10000`` on anchored n = 2
  families (weights <= 6, d <= 30), q cycling through 2, 3, 4, 5, 7, 8, 9,
  with a seed s fixed per request.  The finite-field singular-point
  falsifier runs on every certified verdict and dominates.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator

WORKLOADS = ("sweep", "catalog", "certify")
CERTIFY_ORDERS = (2, 3, 4, 5, 7, 8, 9)
# Requests per second at the seed commit, on a 2-vCPU x86 VM at 2.1 GHz:
# a run of S seconds sends round(S * RATE) requests.
RATE = {"sweep": 1.6, "catalog": 38.0, "certify": 55.0}
# Panel lengths: enough for runs of 60 s.
PANEL_SIZE = {"sweep": 96, "catalog": 2700, "certify": 3300}


def well_formed(weights: tuple[int, ...]) -> bool:
    """Every n+1 of the n+2 weights have gcd 1."""
    return all(
        math.gcd(*(w for j, w in enumerate(weights) if j != i)) == 1
        for i in range(len(weights))
    )


def anchored(weights: tuple[int, ...], d: int) -> bool:
    """Every variable has a degree-d monomial x_i^k or x_i^k * x_j."""
    return all(
        d % a == 0
        or any(j != i and d - b >= a and (d - b) % a == 0 for j, b in enumerate(weights))
        for i, a in enumerate(weights)
    )


def accepted(weights: tuple[int, ...], d: int) -> bool:
    """Families the oracle takes: well-formed, d > 2 max a, not a cone."""
    return (
        d >= 3
        and math.gcd(*weights) == 1
        and well_formed(weights)
        and d > 2 * max(weights)
        and d not in weights
    )


def population(nvars: int, max_weight: int, max_degree: int, keep) -> list[tuple[tuple[int, ...], int]]:
    """All (sorted weights, degree) pairs with accepted() and keep(), in a fixed order."""
    return [
        (ws, d)
        for ws in combinations_with_replacement(range(1, max_weight + 1), nvars)
        for d in range(3, max_degree + 1)
        if accepted(ws, d) and keep(ws, d)
    ]


def _draws(pop: list, rng: random.Random) -> Iterator:
    """Endless draws without replacement; reshuffles after each full pass."""
    while True:
        order = pop[:]
        rng.shuffle(order)
        yield from order


def _family_args(ws: tuple[int, ...], d: int) -> list[str]:
    return ["--weights", ",".join(map(str, ws)), "--degree", str(d)]


def certify_families() -> list:
    """The anchored n = 2 families that certify's requests pass over."""
    return population(4, 6, 30, anchored)


@lru_cache(maxsize=None)
def panel(workload: str) -> tuple[tuple[str, ...], ...]:
    """The fixed requests of a workload, drawn once with a fixed seed.

    Fixed panels keep runs comparable across seeds.  With a fresh sample per
    seed, sweep's requests (0.3-3 s each, time coefficient of variation 0.34)
    spread items_per_s and item_p50_ms by 0.12-0.14 across five seeds, and on
    catalog a few families of 1-4 s each (such as 1,1,2,2,2 d=27) decided a
    run's rate by whether it drew them.  On certify, one falsifier seed per
    run made the CoefficientCollision share swing between 2% and 42%.
    """
    rng = random.Random(f"{workload}-panel")
    size = PANEL_SIZE[workload]
    if workload == "sweep":
        families = population(4, 7, 40, lambda ws, d: anchored(ws, d) and any(d % w for w in ws))
        return tuple(
            ("orders", *_family_args(ws, d), "--max-order", "64") for ws, d in rng.sample(families, size)
        )
    if workload == "catalog":
        families = [fam for nv in (3, 4, 5) for fam in population(nv, 6, 30, lambda ws, d: True)]
        return tuple(
            ("orders", *_family_args(ws, d), "--max-order", "13") for ws, d in rng.sample(families, size)
        )
    if workload == "certify":
        families = _draws(certify_families(), rng)
        return tuple(
            (
                "--seed", str(rng.randrange(1 << 31)), "check", *_family_args(*next(families)),
                "--order", str(CERTIFY_ORDERS[k % len(CERTIFY_ORDERS)]),
                "--falsifier-budget", "10000",
            )
            for k in range(size)
        )
    raise ValueError(f"unknown workload {workload!r}")


def run_size(workload: str, seconds: float) -> int:
    """Requests in a run of `seconds` at the seed commit's rate, capped by the panel."""
    return max(1, min(PANEL_SIZE[workload], round(seconds * RATE[workload])))


def requests(workload: str, seed: int, size: int) -> list[list[str]]:
    """The first `size` requests of the panel, in the order the seed draws.

    On certify the order is shuffled only within blocks of one pass over the
    families, so a family comes back only after (almost) all the others and
    the oracle's per-family table cache does not help.
    """
    chosen = [list(argv) for argv in panel(workload)[:size]]
    rng = random.Random(f"{workload}:{seed}")
    block = len(certify_families()) if workload == "certify" else len(chosen)
    out: list[list[str]] = []
    for start in range(0, len(chosen), block):
        part = chosen[start : start + block]
        rng.shuffle(part)
        out += part
    return out
