"""Spans around the public functions of each wpsauto layer, from outside.

`Tracer.install()` replaces every traced function with a wrapper in every
``wpsauto.*`` namespace that binds it, so calls through re-exports and
``from .x import f`` imports are seen too.  Spans (layer, parent, start,
end) are kept in memory in flat arrays; self time is a span's
duration minus the durations of its direct children.  Generators (cycle
enumeration) get one span per resumption, so time spent in the consumer
between items is not charged to them.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs traced, each reported as "<module>.<function>".
LAYERS = (
    ("cli", "main"),
    ("report", "klein_section"),
    ("report", "bounds_section"),
    ("report", "dumps"),
    ("orders", "admissible_orders"),
    ("orders", "sufficient_condition"),
    ("orders", "necessary_condition"),
    ("orders", "divides_d_criterion"),
    ("orders", "oracle_exists_order"),
    ("klein", "klein_exists"),
    ("klein", "klein_quasismooth"),
    ("klein", "klein_max_prime"),
    ("klein", "eigenspace_filter"),
    ("klein", "klein_eigenspace_check"),
    ("cycles", "simple_cycles"),
    ("quasismooth", "subset_criterion"),
    ("quasismooth", "singular_point_search"),
    ("ambient", "enumerate_monomials"),
    ("arith", "effective_order"),
)

_CLASSES = re.compile(
    r"classes examined: (\d+)|exhausted all (\d+) signature classes|exhausted after (\d+)"
)


def _count_oracle(counts, verdict) -> None:
    for note in verdict.notes:
        match = _CLASSES.search(note)
        if match:
            counts["orders.oracle_exists_order.classes"] += int(next(g for g in match.groups() if g))
    if verdict.status == "unresolved":
        counts["orders.oracle_exists_order.unresolved"] += 1


def _count_monomials(counts, system) -> None:
    counts["ambient.enumerate_monomials.monomials"] += len(system.monomials)


def _count_subset(counts, passed) -> None:
    counts["quasismooth.subset_criterion.passed"] += bool(passed)


def _count_points(counts, result) -> None:
    counts["quasismooth.singular_point_search.points"] += result.tested


# Extra counters per layer, computed from the wrapped call's result.
COUNTERS = {
    "orders.oracle_exists_order": _count_oracle,
    "ambient.enumerate_monomials": _count_monomials,
    "quasismooth.subset_criterion": _count_subset,
    "quasismooth.singular_point_search": _count_points,
}


class Tracer:
    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.names: list[str] = []

    def _open(self, layer_id: int) -> int:
        sid = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        layer_id = len(self.names)
        self.names.append(name)
        calls = f"{name}.calls"
        count = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            sid = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, result)
                return result
            finally:
                self._close(sid)

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            counts[calls] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = self._open(layer_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                counts[f"{name}.items"] += 1
                yield item

        return traced_generator if inspect.isgeneratorfunction(fn) else traced

    def install(self) -> None:
        """Patch every traced function into every wpsauto namespace binding it."""
        modules = [m for k, m in sys.modules.items() if k == "wpsauto" or k.startswith("wpsauto.")]
        for module_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"wpsauto.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over all recorded spans."""
        n = len(self.layer)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {name: 0.0 for name in self.names}
        for sid in range(n):
            out[self.names[self.layer[sid]]] += self.end[sid] - self.start[sid] - child[sid]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counters, keyed by metric name."""
        out: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            out[f"{name}.calls"] = self.counts[f"{name}.calls"]
            out[f"{name}.self_s"] = seconds
        out["orders.oracle_exists_order.classes"] = self.counts["orders.oracle_exists_order.classes"]
        out["orders.oracle_exists_order.unresolved"] = self.counts["orders.oracle_exists_order.unresolved"]
        out["cycles.simple_cycles.cycles"] = self.counts["cycles.simple_cycles.items"]
        out["ambient.enumerate_monomials.monomials"] = self.counts["ambient.enumerate_monomials.monomials"]
        calls = self.counts["quasismooth.subset_criterion.calls"]
        out["quasismooth.subset_criterion.pass_ratio"] = (
            self.counts["quasismooth.subset_criterion.passed"] / calls if calls else 0.0
        )
        points = self.counts["quasismooth.singular_point_search.points"]
        busy = out["quasismooth.singular_point_search.self_s"]
        out["quasismooth.singular_point_search.points"] = points
        out["quasismooth.singular_point_search.points_per_s"] = points / busy if busy else 0.0
        return out
