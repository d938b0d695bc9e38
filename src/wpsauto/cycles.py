"""Exhaustive simple-cycle enumeration for small directed graphs.

The digraphs here have at most a handful of vertices (one per variable), so
a depth-first search that roots every cycle at its smallest vertex is both
exhaustive and emits cycles in lexicographic order of their index tuples,
which the criteria rely on for deterministic tie-breaking.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .errors import BudgetExceeded

__all__ = ["simple_cycles", "CYCLE_BUDGET"]

#: Default cap on the number of emitted cycles.
CYCLE_BUDGET = 10**5


def simple_cycles(
    adjacency: Mapping[int, Sequence[int]],
    min_len: int = 2,
    max_len: int | None = None,
    budget: int = CYCLE_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Yield all simple cycles of length min_len..max_len, lexicographically.

    Each cycle is a tuple of at least two distinct vertices starting at its
    smallest member, so self-loops are never reported, and a min_len below
    2 is a ValueError.  Raises BudgetExceeded when more than `budget`
    cycles would be emitted.
    """
    if min_len < 2:
        raise ValueError(f"min_len must be at least 2, got {min_len}")
    vertices = sorted(set(adjacency) | {w for vs in adjacency.values() for w in vs})
    if max_len is None:
        max_len = len(vertices)
    neighbors = {v: sorted(set(adjacency.get(v, ()))) for v in vertices}
    emitted = 0
    for start in vertices:
        path = [start]
        on_path = {start}
        # stack of iterators over candidate successors (all > start); explicit,
        # not recursion, as a path may outgrow the interpreter's recursion limit
        stack = [iter(neighbors[start])]
        while stack:
            advanced = False
            for nxt in stack[-1]:
                if nxt == start and min_len <= len(path) <= max_len:
                    emitted += 1
                    if emitted > budget:
                        raise BudgetExceeded(budget, "cycles")
                    yield tuple(path)
                    continue
                if nxt <= start or nxt in on_path or len(path) >= max_len:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                stack.append(iter(neighbors[nxt]))
                advanced = True
                break
            if not advanced:
                stack.pop()
                dropped = path.pop()
                on_path.discard(dropped)
