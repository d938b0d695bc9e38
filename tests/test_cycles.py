import inspect
from itertools import permutations

import pytest

from wpsauto.cycles import simple_cycles
from wpsauto.errors import BudgetExceeded


def brute_cycles(adj: dict, min_len: int, max_len: int) -> set:
    """All simple cycles by checking every rotation-canonical vertex sequence."""
    verts = sorted(adj)
    found = set()
    for size in range(min_len, max_len + 1):
        for perm in permutations(verts, size):
            if perm[0] != min(perm):
                continue  # canonical rotation only
            edges = list(zip(perm, perm[1:] + (perm[0],)))
            if all(v in adj.get(u, ()) for u, v in edges):
                found.add(perm)
    return found


def test_triangle_both_directions():
    adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    got = list(simple_cycles(adj))
    assert set(got) == {(0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 2, 1)}


def test_lexicographic_emission():
    adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    got = list(simple_cycles(adj))
    assert got == sorted(got)


def test_no_self_loops():
    adj = {0: [0, 1], 1: [0]}
    assert list(simple_cycles(adj)) == [(0, 1)]


@pytest.mark.parametrize("min_len", [1, 0, -3])
def test_a_min_len_below_two_is_rejected(min_len):
    # a cycle has at least two vertices: at min_len 1 the self-loop (0,) was reported
    assert inspect.isgeneratorfunction(simple_cycles)
    with pytest.raises(ValueError, match=f"min_len must be at least 2, got {min_len}"):
        list(simple_cycles({0: [0, 1], 1: [0]}, min_len))


def test_a_cycle_longer_than_the_recursion_limit():
    # the walk keeps its own stack, so a path of 1100 vertices recurses nowhere
    n = 1100
    assert list(simple_cycles({i: [(i + 1) % n] for i in range(n)})) == [tuple(range(n))]


def test_matches_brute_force():
    graphs = [
        {0: [1], 1: [2], 2: [0, 3], 3: [1]},
        {0: [1, 3], 1: [2], 2: [0], 3: [2, 4], 4: [0, 1]},
        {i: [j for j in range(5) if j != i] for i in range(5)},
        {0: [], 1: [0], 2: [1]},
    ]
    for adj in graphs:
        nverts = len(adj)
        got = set(simple_cycles(adj, 2, nverts))
        assert got == brute_cycles(adj, 2, nverts), adj


def test_length_bounds():
    adj = {i: [j for j in range(4) if j != i] for i in range(4)}
    only_hamiltonian = set(simple_cycles(adj, 4, 4))
    assert all(len(c) == 4 for c in only_hamiltonian)
    assert only_hamiltonian == brute_cycles(adj, 4, 4)


def test_budget():
    adj = {i: [j for j in range(6) if j != i] for i in range(6)}
    with pytest.raises(BudgetExceeded):
        list(simple_cycles(adj, 2, 6, budget=5))
