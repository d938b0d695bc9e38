"""Shared corpus enumerators and independent brute-force oracles."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product
from typing import Iterator

import numpy as np

from wpsauto import WeightedFamily
from wpsauto.ambient import well_formed
from wpsauto.arith import gcd_all


def families(
    dims: tuple[int, ...],
    max_weight: int,
    degrees: range,
    require_well_formed: bool = True,
) -> Iterator[WeightedFamily]:
    """Weight multisets (nondecreasing) with gcd 1, crossed with degrees."""
    for n in dims:
        for ws in combinations_with_replacement(range(1, max_weight + 1), n + 2):
            if gcd_all(ws) != 1:
                continue
            for d in degrees:
                fam = WeightedFamily(ws, d)
                if require_well_formed and not well_formed(fam):
                    continue
                yield fam


def brute_semigroup_contains(gens: set[int], target: int) -> bool:
    """Exhaustive coefficient search, independent of the DP implementation."""
    gens = sorted(gens)

    def rec(i: int, remaining: int) -> bool:
        if remaining == 0:
            return True
        if i == len(gens):
            return False
        g = gens[i]
        for k in range(remaining // g + 1):
            if rec(i + 1, remaining - k * g):
                return True
        return False

    return rec(0, target)


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def series_monomial_count(weights, degree: int) -> int:
    """Coefficient of t^degree in prod 1/(1 - t^w), by truncated convolution."""
    coeffs = [1] + [0] * degree
    for w in weights:
        out = [0] * (degree + 1)
        for k in range(0, degree + 1, w):  # geometric series in t^w
            for j in range(degree + 1 - k):
                out[j + k] += coeffs[j]
        coeffs = out
    return coeffs[degree]


def brute_monomials(weights, degree: int) -> set[tuple[int, ...]]:
    """All exponent vectors of the weighted degree, by full grid search."""
    ranges = [range(degree // w + 1) for w in weights]
    return {
        e
        for e in product(*ranges)
        if sum(w * x for w, x in zip(weights, e)) == degree
    }


def brute_canonical_mask(S: np.ndarray, q: int) -> np.ndarray:
    """Rows of S (entries mod q) that are lexicographically least in their
    unit orbit, by comparing each row with u*S mod q for every unit u.  A row
    drops out at the first unit that makes it smaller."""
    radix = np.array([q ** (S.shape[1] - 1 - k) for k in range(S.shape[1])], dtype=np.int64)
    keys = S @ radix
    least = np.arange(len(S))
    for u in range(2, q):
        if math.gcd(u, q) == 1:
            least = least[keys[least] <= (u * S[least] % q) @ radix]
    mask = np.zeros(len(S), dtype=bool)
    mask[least] = True
    return mask


def brute_canonical_full_signature(weights, sigma, q: int) -> tuple[int, ...]:
    """Lexicographically least element of {u*sigma + c*a mod q}, by trying
    every unit u and every translation c."""
    best = None
    for u in range(1, q):
        if math.gcd(u, q) != 1:
            continue
        base = [u * s % q for s in sigma]
        for c in range(q):
            cand = tuple((b + c * w) % q for b, w in zip(base, weights))
            if best is None or cand < best:
                best = cand
    return best
