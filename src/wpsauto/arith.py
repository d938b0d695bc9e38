"""Exact integer primitives: primality, prime powers, gcd, semigroups, dot products.

Everything here is plain integer arithmetic.  The falsifier's float64 log
sums are exact where read: integers below 2^53 (`quasismooth._LogSpace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInput, NotAPrimePower

__all__ = [
    "PrimePowerOrder",
    "as_prime_power",
    "is_prime",
    "PRIMALITY_LIMIT",
    "prime_power_decompose",
    "gcd_all",
    "exact_dot",
    "semigroup_bits",
    "SEMIGROUP_TABLE_LIMIT",
    "effective_order",
    "linear_congruence_solutions",
    "primes_up_to",
    "prime_powers_up_to",
]

# Witnesses proving Miller-Rabin deterministic for n < 3.317e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: `is_prime` decides every n below this, and raises ValueError from it on.
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981

#: Bits of the tables `semigroup_bits` may build.
SEMIGROUP_TABLE_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.317e24.

    Uses Miller-Rabin with a fixed witness set that is proven complete in
    this range; larger inputs raise rather than degrade to a probabilistic
    answer.
    """
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"deterministic primality is only supported below {PRIMALITY_LIMIT}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimePowerOrder:
    """A candidate automorphism order q = p**r with p prime and r >= 1."""

    p: int
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("exponent r must be at least 1")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def q(self) -> int:
        return self.p**self.r

    def __str__(self) -> str:
        return f"{self.p}^{self.r}" if self.r > 1 else str(self.p)


def prime_power_decompose(q: int) -> PrimePowerOrder:
    """Write q >= 2 as p**r with p prime, or raise NotAPrimePower.

    If q = p**r, then r is the largest exponent for which q has an exact
    integer root, and that root is p: so the first exact root, trying r from
    bit_length - 1 down, decides, and no factor of q is searched for.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    for r in range(q.bit_length() - 1, 0, -1):
        root = _integer_root(q, r)
        if root**r == q:
            if is_prime(root):
                return PrimePowerOrder(root, r)
            break
    raise NotAPrimePower(f"{q} is not a prime power")


def _integer_root(n: int, r: int) -> int:
    """The largest x >= 1 with x**r <= n, for n >= 1, by integer bisection."""
    lo, hi = 1, 1 << (n.bit_length() // r + 1)  # hi**r > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**r <= n:
            lo = mid
        else:
            hi = mid
    return lo


def as_prime_power(q: "int | PrimePowerOrder") -> PrimePowerOrder:
    """Coerce an integer or PrimePowerOrder to a PrimePowerOrder."""
    if isinstance(q, PrimePowerOrder):
        return q
    return prime_power_decompose(q)


def gcd_all(xs: Sequence[int]) -> int:
    """Greatest common divisor of a nonempty list of positive integers."""
    if not xs:
        raise EmptyInput("gcd_all needs at least one integer")
    g = 0
    for x in xs:
        if x < 1:
            raise ValueError("gcd_all expects positive integers")
        g = math.gcd(g, x)
    return g


def exact_dot(rows: np.ndarray, vector: Sequence[int]) -> np.ndarray:
    """rows @ vector for an integer matrix and integers, exact: one int64
    product while max(|rows|, 1) * sum |vector| < 2**63 (a bound on every
    partial sum and every entry of the vector), else one in Python ints."""
    vector = [int(v) for v in vector]
    top = max(int(rows.max()), -int(rows.min()), 1) if rows.size else 1
    if top * sum(map(abs, vector)) < 2**63:
        return rows.astype(np.int64, copy=False) @ np.array(vector, dtype=np.int64)
    return rows.astype(object) @ np.array(vector, dtype=object)


def semigroup_bits(generators: Iterable[int], top: int, bits: int = 1) -> int:
    """The set `bits` (bit k for k) closed under adding the generators, cut
    at `top`: bit k <= top is set iff k is a member of `bits` plus a sum of
    the generators.  The default {0} gives the numerical semigroup.  Each
    generator w is added by doubling shifts, by w, 2w, 4w, ... up to top.
    A table past `SEMIGROUP_TABLE_LIMIT` bits is a ValueError naming it.

    Schur's bound on the Frobenius number: with g the gcd of the generators
    and s, t the least and the largest over g, every multiple of g from
    g * (s - 1) * (t - 1) <= max**2 on is a sum.  So past such a top, a
    number is a sum iff g divides it.
    """
    if top >= SEMIGROUP_TABLE_LIMIT:
        raise ValueError(f"a semigroup table of {top + 1} bits is past SEMIGROUP_TABLE_LIMIT = {SEMIGROUP_TABLE_LIMIT}")
    table = (1 << top + 1) - 1  # the bits 0..top
    bits &= table
    for w in generators:
        if w < 1:
            raise ValueError("generators must be positive")
        step = w
        while step <= top:  # bits += {0, step}: now every multiple of w up to 2 * step - w
            bits |= bits << step & table
            step <<= 1
    return bits


def effective_order(sigma: Sequence[int], a: Sequence[int], q: int) -> int:
    """Order of the projective automorphism induced by the residue vector sigma.

    This is the least k >= 1 such that k*sigma is a multiple of a modulo q,
    i.e. the order of sigma in (Z/q)^(n+2) / <a mod q>, computed in closed
    form from the Smith invariants d1 | d2 of the 2 x (n+2) integer matrix
    M = [sigma; a]: d1 is the gcd of its entries and d1*d2 the gcd of its
    2 x 2 minors sigma_i*a_j - sigma_j*a_i (d2 = 0 when M has rank below 2).

    Proof.  M = U diag(d1, d2) V with U, V unimodular, and V acts as an
    automorphism of (Z/q)^(n+2), so the subgroup <sigma, a> spanned by the
    rows of M mod q is isomorphic to <d1*e_1, d2*e_2> and has order
    (q/gcd(q, d1)) * (q/gcd(q, d2)).  Likewise <a> has order q/gcd(q, g_a),
    g_a the gcd of the weights.  The quotient <sigma, a>/<a> is cyclic,
    generated by sigma, so its order, the index of <a>, is the answer.  This
    holds for every q >= 2 and all integer weights; the zero vector gives 1.
    """
    if len(sigma) != len(a):
        raise ValueError("sigma and a must have equal length")
    if q < 2:
        raise ValueError("q must be at least 2")
    d1 = math.gcd(*sigma, *a)
    minors = math.gcd(*(s * w - t * v for (s, v), (t, w) in combinations(zip(sigma, a), 2)))
    d2 = minors // d1 if d1 else 0
    span = (q // math.gcd(q, d1)) * (q // math.gcd(q, d2))
    return span // (q // math.gcd(q, *a))


def linear_congruence_solutions(k: int, c: int, q: int) -> list[int]:
    """The residues s mod q with k*s + c = 0 (mod q), increasing: none unless
    g = gcd(k, q) divides c, else s0 + i*q/g for i < g, s0 = (-c/g) / (k/g)."""
    g = math.gcd(k, q)
    if c % g:
        return []
    step = q // g
    return list(range(-c // g * pow(k // g, -1, step) % step, q, step))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve: one byte per integer up to limit."""
    if limit < 2:
        return []
    composite = bytearray(limit + 1)
    for i in range(2, math.isqrt(limit) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(range(i * i, limit + 1, i))
    return [i for i in range(2, limit + 1) if not composite[i]]


def prime_powers_up_to(limit: int) -> list[PrimePowerOrder]:
    """All prime powers p**r <= limit in increasing order of value.

    Raises ValueError, not MemoryError or OverflowError, when the sieve or
    the list does not fit in memory (or the sieve's length in an index).
    """
    try:
        powers = []
        for p in primes_up_to(limit):
            value, r = p, 1
            while value <= limit:
                powers.append((value, p, r))
                value *= p
                r += 1
        powers.sort()
        return [PrimePowerOrder(p, r) for _, p, r in powers]
    except (MemoryError, OverflowError):
        raise ValueError(f"not enough memory to sieve the prime powers up to {limit}") from None
