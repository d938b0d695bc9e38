"""Quasi-smoothness tests and a finite-field singular-point falsifier.

Two complementary verdicts are produced here and deliberately kept apart:

* combinatorial: the subset criterion (`exists_quasismooth`,
  `general_member_quasismooth`) decides whether the general member of a
  monomial linear system has a smooth affine cone away from the origin.
  On the whole degree-d table it is the semigroup subset condition of
  (a, d) (`semigroup_subset_condition`), decided with no table built; the
  signature-class oracle and the chain walk read it first
  (`orders.FamilyAnalysis.quasi_smooth`), and refute every order of a
  family that fails it, since no subset of a failing table passes;
* point-witness: `singular_point_search` hunts for an explicit singular
  point of one explicit polynomial over a prime field F_p, p < 2^16.  The
  polynomial is a member of a monomial system, one integer coefficient per
  row of the system, reduced mod p per prime in the system's order.  A
  witness refutes quasi-smoothness of that reduction; finding none proves
  nothing.  Points are evaluated in discrete-log space, one float64 matrix
  product per polynomial and block of points: each polynomial is a matrix
  of its exponents and its coefficients' logs, which turns a block of
  coordinate logs into every monomial's log sum; those index a power table,
  whose sum over the monomials, mod p, is the value.  Per prime, a log
  table and a power table of p entries are built on first use, and the
  blocks of the grids swept are kept; per search, the power table is tiled
  to (D + 1) * (p - 1) + 1 entries, D the largest monomial degree once
  every exponent is reduced into [0, p - 1], so D <= nvars * (p - 1).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from . import ambient
from .ambient import Monomial, MonomialSystem, WeightedFamily
from .arith import SEMIGROUP_TABLE_LIMIT, is_prime, semigroup_bits
from .errors import CoefficientCollision, EmptySystem, NotWellFormed

__all__ = [
    "ExplicitPolynomial",
    "SingularSearchResult",
    "exists_quasismooth",
    "semigroup_subset_condition",
    "general_member_quasismooth",
    "subset_criterion",
    "SubsetTest",
    "pattern_codes",
    "distinct_codes",
    "required_monomial",
    "singular_point_search",
    "random_member",
    "FIELD_PRIME_LIMIT",
    "SEMIGROUP_TABLE_LIMIT",
    "CLOSURE_ROW_LIMIT",
]


def semigroup_subset_condition(fam: WeightedFamily) -> bool:
    """Semigroup subset condition for existence of a quasi-smooth member.

    For each nonempty index subset I, either d lies in the semigroup
    generated by the weights in I, or at least |I| indices j outside I have
    d - a_j in that semigroup.  Exhaustive over all 2^(n+2) - 1 subsets.

    This is the subset criterion (`subset_criterion`) of the whole degree-d
    monomial table, read off the weights: a monomial supported inside I
    exists iff d is a sum of the a_I, and one that is an I-monomial times
    x_j iff d - a_j is.  The semigroup of each I is one `semigroup_bits`
    bitset, that of I minus its lowest index closed under that index's
    weight, so a subset costs a few big-int operations.  By Schur's bound
    (`semigroup_bits`) a number above max(a)**2 lies in the semigroup iff
    the gcd of the a_I divides it, so only sums up to min(d, max(a)**2)
    are tabulated; `semigroup_bits` refuses a table past
    `SEMIGROUP_TABLE_LIMIT` bits with a ValueError.
    """
    a, d, nv = fam.weights, fam.degree, fam.nvars
    top = min(d, max(a) ** 2)
    reach, gcds = [1] * (1 << nv), [0] * (1 << nv)  # the empty subset reaches 0 alone
    for mask in range(1, 1 << nv):
        low = mask & -mask
        w = a[low.bit_length() - 1]
        r = reach[mask] = semigroup_bits((w,), top, reach[mask ^ low])
        g = gcds[mask] = math.gcd(gcds[mask ^ low], w)

        def holds(n: int) -> bool:
            return n >= 0 and (r >> n & 1 if n <= top else n % g == 0)

        if holds(d):
            continue
        hits = sum(holds(d - a[j]) for j in range(nv) if not mask >> j & 1)
        if hits < mask.bit_count():
            return False
    return True


def exists_quasismooth(fam: WeightedFamily) -> bool:
    """Whether any quasi-smooth hypersurface of degree d exists for these weights.

    True iff some weight equals d (the linear-cone case) or the semigroup
    subset condition holds.
    """
    if not ambient.well_formed(fam):
        raise NotWellFormed(f"{fam} is not well-formed")
    return ambient.is_linear_cone(fam) or semigroup_subset_condition(fam)


#: Entries of closed rows `SubsetTest.closed` builds at a time: a step of k
#: pattern codes fills k x (nvars + 1) * 2**nvars entries of its matrix, and
#: its temporaries are that size.
_CLOSURE_ELEMENTS = 1 << 16

#: Entries of one closed row, (nvars + 1) * 2**nvars, that `SubsetTest.closed`
#: may build: 20 variables fit, 21 (a row of 176 MiB) do not.
CLOSURE_ROW_LIMIT = 1 << 25


def pattern_codes(exponents: np.ndarray) -> np.ndarray:
    """One integer per row of an exponent matrix: bit j is set when x_j occurs
    (the support) and bit nvars + j when x_j occurs to exactly the first
    power.  These two masks are all the subset criterion reads of a monomial."""
    bits = 1 << np.arange(exponents.shape[1], dtype=np.int64)
    return ((exponents > 0) @ bits) | (((exponents == 1) @ bits) << exponents.shape[1])


def distinct_codes(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, in increasing order; not
    np.unique, whose first call imports numpy.ma (35 ms per process)."""
    codes = np.sort(codes)
    keep = np.empty(len(codes), dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


@lru_cache(maxsize=None)
def _subset_sizes(nvars: int) -> np.ndarray:
    """Per subset mask I of nvars variables: its size |I|."""
    masks = np.arange(1 << nvars, dtype=np.int64)
    sizes = ((masks >> np.arange(nvars, dtype=np.int64)[:, None]) & 1).sum(axis=0)
    sizes.flags.writeable = False  # shared by every caller
    return sizes


class SubsetTest:
    """The subset criterion (see `subset_criterion`) for sets of the rows of
    one exponent matrix, built once per matrix.  `test(members)`, members[b, r]
    set when row r is in set b, returns which sets pass; `test()` decides the
    one set of every row.

    Only two patterns of a row matter: its support, and the variables it
    holds to exactly the first power, one code per row (`pattern_codes`).
    For a set, f[t, s] marks a present pattern with support s, where t = 0
    takes any pattern and t = 1 + j only those with exponent 1 at x_j.  Its
    closure over the subset lattice, F[t, I] = OR of f[t, s] over s inside I,
    gives (a) as F[0, I], and j outside I counts for (b) exactly when
    F[1 + j, I | {j}] holds.  For j inside I that is F[1 + j, I], which
    implies (a), so every j is counted.  The closure is an OR over the
    present patterns, so G[0, I] = F[0, I] and G[1 + j, I] = F[1 + j, I | {j}]
    are the OR, over the set's codes, of each code's own closed row: [s inside
    I], and [exponent 1 at x_j, and s inside I | {j}].  So G is presence @
    closed > 0, one float32 product, with presence[b, c] = 1 when set b holds
    a row of code c: every term is 0 or 1, and a sum of nonnegative terms is
    positive exactly when one of them is, whatever the rounding and the order
    of summation.  Then I passes when G[0, I] holds or at least |I| of the
    G[1 + j, I] do.

    `closed` is that matrix, one read-only float32 0/1 row of `width` =
    (nvars + 1) * 2**nvars entries per distinct code, in increasing order of
    code.  Over the masks I, the row of a code with support s holds [s inside
    I] (t = 0) and then, per variable j, [x_j has exponent 1, and s inside
    I | {j}] (t = 1 + j); it is filled `_CLOSURE_ELEMENTS` entries at a
    time.  A row past `CLOSURE_ROW_LIMIT` entries is a ValueError, raised
    before any is built.  The map from rows to codes is built on the first
    call given members, so `test()` never forms it.
    """

    def __init__(self, exponents: np.ndarray) -> None:
        self.nvars = nvars = exponents.shape[1]
        self.width = (nvars + 1) << nvars
        if self.width > CLOSURE_ROW_LIMIT:
            raise ValueError(
                f"a closed row of {nvars} variables has {self.width} entries, "
                f"past CLOSURE_ROW_LIMIT = {CLOSURE_ROW_LIMIT}"
            )
        self._row_codes = pattern_codes(exponents)
        # the distinct codes, at most 3**nvars of them, as the ones lie in the support
        self._codes = codes = distinct_codes(self._row_codes)
        size = 1 << nvars
        dtype = np.min_scalar_type(2 * size - 1)  # the masks, with room for bit nvars
        outside = ~np.arange(size).astype(dtype)  # per mask I, the bits outside it
        added = np.concatenate([[0], 1 << np.arange(nvars, dtype=np.int64)])  # per t
        self.closed = np.empty((len(codes), self.width), dtype=np.float32)
        step = max(1, _CLOSURE_ELEMENTS // self.width)
        for start in range(0, len(codes), step):
            block = codes[start : start + step, None]
            applies = (block >> nvars) & added | (added == 0)  # t = 0, or exponent 1 at x_j
            # the support that must lie inside I; bit nvars, inside no I, where t does not apply
            rest = np.where(applies != 0, block & (size - 1) & ~added, size).astype(dtype)
            self.closed[start : start + step] = ((rest[:, :, None] & outside) == 0).reshape(len(block), -1)
        self.closed.flags.writeable = False  # shared by every later test

    @cached_property
    def _code_of_row(self) -> np.ndarray:
        """The position in the distinct codes of each row's code."""
        return np.searchsorted(self._codes, self._row_codes).astype(np.min_scalar_type(len(self._codes)))

    def __call__(self, members: Optional[np.ndarray] = None) -> np.ndarray:
        if members is None:
            presence = np.ones((1, len(self._codes)), dtype=np.float32)
        else:
            presence = np.zeros((len(members), len(self._codes)), dtype=np.float32)
            pair, row = np.nonzero(members)
            presence[pair, self._code_of_row[row]] = 1
        nvars = self.nvars
        G = (presence @ self.closed > 0).reshape(len(presence), nvars + 1, 1 << nvars)
        counted = G[:, 1:, :].sum(axis=1)
        return (G[:, 0, :] | (counted >= _subset_sizes(nvars)))[:, 1:].all(axis=1)


def subset_criterion(exponents: Sequence[Sequence[int]], nvars: int) -> bool:
    """Subset test for quasi-smoothness of the general member of a monomial span.

    For every nonempty subset I of variable indices, require either
    (a) some monomial supported inside I, or
    (b) at least |I| distinct indices j outside I such that some monomial is
        a monomial in the I-variables times x_j to the first power.

    The test runs through `SubsetTest`, on the one set of every row.  An
    empty system fails for every I, hence returns False; rows of other than
    `nvars` entries are a ValueError.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if len(exponents) == 0:
        return False
    table = np.array(exponents, dtype=np.int64).reshape(len(exponents), -1)
    if table.shape[1] != nvars:
        raise ValueError(f"rows have {table.shape[1]} entries, not nvars = {nvars}")
    return bool(SubsetTest(table)()[0])


def general_member_quasismooth(fam: WeightedFamily, system: MonomialSystem) -> bool:
    """Subset criterion applied to a monomial system of degree-d monomials."""
    if len(system) == 0:
        raise EmptySystem("the monomial system is empty")
    if system.family != fam:
        raise ValueError("system was built for a different family")
    return subset_criterion(system.exponents, fam.nvars)


def required_monomial(system: MonomialSystem, i: int) -> Optional[Monomial]:
    """A monomial of the form x_i^k or x_i^k * x_j from the system, if any.

    Pure powers are preferred; otherwise the lexicographically least
    near-power is returned.  Every quasi-smooth system has one for every i.
    """
    nv = system.family.nvars
    if not 0 <= i < nv:
        raise ValueError(f"index {i} out of range")
    best = None
    for e in sorted(system.monomials):
        if e[i] < 1:
            continue
        others = [(j, x) for j, x in enumerate(e) if j != i and x > 0]
        if not others:
            return e  # pure power, preferred unconditionally
        if best is None and len(others) == 1 and others[0][1] == 1:
            best = e
    return best


def _row(system: MonomialSystem, index: int) -> Monomial:
    """Row `index` of the system as a tuple of Python ints, for a message."""
    return tuple(system.exponents[index].tolist())


@dataclass(frozen=True)
class ExplicitPolynomial:
    """A member of a monomial system: one nonzero integer coefficient per
    monomial, in the system's order.  A non-integer coefficient raises
    TypeError (`operator.index`), a wrong count or a zero ValueError."""

    system: MonomialSystem
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(map(operator.index, self.coefficients))
        if len(coeffs) != len(self.system):
            raise ValueError(f"{len(coeffs)} coefficients given for {len(self.system)} monomials")
        if 0 in coeffs:
            raise ValueError(f"zero coefficient stored for {_row(self.system, coeffs.index(0))}")
        object.__setattr__(self, "coefficients", coeffs)


def random_member(system: MonomialSystem, seed: int = 0, coeff_bound: int = 10**4) -> ExplicitPolynomial:
    """A member of the system with seeded random coefficients in [1, coeff_bound],
    drawn one per monomial in the system's order."""
    rng = random.Random(seed)
    return ExplicitPolynomial(system, tuple(rng.randint(1, coeff_bound) for _ in range(len(system))))


@dataclass(frozen=True)
class SingularSearchResult:
    """Outcome of a singular-point hunt over one prime field."""

    prime: int
    witness: Optional[tuple[int, ...]]
    tested: int
    mode: str  # "exhaustive" or "sampled"
    exhausted: bool  # budget ran out before the space was covered
    seed: int

    @property
    def found(self) -> bool:
        return self.witness is not None


#: The falsifier's fields are F_p for the primes p below this limit.
FIELD_PRIME_LIMIT = 1 << 16

#: Entries one block of (monomial x point) log sums may hold.
_BLOCK = 1 << 14


@lru_cache(maxsize=8)  # the CLI's three falsifier primes, with room to spare
def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) over F_p for its least primitive root g: exp[k] = g^k for
    0 <= k < p - 1 and log[exp[k]] = k (log[0] is 0 and means nothing).
    Two int64 arrays of p and p - 1 entries, built on first use."""
    n, factors, f = p - 1, [], 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1
    factors += [n] if n > 1 else []
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))
    exp = np.array(list(accumulate(range(p - 2), lambda x, _: x * g % p, initial=1)), dtype=np.int64)
    log = np.zeros(p, dtype=np.int64)
    log[exp] = np.arange(p - 1)
    for table in (log, exp):
        table.flags.writeable = False  # shared by every search over F_p
    return log, exp


class _LogSpace:
    """Polynomials over F_p (p < FIELD_PRIME_LIMIT) evaluated through
    discrete logarithms, one float64 matrix product per block of points.

    Each exponent e >= 1 is first reduced to (e - 1) mod (p - 1) + 1, which
    leaves x^e unchanged at every x in F_p; D is then the largest monomial
    degree, at least 1, so D <= nvars * (p - 1).  A polynomial becomes the
    float64 matrix [E | log c]: one row per monomial, its reduced exponents
    and the log of its coefficient.  A point becomes the column of its
    coordinates' logs with a trailing 1, and 0, as a coordinate or as a
    coefficient, takes the sentinel log cap = (D + 1) * (p - 1).  One
    product then gives every monomial's log sum, which indexes exp tiled
    D + 1 times with a trailing 0 at cap (indices clipped to cap); the sum
    of the gathered values over the monomials, mod p, is the polynomial's
    value.  This is exact in any summation order, fused multiply-adds or
    not: a sum without the sentinel is an integer of at most (D + 1)(p - 2),
    below cap and below 2^53, so float64 forms it exactly; a sum holding the
    sentinel has only nonnegative terms, so rounding, being monotone, keeps
    it at cap or above.  Sums are at most (D + 1) * cap and are converted to
    int64 before the clip, so a space where that bound exceeds 2^62 (room
    for rounding) is refused; below it, p < 2^16 keeps cap below 2^39.  The
    tiled table has cap + 1 entries and lives for one search; sums are
    formed `_BLOCK` entries at a time.
    """

    def __init__(self, p: int, nvars: int, polys) -> None:
        reduced = []
        for monos, coeffs in polys:
            E = np.array(monos, dtype=np.int64).reshape(len(monos), nvars)
            c = np.asarray(coeffs, dtype=np.int64)
            reduced.append((np.where(E > 0, (E - 1) % (p - 1) + 1, 0), c))
        degree = max(int(E.sum(axis=1).max(initial=1)) for E, _ in reduced)
        cap = (degree + 1) * (p - 1)
        if (degree + 1) * cap > 1 << 62:
            raise ValueError(f"log sums of degree {degree} over F_{p} overflow int64")
        log, exp = _log_tables(p)
        self.p = p
        self.log = log.astype(np.float64)
        self.log[0] = cap
        self.polys = [np.column_stack([E, self.log[c % p]]) for E, c in reduced]
        self.exp = np.zeros(cap + 1, dtype=np.int64)
        self.exp[:cap].reshape(degree + 1, p - 1)[:] = exp

    def logs(self, points: np.ndarray) -> np.ndarray:
        """The logs of a block of points, one row per variable, and a row of
        ones that picks up the coefficients' logs."""
        out = np.ones((points.shape[1] + 1, len(points)))
        out[:-1] = self.log[points.T]
        return out

    def values(self, k: int, logs: np.ndarray) -> np.ndarray:
        """Polynomial k, reduced mod p, at the points whose `logs` are given."""
        A = self.polys[k]
        out = np.empty(logs.shape[1], dtype=np.int64)
        step = max(1, _BLOCK // max(len(A), 1))
        for start in range(0, logs.shape[1], step):
            sums = (A @ logs[:, start : start + step]).astype(np.int64)
            out[start : start + step] = np.take(self.exp, sums, mode="clip").sum(axis=0)
        return out % self.p


def _partials(E: np.ndarray, c: np.ndarray, p: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(exponents, coefficients) of every partial derivative of the
    polynomial with exponent rows E and coefficients c, reduced mod p:
    terms that the derivative or the characteristic kills are dropped."""
    out = []
    for v in range(E.shape[1]):
        dc = c * (E[:, v] % p) % p
        keep = dc != 0  # also drops the terms free of x_v
        dE = E[keep]
        dE[:, v] -= 1
        out.append((dE, dc[keep]))
    return out


def _find_witness(points: np.ndarray, space: _LogSpace) -> Optional[tuple[int, ...]]:
    """The first point of the block, other than the origin, where all the
    polynomials of `space` vanish.  The first one, the costly one, is
    evaluated on the whole block; each later one only where those before it
    vanish, and the origin is dropped from the points left at the end."""
    logs = space.logs(points)
    idx = np.flatnonzero(space.values(0, logs) == 0)
    for k in range(1, len(space.polys)):
        if idx.size == 0:
            return None
        idx = idx[space.values(k, logs[:, idx]) == 0]
    idx = idx[points[idx].any(axis=1)]
    return tuple(int(x) for x in points[idx[0]]) if idx.size else None


def _verify_witness(point: Sequence[int], polys, p: int) -> bool:
    """Whether every (exponents, coefficients) polynomial of `polys` vanishes
    at the nonzero `point`, by plain integer arithmetic."""

    def ev(E, c):
        total = 0
        for mono, coeff in zip(E.tolist(), c.tolist()):
            term = coeff
            for x, e in zip(point, mono):
                term = term * pow(x, e, p) % p
            total = (total + term) % p
        return total

    return any(x % p for x in point) and all(ev(E, c) == 0 for E, c in polys)


@lru_cache(maxsize=32)  # at most 32 * 4096 * nvars int64 entries
def _grid_block(values: tuple[int, ...], nvars: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop - 1 of values^nvars, the last coordinate varying
    fastest, as a read-only int64 array kept for later searches over the
    same grid."""
    vals = np.array(values, dtype=np.int64)
    ranks = np.arange(start, stop, dtype=np.int64)
    block = np.empty((len(ranks), nvars), dtype=np.int64)
    for v in range(nvars - 1, -1, -1):
        block[:, v] = vals[ranks % len(values)]
        ranks //= len(values)
    block.flags.writeable = False
    return block


def singular_point_search(
    poly: ExplicitPolynomial,
    field_prime: int,
    budget: int = 200_000,
    seed: int = 0,
) -> SingularSearchResult:
    """Hunt for a nonzero point of the affine cone where all partials vanish.

    Exhaustive when field_prime**nvars fits the budget.  Otherwise a
    deterministic small-coordinate box is swept first (singular loci defined
    over small integers are caught regardless of the prime), then seeded
    random sampling (PCG64 from `seed`) consumes the rest of the budget.

    The field prime must lie below FIELD_PRIME_LIMIT = 2^16, the budget and
    the seed must be nonnegative; others raise ValueError.  The member's
    exponents are its system's rows (`MonomialSystem.exponents`), and its
    coefficients are reduced mod p in the same order; the first coefficient,
    in that order, to vanish raises CoefficientCollision.  Points are
    tested 4096 at a time in discrete-log space (`_LogSpace`): each of the
    polynomial and its partials is one float64 matrix product of its
    exponents and coefficient log against the block's coordinate logs,
    gathered from a power table and summed mod p.  The first of them, the
    one with the fewest monomials, is evaluated on the whole block, the
    others only where those before vanish.  The log and power tables of F_p
    (p entries each) are built once per prime, and the blocks of the grid
    (the whole space, or the box) are kept for later searches, the last 32
    of them.  Each search tiles the power table to (D + 1) * (p - 1) + 1
    entries, D the largest monomial degree once every exponent is reduced
    into [0, p - 1].  A returned witness is re-verified with plain integer
    arithmetic before being reported.
    """
    if not 2 <= field_prime < FIELD_PRIME_LIMIT:
        raise ValueError(f"field prime {field_prime} is outside [2, {FIELD_PRIME_LIMIT})")
    if not is_prime(field_prime):
        raise ValueError(f"{field_prime} is not prime")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    p = field_prime
    nv = poly.system.family.nvars
    c = [x % p for x in poly.coefficients]
    if 0 in c:
        raise CoefficientCollision(f"coefficient of {_row(poly.system, c.index(0))} vanishes mod {p}")
    E = poly.system.exponents.astype(np.int64)
    c = np.array(c, dtype=np.int64)
    polys = [(E, c), *_partials(E, c, p)]
    # the polynomial and its partials vanish on the same points whichever is
    # tested first, so the one with the fewest monomials goes first
    space = _LogSpace(p, nv, sorted(polys, key=lambda poly: len(poly[0])))

    def result(witness, tested, mode, exhausted):
        if witness is not None and not _verify_witness(witness, polys, p):
            raise AssertionError(f"witness {witness} failed exact re-verification")
        return SingularSearchResult(p, witness, tested, mode, exhausted, seed)

    chunk = 1 << 12
    if p**nv <= budget:
        mode, values = "exhaustive", tuple(range(p))
    else:
        # Deterministic box of small coordinates: values {0, 1..b, p-b..p-1}.
        b = 1
        while (2 * (b + 1) + 1) ** nv <= budget // 2:
            b += 1
        mode, values = "sampled", ()
        if (2 * b + 1) ** nv <= budget // 2:
            values = (0, *(x for k in range(1, b + 1) for x in (k, p - k)))
    grid = len(values) ** nv
    sample = budget - grid if mode == "sampled" else 0

    def batches():
        for start in range(0, grid, chunk):
            yield _grid_block(values, nv, start, min(start + chunk, grid))
        rng = np.random.Generator(np.random.PCG64(seed))
        for start in range(0, sample, chunk):
            yield rng.integers(0, p, size=(min(chunk, sample - start), nv), dtype=np.int64)

    tested = 0
    for pts in batches():
        tested += len(pts)
        w = _find_witness(pts, space)
        if w is not None:
            return result(w, tested, mode, False)
    return result(None, tested, mode, mode == "sampled")
