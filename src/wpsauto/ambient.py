"""Weight systems, hypothesis predicates, and graded monomial enumeration.

A family is a weight vector a = (a_0, ..., a_{n+1}) together with a degree d.
The grading assigns degree a_j to the variable x_j; a monomial with exponent
vector e has weighted degree sum(a_j * e_j).  All predicates used as
preconditions by the order criteria live here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .arith import exact_dot, gcd_all, semigroup_bits
from .errors import BudgetExceeded, NotNormalizable

__all__ = [
    "WeightedFamily",
    "Monomial",
    "MonomialSystem",
    "MONOMIAL_BUDGET",
    "well_formed",
    "well_form_normalize",
    "mm_hypothesis",
    "lin_finite",
    "is_linear_cone",
    "weights_divide_degree",
    "weights_coprime_to_degree",
    "enumerate_monomials",
    "rows_increase",
]

#: Exponent vector of a monomial, one entry per variable.
Monomial = tuple[int, ...]

#: Default cap on the number of enumerated monomials.
MONOMIAL_BUDGET = 10**7


@dataclass(frozen=True)
class WeightedFamily:
    """The pair (a, d): weights of the ambient space plus a hypersurface degree."""

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        # a non-integer such as 1.5 is a TypeError; a numpy integer becomes an int
        object.__setattr__(self, "weights", tuple(map(operator.index, self.weights)))
        object.__setattr__(self, "degree", operator.index(self.degree))
        if len(self.weights) < 3:
            raise ValueError("need at least three weights (hypersurface dimension n >= 1)")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if gcd_all(self.weights) != 1:
            raise ValueError("weights must have gcd 1 (faithful torus action)")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if self.degree >= 2**63:  # exponent tables are int64
            raise ValueError("degree must be below 2**63")

    @property
    def n(self) -> int:
        """Hypersurface dimension: two less than the number of variables."""
        return len(self.weights) - 2

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return f"{','.join(map(str, self.weights))} d={self.degree}"

    @classmethod
    def from_text(cls, text: str) -> "WeightedFamily":
        """Parse the text form, e.g. ``3,7,2,4,5 d=37``."""
        try:
            weights_part, degree_part = text.split()
            if not degree_part.startswith("d="):
                raise ValueError("degree must be given as d=<integer>")
            weights = tuple(int(w) for w in weights_part.split(","))
            return cls(weights, int(degree_part[2:]))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse family from {text!r}: {exc}") from exc


class MonomialSystem:
    """A finite, duplicate-free set of degree-d exponent vectors for one family.

    The monomials may be given as any sequence of integer sequences, or as
    an integer matrix with one row per monomial; they are stored only as the
    read-only matrix `exponents`, and `monomials`, their tuple of tuples of
    Python ints, is built from it on first read.  Two systems are equal when
    their families and their rows, in order, are.  Each entry is checked for
    its arity, its signs, its weighted degree and for repeating an earlier
    entry; each check yields one mask over the whole table, and the first
    entry failing a check is named, with the first check it fails.  The
    weighted degrees are exact (`exact_dot`), whatever the size of the
    entries and the weights.  Rows in increasing order, as enumerated tables
    and witnesses come, repeat none, and are not sorted to look for repeats.
    """

    def __init__(self, family: WeightedFamily, monomials: "Sequence[Sequence[int]] | np.ndarray") -> None:
        fam = family
        given = monomials
        if isinstance(given, np.ndarray) and given.shape[1:] == (fam.nvars,):
            table = given
        else:
            given = given.tolist() if isinstance(given, np.ndarray) else list(given)
            wrong = np.fromiter(map(len, given), dtype=np.int64, count=len(given)) != fam.nvars
            good = int(np.argmax(wrong)) if wrong.any() else len(given)
            # the entries before the first one of the wrong arity
            table = np.array(given[:good], dtype=np.int64).reshape(good, fam.nvars)
        n = len(table)
        # per check, the entries failing it; the entry after the table fails only its arity
        failing = np.zeros((4, n + 1), dtype=bool)
        failing[0, n] = n < len(given)
        failing[1, :n] = (table < 0).any(axis=1)
        failing[2, :n] = exact_dot(table, fam.weights) != fam.degree
        if not rows_increase(table):  # else no entry repeats another
            ranked = table[np.lexsort(table.T)]  # equal entries end up next to each other
            if (ranked[1:] == ranked[:-1]).all(axis=1).any():  # then some entry repeats an earlier one
                entries = list(map(tuple, table.tolist()))
                first = dict(zip(reversed(entries), range(n - 1, -1, -1)))  # each entry's first index
                failing[3, :n] = np.fromiter(map(first.get, entries), dtype=np.int64, count=n) != np.arange(n)
        if failing.any():
            index = int(np.argmax(failing.any(axis=0)))
            e = tuple(int(x) for x in (table[index] if index < n else given[index]))
            raise ValueError(
                (
                    f"monomial {e} has wrong arity",
                    f"monomial {e} has a negative exponent",
                    f"monomial {e} does not have weighted degree {fam.degree}",
                    f"duplicate monomial {e}",
                )[int(np.argmax(failing[:, index]))]
            )
        # no exponent exceeds d, so the narrowest signed type holding d holds them all
        exponents = table.astype(np.min_scalar_type(-fam.degree - 1))
        exponents.flags.writeable = False  # shared by every reader
        self._family = fam
        self._exponents = exponents

    @property
    def family(self) -> WeightedFamily:
        return self._family

    @property
    def exponents(self) -> np.ndarray:
        """The monomials as a matrix, one row each, in the narrowest signed
        integer type that holds d."""
        return self._exponents

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        """The rows of `exponents` as a tuple of tuples of Python ints."""
        return tuple(zip(*(column.tolist() for column in self._exponents.T)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialSystem):
            return NotImplemented
        return self._family == other._family and np.array_equal(self._exponents, other._exponents)

    def __hash__(self) -> int:
        return hash((self._family, self._exponents.shape, self._exponents.tobytes()))

    def __repr__(self) -> str:
        return f"MonomialSystem(family={self._family!r}, monomials={self.monomials!r})"

    def __len__(self) -> int:
        return len(self._exponents)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)


def rows_increase(table: np.ndarray) -> bool:
    """Whether each row of an integer matrix is lexicographically larger than
    the one before it: then no row repeats another."""
    later, earlier = table[1:], table[:-1]
    greater = later > earlier
    first = (greater | (later < earlier)).argmax(axis=1)  # where two rows first differ, if they do
    return bool(greater[np.arange(len(first)), first].all())


def well_formed(fam: WeightedFamily) -> bool:
    """Whether every n+1 of the n+2 weights have gcd 1."""
    ws = fam.weights
    for i in range(len(ws)):
        rest = ws[:i] + ws[i + 1 :]
        if gcd_all(rest) != 1:
            return False
    return True


def well_form_normalize(fam: WeightedFamily) -> WeightedFamily:
    """Reduce (a, d) to a well-formed family presenting an isomorphic space.

    Repeatedly, for each index i: let g = gcd of all weights except a_i; if
    g > 1, divide those weights and the degree by g.  The degree division
    must be exact at each step, otherwise NotNormalizable is raised.
    Idempotent on already well-formed input.
    """
    ws = list(fam.weights)
    d = fam.degree
    changed = True
    while changed:
        changed = False
        for i in range(len(ws)):
            g = gcd_all([w for j, w in enumerate(ws) if j != i])
            if g > 1:
                if d % g != 0:
                    raise NotNormalizable(
                        f"gcd {g} of weights omitting index {i} does not divide degree {d}"
                    )
                ws = [w if j == i else w // g for j, w in enumerate(ws)]
                d //= g
                changed = True
    return WeightedFamily(tuple(ws), d)


def mm_hypothesis(fam: WeightedFamily) -> bool:
    """Whether every automorphism of a quasi-smooth member is linear.

    Holds when n >= 3, or when n = 2 and the weight sum differs from the
    degree.  Dimensions n <= 1 are outside the hypothesis.
    """
    if fam.n >= 3:
        return True
    if fam.n == 2:
        return sum(fam.weights) != fam.degree
    return False


def lin_finite(fam: WeightedFamily) -> bool:
    """Whether the linear automorphism group of a general member is finite.

    True iff d > 2*max(a), or d = 2*max(a) with the maximum attained once.
    """
    m = max(fam.weights)
    if fam.degree > 2 * m:
        return True
    return fam.degree == 2 * m and fam.weights.count(m) == 1


def is_linear_cone(fam: WeightedFamily) -> bool:
    """Whether some weight equals the degree (the hypersurface is a cone)."""
    return fam.degree in fam.weights


def weights_divide_degree(fam: WeightedFamily) -> bool:
    """Whether every weight divides the degree (the divides-d case)."""
    return all(fam.degree % w == 0 for w in fam.weights)


def weights_coprime_to_degree(fam: WeightedFamily) -> bool:
    """Whether every weight is prime to the degree (the coprime case)."""
    return all(math.gcd(w, fam.degree) == 1 for w in fam.weights)


#: Exponent choices `enumerate_monomials` tries at once.
_EXTEND_CHUNK = 1 << 20


def _sum_test(generators: Sequence[int], d: int):
    """A test of which integers in [0, d] are sums of the generators.

    With g their gcd, every multiple of g from Schur's bound on is a sum
    (`semigroup_bits`), so a `semigroup_bits` table is kept only below it
    and the rest is a divisibility test.  A generator above d is in no sum
    up to d, so it is left out (no int64 need hold it); with none left, 0
    alone is a sum.
    """
    generators = [w for w in generators if w <= d]
    if not generators:
        return lambda r: r == 0
    g = gcd_all(generators)
    cap = min(d + 1, g * (min(generators) // g - 1) * (max(generators) // g - 1))
    top = max(cap - 1, 0)
    packed = np.frombuffer(semigroup_bits(generators, top).to_bytes(top // 8 + 1, "little"), dtype=np.uint8)
    table = np.unpackbits(packed, count=top + 1, bitorder="little").view(bool)
    return lambda r: np.where(r < cap, table[np.minimum(r, top)], r % g == 0)


def enumerate_monomials(fam: WeightedFamily, budget: int = MONOMIAL_BUDGET) -> MonomialSystem:
    """All exponent vectors of weighted degree d, in ascending lexicographic order.

    The exponents are chosen one variable at a time, for all partial vectors
    at once.  An exponent is kept only when the degree left over is a sum of
    the later weights (`_sum_test` of each proper suffix of the weights), so
    no partial vector that cannot reach d is extended (nor d itself, when it
    is no sum of the weights), and the last exponent is the leftover degree
    divided by the last weight.  Every partial vector kept completes to a
    monomial, so BudgetExceeded is raised exactly when the count exceeds the
    budget.  Choices are tried `_EXTEND_CHUNK` at a time, so the budget is
    checked before a large table is held, and in rounds of at most
    `_EXTEND_CHUNK` exponents per partial vector, so every count of choices,
    and their running sum, is exact in int64 whatever the degree.  A weight
    above d, which int64 may not hold, is never divided by: its variable
    takes exponent 0 alone.
    """
    a, d = fam.weights, fam.degree
    sums = [_sum_test(a[k + 1 :], d) for k in range(fam.nvars - 1)]
    left = np.array([d], dtype=np.int64)
    # per variable but the last: the partial vector each kept exponent extends
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    for k in range(fam.nvars - 1):
        w = a[k] if a[k] <= d else 0  # 0 for a weight above d, whose only exponent is 0
        top = left // w if w else np.zeros_like(left)  # the largest exponent of x_k, per partial vector
        most = int(top.max()) if len(top) else -1
        none = np.zeros(0, dtype=np.int64)
        kept = [(none, none, none)]
        count = 0
        # a round tries the exponents low .. low + _EXTEND_CHUNK - 1 of each partial vector
        for low in range(0, most + 1, _EXTEND_CHUNK):
            options = (top - low).clip(-1, _EXTEND_CHUNK - 1) + 1
            ends = np.cumsum(options)
            starts = ends - options
            for start in range(0, int(ends[-1]), _EXTEND_CHUNK):
                choice = np.arange(start, min(start + _EXTEND_CHUNK, int(ends[-1])))
                parent = np.searchsorted(ends, choice, side="right")
                exponent = low + (choice - starts[parent])
                rest = left[parent] - w * exponent
                keep = sums[k](rest)
                count += np.count_nonzero(keep)
                if count > budget:
                    raise BudgetExceeded(budget, "monomials")
                kept.append((parent[keep], exponent[keep], rest[keep]))
        parent, exponent, left = (np.concatenate(part) for part in zip(*kept))
        if most >= _EXTEND_CHUNK:  # kept round by round: back to increasing order
            order = np.argsort(parent, kind="stable")
            parent, exponent, left = parent[order], exponent[order], left[order]
        steps.append((parent, exponent))
    # above d, the last weight's suffix test kept only 0 left over
    columns = [left // a[-1] if a[-1] <= d else np.zeros_like(left)]
    index = np.arange(len(left))
    for parent, exponent in reversed(steps):
        columns.append(exponent[index])
        index = parent[index]
    return MonomialSystem(fam, np.column_stack(columns[::-1]))
