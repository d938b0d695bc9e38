"""Weight systems, hypothesis predicates, and graded monomial enumeration.

A family is a weight vector a = (a_0, ..., a_{n+1}) together with a degree d.
The grading assigns degree a_j to the variable x_j; a monomial with exponent
vector e has weighted degree sum(a_j * e_j).  All predicates used as
preconditions by the order criteria live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .arith import gcd_all
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
    "enumerate_monomials",
    "weighted_degree",
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
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.weights) < 3:
            raise ValueError("need at least three weights (hypersurface dimension n >= 1)")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if gcd_all(self.weights) != 1:
            raise ValueError("weights must have gcd 1 (faithful torus action)")
        if self.degree < 1:
            raise ValueError("degree must be positive")

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


def weighted_degree(weights: Sequence[int], exponents: Sequence[int]) -> int:
    return sum(w * e for w, e in zip(weights, exponents))


@dataclass(frozen=True)
class MonomialSystem:
    """A finite, duplicate-free set of degree-d exponent vectors for one family."""

    family: WeightedFamily
    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "monomials", tuple(tuple(int(x) for x in e) for e in self.monomials)
        )
        seen = set()
        for e in self.monomials:
            if len(e) != self.family.nvars:
                raise ValueError(f"monomial {e} has wrong arity")
            if any(x < 0 for x in e):
                raise ValueError(f"monomial {e} has a negative exponent")
            if weighted_degree(self.family.weights, e) != self.family.degree:
                raise ValueError(f"monomial {e} does not have weighted degree {self.family.degree}")
            if e in seen:
                raise ValueError(f"duplicate monomial {e}")
            seen.add(e)

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)


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


def _collect_exponents(
    weights: tuple[int, ...],
    pos: int,
    degree: int,
    budget: int,
    prefix: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Append exponent vectors of the given weighted degree in ascending lex order."""
    if pos == len(weights) - 1:
        if degree % weights[pos] == 0:
            if len(out) >= budget:
                raise BudgetExceeded(f"more than {budget} monomials")
            out.append((*prefix, degree // weights[pos]))
        return
    w = weights[pos]
    for e in range(degree // w + 1):
        prefix.append(e)
        _collect_exponents(weights, pos + 1, degree - w * e, budget, prefix, out)
        prefix.pop()


def enumerate_monomials(fam: WeightedFamily, budget: "int | None" = None) -> MonomialSystem:
    """All exponent vectors of weighted degree d, in ascending lexicographic order.

    Raises BudgetExceeded if the count exceeds the budget (the module-level
    default when not given explicitly).
    """
    limit = MONOMIAL_BUDGET if budget is None else budget
    out: list[tuple[int, ...]] = []
    _collect_exponents(fam.weights, 0, fam.degree, limit, [], out)
    return MonomialSystem(fam, tuple(out))
