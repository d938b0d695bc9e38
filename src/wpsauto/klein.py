"""Weighted cyclic ("Klein") hypersurfaces and the maximal prime order.

A Klein hypersurface for (a, d) is cut out by the full cyclic polynomial

    x_0^{m_0} x_1 + x_1^{m_1} x_2 + ... + x_{n+1}^{m_{n+1}} x_0

for some ordering of the variables in which a_i * m_i + a_{i+1} = d holds
cyclically: the ordering is a Hamiltonian cycle of the weight digraph, and
its chain (`orders.CycleChain`) is all the Klein data there is.  Every
number here reads that chain's one determinant.  With K the chain's matrix
(m_i at (i, i), 1 at (i, i+1), cyclically), K a = d * 1; as gcd(a) = 1, d
divides det K and adj(K) * 1 = (det K / d) * a.  So the maximal-prime
candidate is det K / d = (prod(m_i) + (-1)^(n+1)) / d, and the singularity
quantity R is (-1)^(n+1) * a_0 * det K / d.

A Klein ordering forces every weight prime to d: a prime dividing a_i and
d divides a_{i+1} = d - m_i * a_i, and so every weight.  These are the
hypersurfaces realizing the largest prime that can occur as an
automorphism order.

The Klein polynomial itself is quasi-smooth unless every m_i is 1 and 4
divides the number of variables (`klein_quasismooth`, with the proof).
Degree d = 2 is admitted in this module only; the order criteria elsewhere
require d >= 3.

Every function here takes a family or its `FamilyAnalysis`: the Klein data
is computed once per analysis (`FamilyAnalysis.klein`) from the analysis'
weight digraph, and the eigenspace counts read the analysis' monomial table,
so they honour its monomial budget.  The invariant rows behind those counts
are computed in each call and kept nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import WeightedFamily, weights_coprime_to_degree
from .arith import PRIMALITY_LIMIT, exact_dot, is_prime
from .cycles import CYCLE_BUDGET, simple_cycles
from .errors import HypothesisViolated, NoKleinHypersurface
from .orders import CycleChain, FamilyAnalysis, as_analysis, chain_from_cycle, signature_from_chain

__all__ = [
    "KleinData",
    "MaxPrimeResult",
    "klein_exists",
    "klein_quasismooth",
    "klein_singularity_R",
    "klein_max_prime",
    "klein_eigenspace_check",
    "eigenspace_filter",
]


@dataclass(frozen=True)
class KleinData:
    """A full cyclic ordering of the variables: its chain, the singularity
    quantity R read off the chain's determinant, and the number of orderings
    found."""

    family: WeightedFamily
    chain: CycleChain
    R: int
    cycle_count: int

    @property
    def ordering(self) -> tuple[int, ...]:
        return self.chain.indices

    @property
    def exponents(self) -> tuple[int, ...]:
        return self.chain.exponents

    @property
    def monomials(self) -> list[tuple[int, ...]]:
        return self.chain.monomials(self.family.nvars)


@dataclass(frozen=True)
class MaxPrimeResult:
    """Outcome of the maximal-prime computation: a value or a reason it fails."""

    value: Optional[int]
    # "not-prime" | "not-greater-than-d", or "beyond-primality-limit" for a
    # candidate at or above `arith.PRIMALITY_LIMIT`, which no exact
    # primality test here decides
    reason: Optional[str]
    candidate: int  # the integer tested, det K / d


def klein_exists(fam: "WeightedFamily | FamilyAnalysis") -> Optional[KleinData]:
    """The lexicographically first full cyclic ordering of all variables, if any.

    Orderings are Hamiltonian cycles of the weight digraph (edge i -> j iff
    a_i divides d - a_j with positive quotient); no primality hypotheses are
    imposed here.  The number of distinct cycles found is reported; they are
    counted under the larger of the default cycle budget and the analysis'
    own, so a raised budget lets more be counted and a lowered one changes
    nothing.  The first ordering's chain is kept, and R is read off its
    determinant.
    """
    an = as_analysis(fam)
    fam = an.family
    nv = fam.nvars
    first: Optional[tuple[int, ...]] = None
    count = 0
    for cyc in simple_cycles(an.digraph, nv, nv, max(CYCLE_BUDGET, an.cycle_budget)):
        count += 1
        if first is None:
            first = cyc
    if first is None:
        return None
    chain = chain_from_cycle(fam, first)
    quotient, rest = divmod(chain.determinant, fam.degree)
    assert rest == 0  # K a = d * 1 with gcd(a) = 1 (module docstring)
    R = (-1) ** (fam.n + 1) * fam.weights[first[0]] * quotient
    return KleinData(family=fam, chain=chain, R=R, cycle_count=count)


def klein_quasismooth(fam: "WeightedFamily | FamilyAnalysis") -> bool:
    """Quasi-smoothness of the Klein hypersurface itself (coefficients all 1).

    False exactly when every exponent m_i is 1 and 4 divides N = n + 2.

    Let K be the N x N exponent matrix, m_i at (i, i) and 1 at (i, i+1)
    cyclically, so det K = prod(m_i) - (-1)^N (`CycleChain.determinant`).
    If det K != 0, the torus map lambda -> (lambda_i^(m_i) * lambda_(i+1))_i
    is onto (C*)^N, so a diagonal rescaling takes the Klein polynomial to
    any member with the same monomials and nonzero coefficients: it is
    quasi-smooth iff the general member is.  The general member passes the
    subset criterion: a subset I holding two cyclically adjacent indices
    i, i+1 contains x_i^(m_i) * x_(i+1), and otherwise each i in I gives
    its own j = i+1 outside I.  det K = 0 iff every m_i = 1 and N is even.  Then
    F = sum x_i * x_(i+1), dF/dx_i = x_(i-1) + x_(i+1) is a circulant with
    eigenvalues 2*cos(2*pi*k/N), one of which vanishes iff 4 | N, and by
    Euler's formula F vanishes wherever its partials do: the cone is
    singular off the origin iff 4 | N.
    """
    an = as_analysis(fam)
    fam = an.family
    if fam.degree < 2:
        raise HypothesisViolated("degree must be at least 2")
    return not (set(_klein(an).exponents) == {1} and fam.nvars % 4 == 0)


def klein_singularity_R(data: KleinData) -> int:
    """The quantity whose vanishing signals the potentially singular case:
    the Klein polynomial evaluates to R times a coordinate product at any
    would-be singular point with all coordinates nonzero.  R is the
    alternating exponent-product sum 1 + sum_{i=1}^{n+1} (-1)^(n-i) *
    m_i * ... * m_{n+1}, that is (-1)^(n+1) times the first entry of
    adj(K) * 1, which is (-1)^(n+1) * a_0 * det K / d (module docstring),
    a_0 the weight of the ordering's first variable."""
    return data.R


def klein_max_prime(fam: "WeightedFamily | FamilyAnalysis") -> MaxPrimeResult:
    """The largest prime order candidate det K / d = (prod(m) + (-1)^(n+1)) / d,
    read off the Klein chain's determinant (`CycleChain.determinant`); d
    always divides it (module docstring).

    Requires a Klein ordering and weights coprime to the degree; a family
    with a Klein ordering has both, so the coprimality test only picks the
    exception for one without.  Returns the value only when the candidate is
    a prime exceeding d; otherwise the reason code tells which test failed,
    or that the candidate is too large for `is_prime` to decide.
    """
    an = as_analysis(fam)
    fam = an.family
    if not weights_coprime_to_degree(fam):
        raise HypothesisViolated("every weight must be coprime to the degree")
    candidate = _klein(an).chain.determinant // fam.degree
    if candidate >= PRIMALITY_LIMIT:
        return MaxPrimeResult(None, "beyond-primality-limit", candidate)
    if candidate < 2 or not is_prime(candidate):
        return MaxPrimeResult(None, "not-prime", candidate)
    if candidate <= fam.degree:
        return MaxPrimeResult(None, "not-greater-than-d", candidate)
    return MaxPrimeResult(candidate, None, candidate)


def klein_eigenspace_check(fam: "WeightedFamily | FamilyAnalysis") -> bool:
    """Verify that the invariant degree-d monomials are exactly the cycle.

    Builds the full-length chain along the Klein ordering, takes its residue
    signature mod the maximal prime p, and filters all degree-d monomials e
    with sigma . e = 0 mod p.  True iff the filtered set equals the n+2
    Klein monomials exactly.
    """
    an = as_analysis(fam)
    result = klein_max_prime(an)
    if result.value is None:
        raise HypothesisViolated(f"maximal prime unavailable: {result.reason}")
    invariant = set(map(tuple, an.exponents[_invariant_rows(an, result.value)].tolist()))
    return invariant == set(an.klein.monomials)


def eigenspace_filter(fam: "WeightedFamily | FamilyAnalysis", p: int) -> tuple[int, int]:
    """(invariant count, total count) of degree-d monomials for the Klein
    signature mod p; the counts reported alongside the eigenspace check."""
    an = as_analysis(fam)
    return len(_invariant_rows(an, p)), len(an.system)


def _invariant_rows(an: FamilyAnalysis, p: int) -> np.ndarray:
    """The rows of the monomial table fixed by the Klein chain's signature
    mod p: one exact product with the exponent matrix (`exact_dot`), made
    anew in each call."""
    sigma = signature_from_chain(an.family, _klein(an).chain, p).sigma
    return np.flatnonzero(exact_dot(an.exponents, sigma) % p == 0)


def _klein(an: FamilyAnalysis) -> KleinData:
    """The analysis' Klein data; NoKleinHypersurface where there is none."""
    if an.klein is None:
        raise NoKleinHypersurface(f"no full cyclic ordering for {an.family}")
    return an.klein
