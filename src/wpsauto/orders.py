"""Criteria, bounds, signature construction, and the brute-force order oracle.

The central question: for a weight system a and degree d, which prime powers
q = p**r occur as the order of an automorphism of a quasi-smooth degree-d
hypersurface?  Three layers answer it:

* `necessary_condition` / `sufficient_condition`: cycle-chain criteria that
  certify or refute cheaply when their divisibility hypotheses hold;
* `divides_d_criterion`: the complete case analysis available when every
  weight divides the degree (prime order only);
* `oracle_exists_order`: exhaustive enumeration of diagonal-automorphism
  signature classes, the ground truth everything else is checked against.

Automorphisms are encoded additively: a residue vector sigma mod q stands
for the diagonal map x_i -> zeta^(sigma_i) x_i with zeta a primitive q-th
root of unity.  Two signatures induce the same projective automorphism when
they differ by a multiple of (a mod q), and generate the same cyclic group
when they differ by a unit factor; the oracle enumerates one canonical
representative per equivalence class, the lexicographically least member of
its unit orbit.  Only a vector whose first nonzero entry is a power of p can
be least, so the oracle builds those candidates alone, in increasing rank,
and decides each in one closed-form pass over its entries (see
`_canonical_blocks`).  A class is stored as its m = nvars - 1 free
residues, the pinned 0 being a convention, so a slice depends only on
(q, m): `_canonical_rows` keeps its rows, read-only, for every later call
in the process, whatever its number of blocks and whichever coordinate is
pinned, as long as all it keeps fits in `_SLICE_CACHE_BYTES`; a slice that
does not fit is streamed one block at a time.  A family with no
quasi-smooth member (the semigroup subset condition of (a, d) fails,
`FamilyAnalysis.quasi_smooth`) has every order refuted before any table is
built: no bucket passes where the whole table does not.  A class certifies
q only if q divides det K / d, K the matrix of the anchor monomials (x_v^k or
x_v^k * x_j, one per variable) of its bucket, so before it scans, the oracle refutes every q that divides none
of the family's quotients det K / d (`FamilyAnalysis.anchor_determinants`,
a closed form over the functional graph the anchors define): for the
weighted Klein hypersurface, one of them is its maximal prime.  Nor does
it scan for p**r once it has refuted p**(r-1) for the same analysis, as a
class certifying p**r reduces to one certifying p**(r-1).  It tests
a block of candidates in prefixes that grow fourfold, so that a class
certifying early in its block costs what its prefix costs; within a prefix,
the eigenvalue buckets of all its classes are formed by one exact int64
matrix product (`_bucket_members`) and decided together, one float32 product
per chunk of buckets, against one matrix of closed rows built once per
analysis from the pattern codes of the monomial table
(`FamilyAnalysis.closures`).

Everything that depends on (a, d) alone lives in one `FamilyAnalysis` per
family and set of budgets, built by `family_analysis` and held only by its
caller: the hypothesis flags, the bounds and the prime routing they decide,
whether a quasi-smooth member exists, the monomial table, the weight
digraph with its cycle chains, the anchors (read off the digraph and the
pure powers, never off the table) and their determinants, and the Klein
data.  The process-wide caches hold only what
no family owns (class slices, for one).  Only the oracle's bucket test
reads the table rows' pattern codes (their support and exponent-one
bitmasks) and their closed rows.  The three budgets (monomials, cycles,
oracle classes) are fields of the analysis, never process-wide settings.
Functions taking a family also accept its analysis, and then use the
analysis' budgets; given a family, they build a new analysis under the
default budgets, so calls that should share one pass it.
`order_verdict` is the one routing path from (family or analysis, q) to a
verdict, and `_verified_certificate` the one place that builds a certified
verdict, after re-checking its witness, induced order and bucket.  Each
order gets one verdict: the routing hands its notes to the oracle
(`oracle_exists_order(..., notes=...)`), which builds the verdict with
them, and the routing facts every order reads (the hypothesis notes, the
prime route, the anchor counts) are worked out once per analysis.
`admissible_orders` reads the prime powers of a small limit from one
immutable table per limit, kept for the process.
The oracle's scan grows with the signature classes it examines, not with q,
so its class budget bounds it; not so `_canonical_full_signature`, which
builds a certificate from all q translates in O(q * p**k), p**k < q, but
only when p divides a_0: otherwise the class pinned at 0 is its own
canonical signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .ambient import (
    MONOMIAL_BUDGET,
    MonomialSystem,
    WeightedFamily,
    enumerate_monomials,
    is_linear_cone,
    lin_finite,
    mm_hypothesis,
    rows_increase,
    weights_coprime_to_degree,
    weights_divide_degree,
    well_formed,
)
from .arith import (
    PrimePowerOrder,
    as_prime_power,
    effective_order,
    exact_dot,
    is_prime,
    prime_powers_up_to,
)
from .cycles import CYCLE_BUDGET, simple_cycles
from .errors import BudgetExceeded, HypothesisViolated
from .quasismooth import (
    distinct_codes,
    pattern_codes,
    semigroup_subset_condition,
    subset_closures,
    subset_criterion,
    subset_criterion_batch,
)

__all__ = [
    "CycleChain",
    "Signature",
    "OrderVerdict",
    "BoundReport",
    "FamilyAnalysis",
    "ORACLE_CLASS_BUDGET",
    "family_analysis",
    "as_analysis",
    "chain_from_cycle",
    "necessary_condition",
    "signature_from_chain",
    "chain_invariance_check",
    "sufficient_condition",
    "divides_d_criterion",
    "bound_divides_d",
    "bound_coprime",
    "oracle_exists_order",
    "order_verdict",
    "admissible_orders",
]

#: Default cap on the number of signature classes the oracle examines.
ORACLE_CLASS_BUDGET = 2_000_000

#: Ranks per block of the slice: `_canonical_rows` builds the candidate rows
#: of one block at a time, and a certificate's "classes examined" count ends
#: at the end of a block.
_CHUNK = 1 << 16

#: Elements per (class, bucket) chunk that the oracle tests at once: a chunk
#: of k buckets builds a k x (monomials) int64 matrix of bucket sums, a
#: k x (pattern codes) float32 presence matrix and its k x (nvars + 1) *
#: 2**nvars product with the closed-row matrix; no table has more codes than rows.
_BUCKET_ELEMENTS = 1 << 16

#: Classes in the first prefix of a block that the oracle tests; each prefix
#: after it ends at four times the end of the one before.
_FIRST_PREFIX = 8

CERTIFIED = "certified"
REFUTED = "refuted"
UNRESOLVED = "unresolved"
HYPOTHESIS_VIOLATED = "hypothesis-violated"


@dataclass(frozen=True)
class CycleChain:
    """Variable indices (i_0, ..., i_ell) with exponents realizing the cycle
    monomials x_{i_0}^{m_0} x_{i_1}, ..., x_{i_ell}^{m_ell} x_{i_0} of degree d."""

    indices: tuple[int, ...]
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.exponents):
            raise ValueError("indices and exponents must have equal length")
        if len(self.indices) < 2:
            raise ValueError("a chain needs at least two variables")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("chain indices must be distinct")
        if any(m < 1 for m in self.exponents):
            raise ValueError("chain exponents must be positive")

    @property
    def ell(self) -> int:
        return len(self.indices) - 1

    def product(self) -> int:
        return math.prod(self.exponents)

    @cached_property
    def determinant(self) -> int:
        """det K = prod(m) - (-1)**len, K the matrix of the cycle monomials;
        q divides it iff (-1)**len * prod(m) is 1 mod q."""
        return self.product() - (-1) ** len(self.indices)

    def monomials(self, nvars: int) -> list[tuple[int, ...]]:
        """The cycle monomials as full exponent vectors."""
        out = []
        k = len(self.indices)
        for j in range(k):
            e = [0] * nvars
            e[self.indices[j]] += self.exponents[j]
            e[self.indices[(j + 1) % k]] += 1
            out.append(tuple(e))
        return out


def chain_from_cycle(fam: WeightedFamily, indices: Sequence[int]) -> CycleChain:
    """Build the chain for a directed cycle of variable indices, validating
    the cyclic congruences d = a_i * m_i + a_next exactly."""
    a = fam.weights
    d = fam.degree
    idx = tuple(indices)
    exps = []
    for j, i in enumerate(idx):
        nxt = idx[(j + 1) % len(idx)]
        delta = d - a[nxt]
        if delta < a[i] or delta % a[i] != 0:
            raise ValueError(f"no positive exponent with a_{i}*m + a_{nxt} = d")
        exps.append(delta // a[i])
    chain = CycleChain(idx, tuple(exps))
    # telescoping identity, exact by construction
    assert math.prod(d - a[i] for i in idx) == chain.product() * math.prod(a[i] for i in idx)
    return chain


@dataclass(frozen=True)
class Signature:
    """Residue vector mod q for a diagonal automorphism; None marks an entry
    the producing criterion left unconstrained."""

    q: int
    sigma: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        for s in self.sigma:
            if s is not None and not 0 <= s < self.q:
                raise ValueError(f"entry {s} not reduced mod {self.q}")

    def padded(self) -> "Signature":
        """The signature with every unconstrained entry set to 0."""
        return Signature(self.q, tuple(0 if s is None else s for s in self.sigma))


@dataclass(frozen=True)
class OrderVerdict:
    """Tri-state outcome for one candidate order, with witnesses when certified."""

    status: str
    q: int
    provenance: str
    chain: Optional[CycleChain] = None
    signature: Optional[Signature] = None
    witness_system: Optional[MonomialSystem] = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.status not in (CERTIFIED, REFUTED, UNRESOLVED, HYPOTHESIS_VIOLATED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == CERTIFIED and (self.signature is None or self.witness_system is None):
            raise ValueError("a certified verdict needs a signature and a witness system")


@dataclass(frozen=True)
class BoundReport:
    """A proven cap on certifiable prime orders, with the data it came from."""

    bound: "int | Fraction"
    kind: str  # "divides-d" (p <= bound) or "coprime" (p < bound, for p > d)
    multiplicities: tuple[tuple[int, int], ...]  # (weight value, multiplicity)
    max_weight: int


def _modulus(q: "int | PrimePowerOrder") -> int:
    return q.q if isinstance(q, PrimePowerOrder) else int(q)


def _check_degree_and_linearity(an: "FamilyAnalysis") -> None:
    if an.family.degree < 3:
        raise HypothesisViolated("degree must be at least 3")
    if not an.flags["mm_hypothesis"]:
        raise HypothesisViolated(
            "linearity hypothesis fails: need n >= 3, or n = 2 with weight sum != degree"
        )


def weight_digraph(fam: WeightedFamily) -> dict[int, dict[int, int]]:
    """Adjacency i -> {j: m} with a_i * m + a_j = d, m >= 1, i != j: the
    digraph whose cycles carry the cycle chains."""
    a = fam.weights
    d = fam.degree
    adj: dict[int, dict[int, int]] = {i: {} for i in range(fam.nvars)}
    for i in range(fam.nvars):
        for j in range(fam.nvars):
            if i == j:
                continue
            delta = d - a[j]
            if delta >= a[i] and delta % a[i] == 0:
                adj[i][j] = delta // a[i]
    return adj


def necessary_condition(
    fam: "WeightedFamily | FamilyAnalysis", q: "int | PrimePowerOrder"
) -> Optional[CycleChain]:
    """First cycle chain whose signed exponent product is 1 mod q, or None.

    When the hypotheses hold and None is returned, no quasi-smooth member
    admits an automorphism of order q: the existence of such a chain is
    necessary.  Cycles are visited in lexicographic order of index tuples.
    """
    pp = as_prime_power(q)
    an = as_analysis(fam)
    _check_degree_and_linearity(an)
    return next(an.qualifying_chains(pp), None)


def signature_from_chain(
    fam: WeightedFamily, chain: CycleChain, q: "int | PrimePowerOrder"
) -> Signature:
    """Residues forced along a chain: 1 at its first variable, then
    sigma_{j+1} = (-1)^(j+1) * m_0 * ... * m_j mod q; None elsewhere."""
    qq = _modulus(q)
    sigma: list[Optional[int]] = [None] * fam.nvars
    sigma[chain.indices[0]] = 1 % qq
    acc = 1
    for j in range(chain.ell):
        acc *= chain.exponents[j]
        value = -acc if (j + 1) % 2 else acc
        sigma[chain.indices[j + 1]] = value % qq
    return Signature(qq, tuple(sigma))


def chain_invariance_check(
    chain: CycleChain, sig: "Signature | Sequence[Optional[int]]", q: "int | PrimePowerOrder"
) -> bool:
    """Whether sigma_i * m + sigma_next = 0 mod q holds around the chain."""
    qq = _modulus(q)
    entries = sig.sigma if isinstance(sig, Signature) else tuple(sig)
    k = len(chain.indices)
    for j in range(k):
        cur = entries[chain.indices[j]]
        nxt = entries[chain.indices[(j + 1) % k]]
        if cur is None or nxt is None:
            raise ValueError("chain positions of the signature must be resolved")
        if (cur * chain.exponents[j] + nxt) % qq != 0:
            return False
    return True


def sufficient_condition(
    fam: "WeightedFamily | FamilyAnalysis", q: "int | PrimePowerOrder"
) -> Optional[OrderVerdict]:
    """Certify order q from a qualifying chain plus a split witness, or None.

    For each qualifying cycle the witness polynomial is the cycle polynomial
    on the chain variables plus a general member of the full degree-d system
    on the complement variables; both parts must pass the subset criterion
    on their own variables and the complement part must be nonempty whenever
    the complement is.  The reported signature is the chain signature padded
    with zeroes, and its induced order is verified to equal q exactly.
    """
    return _chain_criteria(as_analysis(fam), as_prime_power(q))[0]


def _chain_criteria(
    an: "FamilyAnalysis", pp: PrimePowerOrder
) -> tuple[Optional[OrderVerdict], Optional[CycleChain]]:
    """Both chain criteria in one pass over the chains qualifying for q: the
    sufficient condition's certificate (or None), and the first qualifying
    chain (None refutes q by the necessary condition).  The certificate of
    the first chain whose witness passes is built, and re-checked, by
    `_verified_certificate`, which raises on an unsound one.  Its padded
    signature always induces order q: `qualifying_chains` raises where p
    divides d, and an order below q needs sigma = lambda * a mod p for some
    lambda, where along the chain sigma_i * m_i + sigma_next = 0 gives
    lambda * d = 0 mod p, so lambda = 0 mod p, though sigma is 1 at the
    chain's first variable.

    A family with no quasi-smooth member (`FamilyAnalysis.quasi_smooth` is
    False) skips the sufficient half and builds no monomial table: every
    witness is a subset of the table, which fails the subset criterion, so
    none passes.  Its chains are still walked to the end, so that a
    truncated walk raises BudgetExceeded as any other does."""
    qq = pp.q
    fam = an.family
    _check_degree_and_linearity(an)
    nv = fam.nvars
    first = None
    for chain in an.qualifying_chains(pp):
        first = first or chain
        if an.quasi_smooth is False:  # no witness passes
            continue
        comp = [i for i in range(nv) if i not in chain.indices]
        # the cycle monomials pass on the chain's own variables (the lemma in
        # `klein_quasismooth`); only the rows off it, if any, are tested
        comp_rows = np.flatnonzero(~an.exponents[:, chain.indices].any(axis=1))
        if comp and (
            not comp_rows.size
            or not subset_criterion(an.exponents[np.ix_(comp_rows, comp)], len(comp))
        ):
            continue
        sigma = signature_from_chain(fam, chain, qq).padded().sigma
        witness = np.vstack([np.array(chain.monomials(nv), dtype=np.int64), an.exponents[comp_rows]])
        return _verified_certificate(fam, qq, "sufficient-condition", sigma, witness, chain), chain
    return None, first


def _first_unit_weight_index(fam: WeightedFamily, p: int) -> int:
    for i, w in enumerate(fam.weights):
        if w % p != 0:
            return i
    raise AssertionError("gcd of weights is 1, so some weight is prime to p")


def _verified_certificate(
    fam: WeightedFamily,
    q: int,
    provenance: str,
    sigma: Sequence[int],
    monomials: "Sequence[tuple[int, ...]] | np.ndarray",
    chain: Optional[CycleChain] = None,
    notes: tuple[str, ...] = (),
) -> OrderVerdict:
    """The one way to a certified verdict: the witness monomials (tuples, or
    the rows of an integer matrix) must pass the subset criterion and share
    one bucket sigma . e mod q (`exact_dot`), and sigma must induce order
    exactly q, else AssertionError (an unsound criterion).  The signature is
    stored reduced mod q, the witness sorted and deduplicated."""
    table = np.asarray(monomials, dtype=np.int64).reshape(len(monomials), fam.nvars)
    if not subset_criterion(table, fam.nvars):
        raise AssertionError(f"constructed witness for q={q} fails the subset criterion")
    if effective_order(sigma, fam.weights, q) != q:
        raise AssertionError(f"constructed signature for q={q} has the wrong induced order")
    sig = Signature(q, tuple(s % q for s in sigma))
    buckets = exact_dot(table, sig.sigma) % q
    if (buckets != buckets[0]).any():
        raise AssertionError(f"constructed witness for q={q} spans several eigenvalue buckets")
    if not rows_increase(table):  # rows gathered from a monomial table already do
        table = table[np.lexsort(table.T[::-1])]
        distinct = np.ones(len(table), dtype=bool)
        distinct[1:] = (table[1:] != table[:-1]).any(axis=1)
        table = table[distinct]
    witness = MonomialSystem(fam, table)
    return OrderVerdict(CERTIFIED, q, provenance, chain, sig, witness, notes)


def divides_d_criterion(fam: "WeightedFamily | FamilyAnalysis", p: int) -> OrderVerdict:
    """Complete criterion for prime order p when every weight divides d.

    Certified iff (a) p divides d, (b) a_i * p divides d - a_j for some
    i != j, or (c) some weight value w of multiplicity nu admits a cycle
    length L in 2..nu with (1 - d/w)^L = 1 mod p.  Each certificate carries
    the explicit witness polynomial (Fermat, Fermat with one near-power, or
    equal-weight cycle plus Fermat tail), read off the anchors
    (`FamilyAnalysis.anchor_terms`).  Otherwise refuted: the case analysis is
    exhaustive under these hypotheses.  Linear cones are excluded.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    an = as_analysis(fam)
    fam = an.family
    a, d, nv = fam.weights, fam.degree, fam.nvars
    if not weights_divide_degree(fam):
        raise HypothesisViolated("every weight must divide the degree")
    _check_degree_and_linearity(an)
    if not an.flags["well_formed"]:
        raise HypothesisViolated(f"{fam} is not well-formed")
    if an.flags["linear_cone"]:
        raise HypothesisViolated("linear cones are excluded")
    terms = an.anchor_terms
    # every weight divides d, so every variable has its pure power
    fermat = [next(mono for mono, _, t in anchored if t < 0) for anchored in terms]
    provenance = "divides-d-criterion"

    if d % p == 0:  # (a) Fermat witness, signature concentrated off the p-part
        sigma = [0] * nv
        sigma[_first_unit_weight_index(fam, p)] = 1
        return _verified_certificate(fam, p, provenance, sigma, fermat, notes=("case (a): p | d",))

    for i, anchored in enumerate(terms):  # (b) one Fermat power replaced by a near-power
        # x_i^m * x_j with p | m, the least j first; p does not divide d, so
        # neither does it divide the pure power's d / a_i
        near = [(t, mono) for mono, m, t in anchored if m % p == 0]
        if near:
            j, mono = min(near)
            sigma = [0] * nv
            sigma[i] = 1
            witness = fermat[:i] + [mono] + fermat[i + 1 :]
            note = f"case (b): a_{i}*p divides d - a_{j}"
            return _verified_certificate(fam, p, provenance, sigma, witness, notes=(note,))

    # (c) equal-weight cycle inside one weight-multiplicity class
    for w in sorted(set(a)):
        positions = [i for i, x in enumerate(a) if x == w]
        for length in range(2, len(positions) + 1):
            chain = chain_from_cycle(fam, positions[:length])
            if chain.determinant % p:  # (1 - d/w)^L != 1 mod p
                continue
            witness = chain.monomials(nv) + [mono for k, mono in enumerate(fermat) if k not in chain.indices]
            sigma = signature_from_chain(fam, chain, p).padded().sigma
            note = f"case (c): weight {w}, cycle length {length}"
            return _verified_certificate(fam, p, provenance, sigma, witness, chain, (note,))

    return OrderVerdict(REFUTED, p, provenance, notes=("cases (a), (b), (c) all fail",))


def _multiplicities(fam: WeightedFamily) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((w, fam.weights.count(w)) for w in set(fam.weights)))


def bound_divides_d(fam: WeightedFamily) -> BoundReport:
    """Cap on certifiable primes when every weight divides the degree:
    p <= max(d, (d/a_i - 1)^(n_i - 1)) with n_i the multiplicity of a_i."""
    a = fam.weights
    d = fam.degree
    if not weights_divide_degree(fam):
        raise HypothesisViolated("every weight must divide the degree")
    mults = _multiplicities(fam)
    bound = max([d] + [(d // w - 1) ** (nu - 1) for w, nu in mults])
    return BoundReport(bound, "divides-d", mults, max(a))


def bound_coprime(fam: WeightedFamily) -> BoundReport:
    """Cap on certifiable primes p > d when every weight is prime to the
    degree: p < (max(a)/(d - max(a))) * prod((d - a_t)/a_t), an exact rational."""
    a = fam.weights
    d = fam.degree
    if not weights_coprime_to_degree(fam):
        raise HypothesisViolated("every weight must be coprime to the degree")
    mx = max(a)
    if d <= mx:
        raise HypothesisViolated("degree must exceed the largest weight")
    bound = Fraction(mx, d - mx)
    for w in a:
        bound *= Fraction(d - w, w)
    return BoundReport(bound, "coprime", _multiplicities(fam), mx)


@dataclass(eq=False)
class FamilyAnalysis:
    """Everything about a family (a, d) that does not depend on the order q,
    under the budgets on its monomials, cycles and oracle classes per order.

    Each field is computed on first use and kept, except one that raises (a
    budget exceeded, a hypothesis violated): it raises again when used again.
    Whether the family has a quasi-smooth member at all (`quasi_smooth`) is
    read off (a, d), before any table: where it has none, the oracle and the
    chain walk decide every order without building one.
    The anchors come from the digraph, not from the monomial table, whose
    pattern codes and their closed rows serve only the oracle's bucket
    test; `anchor_terms` writes each anchor once, as its monomial with its
    (k, t), and every reader takes those, so no row is parsed back.  Get
    instances from `family_analysis`.  `oracle_refuted` is the only state a
    call leaves here: not a field of the family but a record of the
    oracle's calls, the orders it has refuted so far, which refute their
    multiples by p at once (`oracle_exists_order`).

    Everything derived from the family lives here and nowhere else, and no
    process-wide cache holds an analysis, so it all goes when its caller
    drops the analysis.
    """

    family: WeightedFamily
    monomial_budget: int
    cycle_budget: int
    oracle_budget: int
    oracle_refuted: set[int] = field(default_factory=set, init=False, repr=False)

    @cached_property
    def flags(self) -> dict[str, bool]:
        fam = self.family
        return {
            "well_formed": well_formed(fam),
            "mm_hypothesis": mm_hypothesis(fam),
            "lin_finite": lin_finite(fam),
            "linear_cone": is_linear_cone(fam),
        }

    @cached_property
    def bounds(self) -> tuple[Optional[BoundReport], Optional[BoundReport]]:
        """The divides-d and the coprime bound, each None where its hypothesis
        fails (the coprime one also needs d > max(a))."""
        fam = self.family
        divides = bound_divides_d(fam) if weights_divide_degree(fam) else None
        coprime = None
        if weights_coprime_to_degree(fam) and fam.degree > max(fam.weights):
            coprime = bound_coprime(fam)
        return divides, coprime

    @cached_property
    def prime_route(self) -> Optional[BoundReport]:
        """The bound that routes prime orders, divides-d first; None without
        the linearity hypothesis, which both routes assume."""
        divides, coprime = self.bounds
        return (divides or coprime) if self.flags["mm_hypothesis"] else None

    @property
    def default_max_order(self) -> Optional[int]:
        """The sweep limit the bounds imply; None when neither applies."""
        divides, coprime = self.bounds
        if divides is not None:
            return int(divides.bound)
        return None if coprime is None else max(self.family.degree, math.ceil(coprime.bound))

    def oracle_hypotheses(self) -> tuple[str, ...]:
        """Raise on the oracle's hard preconditions; return notes for the soft one.

        Without the linearity hypothesis the enumeration still decides existence
        of diagonal automorphisms exactly, but no longer rules out nonlinear
        ones, so refutations are annotated rather than blocked.  The notes are
        worked out once per analysis; a family failing a hard precondition
        keeps no value, so it raises on every call.
        """
        return self._hypothesis_notes

    @cached_property
    def _hypothesis_notes(self) -> tuple[str, ...]:
        flags = self.flags
        if self.family.degree < 3:
            raise HypothesisViolated("degree must be at least 3")
        if not flags["well_formed"]:
            raise HypothesisViolated(f"{self.family} is not well-formed")
        # lin_finite needs d >= 2 * max(a), so it also rules out a linear cone
        if not flags["lin_finite"]:
            raise HypothesisViolated("the linear automorphism group is not finite")
        if not flags["mm_hypothesis"]:
            return (
                "linearity hypothesis fails (need n >= 3, or n = 2 with weight sum != "
                "degree); verdicts cover diagonal automorphisms only",
            )
        return ()

    @cached_property
    def quasi_smooth(self) -> Optional[bool]:
        """Whether the family has a quasi-smooth member: the semigroup subset
        condition (`semigroup_subset_condition`), the subset criterion of the
        whole monomial table read off (a, d), with no table built.  None when
        `semigroup_bits` refuses a table past `SEMIGROUP_TABLE_LIMIT` bits."""
        try:
            return semigroup_subset_condition(self.family)
        except ValueError:
            return None

    @cached_property
    def system(self) -> MonomialSystem:
        return enumerate_monomials(self.family, self.monomial_budget)

    @property
    def exponents(self) -> np.ndarray:
        """The monomial table as a matrix (`MonomialSystem.exponents`)."""
        return self.system.exponents

    @cached_property
    def patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, index): the distinct `pattern_codes` of the table rows in
        increasing order, and the position in `codes` of each row's code;
        the oracle's bucket test reads them."""
        row_codes = pattern_codes(self.exponents)
        codes = distinct_codes(row_codes)
        return codes, np.searchsorted(codes, row_codes).astype(np.min_scalar_type(len(codes)))

    @cached_property
    def closures(self) -> np.ndarray:
        """The closed rows of the distinct pattern codes (`patterns`), one
        matrix as `subset_closures` builds it: read-only, and shared by every
        oracle call on this analysis."""
        out = subset_closures(self.patterns[0], self.family.nvars)
        out.flags.writeable = False
        return out

    @cached_property
    def anchor_terms(self) -> tuple[tuple[tuple[tuple[int, ...], int, int], ...], ...]:
        """Per variable v, its anchors x_v^k * x_t as (monomial, k, t), t = -1
        for the pure power, in the table's increasing order but not read off
        it: x_v^(d/a_v) if a_v | d, and x_v^m * x_t for each edge v -> t of
        the weight digraph.  The one place an anchor's monomial is written."""
        nv, d = self.family.nvars, self.family.degree
        out = []
        for v, w in enumerate(self.family.weights):
            terms = [(m, t) for t, m in self.digraph[v].items()]
            if d % w == 0:
                terms.append((d // w, -1))
            anchored = []
            for k, t in terms:
                row = [0] * (nv + 1)  # t = -1 puts its 1 in the spare last column
                row[v], row[t] = k, 1
                anchored.append((tuple(row[:nv]), k, t))
            out.append(tuple(sorted(anchored)))
        return tuple(out)

    @cached_property
    def anchor_counts(self) -> tuple[int, ...]:
        """Per variable v, the number of its anchors (`anchor_terms`): its
        out-edges in the digraph, and one more if a_v divides d; no anchor
        and no matrix is built to count them."""
        d = self.family.degree
        return tuple(len(self.digraph[v]) + (d % w == 0) for v, w in enumerate(self.family.weights))

    @cached_property
    def anchors(self) -> tuple[np.ndarray, ...]:
        """Per variable v, a read-only int64 matrix whose rows are the
        monomials of `anchor_terms[v]`, in its order; no rows when nothing
        anchors v."""
        nv = self.family.nvars
        out = []
        for terms in self.anchor_terms:
            rows = np.array([mono for mono, _, _ in terms], dtype=np.int64).reshape(len(terms), nv)
            rows.flags.writeable = False  # shared by every reader
            out.append(rows)
        return tuple(out)

    @cached_property
    def anchor_determinants(self) -> frozenset[int]:
        """The distinct |det K| over every choice of one anchor per variable
        (`anchor_terms`), K the matrix whose row v is the monomial chosen for v.

        The row of x_v^k is k at column v, and that of x_v^k * x_t adds a 1 at
        column t: K = diag(k) + the adjacency matrix of the functional graph
        v -> t.  A permutation contributes to det K only if it maps each v to
        v or t, so the points it moves form a union of cycles of the graph,
        each of sign (-1)**(len - 1).  Summed over those unions, det K is the
        product of k over the vertices off cycles times, per cycle, (the
        product of its k) - (-1)**len, the determinant of the cycle's chain
        (`CycleChain.determinant`).

        The choices are made variable by variable, depth first, in exact
        Python ints.  A cycle closes when its last variable is chosen: the
        walk from its target through the variables already chosen comes
        back to it, and the k of the other cycle variables, already in the
        running product, are divided out again for the cycle's factor.
        """
        nv = self.family.nvars
        options = [[(k, t) for _, k, t in terms] for terms in self.anchor_terms]
        k_of, target, on_cycle = [0] * nv, [-1] * nv, [False] * nv
        dets: set[int] = set()

        def choose(v: int, det: int) -> None:
            if v == nv:
                dets.add(abs(det))
                return
            for k, t in options[v]:
                k_of[v], target[v] = k, t
                u, cycle_k, length = t, k, 1
                while 0 <= u < v and not on_cycle[u]:
                    cycle_k *= k_of[u]
                    length += 1
                    u = target[u]
                if u != v:  # a root (-1), a closed cycle, or a variable not chosen yet
                    choose(v + 1, det * k)
                    continue
                cycle, u = [v], t
                while u != v:
                    cycle.append(u)
                    u = target[u]
                for u in cycle:
                    on_cycle[u] = True
                choose(v + 1, det // (cycle_k // k) * (cycle_k - (-1) ** length))
                for u in cycle:
                    on_cycle[u] = False

        choose(0, 1)
        return frozenset(dets)

    @cached_property
    def digraph(self) -> dict[int, dict[int, int]]:
        return weight_digraph(self.family)

    @cached_property
    def _chains(self) -> tuple[list[CycleChain], bool]:
        """The chains of the first `cycle_budget` cycles, and whether more exist."""
        chains: list[CycleChain] = []
        try:
            for cyc in simple_cycles(self.digraph, 2, self.family.nvars, self.cycle_budget):
                chains.append(chain_from_cycle(self.family, cyc))
        except BudgetExceeded:
            return chains, True
        return chains, False

    def qualifying_chains(self, pp: PrimePowerOrder) -> Iterator[CycleChain]:
        """The chains whose signed exponent product is 1 mod q, lexicographically.
        Raises HypothesisViolated at once if p divides d or some d - a_i, and
        BudgetExceeded (as the cycle walk would) at the end of a truncated list."""
        fam = self.family
        if fam.degree % pp.p == 0:
            raise HypothesisViolated(f"p={pp.p} divides d={fam.degree}")
        for i, w in enumerate(fam.weights):
            if (fam.degree - w) % pp.p == 0:
                raise HypothesisViolated(f"p={pp.p} divides d - a_{i} = {fam.degree - w}")
        return self._qualifying(pp.q)

    def _qualifying(self, q: int) -> Iterator[CycleChain]:
        chains, truncated = self._chains
        for chain in chains:
            if chain.determinant % q == 0:
                yield chain
        if truncated:
            raise BudgetExceeded(self.cycle_budget, "cycles")

    @cached_property
    def klein(self):
        from .klein import klein_exists  # the klein module builds on this one

        return klein_exists(self)


def family_analysis(
    fam: WeightedFamily,
    monomial_budget: int = MONOMIAL_BUDGET,
    cycle_budget: int = CYCLE_BUDGET,
    oracle_budget: int = ORACLE_CLASS_BUDGET,
) -> FamilyAnalysis:
    """A new analysis of `fam` under these budgets; a smaller budget is never
    bypassed.

    Nothing in the process keeps it: calls that should share its tables,
    cycles and oracle record take the one analysis, as every section,
    verdict and certificate of a CLI request does."""
    return FamilyAnalysis(fam, monomial_budget, cycle_budget, oracle_budget)


def as_analysis(fam: "WeightedFamily | FamilyAnalysis") -> FamilyAnalysis:
    """`fam` if it is an analysis (its budgets apply), else a new analysis
    of it under the default budgets."""
    return fam if isinstance(fam, FamilyAnalysis) else family_analysis(fam)


def _canonical_full_signature(
    weights: Sequence[int], sigma: Sequence[int], q: int
) -> tuple[int, ...]:
    """Lexicographically least element of {u*sigma + c*a mod q : u a unit}.

    That set is the union of the unit orbits of the q translates sigma + c*a.
    In the orbit of a translate with first nonzero entry s0 = p**k * w, w a
    unit, the least member has p**k there: it is the multiple by one of the
    p**k units u = w^-1 + t*q/p**k, so only those are compared.
    """
    best: Optional[tuple[int, ...]] = None
    for c in range(q):
        tau = [(s + c * w) % q for s, w in zip(sigma, weights)]
        s0 = next((s for s in tau if s), 0)
        if s0 == 0:
            return tuple(tau)
        pk = math.gcd(s0, q)
        step = q // pk
        inverse = pow(s0 // pk, -1, step)
        for t in range(pk):
            u = inverse + t * step
            cand = tuple(u * s % q for s in tau)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def _candidate_segments(q: int, p: int, r: int, m: int):
    """Lists of (start, stop, p**k) rank ranges, in increasing rank, covering
    the vectors of length m over Z/q whose first nonzero entry is p**k with
    k < r; each list holds the ranges inside one block of `_CHUNK` ranks.
    With L entries after it, such an entry holds the ranks p**k * q**L up to
    (p**k + 1) * q**L."""
    segments: list[tuple[int, int, int]] = []
    for length in range(m):
        size = q**length
        for k in range(r):
            lo = p**k * size
            hi = lo + size
            while lo < hi:
                if segments and lo // _CHUNK > segments[-1][0] // _CHUNK:
                    yield segments
                    segments = []
                stop = min(hi, (lo // _CHUNK + 1) * _CHUNK)
                segments.append((lo, stop, p**k))
                lo = stop
    if segments:
        yield segments


#: Bytes of canonical-row blocks that `_canonical_rows` keeps across calls.
_SLICE_CACHE_BYTES = 8 << 20

#: (q, m) -> the read-only blocks of that slice, for the first slices read
#: whose bytes fit in _SLICE_CACHE_BYTES together.
_slice_cache: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _nbytes(blocks) -> int:
    return sum(block.nbytes for block in blocks)


def _class_count(q: int, p: int, m: int) -> int:
    """The signature classes of m free residues mod q = p**r: the full-order
    vectors of (Z/q)**m, in unit orbits of phi(q) each."""
    return (q**m - (q // p) ** m) // (q - q // p)


def _canonical_rows(q: int, p: int, r: int, m: int):
    """The blocks of `_canonical_blocks`, built once for a slice that fits
    the memo.

    A slice depends only on (q, m), whichever coordinate the oracle pins,
    and holds one int64 row of m free residues per class: `_class_count` *
    m * 8 bytes, known before anything is built.  If they fit in what
    `_SLICE_CACHE_BYTES` leaves, whatever the number of blocks, the slice
    is built whole and kept for every later call.  A slice that does not
    fit is streamed: each call builds it again, one block at a time, as its
    reader asks for the next, so it is never held whole."""
    key = (q, m)
    if key not in _slice_cache:
        size = _class_count(q, p, m) * m * 8
        if size + sum(map(_nbytes, _slice_cache.values())) > _SLICE_CACHE_BYTES:
            return _canonical_blocks(q, p, r, m)
        blocks = tuple(_canonical_blocks(q, p, r, m))
        assert _nbytes(blocks) == size, key
        _slice_cache[key] = blocks
    return _slice_cache[key]


def _canonical_blocks(q: int, p: int, r: int, m: int):
    """Yield read-only int64 matrices holding, in increasing rank, exactly
    the vectors of (Z/q)**m, q = p**r, that have full order and are
    lexicographically least in their unit orbit; a row's rank is its value
    in base q, first entry most significant.  Each block holds the rows of
    one `_CHUNK`-rank block of the slice; blocks without such rows are
    skipped.

    Only rows whose first nonzero entry is some p**k are built, and each is
    decided in one valuation-descent pass over its columns.  Let pc be the
    least gcd(e, q) over the entries e seen so far, starting at the lead p**k:
    the units fixing those entries are U_c = {1 + t*q/pc}.  An entry e with
    g = gcd(e, q) < pc is e = g*w, w a unit, and (1 + t*q/pc)*e = e +
    t*w*(q*g/pc), so U_c runs it through its whole coset modulo q*g/pc and
    fixes it only for t a multiple of pc/g: the row can be least only if
    e < q*g/pc, and then U_g fixes the prefix.  An entry with g >= pc is
    fixed by all of U_c.  By induction over the first column where a unit
    changes the row, the row is least iff every entry passes.  It has full
    order iff some entry is prime to p, i.e. iff pc ends at 1; rows with
    pc = 1 throughout (every row of a prime q) pass with no column tested.
    """
    radix = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for segments in _candidate_segments(q, p, r, m):
        ranks = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi, _ in segments])
        pc = np.repeat([pk for _, _, pk in segments], [hi - lo for lo, hi, _ in segments])
        S = ranks[:, None] // radix % q
        keep = np.ones(len(S), dtype=bool)
        for e in S.T:
            if (pc == 1).all():
                break
            g = np.gcd(e, q)  # q for e = 0
            lower = g < pc
            keep &= ~lower | (e < q // pc * g)
            pc = np.where(lower, g, pc)
        keep &= pc == 1
        if keep.any():
            block = S[keep]
            block.flags.writeable = False  # a kept block is shared by every later call
            yield block


def _bucket_members(sigma: np.ndarray, table_T: np.ndarray, h: np.ndarray, q: int) -> np.ndarray:
    """members[i, r]: whether row r of a monomial table lies in bucket h[i] of
    the signature sigma[i], that is sigma[i] . e_r = h[i] (mod q).  The
    entries of sigma are residues mod q, table_T is the transposed table in
    int64 with its exponents reduced mod q, and 0 <= h < q.

    One int64 product, exact: its entries are reduced mod q, so the sums
    stay below nvars * q**2 < 2**44 under the oracle's guard q**nvars < 2**62.
    """
    return sigma @ table_T % q == h[:, None]


def oracle_exists_order(
    fam: "WeightedFamily | FamilyAnalysis", q: "int | PrimePowerOrder", *, notes: Sequence[str] = ()
) -> OrderVerdict:
    """Decide order q = p**r by exhausting diagonal signature classes.

    The verdict's notes are `notes` (the routing's own, from `order_verdict`,
    so that the order gets this one verdict and no copy of it), then the
    analysis' hypothesis notes (`FamilyAnalysis.oracle_hypotheses`, worked
    out once per analysis), then the oracle's own note.  Every gate before
    the scan reads facts the analysis keeps: the anchor counts, whether a
    quasi-smooth member exists, and the anchor determinants.

    Signatures are enumerated modulo translation by (a mod q) and unit
    scaling: representatives are the vectors vanishing at the first
    coordinate i* whose weight is prime to p, kept only when they have full
    order and are lexicographically least within their unit orbit.  The
    slices hold only their m = nvars - 1 other entries, so each call reads
    the table's and the anchors' columns off i*, and puts the 0 back only
    into the winning signature.  Units keep the p-adic valuation, so if the
    first nonzero entry s0 has gcd(s0, q) = p**k then min_u u*s0 = p**k,
    and a least vector has s0 = p**k with k < r.  The units fixing p**k
    are u = 1 + t*q/p**k, every other one makes s0 larger.
    `_canonical_rows` builds only these candidates, in increasing rank, and
    decides each in closed form, with no unit multiple formed (and no test
    at all for k = 0, hence for prime q).

    A class certifies q when its induced order is exactly q and some
    eigenvalue bucket h, holding an anchor (`FamilyAnalysis.anchors`) of
    every variable, passes the subset criterion.  The candidate buckets of a
    class are those of the anchors of the variable with the fewest, S @
    E[rows].T mod q; a candidate is hit when every other variable has an
    anchor in it too, which takes (anchors of the first) x (anchors of the
    other) comparisons per class and variable, whatever q is.  A slice
    whose class count times m int64 entries fits what is left of
    `_SLICE_CACHE_BYTES` is built once, whatever its number of blocks, and
    kept for every later call at (q, m); a larger one is streamed a block
    at a time (`_canonical_rows`).  The classes of a block are tested in
    prefixes: the first `_FIRST_PREFIX` rows, then up to four times that,
    and so on, each prefix the rows after the last.
    The hit (class, h) pairs of a prefix are decided together, in chunks of
    at most about `_BUCKET_ELEMENTS` array elements.  A chunk's bucket
    members come from one int64 product of its classes and the table's
    exponents reduced mod q (`_bucket_members`); which pattern codes each
    bucket holds is then decided by one `subset_criterion_batch` call, a
    float32 product with the closed rows of the table's distinct codes
    (`FamilyAnalysis.closures`), built once per analysis.  The winner is
    the first passing pair in increasing class rank and then increasing h,
    as if buckets were tried one by one: prefixes, chunks and the pairs in
    them all follow that order, so the first prefix with a passing pair
    holds the winner, and no later class needs a test.  Only the winner's
    monomials are gathered, and `_verified_certificate` re-checks them and
    the induced order.  The reported signature is the winner's canonical
    one (`_canonical_full_signature`), which for i* = 0 is the winner itself:
    it is least in its unit orbit and has 0 first, while every other
    translate, and each unit multiple of one, has the nonzero first entry
    u * c * a_0, a_0 a unit.  The note "classes examined: N" counts the
    classes whose rank lies below the end of the `_CHUNK`-row block of the
    slice that holds the certifying class, however few of them its prefixes
    reached; a refutation tests them all.
    q is refuted only after every class is ruled out: by the scan, or at
    once by a gate.  In order, a call refutes q when some variable has no
    anchor (no bucket can hold one of each; `FamilyAnalysis.anchor_counts`
    reads it off the digraph and whether a_v divides d, so this gate builds
    no anchor matrix), then by the quasi-smooth gate,
    then by the quotient gate; it leaves q unresolved past the int64 range
    or the class budget; and it refutes q by the descent gate before it
    scans.  Every gated refutation but the first carries the scan's own
    note, "exhausted all N signature classes", N the classes it rules out.

    The quasi-smooth gate reads `FamilyAnalysis.quasi_smooth`, the
    semigroup subset condition of (a, d): each bucket is a subset of the
    monomial table, and the subset criterion only gains from more
    monomials, so when the whole table fails it, every bucket does.  It is
    consulted before the quotient gate, the int64 range and the class
    budget, so such a family builds no monomial table, no anchor matrix, no
    determinant table and no slice, and its orders past the budget are
    refuted, not left unresolved.  Where `semigroup_bits` refuses one of its tables (past
    `SEMIGROUP_TABLE_LIMIT` bits), it is None, and the gate is passed over.

    The quotient gate reads the anchor
    determinants (`FamilyAnalysis.anchor_determinants`).  Let a class sigma
    certify q in bucket h, and let K be the matrix whose row v is the
    exponent vector of the anchor of v in bucket h, so K @ sigma = h * 1
    (mod q).  Every anchor has degree d, so K @ a = d * 1, and c = adj(K) @ 1
    satisfies d * c = det(K) * a; as gcd(a) = 1 (the family is well formed),
    d divides det K and c = (det K / d) * a.  With sigma_i* = 0, the vector
    x = (sigma, h) solves M @ x = 0 (mod q) for the square matrix
    M = [[K, -1], [e_i*, 0]], whose determinant, expanded along its last row
    and column, is e_i* @ adj(K) @ 1 = a_i* * det K / d.  Then
    det(M) * x = adj(M) @ M @ x = 0 (mod q); sigma has full order, so some
    entry is a unit, and q divides det M.  a_i* is prime to p, so q divides
    det K / d.  When q divides none of the quotients, no class certifies q,
    and the verdict is the scan's own refutation: its note "exhausted all N
    signature classes" then counts the N classes ruled out, none of them
    built.  A zero determinant is divisible by every q, so a family with
    one always falls through to the scan.  For the Klein quartic (1, 1, 1)
    d = 4 the cycle x0^3 x1, x1^3 x2, x2^3 x0 has det K = 28, and 28 / 4 = 7
    is the maximal prime of the weighted Klein hypersurface.  The anchors
    and their determinants are closed forms of (a, d), so this gate, like
    the two before it, builds no monomial table.  The determinant
    table costs no more per anchor choice than the scan per class, so it is
    built, once per family, and consulted, before the budget and the int64
    range are, when a call has at least as many classes, and as much
    budget, as there are choices.

    The descent gate refutes q = p**r, r > 1, when the oracle has refuted
    q / p for the same analysis (`FamilyAnalysis.oracle_refuted`, which
    every refutation here adds to).  Let sigma certify q in bucket h;
    reduce sigma and h mod q / p.  The new bucket holds the old one, and
    the subset criterion only gains from more monomials.  As sigma_i* = 0
    and a_i* is a unit, the induced order of a pinned vector is its own
    additive order, and the reduced vector keeps the unit entry of sigma,
    so its order is q / p.  So the reduced class certifies q / p.  The
    record is consulted only where the scan would start, after the budget
    and the int64 range, so that it changes no verdict, only its cost,
    whatever order the calls come in.

    A full-order vector has a unit entry, so no unit other than 1 fixes it:
    the unit orbits in the slice all have phi(q) members and the slice holds
    exactly (q**m - (q/p)**m) / phi(q) classes, m = nvars - 1.  Unless the
    quotient gate refutes q, that count is compared with the analysis'
    class budget (`oracle_budget`) before anything is scanned, and the scan
    examines no more: above the budget the verdict is unresolved, never a
    refutation.  It is the only cap on the work: the candidate rows, about
    r*(p-1)/p per class, are built `_CHUNK` ranks at a time, a variable has
    at most nvars anchors, so a class has at most nvars hit pairs, and no
    array has a dimension of size q.  Apart from it, only q**nvars >= 2**62
    (inexact int64 ranks) is unresolved.
    """
    pp = as_prime_power(q)
    qq, p = pp.q, pp.p
    an = as_analysis(fam)
    fam = an.family
    notes = tuple(notes) + an.oracle_hypotheses()
    nv = fam.nvars

    def refuted(note: str) -> OrderVerdict:
        an.oracle_refuted.add(qq)
        return OrderVerdict(REFUTED, qq, "oracle", notes=notes + (note,))

    missing = [v for v, count in enumerate(an.anchor_counts) if not count]
    if missing:
        return refuted(f"no pure-power or near-power monomial for variables {missing}")

    class_count = _class_count(qq, p, nv - 1)
    exhausted = f"exhausted all {class_count} signature classes"
    if an.quasi_smooth is False:
        return refuted(exhausted)
    cap = min(class_count, an.oracle_budget)
    if math.prod(an.anchor_counts) <= cap and all(det // fam.degree % qq for det in an.anchor_determinants):
        return refuted(exhausted)
    if qq ** nv >= 2**62:
        note = f"modulus {qq} too large for exact vectorized enumeration"
        return OrderVerdict(UNRESOLVED, qq, "oracle", notes=notes + (note,))
    if class_count > cap:
        note = f"at least {class_count} signature classes exceed the budget of {an.oracle_budget}"
        return OrderVerdict(UNRESOLVED, qq, "oracle", notes=notes + (note,))
    if pp.r > 1 and qq // p in an.oracle_refuted:
        return refuted(exhausted)
    i_star = _first_unit_weight_index(fam, p)
    free = [v for v in range(nv) if v != i_star]
    E_T = (an.exponents[:, free].astype(np.int64) % qq).T
    codes, code_of_row = an.patterns
    # the variable with the fewest anchors first: its buckets are the candidates
    base_T, *others_T = sorted((rows[:, free].T % qq for rows in an.anchors), key=lambda a: a.shape[1])
    chunk = max(1, _BUCKET_ELEMENTS // max(E_T.shape[1], (nv + 1) << nv))

    def first_winner(S: np.ndarray) -> Optional[tuple[int, np.ndarray]]:
        """(row of S, its bucket's members) of the first passing pair, if any."""
        # hit[c, k]: every variable has an anchor in bucket cand[c, k] of
        # class c; each class's buckets increase, and each is kept once
        cand = np.sort(S @ base_T % qq, axis=1)
        hit = np.ones(cand.shape, dtype=bool)
        hit[:, 1:] = cand[:, 1:] != cand[:, :-1]
        for anchor_T in others_T:
            hit &= (cand[:, :, None] == (S @ anchor_T % qq)[:, None, :]).any(axis=2)
        # the hit (class, h) pairs, by class and then by h
        classes, k = np.nonzero(hit)
        buckets = cand[classes, k]
        for start in range(0, len(classes), chunk):
            cls, h = classes[start : start + chunk], buckets[start : start + chunk]
            members = _bucket_members(S[cls], E_T, h, qq)  # (pairs, rows)
            presence = np.zeros((len(cls), len(codes)), dtype=np.float32)
            pair, row = np.nonzero(members)
            presence[pair, code_of_row[row]] = 1
            passed = np.flatnonzero(subset_criterion_batch(an.closures, presence, nv))
            if passed.size:
                return cls[passed[0]], members[passed[0]]
        return None

    examined = 0
    for S in _canonical_rows(qq, p, pp.r, nv - 1):
        examined += len(S)  # a certificate counts the whole block
        start, stop = 0, _FIRST_PREFIX
        while start < len(S):  # prefixes in increasing rank: the first winner is the block's
            won = first_winner(S[start:stop])
            if won is not None:
                sigma = S[start + won[0]].tolist()
                sigma.insert(i_star, 0)
                exps = an.exponents[won[1]]
                canon = sigma if i_star == 0 else _canonical_full_signature(fam.weights, sigma, qq)
                note = f"classes examined: {examined}"
                return _verified_certificate(fam, qq, "oracle", canon, exps, notes=notes + (note,))
            start, stop = stop, 4 * stop

    return refuted(f"exhausted all {examined} signature classes")


#: Largest max_q whose prime powers `admissible_orders` keeps for later calls.
_PRIME_POWER_TABLE_LIMIT = 1 << 12


@lru_cache(maxsize=16)  # the tables of the last 16 limits read
def _prime_power_table(max_q: int) -> tuple[PrimePowerOrder, ...]:
    return tuple(prime_powers_up_to(max_q))


def admissible_orders(
    fam: "WeightedFamily | FamilyAnalysis", max_q: int
) -> list[tuple[PrimePowerOrder, OrderVerdict]]:
    """Tri-state verdict (`order_verdict`) for every prime power q <= max_q,
    after checking the oracle's hard preconditions once.  The prime powers
    of a max_q up to `_PRIME_POWER_TABLE_LIMIT` are sieved, and each prime
    proved, once per process: an immutable tuple, kept for the last 16
    such limits."""
    an = as_analysis(fam)
    an.oracle_hypotheses()
    powers = _prime_power_table(max_q) if max_q <= _PRIME_POWER_TABLE_LIMIT else prime_powers_up_to(max_q)
    return [(pp, order_verdict(an, pp)) for pp in powers]


def order_verdict(fam: "WeightedFamily | FamilyAnalysis", q: "int | PrimePowerOrder") -> OrderVerdict:
    """Tri-state verdict for order q by the one routing path, under the analysis' budgets.

    Prime orders go through the divides-d criterion when every weight
    divides the degree; otherwise the coprime bound prunes large primes,
    one pass over the qualifying cycle chains certifies (sufficient
    condition) or refutes (necessary condition) where their hypotheses hold,
    and the oracle settles whatever remains; the oracle's hard preconditions
    bind every route.  Budget exhaustion and violated hypotheses are
    recorded in the verdict, never raised.

    Each order gets one verdict: where the oracle decides, the routing's
    notes go in through its `notes` argument, called by its module-level
    name so that a wrapper put there sees every oracle call.  The routing
    facts (hypothesis notes, prime route, anchor counts) are read off the
    analysis, which works each out once.
    """
    an = as_analysis(fam)
    pp = as_prime_power(q)
    try:
        an.oracle_hypotheses()  # for its raise; the oracle adds the soft note
        route = an.prime_route
        if pp.r == 1 and route is not None:
            if route.kind == "divides-d":
                if pp.p > route.bound:
                    note = f"prime {pp.p} exceeds the bound {route.bound}"
                    return OrderVerdict(REFUTED, pp.q, "bound-divides-d", notes=(note,))
                return divides_d_criterion(an, pp.p)
            if pp.p > an.family.degree and pp.p >= route.bound:
                note = f"prime {pp.p} is not below the bound {route.bound}"
                return OrderVerdict(REFUTED, pp.q, "bound-coprime", notes=(note,))
        try:
            verdict, chain = _chain_criteria(an, pp)
            if verdict is not None:
                return verdict
            if chain is None:
                note = "no cycle chain satisfies the signed product congruence"
                return OrderVerdict(REFUTED, pp.q, "necessary-condition", notes=(note,))
            notes = ("a qualifying chain exists but no split witness was found; oracle decides",)
        except HypothesisViolated as exc:
            notes = (f"chain criteria not applicable: {exc}",)
        return oracle_exists_order(an, pp, notes=notes)
    except BudgetExceeded as exc:
        return OrderVerdict(UNRESOLVED, pp.q, "budget", notes=(str(exc),))
    except HypothesisViolated as exc:
        return OrderVerdict(HYPOTHESIS_VIOLATED, pp.q, "hypotheses", notes=(str(exc),))
