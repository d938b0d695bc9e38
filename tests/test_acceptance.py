"""Acceptance suite: the seven headline criteria, exact values, pinned runtimes.

Run with `pytest tests/test_acceptance.py -s` to see one printed line per
criterion.  Every expected value here is either transcribed from a worked
example or computed by an independent oracle inside this file; nothing is
tuned to the implementation.
"""

import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

import pytest

from conftest import (
    brute_anchor_determinants,
    brute_anchors,
    families,
    reference_oracle,
    reference_semigroup_subset_condition,
)

from wpsauto.ambient import (
    WeightedFamily,
    enumerate_monomials,
    is_linear_cone,
    lin_finite,
    mm_hypothesis,
    well_formed,
)
from wpsauto.arith import effective_order, prime_power_decompose, primes_up_to
from wpsauto.cycles import CYCLE_BUDGET
from wpsauto.errors import BudgetExceeded, HypothesisViolated
from wpsauto.klein import (
    eigenspace_filter,
    klein_eigenspace_check,
    klein_exists,
    klein_max_prime,
    klein_quasismooth,
)
from wpsauto.orders import (
    _FIRST_PREFIX,
    CycleChain,
    FamilyAnalysis,
    OrderVerdict,
    _chain_criteria,
    admissible_orders,
    as_analysis,
    bound_coprime,
    bound_divides_d,
    divides_d_criterion,
    family_analysis,
    necessary_condition,
    oracle_exists_order,
    signature_from_chain,
    sufficient_condition,
)
from wpsauto.quasismooth import (
    ExplicitPolynomial,
    random_member,
    singular_point_search,
    subset_criterion,
)
from wpsauto.ambient import MonomialSystem

SEED = 0
FALSIFIER_PRIMES = (983, 991, 997)  # three primes in [101, 997]

CORPUS_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


@dataclass
class CorpusRecord:
    fam: WeightedFamily
    an: FamilyAnalysis  # the family's one analysis, shared by its records
    q: int
    oracle: OrderVerdict
    divides: Optional[OrderVerdict]
    sufficient: Optional[OrderVerdict]
    chain_applicable: bool
    necessary_chain: object


@pytest.fixture(scope="module")
def corpus():
    """Oracle + criteria outcomes for the criterion-5 corpus.

    Families: well-formed, n in {1, 2, 3} (n = 2 only under the linearity
    hypothesis), weights <= 5, 3 <= d <= 12, restricted to those the oracle
    accepts (finite linear group, not a linear cone).
    """
    records = []
    t0 = time.monotonic()
    for fam in families((1, 2, 3), 5, range(3, 13)):
        if fam.n == 2 and not mm_hypothesis(fam):
            continue
        if not lin_finite(fam) or is_linear_cone(fam):
            continue
        an = as_analysis(fam)
        for q in CORPUS_QS:
            verdict = oracle_exists_order(an, q)
            pp = prime_power_decompose(q)
            div = None
            if (
                pp.r == 1
                and mm_hypothesis(fam)
                and all(fam.degree % w == 0 for w in fam.weights)
            ):
                div = divides_d_criterion(an, pp.p)
            suff = None
            chain = None
            applicable = False
            try:
                suff = sufficient_condition(an, q)
                chain = necessary_condition(an, q)
                applicable = True
            except HypothesisViolated:
                pass
            records.append(CorpusRecord(fam, an, q, verdict, div, suff, applicable, chain))
    elapsed = time.monotonic() - t0
    return records, elapsed


def test_criterion_1_counterexample_reproduction():
    t0 = time.monotonic()
    fam = WeightedFamily((3, 7, 2, 4, 5), 37)
    chain = necessary_condition(fam, 23)
    assert chain.indices == (0, 1, 2)
    assert chain.exponents == (10, 5, 17)
    sig = signature_from_chain(fam, chain, 23)
    assert sig.sigma[:3] == (1, 13, 4)
    verdict = oracle_exists_order(fam, 23)
    assert verdict.status == "refuted"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 counterexample reproduction: PASS ({elapsed:.2f}s)")


FANO_TABLE = (
    ((1, 1, 1, 1, 1), 3, {2, 3, 5, 11}),
    ((1, 1, 1, 1, 2), 4, {2, 3, 5, 7}),
    ((1, 1, 1, 2, 3), 6, {2, 3, 5, 7}),
    ((1, 1, 2, 2, 3), 6, {2, 3, 5}),
)


def test_criterion_2_fano_threefold_table():
    t0 = time.monotonic()
    for weights, degree, expected in FANO_TABLE:
        fam = WeightedFamily(weights, degree)
        bound = bound_divides_d(fam).bound
        results = admissible_orders(fam, bound)
        certified = {pp.p for pp, v in results if pp.r == 1 and v.status == "certified"}
        refuted = {pp.p for pp, v in results if pp.r == 1 and v.status == "refuted"}
        assert certified == expected, (weights, degree, certified)
        assert refuted == set(primes_up_to(bound)) - expected, (weights, degree)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 2 fano threefold order table: PASS ({elapsed:.2f}s)")


def test_criterion_3_klein_extremal_values():
    t0 = time.monotonic()
    quartic = WeightedFamily((1, 1, 1), 4)
    assert klein_max_prime(quartic).value == 7
    assert klein_eigenspace_check(quartic)
    assert eigenspace_filter(quartic, 7) == (3, 15)
    cubic3 = WeightedFamily((1, 1, 1, 1, 1), 3)
    assert klein_max_prime(cubic3).value == 11
    assert klein_eigenspace_check(cubic3)
    assert eigenspace_filter(cubic3, 11) == (5, 35)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 klein extremal primes: PASS ({elapsed:.2f}s)")


def test_criterion_4_klein_classification():
    t0 = time.monotonic()
    existing = 0
    false_cases = []
    for fam in families((1, 2, 3, 4), 4, range(2, 13), require_well_formed=False):
        data = klein_exists(fam)
        if data is None:
            continue
        existing += 1
        assert subset_criterion(data.monomials, fam.nvars), fam
        if not klein_quasismooth(fam):
            false_cases.append(fam)
    assert existing > 100
    # the families whose Klein polynomial has a singular cone, by an exact
    # Groebner-basis computation of the Jacobian ideal (test_klein.py)
    expected_false = {
        WeightedFamily(weights, degree)
        for weights, degree in (
            ((1, 1, 1, 1), 2),
            ((1, 1, 2, 2), 3),
            ((1, 1, 3, 3), 4),
            ((1, 1, 4, 4), 5),
            ((2, 2, 3, 3), 5),
            ((3, 3, 4, 4), 7),
        )
    }
    assert set(false_cases) == expected_false
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 4 klein quasi-smoothness classification over {existing} families: "
        f"PASS ({elapsed:.2f}s)"
    )


def test_criterion_5_oracle_equivalence(corpus):
    records, build_elapsed = corpus
    t0 = time.monotonic()
    divides_pairs = 0
    sufficient_pairs = 0
    necessary_pairs = 0
    for rec in records:
        assert rec.oracle.status in ("certified", "refuted"), (rec.fam, rec.q)
        if rec.divides is not None:
            divides_pairs += 1
            assert rec.divides.status == rec.oracle.status, (
                rec.fam,
                rec.q,
                rec.divides.status,
                rec.oracle.status,
            )
        if rec.sufficient is not None:
            sufficient_pairs += 1
            assert rec.sufficient.status == "certified"
            assert rec.oracle.status == "certified", (rec.fam, rec.q)
        if rec.chain_applicable and rec.necessary_chain is None:
            necessary_pairs += 1
            assert rec.oracle.status == "refuted", (rec.fam, rec.q)
    assert divides_pairs >= 300
    assert sufficient_pairs >= 100
    assert necessary_pairs >= 100
    elapsed = build_elapsed + (time.monotonic() - t0)
    assert elapsed < 1800.0
    print(
        f"ACCEPTANCE 5 oracle equivalence over {len(records)} family/order pairs "
        f"({divides_pairs} criterion, {sufficient_pairs} sufficiency, "
        f"{necessary_pairs} necessity comparisons): PASS ({elapsed:.2f}s)"
    )


def test_qualifying_chain_signatures_have_the_full_order(corpus):
    # the lemma that lets `_chain_criteria` build a certificate from the
    # first chain whose witness passes: where p does not divide d, the
    # padded signature of a chain with q | det K induces order exactly q.
    # Every chain of each corpus family is tried, also where p divides
    # some d - a_i (where the chain criteria do not apply)
    records, _ = corpus
    checked = 0
    for an in {id(rec.an): rec.an for rec in records}.values():
        fam = an.family
        for q in CORPUS_QS:
            if fam.degree % prime_power_decompose(q).p == 0:
                continue
            for chain in an._qualifying(q):
                sigma = signature_from_chain(fam, chain, q).padded().sigma
                assert effective_order(sigma, fam.weights, q) == q, (fam, q, chain)
                checked += 1
    assert checked == 2715


def test_oracle_refutations_count_every_class(corpus):
    # A full-order signature has a unit entry, so only the unit 1 fixes it:
    # every unit orbit in the pinned slice has phi(q) members, and a
    # refutation by exhaustion counts exactly (q^m - (q/p)^m) / phi(q)
    # classes, m = nvars - 1.
    records, _ = corpus
    exhausted = 0
    for rec in records:
        if rec.oracle.status != "refuted":
            continue
        note = rec.oracle.notes[-1]
        if note.startswith("no pure-power or near-power monomial"):
            continue
        p = prime_power_decompose(rec.q).p
        m = rec.fam.nvars - 1
        classes = (rec.q**m - (rec.q // p) ** m) // (rec.q - rec.q // p)
        assert note == f"exhausted all {classes} signature classes", (rec.fam, rec.q)
        exhausted += 1
    assert exhausted >= 1000


def test_criterion_6_bound_properties(corpus):
    records, _ = corpus
    t0 = time.monotonic()
    bound_checks = 0
    telescoping_checks = 0
    for rec in records:
        fam, d = rec.fam, rec.fam.degree
        pp = prime_power_decompose(rec.q)
        if rec.oracle.status == "certified" and pp.r == 1 and mm_hypothesis(fam):
            if all(d % w == 0 for w in fam.weights):
                assert pp.p <= bound_divides_d(fam).bound, (fam, pp.p)
                bound_checks += 1
            if all(math.gcd(w, d) == 1 for w in fam.weights) and pp.p > d and d > max(fam.weights):
                assert Fraction(pp.p) < Fraction(bound_coprime(fam).bound), (fam, pp.p)
                bound_checks += 1
        for chain in (
            rec.necessary_chain,
            rec.sufficient.chain if rec.sufficient else None,
        ):
            if chain is None:
                continue
            lhs = math.prod(d - fam.weights[i] for i in chain.indices)
            rhs = chain.product() * math.prod(fam.weights[i] for i in chain.indices)
            assert lhs == rhs, (fam, chain)
            telescoping_checks += 1
    assert bound_checks >= 100
    assert telescoping_checks >= 100
    elapsed = time.monotonic() - t0
    print(
        f"ACCEPTANCE 6 bound consistency ({bound_checks} bound, "
        f"{telescoping_checks} telescoping checks): PASS ({elapsed:.2f}s)"
    )


def test_criterion_7_falsifier_soundness(corpus):
    records, _ = corpus
    t0 = time.monotonic()
    pool = [
        rec.oracle.witness_system
        for rec in records
        if rec.oracle.status == "certified"
    ]
    pool += [
        rec.divides.witness_system
        for rec in records
        if rec.divides is not None and rec.divides.status == "certified"
    ]
    assert len(pool) >= 100
    rng = random.Random(SEED)
    sample = rng.sample(pool, 100)
    for idx, system in enumerate(sample):
        # coefficients below every tested prime stay nonzero in each field
        member = random_member(system, seed=SEED + idx, coeff_bound=100)
        for prime in FALSIFIER_PRIMES:
            result = singular_point_search(member, prime, budget=4000, seed=SEED + idx)
            assert result.witness is None, (system.family, prime, result.witness)
    # the singular Klein quadric must be caught over every tested prime
    quadric = WeightedFamily((1, 1, 1, 1), 2)
    monos = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    poly = ExplicitPolynomial(MonomialSystem(quadric, monos), (1,) * len(monos))
    for prime in FALSIFIER_PRIMES:
        result = singular_point_search(poly, prime, budget=60_000, seed=SEED)
        assert result.witness is not None, prime
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 7 falsifier soundness over 100 witnesses x "
        f"{len(FALSIFIER_PRIMES)} primes: PASS ({elapsed:.2f}s)"
    )


def test_oracle_matches_reference_oracle(corpus):
    # The batched oracle against the per-class, per-bucket loop it replaced
    # (conftest.reference_oracle).  Every second criterion-5 pair: a family
    # contributes 9 orders, an odd number, so each order is still compared
    # on half of the families.  The oracle tests a block's classes in
    # growing prefixes, the first of _FIRST_PREFIX classes: both a
    # certificate found past it and a refutation whose block outgrows it
    # must occur, so that equal notes show the prefix boundaries are crossed.
    records, _ = corpus
    t0 = time.monotonic()
    compared = {"certified": 0, "refuted": 0}
    past_first_prefix = {"certified": 0, "refuted": 0}
    for rec in records[::2]:
        got = rec.oracle
        *want, reach = reference_oracle(rec.an, rec.q)
        assert (
            got.status,
            got.signature and got.signature.sigma,
            got.witness_system and got.witness_system.monomials,
            got.notes,
        ) == tuple(want), (rec.fam, rec.q)
        compared[got.status] += 1
        # a certificate's reach is its class's position, a refutation's its largest block
        past_first_prefix[got.status] += reach >= _FIRST_PREFIX + (got.status == "refuted")
    assert compared["certified"] >= 500 and compared["refuted"] >= 500, compared
    assert past_first_prefix["certified"] >= 100 and past_first_prefix["refuted"] >= 100, past_first_prefix
    print(
        f"reference oracle on {compared}, past the first prefix {past_first_prefix}: "
        f"PASS ({time.monotonic() - t0:.2f}s)"
    )


def test_anchors_match_the_tuple_rule(corpus):
    # FamilyAnalysis.anchors, the closed form over the weight digraph, against
    # the rule applied to each exponent tuple of the table, row for row and
    # in the table's order, on every family of the corpus; and its
    # anchor_terms against those rows: the monomial is the row, k its entry
    # at v, and t its other nonzero column, or -1 when it has none
    records, _ = corpus
    analyses = dict.fromkeys(rec.an for rec in records)
    for an in analyses:
        fam = an.family
        monos = an.system.monomials
        want = [[monos[r] for r in rows] for rows in brute_anchors(monos, fam.nvars)]
        assert [[tuple(row) for row in rows.tolist()] for rows in an.anchors] == want, fam
        for v, rows in enumerate(want):
            others = [[u for u, e in enumerate(row) if e and u != v] for row in rows]
            triples = [(row, row[v], us[0] if us else -1) for row, us in zip(rows, others)]
            assert list(an.anchor_terms[v]) == triples and all(len(us) <= 1 for us in others), fam
    assert len(analyses) >= 500


def test_anchor_determinants_match_brute_force(corpus):
    # FamilyAnalysis.anchor_determinants, from the functional-graph closed
    # form, against Bareiss determinants of every choice of anchor monomials
    records, _ = corpus
    analyses = dict.fromkeys(rec.an for rec in records)
    for an in analyses:
        fam = an.family
        assert an.anchor_determinants == brute_anchor_determinants(an.system.monomials, fam.nvars), fam
    assert len(analyses) >= 500


@pytest.mark.parametrize("d", range(3, 9))
@pytest.mark.parametrize("nv", (3, 4, 5))
def test_smooth_case_anchor_determinants(nv, d):
    # With every weight 1 the anchors of x_v are x_v^d (a root) and
    # x_v^(d-1) * x_t (an edge v -> t), so every functional graph is a
    # choice, and det K = d^roots * (d-1)^(tree edges) times, per cycle, the
    # determinant of its chain, (d-1)^len - (-1)^len
    want = set()
    for target in product(*([-1] + [t for t in range(nv) if t != v] for v in range(nv))):
        cycles = set()
        for v in range(nv):
            walk = [v]
            while target[walk[-1]] not in (-1, v) and len(walk) <= nv:
                walk.append(target[walk[-1]])
            if target[walk[-1]] == v:  # v lies on a cycle; keep it from its least vertex
                start = walk.index(min(walk))
                cycles.add(tuple(walk[start:] + walk[:start]))
        roots = target.count(-1)
        tree_edges = nv - roots - sum(map(len, cycles))
        chains = math.prod(CycleChain(c, (d - 1,) * len(c)).determinant for c in cycles)
        want.add(abs(d**roots * (d - 1) ** tree_edges * chains))
    assert family_analysis(WeightedFamily((1,) * nv, d)).anchor_determinants == want


def test_chain_determinant_is_the_signed_product_test(corpus):
    # q divides a chain's determinant prod(m) - (-1)^len exactly when its
    # signed product (-1)^len * prod(m) is 1 mod q, the congruence of the
    # chain criteria, on every chain of the corpus families and every q
    records, _ = corpus
    chains = {chain for an in dict.fromkeys(rec.an for rec in records) for chain in an._chains[0]}
    dividing = 0
    for chain in chains:
        signed = chain.product() if len(chain.indices) % 2 == 0 else -chain.product()
        for q in CORPUS_QS:
            assert (chain.determinant % q == 0) == (signed % q == 1), (chain, q)
            dividing += chain.determinant % q == 0
    # both outcomes occur thousands of times among the (chain, q) pairs
    pairs = len(chains) * len(CORPUS_QS)
    assert len(chains) >= 1900 and 4000 <= dividing <= pairs - 4000, (len(chains), dividing)


def test_determinant_gate_refutes_as_the_scan(corpus):
    # Every pair whose variables all have anchors and whose q divides no
    # quotient det K / d of an anchor determinant, the pairs the oracle may
    # refute without a scan: the reference oracle's per-class loop refutes
    # each of them too, with the same status and notes.  So no pair it
    # certifies fails the test.  The quotient gates strictly more pairs
    # than det K itself, which it contains.
    records, _ = corpus
    anchored = gated = by_quotient_alone = 0
    for rec in records:
        an = rec.an
        if not all(rows.size for rows in an.anchors):
            continue
        anchored += 1
        if any(det // rec.fam.degree % rec.q == 0 for det in an.anchor_determinants):
            continue
        status, _, _, notes, _ = reference_oracle(an, rec.q)
        assert status == "refuted", (rec.fam, rec.q)
        assert (rec.oracle.status, rec.oracle.notes) == (status, notes), (rec.fam, rec.q)
        gated += 1
        by_quotient_alone += any(det % rec.q == 0 for det in an.anchor_determinants)
    counts = (gated, anchored, by_quotient_alone)
    assert gated >= 900 and anchored >= 3000 and by_quotient_alone >= 60, counts


def test_descent_gate_refutes_as_the_scan(corpus):
    # Every pair q = p^r, r > 1, whose p^(r-1) the oracle refuted for the
    # same family, the pairs the oracle may refute by descent: the reference
    # oracle refutes each of them too, with the same notes
    records, _ = corpus
    refuted = {(rec.fam, rec.q) for rec in records if rec.oracle.status == "refuted"}
    descended = 0
    for rec in records:
        pp = prime_power_decompose(rec.q)
        if pp.r == 1 or (rec.fam, rec.q // pp.p) not in refuted:
            continue
        status, _, _, notes, _ = reference_oracle(rec.an, rec.q)
        assert status == "refuted", (rec.fam, rec.q)
        assert (rec.oracle.status, rec.oracle.notes) == (status, notes), (rec.fam, rec.q)
        descended += 1
    assert descended >= 800, descended


def test_certified_orders_divide_an_anchor_determinant(corpus):
    # A certified q, by any route, divides det K / d for the anchors K of its
    # witness's bucket (proof in oracle_exists_order)
    records, _ = corpus
    certified = 0
    for rec in records:
        dets = rec.an.anchor_determinants
        for verdict in (rec.oracle, rec.divides, rec.sufficient):
            if verdict is not None and verdict.status == "certified":
                assert any(det // rec.fam.degree % rec.q == 0 for det in dets), (
                    rec.fam,
                    rec.q,
                    verdict.provenance,
                )
                certified += 1
    assert certified >= 1000, certified


def test_families_with_no_quasi_smooth_member_are_refuted_by_the_reference(corpus):
    # Every pair whose family fails the semigroup subset condition, the pairs
    # the oracle refutes from (a, d) alone: the reference oracle's per-class
    # loop, which builds the table and tests each bucket, refutes each of
    # them too, with the same notes
    records, _ = corpus
    gated = 0
    for rec in records:
        if reference_semigroup_subset_condition(rec.fam):
            continue
        assert rec.an.quasi_smooth is False, rec.fam
        status, _, _, notes, _ = reference_oracle(rec.an, rec.q)
        assert status == "refuted", (rec.fam, rec.q)
        assert (rec.oracle.status, rec.oracle.notes) == (status, notes), (rec.fam, rec.q)
        gated += 1
    assert gated >= 1000, gated
    print(f"reference oracle on {gated} pairs with no quasi-smooth member: PASS")


def test_chain_criteria_are_the_same_without_the_short_circuit(corpus):
    # On the families that fail the semigroup subset condition, the chain
    # walk skips its sufficient half; with quasi_smooth set to True it runs
    # it, and must find no certificate, the same first chain, and the same
    # exception, also where a cycle budget of 1 truncates the walk
    records, _ = corpus
    compared = Counter()
    for rec in records:
        if rec.an.quasi_smooth is not False:
            continue
        pp = prime_power_decompose(rec.q)
        for budget in (CYCLE_BUDGET, 1):
            got = []
            for forced in (False, True):
                an = family_analysis(rec.fam, cycle_budget=budget)
                if forced:
                    an.quasi_smooth = True
                try:
                    got.append(_chain_criteria(an, pp))
                except (HypothesisViolated, BudgetExceeded) as exc:
                    got.append((type(exc).__name__, str(exc)))
            assert got[0] == got[1], (rec.fam, rec.q, budget)
            raised, chain = got[0]  # a verdict would be a certificate, which none has
            compared[raised or ("chain" if chain else "no chain")] += 1
    assert compared["chain"] >= 100 and compared["BudgetExceeded"] >= 200, compared
    print(f"chain criteria with and without the short circuit: {dict(compared)}: PASS")
