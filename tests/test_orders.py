import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import (
    brute_canonical_full_signature,
    brute_canonical_mask,
    brute_effective_order,
    brute_subset_criterion,
    reference_oracle,
)

from wpsauto.ambient import MONOMIAL_BUDGET, WeightedFamily, enumerate_monomials
from wpsauto.arith import as_prime_power, effective_order, prime_powers_up_to
from wpsauto import orders
from wpsauto.cycles import CYCLE_BUDGET
from wpsauto.errors import HypothesisViolated
from wpsauto.orders import (
    ORACLE_CLASS_BUDGET,
    CycleChain,
    Signature,
    _bucket_members,
    _canonical_full_signature,
    _canonical_rows,
    _verified_certificate,
    admissible_orders,
    as_analysis,
    bound_coprime,
    bound_divides_d,
    chain_from_cycle,
    chain_invariance_check,
    divides_d_criterion,
    family_analysis,
    necessary_condition,
    oracle_exists_order,
    order_verdict,
    signature_from_chain,
    sufficient_condition,
    weight_digraph,
)
from wpsauto.quasismooth import general_member_quasismooth, required_monomial, subset_closures

COUNTEREXAMPLE = WeightedFamily((3, 7, 2, 4, 5), 37)
SEXTIC = WeightedFamily((1, 1, 1, 2, 3), 6)
CUBIC3 = WeightedFamily((1, 1, 1, 1, 1), 3)


class TestChainDigraph:
    def test_counterexample_edge(self):
        adj = weight_digraph(COUNTEREXAMPLE)
        assert adj[0][1] == 10  # (37 - 7) / 3
        assert adj[1][2] == 5
        assert adj[2][0] == 17

    def test_equal_weights_complete(self):
        fam = WeightedFamily((1, 1, 1), 4)
        adj = weight_digraph(fam)
        for i in range(3):
            assert set(adj[i]) == {j for j in range(3) if j != i}
            assert all(m == 3 for m in adj[i].values())

    def test_weight_two_vertex(self):
        fam = WeightedFamily((1, 1, 1, 2), 4)
        adj = weight_digraph(fam)
        # edges into the weight-2 vertex exist from the weight-1 vertices only
        assert all(3 in adj[i] for i in range(3))
        # the weight-2 vertex has no outgoing edge: 2 does not divide 4 - 1
        assert adj[3] == {}

    def test_hypothesis_p_divides_d(self):
        with pytest.raises(HypothesisViolated):
            as_analysis(SEXTIC).qualifying_chains(as_prime_power(2))

    def test_hypothesis_p_divides_d_minus_a(self):
        with pytest.raises(HypothesisViolated):
            as_analysis(SEXTIC).qualifying_chains(as_prime_power(5))  # 5 | 6 - 1


class TestNecessaryCondition:
    def test_counterexample_chain(self):
        chain = necessary_condition(COUNTEREXAMPLE, 23)
        assert chain.indices == (0, 1, 2)
        assert chain.exponents == (10, 5, 17)
        assert chain.product() == 850
        assert (-1) ** (chain.ell + 1) * 850 % 23 == 1

    def test_cubic_fourfold_eleven(self):
        fam = WeightedFamily((1,) * 6, 3)
        chain = necessary_condition(fam, 11)
        assert chain is not None
        assert chain.ell == 4
        assert (-1) ** 5 * 2**5 % 11 == 1

    def test_cubic_fourfold_thirteen_none(self):
        # oracle: the only possible products are 2^(ell+1) for ell <= 5
        assert all(
            (-1) ** (ell + 1) * 2 ** (ell + 1) % 13 != 1 for ell in range(1, 6)
        )
        fam = WeightedFamily((1,) * 6, 3)
        assert necessary_condition(fam, 13) is None

    def test_requires_mm(self):
        with pytest.raises(HypothesisViolated):
            necessary_condition(WeightedFamily((1, 1, 1), 4), 7)


class TestSignatureFromChain:
    def test_counterexample_prefix(self):
        chain = necessary_condition(COUNTEREXAMPLE, 23)
        sig = signature_from_chain(COUNTEREXAMPLE, chain, 23)
        assert sig.sigma == (1, 13, 4, None, None)

    def test_first_entry_is_one(self):
        fam = WeightedFamily((1, 2, 1), 4)
        chain = chain_from_cycle(fam, (2, 0))
        sig = signature_from_chain(fam, chain, 7)
        assert sig.sigma[2] == 1

    def test_powers_of_two_mod_eleven(self):
        fam = WeightedFamily((1,) * 6, 3)
        chain = chain_from_cycle(fam, (0, 1, 2, 3, 4))
        sig = signature_from_chain(fam, chain, 11)
        assert sig.sigma[:5] == (1, 9, 4, 3, 5)
        assert sig.sigma[5] is None


class TestChainInvariance:
    def test_counterexample_signature_invariant(self):
        chain = necessary_condition(COUNTEREXAMPLE, 23)
        sig = signature_from_chain(COUNTEREXAMPLE, chain, 23)
        assert chain_invariance_check(chain, sig, 23)
        assert (1 * 10 + 13) % 23 == 0
        assert (13 * 5 + 4) % 23 == 0
        assert (4 * 17 + 1) % 23 == 0

    def test_zero_signature_trivially_invariant(self):
        # 0*m + 0 = 0 holds for every exponent, so the zero vector always
        # passes; it never certifies anything because its induced order is 1
        chain = necessary_condition(COUNTEREXAMPLE, 23)
        zero = Signature(23, (0,) * 5)
        assert chain_invariance_check(chain, zero, 23)
        assert effective_order(zero.sigma, COUNTEREXAMPLE.weights, 23) == 1

    def test_perturbation_breaks(self):
        chain = necessary_condition(COUNTEREXAMPLE, 23)
        sig = signature_from_chain(COUNTEREXAMPLE, chain, 23)
        bumped = list(sig.sigma)
        bumped[1] = (bumped[1] + 1) % 23
        assert not chain_invariance_check(chain, tuple(bumped), 23)


class TestSufficientCondition:
    def test_cubic_fourfold_eleven(self):
        fam = WeightedFamily((1,) * 6, 3)
        verdict = sufficient_condition(fam, 11)
        assert verdict is not None and verdict.status == "certified"
        assert verdict.chain.ell == 4
        assert general_member_quasismooth(fam, verdict.witness_system)
        assert effective_order(verdict.signature.sigma, fam.weights, 11) == 11

    def test_sextic_seven(self):
        verdict = sufficient_condition(SEXTIC, 7)
        assert verdict is not None
        assert verdict.chain.indices == (0, 1, 2)
        assert verdict.chain.exponents == (5, 5, 5)
        assert (-1) ** 3 * 125 % 7 == 1
        # complement carries x3^3 and x4^2
        assert (0, 0, 0, 3, 0) in verdict.witness_system.monomials
        assert (0, 0, 0, 0, 2) in verdict.witness_system.monomials

    def test_counterexample_fails(self):
        assert sufficient_condition(COUNTEREXAMPLE, 23) is None

    def test_an_unsound_chain_signature_raises(self, monkeypatch):
        # five times a chain signature mod 25 induces order 5; the certificate
        # check raises on it, as on any unsound certificate, and no chain is
        # passed over in silence
        sound = orders.signature_from_chain

        def scaled(fam, chain, q):
            sig = sound(fam, chain, q)
            return Signature(sig.q, tuple(None if s is None else 5 * s % sig.q for s in sig.sigma))

        monkeypatch.setattr(orders, "signature_from_chain", scaled)
        with pytest.raises(AssertionError, match="induced order"):
            sufficient_condition(WeightedFamily((1, 1, 2, 3), 9), 25)


class TestDividesD:
    def test_sextic_seven_case_c(self):
        verdict = divides_d_criterion(SEXTIC, 7)
        assert verdict.status == "certified"
        assert (1 - 6) ** 3 % 7 == 1 % 7

    def test_sextic_five_case_b(self):
        verdict = divides_d_criterion(SEXTIC, 5)
        assert verdict.status == "certified"
        assert "case (b)" in verdict.notes[0]

    def test_sextic_eleven_refuted(self):
        assert divides_d_criterion(SEXTIC, 11).status == "refuted"

    def test_certificates_verify(self):
        for p in (2, 3, 5, 7):
            verdict = divides_d_criterion(SEXTIC, p)
            assert verdict.status == "certified"
            assert general_member_quasismooth(SEXTIC, verdict.witness_system)
            assert effective_order(verdict.signature.sigma, SEXTIC.weights, p) == p
            for i in range(SEXTIC.nvars):
                assert required_monomial(verdict.witness_system, i) is not None

    def test_hypothesis_weights_divide(self):
        with pytest.raises(HypothesisViolated, match="every weight must divide the degree"):
            divides_d_criterion(COUNTEREXAMPLE, 23)

    def test_rejects_a_linear_cone(self):
        # x_4 has degree d: case (b) once fired here at m = 0, with x_4 as x_0's near-power
        with pytest.raises(HypothesisViolated, match="linear cones are excluded"):
            divides_d_criterion(WeightedFamily((1, 1, 1, 1, 4), 4), 3)


class TestBounds:
    def test_divides_d_sextic(self):
        report = bound_divides_d(SEXTIC)
        assert report.bound == max(6, 5**2, 1, 1) == 25
        assert report.kind == "divides-d"
        assert dict(report.multiplicities) == {1: 3, 2: 1, 3: 1}

    def test_divides_d_cubic(self):
        assert bound_divides_d(CUBIC3).bound == max(3, 2**4) == 16

    def test_divides_d_tiny(self):
        # smallest constructible family: multiplicity 3 gives (3-1)^2 = 4
        assert bound_divides_d(WeightedFamily((1, 1, 1), 3)).bound == 4

    def test_coprime_cubic(self):
        report = bound_coprime(CUBIC3)
        assert report.bound == Fraction(1, 2) * 2**5 == 16
        assert report.kind == "coprime"

    def test_coprime_quartic_curve(self):
        assert bound_coprime(WeightedFamily((1, 1, 1), 4)).bound == Fraction(27, 3) == 9

    def test_coprime_quintic(self):
        assert bound_coprime(WeightedFamily((1, 1, 1, 1), 5)).bound == Fraction(4**4, 4) == 64

    def test_coprime_hypothesis(self):
        with pytest.raises(HypothesisViolated, match="every weight must be coprime to the degree"):
            bound_coprime(SEXTIC)

    def test_divides_d_hypothesis(self):
        with pytest.raises(HypothesisViolated, match="every weight must divide the degree"):
            bound_divides_d(COUNTEREXAMPLE)


class TestOracle:
    def test_counterexample_refuted(self):
        verdict = oracle_exists_order(COUNTEREXAMPLE, 23)
        assert verdict.status == "refuted"

    def test_cubic_threefold_eleven_is_klein_cycle(self):
        verdict = oracle_exists_order(CUBIC3, 11)
        assert verdict.status == "certified"
        monos = verdict.witness_system.monomials
        assert len(monos) == 5
        # each witness monomial is a square times a single other variable,
        # and together they close one cycle through all five variables
        succ = {}
        for e in monos:
            (i,) = [v for v, x in enumerate(e) if x == 2]
            (j,) = [v for v, x in enumerate(e) if x == 1]
            succ[i] = j
        seen = set()
        v = 0
        for _ in range(5):
            seen.add(v)
            v = succ[v]
        assert seen == set(range(5)) and v == 0

    def test_sextic_seven_certified(self):
        assert oracle_exists_order(SEXTIC, 7).status == "certified"

    def test_certificates_sound(self):
        for fam in (CUBIC3, SEXTIC, WeightedFamily((1, 1, 1, 1, 2), 4)):
            for q in (2, 3, 4, 7, 8, 9, 11):
                verdict = oracle_exists_order(fam, q)
                if verdict.status != "certified":
                    continue
                assert general_member_quasismooth(fam, verdict.witness_system)
                assert effective_order(verdict.signature.sigma, fam.weights, q) == q
                for i in range(fam.nvars):
                    assert required_monomial(verdict.witness_system, i) is not None

    def test_hypotheses(self):
        with pytest.raises(HypothesisViolated):
            oracle_exists_order(WeightedFamily((1, 1, 2, 2), 4), 3)  # infinite group
        with pytest.raises(HypothesisViolated):
            oracle_exists_order(WeightedFamily((1, 1, 1, 2, 3), 3), 7)  # linear cone

    def test_budget_returns_unresolved(self):
        verdict = oracle_exists_order(family_analysis(COUNTEREXAMPLE, oracle_budget=10), 23)
        assert verdict.status == "unresolved"

    # The slice of (1,1,1,1,1) d=4 at q = 81 has 81**4 rows, more than the
    # 2**24 the oracle once refused to scan; the class budget alone decides.
    def test_quartic_threefold_at_81(self):
        fam = WeightedFamily((1, 1, 1, 1, 1), 4)
        verdict = oracle_exists_order(fam, 81)
        assert verdict.status == "certified"
        assert verdict.notes[-1] == "classes examined: 67860"
        verdict = oracle_exists_order(family_analysis(fam, oracle_budget=787319), 81)
        assert verdict.status == "unresolved"
        assert verdict.notes == ("at least 787320 signature classes exceed the budget of 787319",)

    def test_determinant_gate_refutes_without_a_scan(self, monkeypatch):
        # the 27 anchor choices of (1,1,1) d=4 give six determinants; 28 = 3^3 + 1
        # is the Klein cycle's, and 28/4 = 7 the paper's maximal prime
        fam = WeightedFamily((1, 1, 1), 4)
        assert as_analysis(fam).anchor_determinants == {24, 28, 32, 36, 48, 64}
        assert oracle_exists_order(fam, 7).status == "certified"

        def no_scan(*args):
            raise AssertionError("the oracle scanned its classes")

        monkeypatch.setattr(orders, "_canonical_rows", no_scan)
        # 25 divides no determinant, and its 30 classes are at least the 27
        # anchor choices: refuted with the scan's own note
        verdict = oracle_exists_order(fam, 25)
        assert (verdict.status, verdict.provenance, verdict.notes[-1]) == (
            "refuted",
            "oracle",
            "exhausted all 30 signature classes",
        )
        # 5 divides none either, but its 6 classes cost less than the table
        with pytest.raises(AssertionError, match="scanned"):
            oracle_exists_order(fam, 5)

    def test_anchor_refutations_build_no_monomial_table(self, monkeypatch):
        # the anchors and their determinants are closed forms of (a, d)
        def no_table(*args):
            raise AssertionError("the monomial table was built")

        monkeypatch.setattr(orders, "enumerate_monomials", no_table)
        an = orders.FamilyAnalysis(WeightedFamily((1, 1, 3), 8), 10**6, 10**6, 10**6)
        verdict = oracle_exists_order(an, 5)
        assert (verdict.status, verdict.notes[-1]) == (
            "refuted",
            "no pure-power or near-power monomial for variables [2]",
        )
        an = orders.FamilyAnalysis(WeightedFamily((1, 1, 1), 4), 10**6, 10**6, 10**6)
        verdict = oracle_exists_order(an, 25)
        assert (verdict.status, verdict.notes[-1]) == ("refuted", "exhausted all 30 signature classes")
        with pytest.raises(AssertionError, match="table was built"):
            oracle_exists_order(an, 7)

    def test_determinant_gate_runs_before_the_budget(self):
        # (1,1,1,1,1) d=6 at q = 256: 31 457 280 classes, far above the budget,
        # but 3125 anchor choices and no determinant divisible by 256
        fam = WeightedFamily((1, 1, 1, 1, 1), 6)
        verdict = oracle_exists_order(fam, 256)
        assert (verdict.status, verdict.notes[-1]) == ("refuted", "exhausted all 31457280 signature classes")
        # with a budget below the 3125 choices, the table is not consulted
        verdict = oracle_exists_order(family_analysis(fam, oracle_budget=3124), 256)
        assert verdict.status == "unresolved"
        # 128 divides the determinant 3456 = 2**7 * 27, but no quotient by
        # d = 6 (3456 / 6 = 2**6 * 9): refuted by the quotient alone
        dets = as_analysis(fam).anchor_determinants
        assert any(det % 128 == 0 for det in dets) and all(det // 6 % 128 for det in dets)
        verdict = oracle_exists_order(fam, 128)
        assert (verdict.status, verdict.notes[-1]) == ("refuted", "exhausted all 3932160 signature classes")

    def test_descent_waits_for_the_budget(self):
        # (1,1,1,1) d=4: the oracle refutes 32 by scanning its 1792 classes,
        # but 64 has 7168, over the budget, and stays unresolved even so:
        # its verdict does not depend on whether 32 was asked for first
        an = family_analysis(WeightedFamily((1, 1, 1, 1), 4), oracle_budget=2000)
        assert oracle_exists_order(an, 32).notes[-1] == "exhausted all 1792 signature classes"
        assert 32 in an.oracle_refuted
        verdict = oracle_exists_order(an, 64)
        assert (verdict.status, verdict.notes[-1]) == (
            "unresolved",
            "at least 7168 signature classes exceed the budget of 2000",
        )

    # q = 61 and q = 64 lie on either side of q = 62, where the oracle once
    # switched from an int64 bitmask to Python sets to find candidate
    # buckets; the expected counts and certificate were recorded then.
    def test_refutations_across_former_bitmask_limit(self):
        fam = WeightedFamily((1, 2, 3, 5), 17)
        for q, classes in ((61, 3783), (64, 7168)):
            verdict = oracle_exists_order(fam, q)
            assert (verdict.status, verdict.provenance, verdict.notes) == (
                "refuted",
                "oracle",
                (f"exhausted all {classes} signature classes",),
            )

    def test_certificate_above_former_bitmask_limit(self):
        fam = WeightedFamily((1, 1, 1, 1), 5)
        verdict = oracle_exists_order(fam, 64)
        assert verdict.status == "certified"
        assert verdict.signature == Signature(64, (0, 1, 4, 52))
        assert verdict.witness_system.monomials == (
            (0, 0, 0, 5),
            (0, 0, 4, 1),
            (1, 4, 0, 0),
            (4, 0, 1, 0),
        )
        assert verdict.notes == ("classes examined: 6880",)

    # "classes examined" counts the classes below the end of the 65 536-row
    # block of the slice that holds the certifying class; recorded when the
    # oracle still scanned the slice block by block.
    @pytest.mark.parametrize(
        "weights, degree, budget, status, sigma, note",
        [
            ((1, 1, 1, 3), 13, ORACLE_CLASS_BUDGET, "certified", (0, 4, 16, 15), "classes examined: 6880"),
            ((1, 1, 2, 3), 32, ORACLE_CLASS_BUDGET, "certified", (0, 32, 2, 3), "classes examined: 7168"),
            ((1, 1, 2, 3), 32, 7168, "certified", (0, 32, 2, 3), "classes examined: 7168"),
            (
                (1, 1, 2, 3),
                32,
                7167,
                "unresolved",
                None,
                "at least 7168 signature classes exceed the budget of 7167",
            ),
        ],
    )
    def test_class_counts_at_64(self, weights, degree, budget, status, sigma, note):
        verdict = oracle_exists_order(family_analysis(WeightedFamily(weights, degree), oracle_budget=budget), 64)
        assert verdict.status == status
        assert (verdict.signature and verdict.signature.sigma) == sigma
        assert verdict.notes == (note,)

    # Exponents near 2**63 once wrapped the oracle's int64 bucket sums: it
    # certified both orders with witnesses spanning the buckets 3, 1 and 3.
    # Only the last variable has weight 1, so the monomials are x^i y^j z^k
    # with k = d - a_0*i - a_1*j, a few each.
    @pytest.mark.parametrize(
        "weights, degree, q, classes",
        [
            ((3074457345618258527, 2305843009213693895, 1), 9223372036854775581, 19, 20),
            ((3074457345618258431, 2305843009213693823, 1), 9223372036854775293, 43, 44),
        ],
    )
    def test_buckets_are_exact_near_the_int64_limit(self, weights, degree, q, classes):
        a0, a1, _ = weights
        monos = [
            (i, j, degree - a0 * i - a1 * j)
            for i in range(degree // a0 + 1)
            for j in range((degree - a0 * i) // a1 + 1)
        ]
        # exact reference over the whole slice: no signature of order q has a
        # bucket passing the subset criterion
        pinned = next(v for v, w in enumerate(weights) if w % q)
        for sigma in product(range(q), repeat=3):
            if sigma[pinned] or brute_effective_order(sigma, weights, q) != q:
                continue
            buckets: dict[int, list] = {}
            for e in monos:
                buckets.setdefault(sum(s * x for s, x in zip(sigma, e)) % q, []).append(e)
            assert not any(brute_subset_criterion(b, 3) for b in buckets.values())
        verdict = oracle_exists_order(WeightedFamily(weights, degree), q)
        assert (verdict.status, verdict.notes[-1]) == ("refuted", f"exhausted all {classes} signature classes")


class TestVerifiedCertificate:
    QUARTIC = WeightedFamily((1, 1, 1), 4)
    FERMAT = ((0, 0, 4), (4, 0, 0), (0, 4, 0), (4, 0, 0))

    def test_builds_the_verdict(self):
        # every Fermat monomial lies in bucket 0 of (0, 5, 2) mod 4
        verdict = _verified_certificate(self.QUARTIC, 4, "test", (0, 5, 2), self.FERMAT)
        assert (verdict.status, verdict.provenance) == ("certified", "test")
        assert verdict.signature == Signature(4, (0, 1, 2))
        assert verdict.witness_system.monomials == ((0, 0, 4), (0, 4, 0), (4, 0, 0))

    def test_rejects_a_witness_spanning_several_buckets(self):
        # (0, 10, 2) . e mod 9 is 8, 0 and 4 on the three Fermat monomials
        with pytest.raises(AssertionError, match="eigenvalue buckets"):
            _verified_certificate(self.QUARTIC, 9, "test", (0, 10, 2), self.FERMAT)

    def test_rejects_a_signature_of_lower_order(self):
        # 3 * (0, 3, 6) = 0 mod 9: the signature induces order 3
        with pytest.raises(AssertionError, match="induced order"):
            _verified_certificate(self.QUARTIC, 9, "test", (0, 3, 6), self.FERMAT)

    def test_rejects_a_witness_failing_the_subset_criterion(self):
        # no monomial lies inside the subset {x_2}
        with pytest.raises(AssertionError, match="subset criterion"):
            _verified_certificate(self.QUARTIC, 9, "test", (0, 1, 2), self.FERMAT[1:3])


    # From nvars * q**2 >= 2**62 the bucket sums are formed in Python ints:
    # q = 2**61 - 1 is prime, and (0, 2**32, 0) . (0, 2**32, q - 2**32) = 2**64,
    # which int64 wraps to 0, the bucket of the Fermat monomials x_i^q
    BIG = 2**61 - 1
    BIG_FERMAT = ((BIG, 0, 0), (0, BIG, 0), (0, 0, BIG))

    def test_builds_the_verdict_past_int64_sums(self):
        fam = WeightedFamily((1, 1, 1), self.BIG)
        verdict = _verified_certificate(fam, self.BIG, "test", (0, 2**32, 0), self.BIG_FERMAT[::-1])
        assert verdict.signature == Signature(self.BIG, (0, 2**32, 0))
        assert verdict.witness_system.monomials == self.BIG_FERMAT[::-1]

    def test_rejects_several_buckets_past_int64_sums(self):
        fam = WeightedFamily((1, 1, 1), self.BIG)
        witness = self.BIG_FERMAT + ((0, 2**32, self.BIG - 2**32),)
        with pytest.raises(AssertionError, match="eigenvalue buckets"):
            _verified_certificate(fam, self.BIG, "test", (0, 2**32, 0), witness)


class TestAdmissibleOrders:
    def test_cubic_threefold_table(self):
        results = admissible_orders(CUBIC3, 16)
        certified = {pp.p for pp, v in results if pp.r == 1 and v.status == "certified"}
        assert certified == {2, 3, 5, 11}
        refuted = {pp.p for pp, v in results if pp.r == 1 and v.status == "refuted"}
        assert refuted == {7, 13}

    def test_sextic_11223(self):
        fam = WeightedFamily((1, 1, 2, 2, 3), 6)
        results = admissible_orders(fam, 6)
        certified = {pp.p for pp, v in results if pp.r == 1 and v.status == "certified"}
        assert certified == {2, 3, 5}

    def test_quartic_11112(self):
        fam = WeightedFamily((1, 1, 1, 1, 2), 4)
        results = admissible_orders(fam, 27)
        certified = {pp.p for pp, v in results if pp.r == 1 and v.status == "certified"}
        assert certified == {2, 3, 5, 7}

    def test_every_q_has_a_verdict(self):
        results = admissible_orders(SEXTIC, 25)
        qs = [pp.q for pp, _ in results]
        assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]
        assert all(v.status in ("certified", "refuted", "unresolved") for _, v in results)


def brute_order_exists(fam, q):
    """Reference search over every signature vector, no class reduction."""
    from itertools import product

    system = enumerate_monomials(fam)
    for sigma in product(range(q), repeat=fam.nvars):
        if effective_order(sigma, fam.weights, q) != q:
            continue
        dots = [sum(s * x for s, x in zip(sigma, e)) % q for e in system.monomials]
        for h in set(dots):
            bucket = [e for e, val in zip(system.monomials, dots) if val == h]
            if brute_subset_criterion(bucket, fam.nvars):
                return True
    return False


class TestOracleClassReduction:
    def test_matches_unreduced_search(self):
        # the translation/unit-scaling quotient must not change the verdict
        fams = [
            WeightedFamily((1, 1, 1), 3),
            WeightedFamily((1, 1, 1), 5),
            WeightedFamily((1, 1, 2), 5),
            WeightedFamily((1, 2, 3), 7),
            WeightedFamily((1, 1, 1, 1), 3),
            WeightedFamily((1, 1, 1, 2), 4),
            WeightedFamily((1, 1, 2, 3), 5),
        ]
        compared = 0
        for fam in fams:
            for q in (2, 3, 4, 5):
                try:
                    verdict = oracle_exists_order(fam, q)
                except HypothesisViolated:
                    continue
                if verdict.status == "unresolved":
                    continue
                expected = brute_order_exists(fam, q)
                assert (verdict.status == "certified") == expected, (fam, q)
                compared += 1
        assert compared >= 20

    def test_matches_unreduced_search_higher_prime_powers(self):
        fams = [
            WeightedFamily((1, 1, 1), 4),
            WeightedFamily((1, 1, 2), 7),
            WeightedFamily((1, 1, 1, 1), 5),
        ]
        compared = 0
        for fam in fams:
            for q in (7, 8, 9):
                try:
                    verdict = oracle_exists_order(fam, q)
                except HypothesisViolated:
                    continue
                expected = brute_order_exists(fam, q)
                assert (verdict.status == "certified") == expected, (fam, q)
                compared += 1
        assert compared >= 6


class TestCanonicalRows:
    def test_matches_minimum_over_all_units(self, monkeypatch):
        # m = 4 free residues reaches r = 4 (q = 16); each slice is read
        # cold and then warm, from the memo when its rows fit what the memo
        # has left.  At m = 3, q = 43, 47 and 49 have more than _CHUNK
        # ranks, and are kept too
        monkeypatch.setattr(orders, "_slice_cache", {})
        for m, max_q in ((2, 223), (3, 36), (4, 16), (3, 49)):
            for pp in prime_powers_up_to(max_q)[-3:] if max_q == 49 else prime_powers_up_to(max_q):
                S = np.indices((pp.q,) * m).reshape(m, -1).T  # row k has rank k
                radix = pp.q ** np.arange(m - 1, -1, -1)
                full_order = (S % pp.p != 0).any(axis=1)
                want = np.flatnonzero(full_order & brute_canonical_mask(S, pp.q))
                held = sum(map(orders._nbytes, orders._slice_cache.values()))
                assert held + len(want) * m * 8 <= orders._SLICE_CACHE_BYTES
                for warm in (False, True):
                    blocks = list(_canonical_rows(pp.q, pp.p, pp.r, m))
                    rows = np.concatenate(blocks)
                    assert rows.dtype == np.int64 and rows.shape[1] == m
                    assert np.array_equal(rows @ radix, want), (pp.q, m, warm)
                    assert np.array_equal(rows, S[want]), (pp.q, m, warm)
                    assert (pp.q, m) in orders._slice_cache
                    assert all(not block.flags.writeable for block in blocks)

    def test_memo_holds_no_more_than_its_cap(self, monkeypatch):
        monkeypatch.setattr(orders, "_slice_cache", {})
        three, two = (list(orders._canonical_blocks(q, q, 1, 2)) for q in (3, 2))
        monkeypatch.setattr(orders, "_SLICE_CACHE_BYTES", orders._nbytes(three) + orders._nbytes(two))
        kept = _canonical_rows(3, 3, 1, 2)
        for q in (2, 5, 7, 3):
            _canonical_rows(q, q, 1, 2)
        # the cap is full after the first two slices, so q = 5 is not held,
        # nor q = 7, larger than the whole cap; what is held is not rebuilt
        assert list(orders._slice_cache) == [(3, 2), (2, 2)]
        assert _canonical_rows(3, 3, 1, 2) is kept
        for q in (5, 7):
            got, want = _canonical_rows(q, q, 1, 2), list(orders._canonical_blocks(q, q, 1, 2))
            assert iter(got) is got  # streamed, not held
            assert [block.tolist() for block in got] == [block.tolist() for block in want]
        assert orders._nbytes(want) > orders._SLICE_CACHE_BYTES

    @pytest.mark.parametrize("q", [37, 191])
    def test_a_slice_over_the_remaining_cap_is_streamed(self, monkeypatch, q):
        # at m = 3, q = 37 is one block of at most _CHUNK ranks and q = 191
        # two blocks; with one byte too few left, neither is built whole
        # before its reader takes the first block
        monkeypatch.setattr(orders, "_slice_cache", {})
        monkeypatch.setattr(orders, "_SLICE_CACHE_BYTES", orders._class_count(q, q, 3) * 3 * 8 - 1)
        want = list(orders._canonical_blocks(q, q, 1, 3))
        yielded = []

        def counted_blocks(*args):
            for block in want:
                yielded.append(block)
                yield block

        monkeypatch.setattr(orders, "_canonical_blocks", counted_blocks)
        got = _canonical_rows(q, q, 1, 3)
        assert yielded == []
        next(got)
        assert len(yielded) == 1
        assert len(list(got)) == len(want) - 1
        assert orders._slice_cache == {}

    def test_a_multi_block_slice_is_built_once(self, monkeypatch):
        # (1,1,1,1) d=4 at q = 191 scans a slice of two blocks, 36673 classes
        # in 0.9 MB; the zero determinant the test gives the family makes
        # the oracle scan them.  The second analysis reads the kept slice
        monkeypatch.setattr(orders, "_slice_cache", {})
        monkeypatch.setattr(orders.FamilyAnalysis, "anchor_determinants", property(lambda an: frozenset({0})))
        canonical_blocks, built = orders._canonical_blocks, []

        def counted_blocks(*args):
            built.append(args)
            return canonical_blocks(*args)

        monkeypatch.setattr(orders, "_canonical_blocks", counted_blocks)
        fam = WeightedFamily((1, 1, 1, 1), 4)
        first, second = (oracle_exists_order(family_analysis(fam, oracle_budget=b), 191) for b in (10**5, 10**6))
        assert first == second
        assert first.notes[-1] == "exhausted all 36673 signature classes"
        assert built == [(191, 191, 1, 3)]
        assert len(orders._slice_cache[191, 3]) == 2

    def test_one_slice_serves_every_pinned_coordinate(self, monkeypatch):
        # at q = 4, (1,1,1) d=4 pins i* = 0 and (2,1,1) d=5 pins i* = 1, whose
        # winner (1, 0, 2) is not its own canonical signature; both read the
        # one slice of two free residues mod 4, built once
        monkeypatch.setattr(orders, "_slice_cache", {})
        canonical_blocks, built = orders._canonical_blocks, []

        def counted_blocks(*args):
            built.append(args)
            return canonical_blocks(*args)

        monkeypatch.setattr(orders, "_canonical_blocks", counted_blocks)
        for weights, degree in (((1, 1, 1), 4), ((2, 1, 1), 5)):
            an = as_analysis(WeightedFamily(weights, degree))
            fam = an.family
            verdict = oracle_exists_order(an, 4)
            status, signature, witness, notes, _ = reference_oracle(an, 4)
            assert verdict.status == status == "certified", fam
            assert (verdict.signature.sigma, verdict.notes) == (signature, notes), fam
            assert verdict.witness_system.exponents.tolist() == [list(e) for e in witness], fam
        assert built == [(4, 2, 2, 2)]


class TestCanonicalFullSignature:
    @pytest.mark.parametrize("weights", [(1, 2, 3), (2, 3, 6)])
    def test_matches_minimum_over_all_units_and_translates(self, weights):
        for pp in prime_powers_up_to(13):
            for sigma in np.ndindex(*(pp.q,) * len(weights)):
                want = brute_canonical_full_signature(weights, sigma, pp.q)
                assert _canonical_full_signature(weights, sigma, pp.q) == want, (sigma, pp.q)

    @pytest.mark.parametrize("weights", [(1, 2, 3), (5, 2, 3), (7, 4, 6), (1, 1, 2, 2), (3, 7, 2, 4)])
    def test_is_the_identity_on_the_oracle_rows_when_p_does_not_divide_a0(self, weights):
        # then i* = 0, and every translate by c != 0 has first entry c * a_0,
        # a nonzero entry before the row's leading zero, so the row itself
        # is the least
        rows = 0
        for pp in prime_powers_up_to(27):
            if weights[0] % pp.p == 0:
                continue
            for block in _canonical_rows(pp.q, pp.p, pp.r, len(weights) - 1):
                for free in block.tolist():
                    row = (0, *free)
                    assert _canonical_full_signature(weights, row, pp.q) == row, (row, pp.q)
                    rows += 1
        assert rows > 100

    def test_may_move_the_oracle_rows_when_p_divides_a0(self):
        # (2, 3, 5) at q = 8 pins i* = 1; the lemma above needs i* = 0
        rows = [(s0, 0, s2) for block in _canonical_rows(8, 2, 3, 2) for s0, s2 in block.tolist()]
        assert any(_canonical_full_signature((2, 3, 5), row, 8) != row for row in rows)


class TestChainValidation:
    def test_telescoping_holds(self):
        fam = COUNTEREXAMPLE
        chain = chain_from_cycle(fam, (0, 1, 2))
        lhs = math.prod(fam.degree - fam.weights[i] for i in chain.indices)
        rhs = chain.product() * math.prod(fam.weights[i] for i in chain.indices)
        assert lhs == rhs

    def test_rejects_invalid_cycle(self):
        # the return edge 1 -> 0 would need 7 to divide 37 - 3 = 34
        with pytest.raises(ValueError):
            chain_from_cycle(COUNTEREXAMPLE, (0, 1))


def test_order_verdict_takes_a_family_or_its_analysis():
    fam = WeightedFamily((1, 1, 1), 4)
    assert order_verdict(fam, 7) == order_verdict(family_analysis(fam), 7)
    assert order_verdict(fam, 7).status == "certified"
    capped = order_verdict(family_analysis(fam, oracle_budget=0), 7)
    assert (capped.status, capped.notes[-1]) == (
        "unresolved",
        "at least 8 signature classes exceed the budget of 0",
    )


def test_a_bare_family_gets_a_new_analysis():
    # nothing keeps an analysis: each call on a family builds a new one
    # under the default budgets, and an analysis passes through as it is
    fam = WeightedFamily((1, 1, 1), 4)
    an = family_analysis(fam)
    assert (an.monomial_budget, an.cycle_budget, an.oracle_budget) == (
        MONOMIAL_BUDGET,
        CYCLE_BUDGET,
        ORACLE_CLASS_BUDGET,
    )
    assert family_analysis(fam) is not an
    assert as_analysis(fam) is not an
    assert as_analysis(an) is an


@pytest.mark.parametrize(
    "weights, degree, message",
    [
        ((1, 1, 2, 2), 4, "the linear automorphism group is not finite"),
        ((1, 2, 2, 2), 9, "is not well-formed"),
        ((1, 1, 1), 2, "degree must be at least 3"),
    ],
)
def test_a_failed_hard_precondition_raises_on_every_call(weights, degree, message):
    # the hypothesis notes are kept once worked out, but a raise keeps nothing
    an = family_analysis(WeightedFamily(weights, degree))
    for _ in range(2):
        with pytest.raises(HypothesisViolated, match=message):
            an.oracle_hypotheses()
        assert order_verdict(an, 5).status == "hypothesis-violated"


def test_prime_power_tables_are_kept_per_limit():
    # limits 64, 13 and 64 in one process list exactly the prime powers up
    # to each; the kept table is a tuple, and a caller mutating the list it
    # gets back changes no later call
    an = family_analysis(WeightedFamily((1, 1, 1), 4))
    first = None
    for limit in (64, 13, 64):
        got = admissible_orders(an, limit)
        assert [pp for pp, _ in got] == prime_powers_up_to(limit)
        first = first or got
        first.clear()
    table = orders._prime_power_table(64)
    assert isinstance(table, tuple) and table is orders._prime_power_table(64)
    assert list(table) == prime_powers_up_to(64)


def test_closures_are_built_once_per_analysis(monkeypatch):
    # (1,1,1,1) d=4 fails the linearity hypothesis, so the oracle decides
    # every order of the sweep, and scans several of them
    built, scanned = [], []

    def counted_closures(codes, nvars):
        built.append(nvars)
        return subset_closures(codes, nvars)

    def counted_rows(*args):
        scanned.append(args)
        return _canonical_rows(*args)

    monkeypatch.setattr(orders, "subset_closures", counted_closures)
    monkeypatch.setattr(orders, "_canonical_rows", counted_rows)
    an = orders.FamilyAnalysis(WeightedFamily((1, 1, 1, 1), 4), 10**6, 10**4, ORACLE_CLASS_BUDGET)
    verdicts = admissible_orders(an, 13)
    assert {v.provenance for _, v in verdicts} == {"oracle"}
    assert len(scanned) >= 3
    assert built == [4]
    assert not an.closures.flags.writeable


def test_analysis_reads_the_enumerated_matrix():
    # x_0^128 overflowed the int8 matrix the analysis used to rebuild
    an = as_analysis(WeightedFamily((1, 2, 3), 128))
    assert an.exponents is an.system.exponents
    assert an.exponents.tolist() == [list(e) for e in an.system.monomials]
    assert oracle_exists_order(an, 5).status in ("certified", "refuted")


def test_bucket_members_exact_at_the_int64_edge():
    # the largest prime q with q**3 < 2**62, the oracle's range guard at three
    # variables: bucket sums reach 3 * (q - 1)**2, about 2**43, and the
    # int64 membership must agree with Python integers on every pair.  Half
    # of the buckets are those of a row, so that members occur
    q = 1664501
    assert q**3 < 2**62 < (q + 10) ** 3
    rng = np.random.default_rng(0)
    table = np.vstack([rng.integers(0, q, (300, 3)), np.full((1, 3), q - 1), np.eye(3, dtype=np.int64)])
    sigma = np.vstack([rng.integers(0, q, (100, 3)), np.full((1, 3), q - 1)])
    rows = rng.integers(0, len(table), len(sigma))
    own = [sum(s * e for s, e in zip(sig, table[r].tolist())) % q for sig, r in zip(sigma.tolist(), rows)]
    h = np.where(np.arange(len(sigma)) % 2, own, rng.integers(0, q, len(sigma)))
    got = _bucket_members(sigma, table.T, h, q)
    want = [
        [sum(s * x for s, x in zip(sig, e)) % q == b for e in table.tolist()]
        for sig, b in zip(sigma.tolist(), h.tolist())
    ]
    assert got.tolist() == want
    assert got[1::2].any(axis=1).all()
