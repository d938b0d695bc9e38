import dataclasses
import math

import pytest

from conftest import families, reference_singularity_R

from wpsauto.ambient import MonomialSystem, WeightedFamily, enumerate_monomials
from wpsauto.errors import HypothesisViolated, NoKleinHypersurface
from wpsauto.klein import (
    eigenspace_filter,
    klein_eigenspace_check,
    klein_exists,
    klein_max_prime,
    klein_quasismooth,
    klein_singularity_R,
)
from wpsauto.orders import bound_coprime, chain_from_cycle, oracle_exists_order
from wpsauto.quasismooth import ExplicitPolynomial, singular_point_search, subset_criterion

QUARTIC_CURVE = WeightedFamily((1, 1, 1), 4)
CUBIC3 = WeightedFamily((1, 1, 1, 1, 1), 3)


class TestKleinExists:
    def test_no_ordering_1112_d4(self):
        assert klein_exists(WeightedFamily((1, 1, 1, 2), 4)) is None

    def test_quartic_curve(self):
        data = klein_exists(QUARTIC_CURVE)
        assert data.ordering == (0, 1, 2)
        assert data.exponents == (3, 3, 3)

    def test_cubic_fourfold_equal_weights(self):
        data = klein_exists(WeightedFamily((1,) * 6, 3))
        assert data.exponents == (2,) * 6

    def test_monomials_have_degree_d(self):
        for fam in families((1, 2, 3), 3, range(2, 9)):
            data = klein_exists(fam)
            if data is None:
                continue
            for e in data.monomials:
                assert sum(w * x for w, x in zip(fam.weights, e)) == fam.degree


class TestKleinQuasismooth:
    def test_quadric_surface_singular(self):
        assert not klein_quasismooth(WeightedFamily((1, 1, 1, 1), 2))

    def test_quadric_fourfold_smooth(self):
        assert klein_quasismooth(WeightedFamily((1,) * 6, 2))

    def test_quartic_curve(self):
        assert klein_quasismooth(QUARTIC_CURVE)

    def test_raises_without_ordering(self):
        with pytest.raises(NoKleinHypersurface):
            klein_quasismooth(WeightedFamily((1, 1, 1, 2), 4))

    def test_falsifier_finds_the_singular_point_of_1122_d3(self):
        # x0*x2 + x2*x1 + x1*x3 + x3*x0 = (x0 + x1)(x2 + x3)
        fam = WeightedFamily((1, 1, 2, 2), 3)
        monos = tuple(klein_exists(fam).monomials)
        poly = ExplicitPolynomial(MonomialSystem(fam, monos), (1,) * len(monos))
        assert singular_point_search(poly, 101, budget=4096).witness == (0, 0, 1, 100)

    def test_rule_matches_the_jacobian_ideal(self):
        # quasi-smooth iff the partials vanish only at the origin, i.e. iff
        # the Jacobian ideal is zero-dimensional (an exact Groebner basis
        # over Q); over the families of acceptance criterion 4
        sympy = pytest.importorskip("sympy")
        checked = 0
        for fam in families((1, 2, 3, 4), 4, range(2, 13), require_well_formed=False):
            data = klein_exists(fam)
            if data is None:
                continue
            xs = sympy.symbols(f"x0:{fam.nvars}")
            poly = sum(sympy.prod(x**k for x, k in zip(xs, e)) for e in data.monomials)
            ideal = sympy.groebner([poly.diff(x) for x in xs], *xs, order="grevlex")
            assert klein_quasismooth(fam) == ideal.is_zero_dimensional, fam
            checked += 1
        assert checked == 194


class TestSingularityR:
    def test_quadric_surface_vanishes(self):
        data = klein_exists(WeightedFamily((1, 1, 1, 1), 2))
        assert data.exponents == (1, 1, 1, 1)
        assert klein_singularity_R(data) == 0

    def test_quartic_curve_value(self):
        # independent derivation: multiplying the three partial-derivative
        # relations of K = x0^3 x1 + x1^3 x2 + x2^3 x0 by the coordinates
        # gives K(alpha) = (9 - 3 + 1) * alpha_2^3 alpha_0 at any critical
        # point with nonzero coordinates
        data = klein_exists(QUARTIC_CURVE)
        assert klein_singularity_R(data) == 1 + 9 - 3 == 7

    def test_even_exponents_make_R_odd(self):
        for fam in families((1, 2, 3), 3, range(2, 11)):
            data = klein_exists(fam)
            if data is None or any(m % 2 for m in data.exponents):
                continue
            assert klein_singularity_R(data) % 2 == 1

    def test_vanishes_exactly_for_bilinear_cycles(self):
        # R = 0 exactly when every exponent is 1 (the cycle polynomial is a
        # quadratic form in disguise: consecutive weights sum to d) and n is
        # even; this includes alternating weight patterns like (1,2,1,2)
        # with d = 3, not only the unweighted d = 2 quadric
        seen_weighted_case = False
        for fam in families((1, 2, 3), 4, range(2, 11)):
            data = klein_exists(fam)
            if data is None:
                continue
            bilinear = all(m == 1 for m in data.exponents) and fam.n % 2 == 0
            assert (klein_singularity_R(data) == 0) == bilinear, fam
            if bilinear and any(w != 1 for w in fam.weights):
                seen_weighted_case = True
        assert seen_weighted_case

    def test_R_and_the_chain_over_the_klein_corpus(self):
        # R is read off the chain's determinant (+-a_0 * det K / d); compare
        # it with the alternating sum, and the kept chain with one built anew.
        # A Klein ordering makes every weight prime to d
        checked = 0
        for fam in families((1, 2, 3, 4, 5), 4, range(2, 60)):
            data = klein_exists(fam)
            if data is None:
                continue
            assert data.R == reference_singularity_R(data.exponents, fam.n), fam
            assert data.chain == chain_from_cycle(fam, data.ordering), fam
            assert all(math.gcd(w, fam.degree) == 1 for w in fam.weights), fam
            checked += 1
        assert checked == 1742


class TestKleinMaxPrime:
    def test_quartic_curve_seven(self):
        assert klein_max_prime(QUARTIC_CURVE).value == (27 + 1) // 4 == 7

    def test_cubic_threefold_eleven(self):
        assert klein_max_prime(CUBIC3).value == (32 + 1) // 3 == 11

    def test_cubic_surface_five(self):
        # n = 2 makes the correction term -1: (2^4 - 1) / 3 = 5
        result = klein_max_prime(WeightedFamily((1, 1, 1, 1), 3))
        assert result.value == 5

    def test_quartic_threefold_not_prime(self):
        # (3^4 - 1) / 4 = 20 = 2^2 * 5
        result = klein_max_prime(WeightedFamily((1, 1, 1, 1), 4))
        assert result.value is None
        assert result.reason == "not-prime"
        assert result.candidate == 20

    def test_quintic_surface_not_prime(self):
        # n = 2 gives the -1 correction: (4^4 - 1) / 5 = 51 = 3 * 17
        result = klein_max_prime(WeightedFamily((1, 1, 1, 1), 5))
        assert result.value is None
        assert result.reason == "not-prime"
        assert result.candidate == 51

    def test_small_weights_prime_but_small(self):
        # (5 * 2 * 2 + 1) / 7 = 3 is prime but does not exceed d = 7
        result = klein_max_prime(WeightedFamily((1, 2, 3), 7))
        assert result.value is None
        assert result.reason == "not-greater-than-d"
        assert result.candidate == 3

    def test_coprimality_required(self):
        with pytest.raises(HypothesisViolated, match="every weight must be coprime to the degree"):
            klein_max_prime(WeightedFamily((1, 1, 2), 4))

    def test_division_always_exact_under_coprimality(self):
        # with gcd(a_i, d) = 1 the product is -(-1)^(n+1) mod d, so the
        # correction makes the numerator divisible by d
        for fam in families((1, 2, 3), 4, range(3, 11)):
            if any(math.gcd(w, fam.degree) != 1 for w in fam.weights):
                continue
            data = klein_exists(fam)
            if data is None:
                continue
            result = klein_max_prime(fam)
            assert result.reason != "not-integral", fam


class TestEigenspace:
    def test_weighted_counterexample_family(self):
        # the cycle (0,3,4,1,2) has exponent product 11*8*6*5*17 = 44880,
        # and (44880 + 1) / 37 = 1213, prime by trial division
        assert 11 * 8 * 6 * 5 * 17 == 44880
        assert all(1213 % k for k in range(2, 35))
        fam = WeightedFamily((3, 7, 2, 4, 5), 37)
        result = klein_max_prime(fam)
        assert result.value == 1213
        assert klein_eigenspace_check(fam)
        assert eigenspace_filter(fam, 1213) == (5, 246)

    def test_quartic_curve_counts(self):
        assert klein_eigenspace_check(QUARTIC_CURVE)
        assert eigenspace_filter(QUARTIC_CURVE, 7) == (3, 15)

    def test_cubic_threefold_counts(self):
        assert klein_eigenspace_check(CUBIC3)
        assert eigenspace_filter(CUBIC3, 11) == (5, 35)

    def test_quartic_curve_exact_monomials(self):
        data = klein_exists(QUARTIC_CURVE)
        sigma = (1, 4, 2)  # (1, -3, 9) mod 7
        survivors = {
            e
            for e in enumerate_monomials(QUARTIC_CURVE).monomials
            if sum(s * x for s, x in zip(sigma, e)) % 7 == 0
        }
        assert survivors == set(data.monomials)

    def test_requires_usable_prime(self):
        with pytest.raises(HypothesisViolated):
            klein_eigenspace_check(WeightedFamily((1, 1, 1, 1), 4))  # candidate 20


class TestKleinSubsetCriterionAgreement:
    def test_cycle_systems_always_pass_criterion(self):
        for fam in families((1, 2, 3), 3, range(2, 10)):
            data = klein_exists(fam)
            if data is None:
                continue
            assert subset_criterion(data.monomials, fam.nvars), fam


class TestMaxPrimeInvariants:
    def test_product_identity_and_bound(self):
        # d*p = prod(m) + (-1)^(n+1) exactly, and p stays below the
        # coprime-weights bound
        for fam in families((1, 2, 3), 4, range(3, 13)):
            if any(math.gcd(w, fam.degree) != 1 for w in fam.weights):
                continue
            data = klein_exists(fam)
            if data is None:
                continue
            result = klein_max_prime(fam)
            if result.value is None:
                continue
            p = result.value
            sign = 1 if fam.n % 2 == 1 else -1
            assert fam.degree * p == math.prod(data.exponents) + sign, fam
            if fam.degree > max(fam.weights):
                assert p < bound_coprime(fam).bound, fam

    def test_oracle_witness_is_the_cycle_system(self):
        # when the eigenspace check passes, the oracle's certificate for the
        # maximal prime is a full-length cycle system
        for fam in (QUARTIC_CURVE, CUBIC3, WeightedFamily((1, 1, 1, 1), 3)):
            result = klein_max_prime(fam)
            assert result.value is not None and klein_eigenspace_check(fam)
            verdict = oracle_exists_order(fam, result.value)
            assert verdict.status == "certified"
            monos = verdict.witness_system.monomials
            assert len(monos) == fam.nvars
            succ = {}
            for e in monos:
                support = [v for v, x in enumerate(e) if x > 0]
                assert len(support) == 2, e
                i = max(support, key=lambda v: e[v])  # the high-power variable
                j = support[0] if support[1] == i else support[1]
                assert e[i] >= 2 and e[j] == 1, e
                succ[i] = j
            walk, v = set(), 0
            for _ in range(fam.nvars):
                walk.add(v)
                v = succ[v]
            assert walk == set(range(fam.nvars)) and v == 0


def test_invariant_monomials_match_the_table_filter():
    # the invariant rows come from one product with the exponent matrix;
    # compare them with the signature filter over the monomial tuples.  The
    # Klein calls leave no attribute on the analysis: they keep no rows, and
    # the oracle's record is the only field an analysis is not built with
    from wpsauto.klein import _invariant_rows
    from wpsauto.orders import FamilyAnalysis, as_analysis, signature_from_chain

    assert [f.name for f in dataclasses.fields(FamilyAnalysis) if not f.init] == ["oracle_refuted"]

    checked = 0
    for fam in families((1, 2, 3), 4, range(3, 16)):
        an = as_analysis(fam)
        if an.klein is None:
            continue
        chain = an.klein.chain
        for p in (2, 7, 101, 2**61 - 1):
            sigma = signature_from_chain(fam, chain, p).sigma
            want = [
                e for e in an.system.monomials if sum(s * x for s, x in zip(sigma, e)) % p == 0
            ]
            before = set(vars(an))
            got = [an.system.monomials[r] for r in _invariant_rows(an, p)]
            assert got == want, (fam, p)
            assert eigenspace_filter(an, p) == (len(want), len(an.system))
            assert set(vars(an)) == before, (fam, p)
            checked += 1
    assert checked > 100
