import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_eval_batch, families

from wpsauto import arith
from wpsauto.ambient import MonomialSystem, WeightedFamily, enumerate_monomials, is_linear_cone
from wpsauto.errors import CoefficientCollision, EmptySystem, NotWellFormed
from wpsauto.quasismooth import (
    CLOSURE_ROW_LIMIT,
    FIELD_PRIME_LIMIT,
    SEMIGROUP_TABLE_LIMIT,
    ExplicitPolynomial,
    SubsetTest,
    _LogSpace,
    exists_quasismooth,
    general_member_quasismooth,
    semigroup_subset_condition,
    random_member,
    required_monomial,
    singular_point_search,
    subset_criterion,
)


class TestExistsQuasismooth:
    def test_fermat_type(self):
        assert exists_quasismooth(WeightedFamily((1, 1, 1, 2, 3), 6))

    def test_linear_cone_case(self):
        assert exists_quasismooth(WeightedFamily((1, 1, 1, 2, 3), 3))

    def test_counterexample_family(self):
        assert exists_quasismooth(WeightedFamily((3, 7, 2, 4, 5), 37))

    def test_not_well_formed(self):
        with pytest.raises(NotWellFormed):
            exists_quasismooth(WeightedFamily((1, 2, 2, 2), 4))

    def test_a_huge_degree_is_read_off_schurs_bound(self):
        # a table of d + 1 booleans per subset was a MemoryError here; past
        # max(a)**2 = 1 every number is a sum of the weights
        assert exists_quasismooth(WeightedFamily((1, 1, 1), 99999999999999999))

    @pytest.mark.parametrize(
        "weights, degree",
        [
            ((3074457345618258527, 2305843009213693895, 1), 9223372036854775581),
            ((3074457345618258431, 2305843009213693823, 1), 9223372036854775293),
        ],
    )
    def test_a_table_past_the_limit_is_a_value_error(self, weights, degree):
        # min(d, max(a)**2) = d here, far past the limit on the tables' bits
        with pytest.raises(ValueError, match=f"SEMIGROUP_TABLE_LIMIT = {SEMIGROUP_TABLE_LIMIT}"):
            exists_quasismooth(WeightedFamily(weights, degree))

    def test_the_limit_is_the_one_semigroup_bits_checks(self):
        assert SEMIGROUP_TABLE_LIMIT is arith.SEMIGROUP_TABLE_LIMIT


class TestClosureRowLimit:
    def test_twenty_variables_fit_and_twenty_one_do_not(self):
        # a closed row holds (nvars + 1) * 2**nvars entries
        assert 21 << 20 <= CLOSURE_ROW_LIMIT < 22 << 21

    @pytest.mark.parametrize("nvars", [21, 24])
    def test_a_row_past_the_limit_is_a_value_error(self, nvars):
        message = f"a closed row of {nvars} variables has {(nvars + 1) << nvars} entries, past CLOSURE_ROW_LIMIT"
        with pytest.raises(ValueError, match=message):
            SubsetTest(np.zeros((1, nvars), dtype=np.int64))
        with pytest.raises(ValueError, match=message):
            subset_criterion([[3] + [0] * (nvars - 1)], nvars)


class TestGeneralMemberQuasismooth:
    def test_full_system_consistency(self):
        fam = WeightedFamily((1, 1, 1, 2, 3), 6)
        assert general_member_quasismooth(fam, enumerate_monomials(fam))

    def test_klein_cycle_quartic(self):
        fam = WeightedFamily((1, 1, 1), 4)
        cyc = MonomialSystem(fam, ((3, 1, 0), (0, 3, 1), (1, 0, 3)))
        assert general_member_quasismooth(fam, cyc)

    def test_single_mixed_monomial_fails(self):
        fam = WeightedFamily((1, 1, 1), 3)
        system = MonomialSystem(fam, ((2, 1, 0),))
        assert not general_member_quasismooth(fam, system)

    def test_empty_system(self):
        fam = WeightedFamily((1, 1, 1), 3)
        with pytest.raises(EmptySystem):
            general_member_quasismooth(fam, MonomialSystem(fam, ()))

    def test_agreement_with_existence_criterion(self):
        # the subset criterion on the full system must reproduce the
        # subset-based existence condition for every well-formed family
        checked = 0
        for fam in families((1, 2, 3), 6, range(1, 15)):
            expected = semigroup_subset_condition(fam)
            system = enumerate_monomials(fam)
            if len(system) == 0:
                assert not expected, fam
                continue
            assert general_member_quasismooth(fam, system) == expected, fam
            checked += 1
        assert checked > 1000


class TestRequiredMonomial:
    def test_counterexample_near_power(self):
        fam = WeightedFamily((3, 7, 2, 4, 5), 37)
        assert required_monomial(enumerate_monomials(fam), 0) == (10, 1, 0, 0, 0)

    def test_prefers_pure_power(self):
        fam = WeightedFamily((1, 1, 1, 2, 3), 6)
        assert required_monomial(enumerate_monomials(fam), 0) == (6, 0, 0, 0, 0)

    def test_none_for_triple_product(self):
        fam = WeightedFamily((1, 1, 1), 3)
        system = MonomialSystem(fam, ((1, 1, 1),))
        assert required_monomial(system, 0) is None

    def test_present_for_all_when_quasismooth(self):
        # linear cones are excluded: a monomial x_j of degree a_j = d can
        # carry the criterion without providing any x_i^k / x_i^k x_j form
        for fam in families((1, 2), 4, range(3, 9)):
            if is_linear_cone(fam):
                continue
            system = enumerate_monomials(fam)
            if len(system) == 0 or not general_member_quasismooth(fam, system):
                continue
            for i in range(fam.nvars):
                assert required_monomial(system, i) is not None, (fam, i)


def _klein_quadric_poly():
    fam = WeightedFamily((1, 1, 1, 1), 2)
    monos = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    return ExplicitPolynomial(MonomialSystem(fam, monos), (1,) * len(monos))


def _fermat_sextic_poly():
    fam = WeightedFamily((1, 1, 1, 2, 3), 6)
    monos = ((6, 0, 0, 0, 0), (0, 6, 0, 0, 0), (0, 0, 6, 0, 0), (0, 0, 0, 3, 0), (0, 0, 0, 0, 2))
    return ExplicitPolynomial(MonomialSystem(fam, monos), (1,) * len(monos))


def _split_quadric_poly(c):
    """(x0 - c*x2)(x1 - c*x3): singular along x0 = c*x2, x1 = c*x3."""
    fam = WeightedFamily((1, 1, 1, 1), 2)
    coeffs = {(1, 1, 0, 0): 1, (1, 0, 0, 1): -c, (0, 1, 1, 0): -c, (0, 0, 1, 1): c * c}
    return ExplicitPolynomial(MonomialSystem(fam, tuple(coeffs)), tuple(coeffs.values()))


class TestSingularPointSearch:
    @pytest.mark.parametrize(
        "poly, prime, budget, expected",
        [
            # all of F_5^4 fits the budget
            (_klein_quadric_poly, 5, 10_000, ((0, 1, 0, 4), 625, "exhaustive", False)),
            # found in the first block of the small-coordinate box
            (_klein_quadric_poly, 101, 60_000, ((0, 1, 0, 100), 4096, "sampled", False)),
            # the 9**4 = 6561 box points miss the singular locus; the first
            # random block hits it
            (
                lambda: _split_quadric_poly(5), 101, 20_000,
                ((24, 66, 25, 94), 6561 + 4096, "sampled", False),
            ),
            (_fermat_sextic_poly, 101, 5000, (None, 5000, "sampled", True)),
            (_klein_quadric_poly, 997, 0, (None, 0, "sampled", True)),
        ],
        ids=["exhaustive", "box", "random", "budget-used-up", "budget-zero"],
    )
    def test_pinned_outcomes(self, poly, prime, budget, expected):
        # recorded before the grid and sampling loops were merged into one
        result = singular_point_search(poly(), prime, budget=budget)
        assert (result.witness, result.tested, result.mode, result.exhausted) == expected

    def test_klein_quadric_witness_small_field(self):
        result = singular_point_search(_klein_quadric_poly(), 5, budget=10_000)
        w = result.witness
        assert w is not None
        # the quadric splits into two planes x0 = -x2 and x1 = -x3
        assert (w[0] + w[2]) % 5 == 0 and (w[1] + w[3]) % 5 == 0

    def test_klein_quadric_witness_large_fields(self):
        for p in (101, 499, 997):
            result = singular_point_search(_klein_quadric_poly(), p, budget=60_000)
            assert result.witness is not None, p

    def test_fermat_sextic_clean_exhaustive(self):
        result = singular_point_search(_fermat_sextic_poly(), 7, budget=200_000)
        assert result.witness is None
        assert result.mode == "exhaustive"
        assert not result.exhausted
        assert result.tested == 7**5

    def test_zero_budget(self):
        result = singular_point_search(_klein_quadric_poly(), 997, budget=0)
        assert result.witness is None
        assert result.exhausted

    def test_coefficient_collision(self):
        fam = WeightedFamily((1, 1, 1, 1), 2)
        monos = ((1, 1, 0, 0), (0, 0, 1, 1))
        poly = ExplicitPolynomial(MonomialSystem(fam, monos), (5, 1))
        with pytest.raises(CoefficientCollision):
            singular_point_search(poly, 5, budget=10)

    def test_collision_names_the_first_vanishing_monomial_in_system_order(self):
        fam = WeightedFamily((1, 1, 1, 1), 2)
        # sorted, (0, 0, 1, 1) would come first; the system puts (0, 1, 1, 0) first
        monos = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
        poly = ExplicitPolynomial(MonomialSystem(fam, monos), (1, 5, 10))
        with pytest.raises(CoefficientCollision, match=r"^coefficient of \(0, 1, 1, 0\) vanishes mod 5$"):
            singular_point_search(poly, 5, budget=10)

    @pytest.mark.parametrize("prime", [5, 7, 101, 499, 997, 65521])
    def test_accepted_primes(self, prime):
        result = singular_point_search(_klein_quadric_poly(), prime, budget=0)
        assert (result.witness, result.tested) == (None, 0)

    @pytest.mark.parametrize("prime", [65537, 4294967311])
    def test_primes_past_the_limit_raise(self, prime):
        # the old int64 loop reduced (p - 1)^2 mod 4294967311 to 4294967087
        assert prime > FIELD_PRIME_LIMIT
        with pytest.raises(ValueError, match="outside"):
            singular_point_search(_klein_quadric_poly(), prime, budget=10)

    def test_log_sums_past_int64_raise(self):
        nv = 200  # degree 200 * 65520, log sums up to 65520 * degree^2 > 2^63
        fam = WeightedFamily((1,) * nv, nv * 65520)
        mono = (65520,) * nv
        poly = ExplicitPolynomial(MonomialSystem(fam, (mono,)), (1,))
        with pytest.raises(ValueError, match="overflow int64"):
            singular_point_search(poly, 65521, budget=0)

    @pytest.mark.parametrize("budget, seed, message", [(-1, 0, "budget"), (10, -1, "seed")])
    def test_negative_budget_or_seed_raise(self, budget, seed, message):
        with pytest.raises(ValueError, match=f"{message} must be nonnegative"):
            singular_point_search(_klein_quadric_poly(), 101, budget, seed)

    def test_witness_refutes_only_that_reduction(self):
        # determinism: the same seed and budget give the same outcome
        a = singular_point_search(_klein_quadric_poly(), 499, budget=5000, seed=11)
        b = singular_point_search(_klein_quadric_poly(), 499, budget=5000, seed=11)
        assert a == b


class TestExplicitPolynomial:
    def test_rejects_zero_coefficient(self):
        fam = WeightedFamily((1, 1, 1), 3)
        system = MonomialSystem(fam, ((3, 0, 0), (0, 3, 0)))
        with pytest.raises(ValueError, match=r"zero coefficient stored for \(0, 3, 0\)"):
            ExplicitPolynomial(system, (1, 0))

    @pytest.mark.parametrize("coefficients", [(), (1,), (1, 1, 1)])
    def test_rejects_wrong_count(self, coefficients):
        system = MonomialSystem(WeightedFamily((1, 1, 1), 3), ((3, 0, 0), (0, 3, 0)))
        with pytest.raises(ValueError, match="2 monomials"):
            ExplicitPolynomial(system, coefficients)

    @pytest.mark.parametrize("coefficient", [Fraction(1, 2), Fraction(1), 1.0])
    def test_rejects_non_integers(self, coefficient):
        system = MonomialSystem(WeightedFamily((1, 1, 1), 3), ((3, 0, 0),))
        with pytest.raises(TypeError):
            ExplicitPolynomial(system, (coefficient,))

    def test_coefficients_are_an_int_tuple(self):
        system = MonomialSystem(WeightedFamily((1, 1, 1), 3), ((3, 0, 0), (0, 3, 0)))
        poly = ExplicitPolynomial(system, [np.int64(-2), 7])
        assert poly.coefficients == (-2, 7)
        assert [type(c) for c in poly.coefficients] == [int, int]

    def test_random_member_deterministic(self):
        fam = WeightedFamily((1, 1, 1), 4)
        system = enumerate_monomials(fam)
        assert random_member(system, seed=7) == random_member(system, seed=7)
        assert all(c != 0 for c in random_member(system, seed=7).coefficients)

    def test_random_member_draws_one_integer_per_row(self):
        # one randint per monomial, in the system's order, from Random(seed)
        system = enumerate_monomials(WeightedFamily((1, 1, 2), 4))
        rng = random.Random(7)
        expected = tuple(rng.randint(1, 50) for _ in range(len(system)))
        assert random_member(system, seed=7, coeff_bound=50).coefficients == expected


def test_subset_criterion_permutation_invariant():
    fam = WeightedFamily((1, 1, 1, 2, 3), 6)
    system = enumerate_monomials(fam)
    base = subset_criterion(system.monomials, fam.nvars)
    perm = (2, 0, 4, 1, 3)
    permuted = [tuple(e[p] for p in perm) for e in system.monomials]
    assert subset_criterion(permuted, fam.nvars) == base


class TestLogSpace:
    def test_matches_brute_across_blocks(self):
        # 300 monomials make each block of sums 218 points wide
        rng = np.random.default_rng(5)
        monos = [tuple(int(x) for x in row) for row in rng.integers(0, 31, size=(300, 4))]
        coeffs = rng.integers(1, 997, size=300).tolist()
        points = rng.integers(0, 997, size=(1000, 4))
        points[rng.random(points.shape) < 0.1] = 0
        space = _LogSpace(997, 4, [(monos, coeffs)])
        got = space.values(0, space.logs(points))
        assert got.tolist() == brute_eval_batch(points, monos, coeffs, 997).tolist()

    def test_wide_sums_run_in_int64(self):
        monos, coeffs = [(996, 996, 996), (5, 0, 1)], [3, 7]
        points = np.array([[1, 2, 3], [0, 1, 1], [4, 0, 0], [996, 995, 2]])
        space = _LogSpace(997, 3, [(monos, coeffs)])
        # at p = 65521, x0^120 * x1^61 at a point with x0 = x1 = 0 has a log
        # sum past 2^31: 181 * cap, cap = (181 + 1) * 65520
        wide, wide_coeffs = [(120, 61, 0), (0, 1, 1), (5, 0, 0)], [65520, 3, 1]
        wide_points = np.array([[0, 0, 3], [0, 5, 0], [2, 7, 65520], [65519, 0, 1], [1, 1, 1]])
        wide_space = _LogSpace(65521, 3, [(wide, wide_coeffs)])
        assert (wide_space.polys[0] @ wide_space.logs(wide_points)).max() > 2**31
        got = wide_space.values(0, wide_space.logs(wide_points))
        assert got.tolist() == brute_eval_batch(wide_points, wide, wide_coeffs, 65521).tolist()
        got = space.values(0, space.logs(points))
        assert got.tolist() == brute_eval_batch(points, monos, coeffs, 997).tolist()
