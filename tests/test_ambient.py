import math
import re
from itertools import combinations

import numpy as np
import pytest

from conftest import brute_monomials, brute_semigroup_contains, families, series_monomial_count

from wpsauto import ambient
from wpsauto.ambient import (
    MonomialSystem,
    _sum_test,
    WeightedFamily,
    enumerate_monomials,
    is_linear_cone,
    lin_finite,
    mm_hypothesis,
    well_form_normalize,
    well_formed,
)
from wpsauto.arith import SEMIGROUP_TABLE_LIMIT
from wpsauto.errors import BudgetExceeded, NotNormalizable
from wpsauto.orders import order_verdict


class TestWeightedFamily:
    def test_basic(self):
        fam = WeightedFamily((3, 7, 2, 4, 5), 37)
        assert fam.n == 3
        assert fam.nvars == 5

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            WeightedFamily((1, 1), 3)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            WeightedFamily((2, 4, 6), 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightedFamily((1, 0, 1), 3)

    def test_degree_fits_int64(self):
        # the exponent tables are int64, so x_0^d must fit
        assert WeightedFamily((1, 1, 1), 2**63 - 1).degree == 2**63 - 1
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            WeightedFamily((1, 1, 1), 2**63)
        with pytest.raises(ValueError):
            WeightedFamily((1, 1, 1), 0)

    def test_rejects_non_integers(self):
        # int() would truncate 1.5 to 1, and a float degree would fail only later
        with pytest.raises(TypeError):
            WeightedFamily((1.5, 2, 3), 6)
        with pytest.raises(TypeError):
            WeightedFamily((1, 1, 1), 4.5)
        fam = WeightedFamily(np.array([1, 2, 3], dtype=np.int32), np.int64(6))
        assert fam == WeightedFamily((1, 2, 3), 6)
        assert {type(v) for v in (*fam.weights, fam.degree)} == {int}


class TestTextForm:
    def test_round_trip(self):
        fam = WeightedFamily((3, 7, 2, 4, 5), 37)
        assert str(fam) == "3,7,2,4,5 d=37"
        assert WeightedFamily.from_text(str(fam)) == fam

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            WeightedFamily.from_text("3,7,2")
        with pytest.raises(ValueError):
            WeightedFamily.from_text("3,7,2 degree 5")


class TestWellFormed:
    def test_two_ones(self):
        assert well_formed(WeightedFamily((1, 1, 1, 2, 3), 6))

    def test_omitting_one_leaves_gcd_two(self):
        assert not well_formed(WeightedFamily((1, 2, 2, 2), 4))

    def test_paper_weights_all_four_subsets(self):
        ws = (3, 7, 2, 4, 5)
        # oracle: check every 4-subset explicitly
        for sub in combinations(ws, 4):
            assert math.gcd(math.gcd(sub[0], sub[1]), math.gcd(sub[2], sub[3])) == 1
        assert well_formed(WeightedFamily(ws, 37))


class TestWellFormNormalize:
    def test_already_well_formed(self):
        fam = WeightedFamily((1, 1, 1, 2, 3), 6)
        assert well_form_normalize(fam) == fam

    def test_one_reduction_step(self):
        out = well_form_normalize(WeightedFamily((1, 2, 2, 2), 4))
        assert out == WeightedFamily((1, 1, 1, 1), 2)

    def test_small(self):
        fam = WeightedFamily((1, 1, 1), 3)
        assert well_form_normalize(fam) == fam

    def test_not_normalizable(self):
        with pytest.raises(NotNormalizable):
            well_form_normalize(WeightedFamily((1, 2, 2, 2), 5))

    def test_output_always_well_formed(self):
        for fam in families((1, 2), 4, range(1, 9), require_well_formed=False):
            try:
                out = well_form_normalize(fam)
            except NotNormalizable:
                continue
            assert well_formed(out), fam
            # idempotent
            assert well_form_normalize(out) == out


class TestHypothesisPredicates:
    def test_mm_n3(self):
        assert mm_hypothesis(WeightedFamily((1, 1, 1, 2, 3), 6))

    def test_mm_n2_sum_equals_degree(self):
        assert not mm_hypothesis(WeightedFamily((1, 1, 1, 1), 4))

    def test_mm_n2_sum_differs(self):
        assert mm_hypothesis(WeightedFamily((1, 1, 1, 1), 3))

    def test_mm_n1_outside(self):
        assert not mm_hypothesis(WeightedFamily((1, 1, 1), 4))

    def test_lin_finite_unique_max(self):
        assert lin_finite(WeightedFamily((1, 1, 1, 2, 3), 6))

    def test_lin_finite_strict(self):
        assert lin_finite(WeightedFamily((1, 1, 1, 1, 1), 3))

    def test_lin_finite_repeated_max(self):
        assert not lin_finite(WeightedFamily((1, 1, 2, 2), 4))

    def test_linear_cone(self):
        assert is_linear_cone(WeightedFamily((1, 1, 1, 2, 3), 3))
        assert not is_linear_cone(WeightedFamily((1, 1, 1, 2, 3), 6))
        assert is_linear_cone(WeightedFamily((1, 1, 1), 1))


class TestEnumerateMonomials:
    def test_binary_degree_two(self):
        fam = WeightedFamily((1, 1, 1), 2)
        sys2 = enumerate_monomials(WeightedFamily((1, 1, 1), 2))
        pairs = {(e[0], e[1]) for e in sys2.monomials if e[2] == 0}
        assert pairs == {(2, 0), (1, 1), (0, 2)}

    def test_stars_and_bars_count(self):
        system = enumerate_monomials(WeightedFamily((1, 1, 1), 4))
        assert len(system) == math.comb(6, 2) == 15

    def test_contains_counterexample_monomials(self):
        system = enumerate_monomials(WeightedFamily((3, 7, 2, 4, 5), 37))
        members = set(system.monomials)
        assert (10, 1, 0, 0, 0) in members
        assert (0, 5, 1, 0, 0) in members
        assert (1, 0, 17, 0, 0) in members

    def test_lexicographic_order(self):
        system = enumerate_monomials(WeightedFamily((1, 1, 2), 5))
        assert list(system.monomials) == sorted(system.monomials)

    def test_every_degree_exact(self):
        for fam in families((1, 2), 4, range(1, 11)):
            system = enumerate_monomials(fam)
            for e in system.monomials:
                assert sum(w * x for w, x in zip(fam.weights, e)) == fam.degree

    def test_count_matches_series(self):
        for fam in families((1, 2, 3, 4), 5, range(1, 13)):
            got = len(enumerate_monomials(fam))
            assert got == series_monomial_count(fam.weights, fam.degree), fam

    def test_count_matches_series_high_degree(self):
        # degrees up to 40 across all dimensions n <= 4; a deterministic
        # stride keeps the volume down and the per-system cap keeps the
        # largest enumerations cheap
        checked = 0
        for idx, fam in enumerate(families((1, 2, 3, 4), 5, range(13, 41))):
            if idx % 5:
                continue
            expected = series_monomial_count(fam.weights, fam.degree)
            if expected > 20_000:
                continue
            assert len(enumerate_monomials(fam)) == expected, fam
            checked += 1
        assert checked > 1000

    def test_matches_grid_search(self):
        for fam in [
            WeightedFamily((1, 2, 3), 9),
            WeightedFamily((2, 3, 5), 12),
            WeightedFamily((1, 1, 2, 3), 7),
        ]:
            assert set(enumerate_monomials(fam).monomials) == brute_monomials(
                fam.weights, fam.degree
            )

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_monomials(WeightedFamily((1, 1, 1, 1, 1), 12), budget=10)

    @pytest.mark.parametrize(
        "weights, degree",
        [((1, 1, 1, 1, 1), 12), ((3, 7, 2, 4, 5), 37), ((1, 5, 5), 23), ((2, 3, 5), 7)],
    )
    def test_budget_is_exactly_the_count(self, weights, degree):
        fam = WeightedFamily(weights, degree)
        count = series_monomial_count(weights, degree)
        assert len(enumerate_monomials(fam, budget=count)) == count
        with pytest.raises(BudgetExceeded, match=f"more than {count - 1} monomials"):
            enumerate_monomials(fam, budget=count - 1)

    @pytest.mark.parametrize("weights, degree", [((2, 3, 5), 1), ((3, 5, 7), 4), ((4, 6, 9), 11)])
    def test_unreachable_degree_gives_an_empty_table(self, weights, degree):
        assert brute_monomials(weights, degree) == set()
        system = enumerate_monomials(WeightedFamily(weights, degree), budget=0)
        assert system.monomials == ()

    def test_budget_before_a_large_table_is_built(self):
        # a billion exponents of x0 alone; the budget stops the first chunk
        with pytest.raises(BudgetExceeded, match="more than 10 monomials"):
            enumerate_monomials(WeightedFamily((1, 1, 1), 10**9), budget=10)

    @pytest.mark.parametrize(
        "weights, degree, budget",
        [
            # d // 1 + 1 = 2**63 choices for x_0, a count that int64 wraps to -2**63
            ((1, 1, 1), 2**63 - 1, 10),
            # 2**23 partial vectors whose choices for x_1, near 2**62 each,
            # have a running sum that int64 wraps negative
            ((2**40, 1, 1), 2**40 * (2**23 - 1), 2**23),
        ],
    )
    def test_counts_past_int64_leave_no_table_short(self, weights, degree, budget):
        # each table once came out empty, although x_0^a x_1^b x_2^c of every
        # degree d exists; the budget stops them as any large table
        with pytest.raises(BudgetExceeded, match=f"more than {budget} monomials"):
            enumerate_monomials(WeightedFamily(weights, degree), budget=budget)

    @pytest.mark.parametrize("weights, degree", [((1, 1, 1), 20), ((1, 6, 9), 40), ((1, 1, 4, 6), 23), ((2, 3, 5), 31)])
    def test_rounds_of_a_few_exponents_give_the_same_table(self, monkeypatch, weights, degree):
        # with 3 exponents per round, partial vectors take several rounds
        # each, and their kept exponents are put back in increasing order
        fam = WeightedFamily(weights, degree)
        whole = enumerate_monomials(fam)
        monkeypatch.setattr(ambient, "_EXTEND_CHUNK", 3)
        assert enumerate_monomials(fam) == whole
        assert list(whole.monomials) == sorted(brute_monomials(weights, degree))

    @pytest.mark.parametrize(
        "weights",
        [(1, 1, 2**63), (1, 1, 2**64), (2**64, 1, 1), (1, 2**64, 1), (2**64, 2**64 + 1, 1), (2**64, 2**64 + 1, 2)],
    )
    def test_weights_past_int64_take_exponent_zero(self, weights):
        # a weight above d = 5 only takes exponent 0, and no int64 holds
        # 2**63 or 2**64: the table is that of the other variables (an
        # OverflowError in `_sum_test` and the exponent bound once)
        system = enumerate_monomials(WeightedFamily(weights, 5))
        assert list(system.monomials) == sorted(brute_monomials(weights, 5))
        if weights == (1, 1, 2**64):
            assert system.monomials == tuple((i, 5 - i, 0) for i in range(6))

    def test_a_sum_table_past_the_limit_is_a_value_error(self):
        # the suffix (2**31, 2**31 + 1) needs a table up to its Schur bound
        fam = WeightedFamily((1, 2**31, 2**31 + 1), 2**62)
        with pytest.raises(ValueError, match=f"past SEMIGROUP_TABLE_LIMIT = {SEMIGROUP_TABLE_LIMIT}$"):
            enumerate_monomials(fam)

    def test_suffix_sum_test_matches_search(self):
        for gens in [(1,), (4,), (2, 2), (3, 5), (6, 10, 15), (4, 6, 9), (7, 11, 12, 15)]:
            for d in (0, 1, 17, 60, 140):
                got = _sum_test(gens, d)(np.arange(d + 1)).tolist()
                assert got == [brute_semigroup_contains(set(gens), r) for r in range(d + 1)], (gens, d)

    def test_matches_grid_search_with_gaps(self):
        # suffixes of large gcd leave most exponents of the early variables
        # without a completion
        for weights, degree in [((1, 6, 9), 40), ((1, 1, 4, 6), 23), ((5, 1, 7, 7), 29)]:
            fam = WeightedFamily(weights, degree)
            monos = enumerate_monomials(fam).monomials
            assert list(monos) == sorted(brute_monomials(weights, degree))
            assert all(type(x) is int for e in monos for x in e)


class TestMonomialSystem:
    def test_rejects_wrong_degree(self):
        fam = WeightedFamily((1, 1, 1), 4)
        with pytest.raises(ValueError):
            MonomialSystem(fam, ((1, 1, 1),))

    def test_rejects_duplicates(self):
        fam = WeightedFamily((1, 1, 1), 3)
        with pytest.raises(ValueError):
            MonomialSystem(fam, ((3, 0, 0), (3, 0, 0)))

    # The first offending entry is named, with the first check it fails, in
    # the order arity, sign, degree, repetition.
    @pytest.mark.parametrize(
        "monomials, message",
        [
            (((1, 1, 1), (1, 1), (0, 0, -3)), "monomial (1, 1) has wrong arity"),
            (((1, 1, 1), (0, 0, -3), (1, 1)), "monomial (0, 0, -3) has a negative exponent"),
            (((1, 1, 1), (0, 5, -2), (2, 0, 0)), "monomial (0, 5, -2) has a negative exponent"),
            (((3, 0, 0), (2, 0, 0), (3, 0, 0)), "monomial (2, 0, 0) does not have weighted degree 3"),
            (((3, 0, 0), (1, 1, 1), (3, 0, 0), (0, -1, 4)), "duplicate monomial (3, 0, 0)"),
            (((3, 0, 0), (1, 1, 1), (3, 0, 0, 0)), "monomial (3, 0, 0, 0) has wrong arity"),
            ([[1, 1, 1], [0, 3, 0], [1, 1, 1]], "duplicate monomial (1, 1, 1)"),
            (np.array([[1, 1, 1], [1, 2, 1]]), "monomial (1, 2, 1) does not have weighted degree 3"),
            (np.array([[1, 1], [2, 1]]), "monomial (1, 1) has wrong arity"),
        ],
    )
    def test_names_the_first_offender(self, monomials, message):
        fam = WeightedFamily((1, 1, 1), 3)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            MonomialSystem(fam, monomials)

    @pytest.mark.parametrize(
        "weights, degree, monomial",
        [
            # 3 * 6148914691236517207 = 2**64 + 5, which an int64 product wraps to 5
            ((3, 1, 1), 5, (6148914691236517207, 0, 0)),
            # every exponent at most d / a_i, but the sum 2**64 + d wraps to d
            ((1, 1, 1, 1), 2**63 - 1, (2**63 - 1, 2**63 - 1, 2**63 - 1, 2)),
        ],
    )
    def test_rejects_degrees_that_wrap_in_int64(self, weights, degree, monomial):
        fam = WeightedFamily(weights, degree)
        message = f"monomial {monomial} does not have weighted degree {degree}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            MonomialSystem(fam, (monomial,))

    def test_weights_past_int64(self):
        # x_2 has weight 2**64, past any int64; only its zero exponent fits d
        fam = WeightedFamily((1, 1, 2**64), 5)
        assert MonomialSystem(fam, ((5, 0, 0), (2, 3, 0))).monomials == ((5, 0, 0), (2, 3, 0))
        for monomial in ((4, 0, 0), (0, 0, 1)):
            message = f"monomial {monomial} does not have weighted degree 5"
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                MonomialSystem(fam, ((5, 0, 0), monomial))

    def test_stores_plain_integer_tuples(self):
        fam = WeightedFamily((1, 1, 2), 4)
        for given in ([[4, 0, 0], (0, 2, 1)], np.array([[4, 0, 0], [0, 2, 1]])):
            system = MonomialSystem(fam, given)
            assert system.monomials == ((4, 0, 0), (0, 2, 1))
            assert all(type(x) is int for e in system.monomials for x in e)
        assert MonomialSystem(fam, ()).monomials == ()

    def test_monomials_are_tuples_of_python_ints(self):
        # built from the matrix on first read, for tables and witnesses alike
        fam = WeightedFamily((1, 1, 2), 4)
        witness = order_verdict(fam, 3).witness_system
        for system in (enumerate_monomials(fam), witness, MonomialSystem(fam, np.array([[0, 0, 2]], dtype=np.int8))):
            assert type(system.monomials) is tuple
            assert all(type(e) is tuple and all(type(x) is int for x in e) for e in system.monomials)
            assert [list(e) for e in system.monomials] == system.exponents.tolist()
            assert system.monomials is system.monomials

    def test_equality_and_hash_follow_the_rows(self):
        fam = WeightedFamily((1, 1, 2), 4)
        system = MonomialSystem(fam, ((4, 0, 0), (0, 2, 1)))
        for same in (np.array([[4, 0, 0], [0, 2, 1]]), [[4, 0, 0], [0, 2, 1]]):
            assert MonomialSystem(fam, same) == system
            assert hash(MonomialSystem(fam, same)) == hash(system)
        others = [
            MonomialSystem(fam, ((4, 0, 0),)),
            MonomialSystem(fam, ((0, 2, 1), (4, 0, 0))),  # the same rows in another order
            MonomialSystem(fam, ((4, 0, 0), (0, 0, 2))),
            MonomialSystem(fam, ()),
            MonomialSystem(WeightedFamily((1, 1, 1), 4), ((4, 0, 0), (0, 2, 2))),
        ]
        for other in others:
            assert other != system
        assert len({hash(s) for s in [system, *others]}) == 1 + len(others)
        assert system != system.monomials

    @pytest.mark.parametrize("degree, dtype", [(127, np.int8), (128, np.int16), (32768, np.int32)])
    def test_exponent_matrix_holds_d(self, degree, dtype):
        # the narrowest type holding -d is one too narrow for x_0^d when d = 128
        fam = WeightedFamily((1, degree, degree + 1), degree)
        system = MonomialSystem(fam, ((degree, 0, 0), (0, 1, 0)))
        assert system.exponents.dtype == dtype
        assert system.exponents.tolist() == [[degree, 0, 0], [0, 1, 0]]
        assert not system.exponents.flags.writeable
