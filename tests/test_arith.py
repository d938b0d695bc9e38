import numpy as np
import pytest

from conftest import brute_is_prime, brute_semigroup_contains

from wpsauto.arith import (
    SEMIGROUP_TABLE_LIMIT,
    PrimePowerOrder,
    effective_order,
    exact_dot,
    gcd_all,
    is_prime,
    linear_congruence_solutions,
    prime_power_decompose,
    prime_powers_up_to,
    primes_up_to,
    semigroup_bits,
)
from wpsauto.errors import EmptyInput, NotAPrimePower


class TestIsPrime:
    def test_small_prime(self):
        assert is_prime(23)

    def test_unit(self):
        assert not is_prime(1)

    def test_composite_850(self):
        # oracle: trial division; 850 = 2 * 5^2 * 17
        assert 850 == 2 * 5**2 * 17
        assert not brute_is_prime(850)
        assert not is_prime(850)

    def test_matches_trial_division_up_to_2000(self):
        for n in range(2000):
            assert is_prime(n) == brute_is_prime(n), n

    def test_large_deterministic(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_prime(10**25)


class TestPrimePowerDecompose:
    def test_prime(self):
        pp = prime_power_decompose(23)
        assert (pp.p, pp.r) == (23, 1)

    def test_cube(self):
        pp = prime_power_decompose(8)
        assert (pp.p, pp.r) == (2, 3)

    def test_two_factors(self):
        for q in (12, (10**9 + 7) * (10**9 + 9)):
            with pytest.raises(NotAPrimePower, match=f"^{q} is not a prime power$"):
                prime_power_decompose(q)

    def test_square_of_a_large_prime(self):
        pp = prime_power_decompose((10**9 + 7) ** 2)
        assert (pp.p, pp.r) == (10**9 + 7, 2)

    def test_recomposition_up_to_10000(self):
        for q in range(2, 10001):
            try:
                pp = prime_power_decompose(q)
            except NotAPrimePower:
                continue
            assert pp.p**pp.r == q
            assert brute_is_prime(pp.p)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PrimePowerOrder(6, 1)
        with pytest.raises(ValueError):
            PrimePowerOrder(2, 0)


class TestGcdAll:
    def test_paper_weights(self):
        assert gcd_all([3, 7, 2, 4, 5]) == 1

    def test_common_factor(self):
        assert gcd_all([2, 4, 6]) == 2

    def test_singleton(self):
        assert gcd_all([5]) == 5

    def test_empty(self):
        with pytest.raises(EmptyInput):
            gcd_all([])


def semigroup_contains(generators, target):
    """Whether target is a sum of the generators, read off `semigroup_bits`."""
    return semigroup_bits(generators, target) >> target & 1 == 1


class TestSemigroupContains:
    def test_six(self):
        assert semigroup_contains({2, 3}, 6)

    def test_below_generators(self):
        assert not semigroup_contains({2, 3}, 1)

    def test_eleven_not_in_3_7(self):
        # oracle: every 3x + 7y <= 11
        assert not any(3 * x + 7 * y == 11 for x in range(4) for y in range(2))
        assert not semigroup_contains({3, 7}, 11)

    def test_zero_target(self):
        assert semigroup_contains({5}, 0)

    def test_agrees_with_enumeration(self):
        gen_sets = [{2, 3}, {3, 7}, {4, 6, 9}, {5, 12}, {7, 11}, {1}, {12}]
        for gens in gen_sets:
            for target in range(61):
                assert semigroup_contains(gens, target) == brute_semigroup_contains(
                    gens, target
                ), (gens, target)

    def test_starting_bitset(self):
        # {0, 2} closed under 3 and 7, cut at 40: k is in it iff k or k - 2
        # is a sum of 3 and 7
        got = semigroup_bits((3, 7), 40, bits=0b101)
        for k in range(41):
            want = brute_semigroup_contains({3, 7}, k) or k >= 2 and brute_semigroup_contains({3, 7}, k - 2)
            assert (got >> k & 1 == 1) == want, k
        assert got >> 41 == 0

    def test_starting_bits_past_top_are_cut(self):
        assert semigroup_bits((5,), 3, bits=0b110001) == 1

    def test_past_schur_bound_the_gcd_decides(self):
        # g * (s - 1) * (t - 1) for s, t the least and largest generator
        # over their gcd g: the table up to it, and divisibility past it,
        # give every sum
        for gens in [(4, 6, 9), (6, 10, 15), (8, 12), (5, 7), (9, 12, 15)]:
            g = gcd_all(gens)
            top = g * (min(gens) // g - 1) * (max(gens) // g - 1)
            assert top <= max(gens) ** 2
            bits = semigroup_bits(gens, top)
            for k in range(top + 60):
                got = bits >> k & 1 == 1 if k <= top else k % g == 0
                assert got == brute_semigroup_contains(set(gens), k), (gens, k)

    def test_nonpositive_generator(self):
        with pytest.raises(ValueError):
            semigroup_bits((3, 0), 10)

    def test_a_table_past_the_limit_is_a_value_error(self):
        assert semigroup_bits((1,), SEMIGROUP_TABLE_LIMIT - 1) == (1 << SEMIGROUP_TABLE_LIMIT) - 1
        with pytest.raises(ValueError, match=f"past SEMIGROUP_TABLE_LIMIT = {SEMIGROUP_TABLE_LIMIT}$"):
            semigroup_bits((3,), SEMIGROUP_TABLE_LIMIT)


class TestExactDot:
    def test_int64_while_every_partial_sum_fits(self):
        # 3037000499**2 < 2**63 <= 3037000500**2
        got = exact_dot(np.array([[3037000499]]), [3037000499])
        assert (got.dtype, got.tolist()) == (np.int64, [3037000499**2])
        got = exact_dot(np.array([[3037000500]]), [3037000500])
        assert (got.dtype, got.tolist()) == (object, [3037000500**2])

    def test_a_wrapping_sum_is_taken_in_python_ints(self):
        # each product fits, but the sum 2**64 + 5 wraps to 5 in int64
        got = exact_dot(np.array([[2**62, 2**62, 2**62, 2**62, 5]]), [1, 1, 1, 1, 1])
        assert got.tolist() == [2**64 + 5]

    def test_a_vector_past_int64(self):
        assert exact_dot(np.array([[5, 0, 0], [0, 0, 1]]), [1, 1, 2**64]).tolist() == [5, 2**64]
        assert exact_dot(np.zeros((2, 1), dtype=np.int64), [2**70]).tolist() == [0, 0]

    def test_no_rows(self):
        got = exact_dot(np.zeros((0, 3), dtype=np.int64), [1, 2, 3])
        assert got.shape == (0,)


class TestEffectiveOrder:
    def test_identity(self):
        assert effective_order((0, 0, 0, 0, 0), (3, 7, 2, 4, 5), 23) == 1

    def test_weights_themselves(self):
        a = (3, 7, 2, 4, 5)
        assert effective_order(tuple(w % 23 for w in a), a, 23) == 1

    def test_nontrivial_mod_23(self):
        a = (3, 7, 2, 4, 5)
        sigma = (1, 13, 4, 17, 0)
        # oracle: direct check that sigma is not a residue multiple of a
        assert all(
            any(c * w % 23 != s for w, s in zip(a, sigma)) for c in range(23)
        )
        assert effective_order(sigma, a, 23) == 23

    def test_order_divides_q(self):
        a = (1, 1, 2, 3)
        for q in (4, 8, 9):
            for sigma in [(0, 1, 2, 3), (2, 0, 4, 2), (1, 1, 1, 1)]:
                k = effective_order(sigma, a, q)
                assert q % k == 0

    def test_scaling_divides(self):
        a = (1, 1, 1, 2, 3)
        sigma = (0, 1, 5, 2, 7)
        q = 8
        base = effective_order(sigma, a, q)
        for k in range(2, 9):
            scaled = tuple(k * s % q for s in sigma)
            assert base % effective_order(scaled, a, q) == 0


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [primes_up_to(n) for n in (-3, 0, 1, 2, 3, 4)] == [[], [], [], [2], [2, 3], [2, 3]]


def test_prime_powers_up_to():
    values = [pp.q for pp in prime_powers_up_to(30)]
    assert values == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    # up to 10^4, against every q that is a power of its least factor p > 1
    # (a prime)
    expected = []
    for q in range(2, 10**4 + 1):
        p = next(k for k in range(2, q + 1) if q % k == 0)
        r = 1
        while p ** (r + 1) <= q and q % p ** (r + 1) == 0:
            r += 1
        if p**r == q:
            expected.append(PrimePowerOrder(p, r))
    got = prime_powers_up_to(10**4)
    assert [(pp.p, pp.r, pp.q) for pp in got] == [(pp.p, pp.r, pp.q) for pp in expected]
    assert got == expected


@pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 27])
def test_linear_congruence_solutions(q):
    # the closed form against a scan of every residue, for k and c past q too
    for k in range(3 * q):
        for c in range(-q, 2 * q):
            expected = [s for s in range(q) if (k * s + c) % q == 0]
            assert linear_congruence_solutions(k, c, q) == expected, (k, c)
