"""Property-based checks of the arithmetic and combinatorial invariants."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    bareiss_determinant,
    brute_anchors,
    brute_effective_order,
    brute_eval_batch,
    brute_semigroup_contains,
    brute_singular_point_search,
    brute_subset_criterion,
    families,
    lattice_subset_criterion_batch,
    reference_oracle,
    reference_semigroup_subset_condition,
    reference_singularity_R,
    series_monomial_count,
)

from wpsauto.ambient import (
    MonomialSystem,
    WeightedFamily,
    enumerate_monomials,
    is_linear_cone,
    lin_finite,
    rows_increase,
    weights_coprime_to_degree,
    weights_divide_degree,
    well_form_normalize,
    well_formed,
)
from wpsauto.arith import (
    effective_order,
    exact_dot,
    gcd_all,
    prime_power_decompose,
    semigroup_bits,
)
from wpsauto import quasismooth
from wpsauto.errors import BudgetExceeded, NotAPrimePower, NotNormalizable
from wpsauto.orders import (
    CycleChain,
    FamilyAnalysis,
    as_analysis,
    chain_from_cycle,
    chain_invariance_check,
    signature_from_chain,
    weight_digraph,
)
from wpsauto.quasismooth import (
    ExplicitPolynomial,
    _LogSpace,
    distinct_codes,
    pattern_codes,
    semigroup_subset_condition,
    singular_point_search,
    subset_closures,
    subset_criterion,
    subset_criterion_batch,
)
from wpsauto.cycles import simple_cycles

weights_strategy = st.lists(st.integers(1, 6), min_size=3, max_size=5).filter(
    lambda ws: gcd_all(ws) == 1
)


@given(st.integers(2, 5000))
def test_prime_power_recomposition(q):
    try:
        pp = prime_power_decompose(q)
    except NotAPrimePower:
        return
    assert pp.p**pp.r == q


@given(st.sets(st.integers(1, 12), min_size=1, max_size=4), st.integers(0, 60), st.integers(1, 255))
@example({3, 7}, 11, 1)
@settings(max_examples=150, deadline=None)
def test_semigroup_matches_bruteforce(gens, target, start):
    # the closure of the starting set (bit b for b) holds target iff some
    # start b <= target leaves a sum of the generators
    want = any(start >> b & 1 and brute_semigroup_contains(gens, target - b) for b in range(min(8, target + 1)))
    assert (semigroup_bits(gens, target, start) >> target & 1 == 1) == want


#: Integers of either sign whose products lie near 2**63, from both sides:
#: 3037000499**2 < 2**63 < 3037000500**2, and 2**k * 2**(63 - k) = 2**63.
_near_the_int64_edge = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([3037000499, 3037000500, 2**31, 2**32, 2**62, 2**63 - 1]).flatmap(
        lambda x: st.sampled_from([x, -x, x - 1, -x + 1])
    ),
    st.integers(-(2**63) + 1, 2**63 - 1),
)


@given(
    st.integers(1, 8).flatmap(
        lambda width: st.tuples(
            st.lists(st.lists(_near_the_int64_edge, min_size=width, max_size=width), max_size=5),
            st.lists(st.one_of(_near_the_int64_edge, st.integers(-(2**70), 2**70)), min_size=width, max_size=width),
        )
    )
)
@example(([[3037000499, 0]], [3037000499, 5]))
@example(([[3037000500, 0]], [3037000500, 5]))
@example(([[2**62, 2**62, 2**62, 2**62, 5]], [1, 1, 1, 1, 1]))
@example(([], [2**64]))
@settings(max_examples=300, deadline=None)
def test_exact_dot_matches_python_sums(rows_and_vector):
    rows, vector = rows_and_vector
    table = np.array(rows, dtype=np.int64).reshape(len(rows), len(vector))
    got = exact_dot(table, vector)
    assert got.shape == (len(rows),)
    assert [int(x) for x in got] == [sum(x * v for x, v in zip(row, vector)) for row in rows]


@given(st.lists(st.integers(1, 7), min_size=3, max_size=6), st.integers(1, 60))
@example([2, 3, 5], 31)  # d past max(a)**2: read by divisibility, not off a table
@example([1, 1, 2, 2, 2], 27)
@settings(max_examples=300, deadline=None)
def test_semigroup_subset_condition_matches_the_reference(ws, d):
    # the bitset DP with Schur's bound against one O(d) table per subset
    assume(gcd_all(ws) == 1)
    fam = WeightedFamily(tuple(ws), d)
    assume(well_formed(fam))
    assert semigroup_subset_condition(fam) == reference_semigroup_subset_condition(fam)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=8), st.booleans())
def test_rows_increase_and_distinct_codes_match_python(rows, ordered):
    # sorted rows, often strictly increasing, else in the order drawn
    rows = sorted(rows) if ordered else rows
    table = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    assert rows_increase(table) == all(a < b for a, b in zip(map(tuple, rows), map(tuple, rows[1:])))
    values = table[:, 0] * 10 + table[:, 1]
    assert distinct_codes(values).tolist() == sorted(set(values.tolist()))


@given(weights_strategy, st.integers(1, 14))
@settings(max_examples=150, deadline=None)
def test_monomial_count_matches_series(ws, d):
    fam = WeightedFamily(tuple(ws), d)
    assert len(enumerate_monomials(fam)) == series_monomial_count(fam.weights, d)


@given(weights_strategy, st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_normalize_is_well_formed_and_idempotent(ws, d):
    fam = WeightedFamily(tuple(ws), d)
    try:
        out = well_form_normalize(fam)
    except NotNormalizable:
        return
    assert well_formed(out)
    assert well_form_normalize(out) == out


@given(
    st.lists(st.integers(0, 22), min_size=3, max_size=6),
    st.integers(2, 23),
    st.integers(1, 22),
)
@settings(max_examples=150, deadline=None)
def test_effective_order_scaling_divides(sigma, q, k):
    a = tuple([1] * len(sigma))
    sig = tuple(s % q for s in sigma)
    base = effective_order(sig, a, q)
    assert q % base == 0
    scaled = tuple(k * s % q for s in sig)
    assert base % effective_order(scaled, a, q) == 0


@given(
    st.integers(2, 80),
    st.lists(st.tuples(st.integers(-300, 300), st.integers(0, 12)), min_size=1, max_size=6),
    st.integers(1, 6),
)
@example(12, [(0, 0), (0, 0), (0, 0)], 1)
@example(8, [(0, 2), (0, 4), (0, 6)], 1)
@example(8, [(1, 1), (2, 1), (3, 2)], 2)
@example(36, [(4, 6), (-9, 4), (0, 0)], 1)
@settings(max_examples=300, deadline=None)
def test_effective_order_matches_divisor_search(q, entries, factor):
    # composite q, zero and non-unit weights, negative sigma, the zero vector,
    # and a common factor of sigma and a (first Smith invariant above 1)
    sigma = [factor * s for s, _ in entries]
    a = [factor * w for _, w in entries]
    assert effective_order(sigma, a, q) == brute_effective_order(sigma, a, q)


@given(weights_strategy, st.integers(3, 14))
@settings(max_examples=100, deadline=None)
def test_chain_telescoping_and_invariance(ws, d):
    fam = WeightedFamily(tuple(ws), d)
    adj = {i: sorted(out) for i, out in weight_digraph(fam).items()}
    for cyc in simple_cycles(adj, 2, fam.nvars, budget=300):
        chain = chain_from_cycle(fam, cyc)
        lhs = math.prod(d - fam.weights[i] for i in chain.indices)
        rhs = chain.product() * math.prod(fam.weights[i] for i in chain.indices)
        assert lhs == rhs
        # whenever the signed product closes, the chain signature is invariant
        for q in (5, 7, 11):
            signed = chain.product() if (chain.ell + 1) % 2 == 0 else -chain.product()
            if signed % q == 1:
                sig = signature_from_chain(fam, chain, q)
                assert chain_invariance_check(chain, sig, q)
                assert sig.sigma[chain.indices[0]] == 1


@given(
    st.lists(
        st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=8
    ),
    st.permutations(range(4)),
)
@settings(max_examples=150, deadline=None)
def test_subset_criterion_permutation_invariant(exps, perm):
    exps = [tuple(e) for e in exps]
    base = subset_criterion(exps, 4)
    permuted = [tuple(e[p] for p in perm) for e in exps]
    assert subset_criterion(permuted, 4) == base


@st.composite
def exponent_lists(draw, min_size=0):
    """(exponent vectors over 1-7 variables with entries 0-3, nvars); the
    vectors may repeat."""
    nvars = draw(st.integers(1, 7))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars),
            min_size=min_size,
            max_size=12,
        )
    )
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return [tuple(e) for e in rows], nvars


@given(exponent_lists())
@settings(max_examples=400, deadline=None)
def test_subset_criterion_matches_bruteforce(case):
    exps, nvars = case
    assert subset_criterion(exps, nvars) == brute_subset_criterion(exps, nvars)


@given(st.lists(st.integers(1, 6), min_size=2, max_size=7))
@settings(max_examples=300, deadline=None)
def test_cycle_monomials_pass_the_subset_criterion(exponents):
    # the lemma that lets the chain criteria test only the rows off a chain:
    # a subset I of the chain holds two cyclically adjacent i, i+1, and so
    # x_i^m_i * x_(i+1), or else each i in I has its own i+1 outside I
    L = len(exponents)
    monomials = CycleChain(tuple(range(L)), tuple(exponents)).monomials(L)
    assert subset_criterion(monomials, L)
    assert brute_subset_criterion(monomials, L)


@given(st.lists(st.integers(1, 9), min_size=2, max_size=7))
@settings(max_examples=300, deadline=None)
def test_singularity_R_is_the_first_entry_of_adj_K_times_ones(exponents):
    # the identity behind `KleinData.R`: the alternating sum is (-1)^(N-1)
    # times (adj(K) * 1)_0, which Cramer's rule gives as det K with column 0
    # replaced by ones; as adj(K) * 1 = (det K / d) * a, R = +-a_0 * det K / d
    N = len(exponents)
    K = [[0] * N for _ in range(N)]
    for i, m in enumerate(exponents):
        K[i][i] = m
        K[i][(i + 1) % N] += 1
    c0 = bareiss_determinant([[1] + row[1:] for row in K])
    assert reference_singularity_R(exponents, N - 2) == (-1) ** (N - 1) * c0


@given(st.integers(0, 10**12), st.sampled_from(["monomials", "cycles"]))
def test_budget_messages_are_recognized(limit, what):
    # scan tells a budget error from any other by its recorded message, and
    # a pool worker's error reaches the parent pickled
    exc = pickle.loads(pickle.dumps(BudgetExceeded(limit, what)))
    assert str(exc) == f"more than {limit} {what}"
    assert BudgetExceeded.describes(str(exc))
    assert not BudgetExceeded.describes(f"no intrinsic bound; {exc}")


@st.composite
def criterion_batches(draw):
    """(sets, nvars): 1-40 monomial sets over 1-7 variables, each of up to 10
    vectors drawn from one pool of at most 16, so that sets share codes."""
    nvars = draw(st.integers(1, 7))
    vector = st.tuples(*[st.integers(0, 3)] * nvars)
    pool = draw(st.lists(vector, min_size=1, max_size=16))
    sets = draw(st.lists(st.lists(st.sampled_from(pool), max_size=10), min_size=1, max_size=40))
    return sets, nvars


@given(criterion_batches())
@settings(max_examples=200, deadline=None)
def test_batched_criterion_decides_each_row(case):
    # one kernel call over up to 40 sets of the same variables, against the
    # retained lattice kernel and the definition.  The codes are every set's
    # codes in turn, so a code repeats within a set and across sets, and a
    # set holds each column of one of its codes; at 6 and 7 variables the
    # closed rows are filled in several steps
    sets, nvars = case
    per_set = [pattern_codes(np.array(rows, dtype=np.int64).reshape(len(rows), nvars)) for rows in sets]
    codes = np.concatenate(per_set)
    presence = np.array([np.isin(codes, own) for own in per_set]).reshape(len(sets), len(codes))
    want = [brute_subset_criterion(rows, nvars) for rows in sets]
    assert lattice_subset_criterion_batch(codes, presence, nvars).tolist() == want
    got = subset_criterion_batch(subset_closures(codes, nvars), presence.astype(np.float32), nvars)
    assert got.tolist() == want


def test_closed_rows_are_one_matrix(monkeypatch):
    # every code of 7 variables, 3**7 of them as the ones lie in the support:
    # their closed rows are one float32 matrix, the same whatever the step
    # that fills it, and sets of about 2 to 220 codes each are decided as the
    # lattice kernel decides them
    nvars = 7
    codes = np.arange(4**nvars)
    codes = codes[(codes >> nvars) & ~codes & (2**nvars - 1) == 0]
    closures = subset_closures(codes, nvars)
    assert type(closures) is np.ndarray and closures.dtype == np.float32
    assert closures.shape == (3**nvars, (nvars + 1) << nvars)
    monkeypatch.setattr(quasismooth, "_CLOSURE_ELEMENTS", 1)  # one code per step
    assert np.array_equal(subset_closures(codes, nvars), closures)
    rng = np.random.default_rng(0)
    presence = rng.random((40, len(codes))) < np.linspace(0.001, 0.1, 40)[:, None]
    got = subset_criterion_batch(closures, presence.astype(np.float32), nvars)
    assert got.tolist() == lattice_subset_criterion_batch(codes, presence, nvars).tolist()
    assert 0 < got.sum() < len(got)


@given(st.lists(st.integers(1, 30), min_size=3, max_size=6).filter(lambda ws: gcd_all(ws) == 1), st.integers(1, 400))
@example([1, 1, 1], 1)
@example([2, 3, 6], 6)
@example([2, 3, 5], 30)
@example([1, 2, 9], 3)
@settings(max_examples=300, deadline=None)
def test_degree_case_predicates_match_their_definitions(ws, d):
    # d is a multiple of each weight; no k > 1 divides both a weight and d
    fam = WeightedFamily(tuple(ws), d)
    assert weights_divide_degree(fam) == all(d in range(w, d + 1, w) for w in ws)
    common = [k for w in ws for k in range(2, w + 1) if w % k == 0 and d % k == 0]
    assert weights_coprime_to_degree(fam) == (not common)


def test_subset_criterion_edge_cases():
    assert subset_criterion([], 3) is False
    assert brute_subset_criterion([], 3) is False
    for nvars in (0, -1):
        with pytest.raises(ValueError):
            subset_criterion([(1, 1)], nvars)
        with pytest.raises(ValueError):
            brute_subset_criterion([(1, 1)], nvars)
    # a table of another width is an error, not read as nvars columns
    for rows in ([(0, 1), (2, 0)], [(0, 1, 0, 0), (2, 0, 0, 0)]):
        with pytest.raises(ValueError, match="not nvars = 3"):
            subset_criterion(rows, 3)


@st.composite
def polynomials_and_points(draw):
    """(p, nvars, monomials, coefficients, points): exponents both small and
    at or beyond p - 1, coordinates often 0, and the origin first."""
    p = draw(st.sampled_from((2, 3, 5, 7, 101, 499, 997)))
    nv = draw(st.integers(1, 3))
    exponent = st.one_of(st.integers(0, 3), st.integers(max(p - 2, 0), 2 * p))
    monos = draw(st.lists(st.tuples(*[exponent] * nv), max_size=6))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    coordinate = st.one_of(st.just(0), st.integers(0, p - 1))
    points = draw(st.lists(st.tuples(*[coordinate] * nv), max_size=12))
    return p, nv, monos, coeffs, [(0,) * nv] + points


@given(polynomials_and_points())
@example((2, 1, [(0,)], [0], [(0,)]))  # a zero coefficient takes the sentinel log
@settings(max_examples=200, deadline=None)
def test_log_space_evaluation_matches_brute(case):
    p, nv, monos, coeffs, points = case
    space = _LogSpace(p, nv, [(monos, coeffs)])
    pts = np.array(points, dtype=np.int64)
    got = space.values(0, space.logs(pts))
    assert got.tolist() == brute_eval_batch(pts, monos, coeffs, p).tolist()


def _times(f: dict, g: dict) -> dict:
    """The product of two polynomials, each a dict from exponent tuples to
    integer coefficients."""
    out: dict = {}
    for e, c in f.items():
        for h, k in g.items():
            key = tuple(x + y for x, y in zip(e, h))
            out[key] = out.get(key, 0) + c * k
    return out


@st.composite
def planted_searches(draw):
    """(nvars, degree, terms, p, budget, seed): a form of degree 2-4 in 3-4
    variables of weight 1, as a dict from exponents to integer coefficients,
    and a singular-point search over F_p.  Most forms are L1 * L2 * G or
    L1^2 * G, with linear forms L1, L2 of small or arbitrary coefficients,
    whose singular locus L1 = L2 = 0 (or L1 = 0) has nonzero points; the
    rest are random.  Budgets reach the exhaustive grid, the box and the
    random samples."""
    p = draw(st.sampled_from((2, 3, 5, 7, 101)))
    nv = draw(st.integers(3, 4))
    d = draw(st.integers(2, 4))
    units = [tuple(int(j == v) for j in range(nv)) for v in range(nv)]
    coefficient = st.one_of(st.integers(-2, 2), st.integers(0, p - 1))

    def form(degree):
        monos = sorted(enumerate_monomials(WeightedFamily((1,) * nv, degree)).monomials)
        return {e: draw(coefficient) for e in draw(st.lists(st.sampled_from(monos), max_size=8))}

    kind = draw(st.sampled_from(("product", "square", "random")))
    if kind == "random":
        terms = form(d)
    else:
        L1 = {u: draw(coefficient) for u in units}
        L2 = L1 if kind == "square" else {u: draw(coefficient) for u in units}
        G = form(d - 2) if d > 2 else {(0,) * nv: 1}
        terms = _times(_times(L1, L2), G)
    budget = draw(st.one_of(st.integers(0, 3 * 4096), st.just(min(p**nv, 3 * 4096))))
    return nv, d, terms, p, budget, draw(st.integers(0, 2**32))


@given(planted_searches())
# the pinned searches of TestSingularPointSearch: witnesses found in the
# exhaustive grid, in the box and in the random samples
@example((4, 2, {(1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1, (1, 0, 0, 1): 1}, 5, 10_000, 0))
@example((4, 2, {(1, 1, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): 1, (1, 0, 0, 1): 1}, 101, 60_000, 0))
@example((4, 2, {(1, 1, 0, 0): 1, (1, 0, 0, 1): -5, (0, 1, 1, 0): -5, (0, 0, 1, 1): 25}, 101, 20_000, 0))
@settings(max_examples=120, deadline=None)
def test_singular_point_search_matches_brute(case):
    # the same form reduced mod p, its zero terms dropped, so that no
    # coefficient collides with p
    nv, d, terms, p, budget, seed = case
    reduced = {e: c % p for e, c in terms.items() if c % p}
    poly = ExplicitPolynomial(
        MonomialSystem(WeightedFamily((1,) * nv, d), tuple(reduced)), tuple(reduced.values())
    )
    result = singular_point_search(poly, p, budget, seed)
    got = (result.witness, result.tested, result.mode, result.exhausted)
    assert got == brute_singular_point_search(poly, p, budget, seed)


@given(planted_searches().filter(lambda case: case[3] in (5, 101)), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_singular_point_search_ignores_monomial_order(case, rng):
    # a member over a shuffled copy of its system, its coefficients shuffled
    # alike, is the same polynomial: the search reads its rows in system
    # order and must find what it finds on the sorted member
    nv, d, terms, p, budget, seed = case
    rows = sorted((e, c % p) for e, c in terms.items() if c % p)
    shuffled = rng.sample(rows, len(rows))
    fam = WeightedFamily((1,) * nv, d)
    members = [
        ExplicitPolynomial(MonomialSystem(fam, tuple(e for e, _ in rs)), tuple(c for _, c in rs))
        for rs in (rows, shuffled)
    ]
    assert singular_point_search(members[1], p, budget, seed) == singular_point_search(
        members[0], p, budget, seed
    )


@given(
    st.lists(st.integers(1, 12), min_size=3, max_size=6).filter(lambda ws: gcd_all(ws) == 1),
    st.integers(1, 40),
)
@settings(max_examples=150, deadline=None)
def test_anchors_are_the_table_rows_the_rule_keeps(ws, d):
    # FamilyAnalysis.anchors, read off (a, d), against the anchor rule applied
    # to every row of the monomial table, in the table's order.  The analysis
    # has a monomial budget of 0, so it would raise if it read its table.
    # Tables of more than 50 000 rows (six weights of 1 near d = 40) are
    # too slow for the reference to scan
    fam = WeightedFamily(tuple(ws), d)
    try:
        monos = enumerate_monomials(fam, 50_000).monomials
    except BudgetExceeded:
        assume(False)
    got = [rows.tolist() for rows in FamilyAnalysis(fam, 0, 0, 0).anchors]
    assert got == [[list(monos[r]) for r in rows] for rows in brute_anchors(monos, fam.nvars)]


#: The families of the criterion-5 corpus with n <= 2 that the oracle accepts
ORACLE_FAMILIES = [
    fam for fam in families((1, 2), 5, range(3, 13)) if lin_finite(fam) and not is_linear_cone(fam)
]


@given(
    st.sampled_from(ORACLE_FAMILIES),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]),
)
@settings(max_examples=300, deadline=None)
def test_gated_orders_are_refuted_by_the_reference(fam, q):
    # The oracle's two closed-form refutations, against its per-class
    # reference loop: q divides no quotient det K / d of the anchor
    # determinants (the quotient gate), or q = p^r, r > 1, and the reference
    # refutes p^(r-1) (the descent gate).  Either way the reference refutes q.
    an = as_analysis(fam)
    pp = prime_power_decompose(q)
    dets = an.anchor_determinants
    quotient = all(rows.size for rows in an.anchors) and all(det // fam.degree % q for det in dets)
    assume(quotient or pp.r > 1 and reference_oracle(an, q // pp.p)[0] == "refuted")
    assert reference_oracle(an, q)[0] == "refuted"
