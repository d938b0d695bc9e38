"""Shared corpus enumerators and independent brute-force oracles."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, product
from typing import Iterator

import numpy as np

from wpsauto import WeightedFamily
from wpsauto.ambient import well_formed
from wpsauto.arith import as_prime_power, gcd_all
from wpsauto.errors import CoefficientCollision
from wpsauto.orders import FamilyAnalysis, _canonical_rows, as_analysis


def families(
    dims: tuple[int, ...],
    max_weight: int,
    degrees: range,
    require_well_formed: bool = True,
) -> Iterator[WeightedFamily]:
    """Weight multisets (nondecreasing) with gcd 1, crossed with degrees."""
    for n in dims:
        for ws in combinations_with_replacement(range(1, max_weight + 1), n + 2):
            if gcd_all(ws) != 1:
                continue
            for d in degrees:
                fam = WeightedFamily(ws, d)
                if require_well_formed and not well_formed(fam):
                    continue
                yield fam


def brute_semigroup_contains(gens: set[int], target: int) -> bool:
    """Exhaustive coefficient search, independent of the DP implementation."""
    gens = sorted(gens)

    def rec(i: int, remaining: int) -> bool:
        if remaining == 0:
            return True
        if i == len(gens):
            return False
        g = gens[i]
        for k in range(remaining // g + 1):
            if rec(i + 1, remaining - k * g):
                return True
        return False

    return rec(0, target)


def semigroup_reachable(generators, limit: int) -> list[bool]:
    """Table t with t[k] true iff k <= limit is a sum of the generators:
    plain unbounded-coin dynamic programming, O(len * limit)."""
    table = [False] * (limit + 1)
    table[0] = True
    for g in sorted(set(generators)):
        for k in range(g, limit + 1):
            if table[k - g]:
                table[k] = True
    return table


def reference_semigroup_subset_condition(fam: WeightedFamily) -> bool:
    """The semigroup subset condition by one O(d) `semigroup_reachable` table
    per index subset I: d is a sum of the a_I, or at least |I| indices j
    outside I have d - a_j one."""
    a, d, nv = fam.weights, fam.degree, fam.nvars
    for mask in range(1, 1 << nv):
        gens = [a[i] for i in range(nv) if mask >> i & 1]
        reach = semigroup_reachable(gens, d)
        if reach[d]:
            continue
        hits = sum(1 for j in range(nv) if not mask >> j & 1 and d - a[j] >= 0 and reach[d - a[j]])
        if hits < len(gens):
            return False
    return True


def brute_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def brute_effective_order(sigma, a, q: int) -> int:
    """Least k >= 1 with k*sigma = c*a mod q for some c, by trying the
    divisors k of q in increasing order against every translation c."""
    sig = [s % q for s in sigma]
    avec = [w % q for w in a]
    for k in range(1, q + 1):
        if q % k == 0:
            scaled = [k * s % q for s in sig]
            if any(all(c * w % q == s for w, s in zip(avec, scaled)) for c in range(q)):
                return k
    raise AssertionError("k = q always matches with c = 0")


def series_monomial_count(weights, degree: int) -> int:
    """Coefficient of t^degree in prod 1/(1 - t^w), by truncated convolution."""
    coeffs = [1] + [0] * degree
    for w in weights:
        out = [0] * (degree + 1)
        for k in range(0, degree + 1, w):  # geometric series in t^w
            for j in range(degree + 1 - k):
                out[j + k] += coeffs[j]
        coeffs = out
    return coeffs[degree]


def brute_monomials(weights, degree: int) -> set[tuple[int, ...]]:
    """All exponent vectors of the weighted degree, by full grid search."""
    ranges = [range(degree // w + 1) for w in weights]
    return {
        e
        for e in product(*ranges)
        if sum(w * x for w, x in zip(weights, e)) == degree
    }


def brute_canonical_mask(S: np.ndarray, q: int) -> np.ndarray:
    """Rows of S (entries mod q) that are lexicographically least in their
    unit orbit, by comparing each row with u*S mod q for every unit u.  A row
    drops out at the first unit that makes it smaller."""
    radix = np.array([q ** (S.shape[1] - 1 - k) for k in range(S.shape[1])], dtype=np.int64)
    keys = S @ radix
    least = np.arange(len(S))
    for u in range(2, q):
        if math.gcd(u, q) == 1:
            least = least[keys[least] <= (u * S[least] % q) @ radix]
    mask = np.zeros(len(S), dtype=bool)
    mask[least] = True
    return mask


def brute_canonical_full_signature(weights, sigma, q: int) -> tuple[int, ...]:
    """Lexicographically least element of {u*sigma + c*a mod q}, by trying
    every unit u and every translation c."""
    best = None
    for u in range(1, q):
        if math.gcd(u, q) != 1:
            continue
        base = [u * s % q for s in sigma]
        for c in range(q):
            cand = tuple((b + c * w) % q for b, w in zip(base, weights))
            if best is None or cand < best:
                best = cand
    return best


def brute_subset_criterion(exponents, nvars: int) -> bool:
    """The subset criterion by its definition, one monomial at a time: for
    every nonempty variable subset I, some monomial lies inside I, or at
    least |I| variables j outside I each have a monomial that is an
    I-monomial times x_j to the first power."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if not exponents:
        return False
    support = []
    unit_bits = []  # per monomial: bit j set iff exponent of x_j is exactly 1
    for e in exponents:
        s = 0
        u = 0
        for j in range(nvars):
            if e[j] > 0:
                s |= 1 << j
                if e[j] == 1:
                    u |= 1 << j
        support.append(s)
        unit_bits.append(u)
    for mask in range(1, 1 << nvars):
        size = bin(mask).count("1")
        outside_js = 0
        ok = False
        for s, u in zip(support, unit_bits):
            out = s & ~mask
            if out == 0:
                ok = True
                break
            if out & (out - 1) == 0 and out & u:
                outside_js |= out
        if not ok and bin(outside_js).count("1") < size:
            return False
    return True


def lattice_subset_criterion_batch(codes: np.ndarray, presence: np.ndarray, nvars: int) -> np.ndarray:
    """The subset criterion for many monomial sets at once by the closure over
    the subset lattice, the kernel the closed rows of `subset_closures`
    replaced: row b of the boolean matrix `presence` holds the set whose
    monomials have the pattern codes `codes[c]` with presence[b, c].

    For each set, f[t, s] marks a present pattern with support s, where t = 0
    takes any pattern and t = 1 + j only those with exponent 1 at x_j.  Its
    closure over the subset lattice, F[t, I] = OR of f[t, s] over s inside I,
    is formed one variable at a time; (a) holds when F[0, I] does, and j
    counts for (b) when F[1 + j, I | {j}] does."""
    size = 1 << nvars
    support = codes & (size - 1)
    # (source, target): pattern codes[source] sets f[t, s], flattened to t * size + s
    coded, var = np.nonzero((codes[:, None] >> (nvars + np.arange(nvars))) & 1)
    source = np.concatenate([np.arange(len(codes)), coded])
    target = np.concatenate([support, (var + 1) * size + support[coded]])
    order = np.argsort(target, kind="stable")
    source, target = source[order], target[order]
    starts = np.flatnonzero(np.diff(target, prepend=-1))  # each run of equal targets
    f = np.zeros((len(presence), (nvars + 1) * size), dtype=bool)
    if len(source):
        f[:, target[starts]] = np.logical_or.reduceat(presence[:, source], starts, axis=1)
    for i in range(nvars):  # close f over the subset lattice, one variable at a time
        view = f.reshape(-1, size >> (i + 1), 2, 1 << i)
        view[:, :, 1, :] |= view[:, :, 0, :]
    F = f.reshape(len(presence), nvars + 1, size)
    masks = np.arange(size)
    j = np.arange(nvars)[:, None]
    sizes, joined = ((masks >> j) & 1).sum(axis=0), masks | (1 << j)
    counted = F[:, 1 + j, joined].sum(axis=1)
    return (F[:, 0, :] | (counted >= sizes))[:, 1:].all(axis=1)


def brute_eval_batch(points: np.ndarray, monos, coeffs, p: int) -> np.ndarray:
    """sum(c * x^e) mod p at every row of `points`, one monomial at a time
    from per-variable power tables, in int64: exact while (p - 1)^2 < 2^63."""
    npts = points.shape[0]
    nv = points.shape[1]
    max_exp = [max((e[v] for e in monos), default=0) for v in range(nv)]
    pows: list[list[np.ndarray]] = []
    for v in range(nv):
        col = points[:, v].astype(np.int64)
        table = [np.ones(npts, dtype=np.int64)]
        for _ in range(max_exp[v]):
            table.append(table[-1] * col % p)
        pows.append(table)
    total = np.zeros(npts, dtype=np.int64)
    for mono, c in zip(monos, coeffs):
        term = np.full(npts, c, dtype=np.int64)
        for v, e in enumerate(mono):
            if e:
                term = term * pows[v][e] % p
        total = (total + term) % p
    return total


def brute_singular_point_search(poly, p: int, budget: int, seed: int):
    """(witness, tested, mode, exhausted) of the singular-point search, by
    walking its point stream: all of F_p^nvars when it fits the budget,
    else the box of coordinates {0, +-1, ..., +-b} (b as large as keeps the
    box within half the budget; no box when b = 1 does not fit) and then
    PCG64(seed) samples, in blocks of 4096.  At every point of a block the
    polynomial and each partial derivative are evaluated by
    `brute_eval_batch`; the first nonzero common zero is the witness, and
    `tested` counts the points up to the end of its block."""
    nv = poly.system.family.nvars
    monos, coeffs = [], []
    for mono, coeff in sorted(zip(poly.system.monomials, poly.coefficients)):
        if coeff % p == 0:
            raise CoefficientCollision(f"coefficient of {mono} vanishes mod {p}")
        monos.append(mono)
        coeffs.append(coeff % p)
    polys = [(monos, coeffs)]
    for v in range(nv):
        held = [(mono, c) for mono, c in zip(monos, coeffs) if mono[v]]
        polys.append(
            (
                [mono[:v] + (mono[v] - 1,) + mono[v + 1 :] for mono, _ in held],
                [c * mono[v] % p for mono, c in held],
            )
        )
    if p**nv <= budget:
        mode, values = "exhaustive", list(range(p))
    else:
        mode, values, b = "sampled", [], 1
        while (2 * b + 1) ** nv <= budget // 2:
            values, b = [0] + [x for k in range(1, b + 1) for x in (k, p - k)], b + 1
    grid = np.array(list(product(values, repeat=nv)), dtype=np.int64).reshape(-1, nv)
    blocks = [grid[start : start + 4096] for start in range(0, len(grid), 4096)]
    sample = budget - len(grid) if mode == "sampled" else 0
    rng = np.random.Generator(np.random.PCG64(seed))
    for start in range(0, sample, 4096):
        blocks.append(rng.integers(0, p, size=(min(4096, sample - start), nv), dtype=np.int64))
    tested = 0
    for block in blocks:
        tested += len(block)
        hits = block.any(axis=1)
        for ms, cs in polys:
            hits &= brute_eval_batch(block, ms, cs, p) == 0
        if hits.any():
            return tuple(int(x) for x in block[np.argmax(hits)]), tested, mode, False
    return None, tested, mode, mode == "sampled"


def brute_anchors(monos, nvars: int) -> list[list[int]]:
    """Per variable v, the indices of the monomials anchoring v, one
    exponent tuple at a time: a pure power x_v^k, or x_v^k * x_j with x_j
    to the first power (x_v * x_j anchors both of its variables)."""
    anchored: list[list[int]] = [[] for _ in range(nvars)]
    for row, e in enumerate(monos):
        pos = [j for j, x in enumerate(e) if x > 0]
        if len(pos) == 1:
            anchored[pos[0]].append(row)
        elif len(pos) == 2:
            j, k = pos
            if e[k] == 1:
                anchored[j].append(row)
            if e[j] == 1:
                anchored[k].append(row)
    return anchored


def bareiss_determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination, swapping in a row with a nonzero pivot where needed."""
    M = [list(r) for r in rows]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def reference_singularity_R(exponents, n: int) -> int:
    """The Klein singularity quantity as the alternating exponent-product
    sum R = 1 + sum_{i=1}^{n+1} (-1)^(n-i) * m_i * ... * m_{n+1}, exactly,
    for the exponents m_0, ..., m_{n+1} in chain order."""
    total = 1
    for i in range(1, n + 2):
        prod = math.prod(exponents[i:])
        total += prod if (n - i) % 2 == 0 else -prod
    return total


def brute_anchor_determinants(monos, nvars: int) -> set[int]:
    """The distinct |det K| over every choice of one anchoring monomial per
    variable (`brute_anchors`), K the matrix of the chosen exponent vectors,
    each by `bareiss_determinant`."""
    anchored = brute_anchors(monos, nvars)
    return {
        abs(bareiss_determinant([monos[r] for r in rows])) for rows in product(*anchored)
    }


def reference_oracle(fam: "WeightedFamily | FamilyAnalysis", q: int):
    """(status, signature, witness monomials, notes, reach) of the
    signature-class oracle, by its per-class, per-bucket loop: the candidate
    classes come from the production `_canonical_rows`, their free residues
    put back around a 0 at the pinned coordinate, and each bucket that
    anchors every variable (`brute_anchors`) is tested alone with
    `brute_subset_criterion`, classes in increasing rank and buckets in
    increasing h.  Covers the verdicts that the class budget leaves alone.
    `reach` is the position of the certifying class in its block, or, for a
    refutation, the most classes any block held (0 if none was scanned).
    Given a family, it builds a new analysis; given one, it reads that one."""
    an = as_analysis(fam)
    fam = an.family
    pp = as_prime_power(q)
    notes = an.oracle_hypotheses()
    nv = fam.nvars
    monos = an.system.monomials
    anchor_rows = brute_anchors(monos, nv)
    missing = [v for v in range(nv) if not anchor_rows[v]]
    if missing:
        note = f"no pure-power or near-power monomial for variables {missing}"
        return "refuted", None, None, notes + (note,), 0
    pinned = next(i for i, w in enumerate(fam.weights) if w % pp.p)
    E = np.array(monos, dtype=np.int64)
    examined = reach = 0
    for free in _canonical_rows(pp.q, pp.p, pp.r, nv - 1):
        S = np.insert(free, pinned, 0, axis=1)  # the full vectors, 0 at the pinned coordinate
        examined += len(S)
        reach = max(reach, len(S))
        dots = S @ E.T % pp.q
        # hits[c, h]: every variable has an anchor in bucket h of class c
        hits = np.ones((len(S), pp.q), dtype=bool)
        for v in range(nv):
            hit_v = np.zeros_like(hits)
            hit_v[np.arange(len(S))[:, None], dots[:, anchor_rows[v]]] = True
            hits &= hit_v
        for c, h in zip(*np.nonzero(hits)):
            bucket = [e for e, value in zip(monos, dots[c]) if value == h]
            if brute_subset_criterion(bucket, nv):
                signature = brute_canonical_full_signature(fam.weights, S[c].tolist(), pp.q)
                note = f"classes examined: {examined}"
                return "certified", signature, tuple(bucket), notes + (note,), int(c)
    return "refuted", None, None, notes + (f"exhausted all {examined} signature classes",), reach
