"""Built-in verification suite: named checks with frozen expected values.

Each check recomputes a known result end to end and compares it against the
stored expectation.  The CLI `verify` subcommand runs them all, printing one
line per check, and exits 3 with a diff when anything regressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ambient import MonomialSystem, WeightedFamily, well_form_normalize
from .klein import eigenspace_filter, klein_eigenspace_check, klein_exists, klein_max_prime
from .orders import (
    admissible_orders,
    bound_divides_d,
    family_analysis,
    necessary_condition,
    oracle_exists_order,
    signature_from_chain,
)
from .quasismooth import ExplicitPolynomial, singular_point_search

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str


def _counterexample_chain() -> tuple[str, str]:
    fam = WeightedFamily((3, 7, 2, 4, 5), 37)
    chain = necessary_condition(fam, 23)
    sig = signature_from_chain(fam, chain, 23)
    expected = "indices=(0, 1, 2) exponents=(10, 5, 17) prefix=(1, 13, 4)"
    actual = f"indices={chain.indices} exponents={chain.exponents} prefix={sig.sigma[:3]}"
    return expected, actual


def _counterexample_oracle() -> tuple[str, str]:
    fam = WeightedFamily((3, 7, 2, 4, 5), 37)
    verdict = oracle_exists_order(fam, 23)
    return "refuted", verdict.status


def _fano_orders(weights: tuple[int, ...], degree: int, expected: set[int]) -> tuple[str, str]:
    fam = WeightedFamily(weights, degree)
    bound = bound_divides_d(fam).bound
    results = admissible_orders(fam, bound)
    certified = sorted(pp.p for pp, v in results if pp.r == 1 and v.status == "certified")
    others = sorted(pp.p for pp, v in results if pp.r == 1 and v.status not in ("certified", "refuted"))
    actual = f"certified primes {certified}, undecided {others}"
    return f"certified primes {sorted(expected)}, undecided []", actual


def _klein_extremal(weights: tuple[int, ...], degree: int, prime: int, counts: tuple[int, int]) -> tuple[str, str]:
    an = family_analysis(WeightedFamily(weights, degree))
    result = klein_max_prime(an)
    check = klein_eigenspace_check(an) if result.value else False
    filt = eigenspace_filter(an, result.value) if result.value else (0, 0)
    expected = f"p={prime} eigenspace=True counts={counts}"
    actual = f"p={result.value} eigenspace={check} counts={filt}"
    return expected, actual


def _klein_quadric_falsified() -> tuple[str, str]:
    fam = WeightedFamily((1, 1, 1, 1), 2)
    monos = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
    poly = ExplicitPolynomial(MonomialSystem(fam, monos), (1,) * len(monos))
    result = singular_point_search(poly, 101, budget=60_000)
    return "singular point found", "singular point found" if result.found else "no witness"


def _klein_nonexistence() -> tuple[str, str]:
    data = klein_exists(WeightedFamily((1, 1, 1, 2), 4))
    return "no cyclic ordering", "no cyclic ordering" if data is None else f"found {data.ordering}"


def _normalize() -> tuple[str, str]:
    out = well_form_normalize(WeightedFamily((1, 2, 2, 2), 4))
    return "1,1,1,1 d=2", str(out)


_CHECKS: dict[str, Callable[[], tuple[str, str]]] = {
    "counterexample-chain": _counterexample_chain,
    "counterexample-oracle": _counterexample_oracle,
    "fano-cubic-threefold": lambda: _fano_orders((1, 1, 1, 1, 1), 3, {2, 3, 5, 11}),
    "fano-quartic-11112": lambda: _fano_orders((1, 1, 1, 1, 2), 4, {2, 3, 5, 7}),
    "fano-sextic-11123": lambda: _fano_orders((1, 1, 1, 2, 3), 6, {2, 3, 5, 7}),
    "fano-sextic-11223": lambda: _fano_orders((1, 1, 2, 2, 3), 6, {2, 3, 5}),
    "klein-quartic-curve": lambda: _klein_extremal((1, 1, 1), 4, 7, (3, 15)),
    "klein-cubic-threefold": lambda: _klein_extremal((1, 1, 1, 1, 1), 3, 11, (5, 35)),
    "klein-quadric-falsified": _klein_quadric_falsified,
    "klein-nonexistence-1112-d4": _klein_nonexistence,
    "well-form-normalize": _normalize,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks(inject_failure: str | None = None) -> list[CheckResult]:
    """Run every named check; optionally corrupt one expectation (self-test)."""
    results = []
    for name, fn in _CHECKS.items():
        expected, actual = fn()
        if inject_failure == name:
            expected += " [injected corruption]"
        results.append(CheckResult(name, expected == actual, expected, actual))
    return results
