"""Command-line surface: orders, check, klein, scan, verify.

All reports are JSON on stdout with sorted keys, so identical arguments,
seed, and budgets give byte-identical output.  Exit codes: 0 success,
1 hypothesis violation, 2 budget exhaustion, 3 verification-suite failure,
64 usage error.  On exit 2, `check`, `orders` and `scan` still print their
reports, a stopped verdict unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, suppress
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Optional, Sequence

from .ambient import MONOMIAL_BUDGET, WeightedFamily, weights_coprime_to_degree, weights_divide_degree
from .arith import as_prime_power, gcd_all, linear_congruence_solutions
from .checks import CHECK_NAMES, run_checks
from .cycles import CYCLE_BUDGET
from .errors import BudgetExceeded, CoefficientCollision, HypothesisViolated, WpsautoError
from .orders import (
    ORACLE_CLASS_BUDGET,
    FamilyAnalysis,
    OrderVerdict,
    admissible_orders,
    as_analysis,
    family_analysis,
    necessary_condition,
    order_verdict,
    signature_from_chain,
)
from .quasismooth import random_member, singular_point_search
from .report import base_report, bounds_section, dumps, klein_section, verdict_json

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

FALSIFIER_PRIMES = (101, 499, 997)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad weight list {text!r}: {exc}") from exc


def _parse_degree_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
        if lo > hi:
            raise ValueError(f"{lo} exceeds {hi}")
    except ValueError as exc:
        raise _UsageError(f"bad degree range {text!r}: {exc}") from exc
    return lo, hi


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget must be nonnegative, got {value}")
    return value


def _at_least(low: int):
    """An argparse type for integers no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def _analysis(args, fam: Optional[WeightedFamily] = None) -> FamilyAnalysis:
    """The analysis of `fam` (else of --weights, --degree) under the request's budgets."""
    if fam is None:
        fam = WeightedFamily(_parse_weights(args.weights), args.degree)
    return family_analysis(fam, args.monomial_budget, args.cycle_budget, args.oracle_budget)


def _default_max_order(an: FamilyAnalysis, explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    if an.default_max_order is None:
        raise _UsageError(
            "no intrinsic bound applies to this family; pass --max-order explicitly"
        )
    return an.default_max_order


def _exit_code_for(verdicts: Sequence[OrderVerdict]) -> int:
    if any(v.status == "hypothesis-violated" for v in verdicts):
        return EXIT_HYPOTHESIS
    if any(v.status == "unresolved" for v in verdicts):
        return EXIT_BUDGET
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built on first use and then kept.  The --seed
    default is left to `_parse`, so that it reads the environment of each
    call rather than that of the first one."""
    parser = _Parser(prog="wpsauto", description=__doc__)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for all randomized steps (default: WPSAUTO_SEED or 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def family_args(p: _Parser) -> None:
        p.add_argument("--weights", required=True, help="comma-separated positive integers")
        p.add_argument("--degree", required=True, type=int)

    def budget_args(p: _Parser) -> None:
        p.add_argument("--oracle-budget", type=_budget, default=ORACLE_CLASS_BUDGET)
        p.add_argument("--cycle-budget", type=_budget, default=CYCLE_BUDGET)
        p.add_argument(
            "--monomial-budget",
            type=_budget,
            default=MONOMIAL_BUDGET,
            help="cap on enumerated monomials per family, for this run",
        )

    p_orders = sub.add_parser("orders", help="sweep all prime powers up to a bound")
    family_args(p_orders)
    budget_args(p_orders)
    p_orders.add_argument("--max-order", type=_at_least(2), default=None)
    p_orders.add_argument("--timings", action="store_true", help="include wall-clock timings")

    p_check = sub.add_parser("check", help="deep report for a single order")
    family_args(p_check)
    budget_args(p_check)
    p_check.add_argument("--order", required=True, type=int)
    p_check.add_argument("--explain", action="store_true", help="off-chain constraint analysis")
    p_check.add_argument("--all", action="store_true", help="list every qualifying chain")
    p_check.add_argument("--falsifier-budget", type=_budget, default=20_000)

    p_klein = sub.add_parser("klein", help="cyclic hypersurface analysis")
    family_args(p_klein)

    p_scan = sub.add_parser("scan", help="batch sweep over families, JSON lines out")
    p_scan.add_argument("--dim", required=True, type=_at_least(1), help="hypersurface dimension n")
    p_scan.add_argument("--max-weight", required=True, type=_at_least(1))
    degrees = p_scan.add_mutually_exclusive_group(required=True)
    degrees.add_argument("--max-degree", type=_at_least(1), default=None)
    degrees.add_argument("--degree", type=str, default=None, help="LO..HI or a single value")
    p_scan.add_argument("--max-order", type=_at_least(2), default=None)
    p_scan.add_argument("--divides-d", action="store_true", help="only families with all a_i | d")
    p_scan.add_argument("--coprime", action="store_true", help="only families with gcd(a_i, d) = 1")
    p_scan.add_argument("--out", type=str, default=None)
    p_scan.add_argument("--resume", action="store_true", help="continue the output --out names")
    p_scan.add_argument("--workers", type=_at_least(1), default=1)
    budget_args(p_scan)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--list", action="store_true", dest="list_checks")
    p_verify.add_argument("--inject-failure", type=str, default=None, metavar="NAME")

    return parser


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    args = _parser().parse_args(argv)
    source = "--seed"
    if args.seed is None:
        source, text = "WPSAUTO_SEED", os.environ.get("WPSAUTO_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            raise _UsageError(f"WPSAUTO_SEED must be an integer, got {text!r}") from None
    if args.seed < 0:  # the falsifier's PCG64 stream takes no negative seed
        raise _UsageError(f"{source} must be nonnegative, got {args.seed}")
    return args


def _fill_orders_report(report: dict, an: FamilyAnalysis, max_order: Optional[int]) -> list[OrderVerdict]:
    """Add the sections of an `orders` report to `report` (a `base_report`)
    one at a time, and return the verdicts.  `scan` writes the same report
    per family.  When a section raises, the ones added before it stay, the
    message is added as "error" with no verdicts, and the error is raised
    again.  The oracle's hard preconditions are checked before the sweep
    limit, so that an invalid family is named as such, not as one with no
    bound."""
    try:
        report["bounds"] = bounds_section(an)
        report["klein"] = klein_section(an)
        an.oracle_hypotheses()
        max_order = _default_max_order(an, max_order)
        verdicts = [v for _, v in admissible_orders(an, max_order)]
    except (WpsautoError, _UsageError) as exc:
        report["error"] = str(exc)
        report["verdicts"] = []
        raise
    report["max_order"] = max_order
    report["verdicts"] = [verdict_json(v) for v in verdicts]
    return verdicts


def _cmd_orders(args) -> int:
    an = _analysis(args)
    started = time.monotonic()
    report = base_report(an, args.seed)
    try:
        verdicts = _fill_orders_report(report, an, args.max_order)
    except BudgetExceeded:  # the report as `scan` records the family
        print(dumps(report))
        raise  # `main` names it on stderr and exits 2
    if args.timings:
        report["timings"] = {"total_s": round(time.monotonic() - started, 3)}
    print(dumps(report))
    return _exit_code_for(verdicts)


def _explain_offchain(an: FamilyAnalysis, q: int, chain) -> dict:
    """Anchor-monomial congruences for variables the chain leaves free.

    With the chain signature normalized (first entry 1, invariance target 0),
    each anchor monomial of an off-chain variable imposes a linear
    congruence on its residue, solved in closed form; the per-monomial
    solution sets expose contradictions directly.
    """
    sig = signature_from_chain(an.family, chain, q).sigma
    on_chain = set(chain.indices)
    entries = []
    for v in range(an.family.nvars):
        if v in on_chain:
            continue
        anchors = []
        for mono, k, t in an.anchor_terms[v]:
            if t >= 0 and sig[t] is None:
                anchors.append({"monomial": mono, "solutions": None, "couples": [t]})
                continue
            sols = linear_congruence_solutions(k, sig[t] if t >= 0 else 0, q)
            anchors.append({"monomial": mono, "solutions": sols, "couples": []})
        entries.append({"variable": v, "anchors": anchors})
    return {"offchain": entries}


def _cmd_check(args) -> int:
    an = _analysis(args)
    pp = as_prime_power(args.order)
    verdict = order_verdict(an, pp)
    report = base_report(an, args.seed)
    report["bounds"] = bounds_section(an)
    report["verdicts"] = [verdict_json(verdict)]
    if args.explain:
        try:
            chain = necessary_condition(an, pp)
        except (HypothesisViolated, BudgetExceeded):
            chain = None
        if chain is not None:
            report["explain"] = _explain_offchain(an, pp.q, chain)
    exhausted = None
    if args.all:  # the chains walked before a cycle budget runs out, if it does
        report["all_chains"] = chains = []
        try:
            for c in an.qualifying_chains(pp):
                chains.append({"indices": list(c.indices), "exponents": list(c.exponents)})
        except HypothesisViolated:
            pass
        except BudgetExceeded as exc:
            exhausted = exc
    if verdict.status == "certified":
        member = random_member(verdict.witness_system, args.seed)
        summary = []
        for prime in FALSIFIER_PRIMES:
            try:
                result = singular_point_search(member, prime, args.falsifier_budget, args.seed)
            except CoefficientCollision as exc:  # this prime cannot test the member
                summary.append(
                    {"prime": prime, "witness": None, "tested": 0, "mode": "skipped", "reason": str(exc)}
                )
                continue
            summary.append(
                {
                    "prime": prime,
                    "witness": list(result.witness) if result.witness else None,
                    "tested": result.tested,
                    "mode": result.mode,
                }
            )
        report["falsifier"] = summary
    print(dumps(report))
    if exhausted:
        raise exhausted  # after the report: `main` names it on stderr and exits 2
    return _exit_code_for([verdict])


def _cmd_klein(args) -> int:
    an = as_analysis(WeightedFamily(_parse_weights(args.weights), args.degree))
    report = base_report(an, args.seed)
    report["klein"] = klein_section(an)
    print(dumps(report))
    return EXIT_OK


def _scan_families(args) -> list[WeightedFamily]:
    nvars = args.dim + 2
    lo, hi = (1, args.max_degree) if args.degree is None else _parse_degree_range(args.degree)
    fams = []
    for weights in combinations_with_replacement(range(1, args.max_weight + 1), nvars):
        if gcd_all(weights) != 1:
            continue
        for degree in range(lo, hi + 1):
            fam = WeightedFamily(weights, degree)
            if args.divides_d and not weights_divide_degree(fam):
                continue
            if args.coprime and not weights_coprime_to_degree(fam):
                continue
            fams.append(fam)
    fams.sort(key=lambda f: (f.n, f.weights, f.degree))
    return fams


def _scan_record(args, fam: WeightedFamily) -> str:
    """The family's JSON line; a raised error is recorded in it as "error"."""
    an = _analysis(args, fam)
    report = base_report(an, args.seed)
    with suppress(WpsautoError, _UsageError):  # recorded in the report
        _fill_orders_report(report, an, args.max_order)
    return dumps(report)


def _unresolved(record: dict) -> bool:
    """Whether a budget left a scan line's family unresolved: a verdict
    unresolved, or the whole family cut short by a budget error."""
    return BudgetExceeded.describes(record.get("error", "")) or any(
        v["status"] == "unresolved" for v in record["verdicts"]
    )


def _resume(args, out_path: Path, fams: Sequence[WeightedFamily]) -> tuple[int, bool]:
    """How many of `fams` an interrupted scan's output holds, and whether a
    budget left any unresolved.  Only lines ending in a newline count, a torn
    tail is cut off, and line k must be the record of family k, written under
    this run's seed and max order, else usage error, with the file left as it
    is.  The budgets are not in the record, so they go unchecked."""
    data = out_path.read_bytes() if out_path.exists() else b""
    *lines, torn = data.split(b"\n")
    unresolved = []
    for number, line in enumerate(lines, 1):
        fam = fams[number - 1] if number <= len(fams) else None
        where = f"line {number} of {out_path}"
        try:
            record = json.loads(line)
            kept = fam and (tuple(record["weights"]), record["degree"]) == (fam.weights, fam.degree)
            unresolved.append(_unresolved(record))
        except (ValueError, KeyError, TypeError):
            kept = False
        if not kept:
            expected = f"family {fam}" if fam else f"any family: the scan has {len(fams)}"
            raise _UsageError(f"cannot resume: {where} is not the record of {expected}")
        if record.get("seed") != args.seed:
            raise _UsageError(f"cannot resume: {where} was written under seed {record.get('seed')}, not {args.seed}")
        if "max_order" in record:
            max_order = _default_max_order(_analysis(args, fam), args.max_order)
            if record["max_order"] != max_order:
                raise _UsageError(f"cannot resume: {where} has max order {record['max_order']}, not {max_order}")
    if torn:
        os.truncate(out_path, len(data) - len(torn))
    return len(unresolved), any(unresolved)


def _cmd_scan(args) -> int:
    fams = _scan_families(args)
    if args.resume and not args.out:
        raise _UsageError("--resume needs --out, the output to continue")
    out_path = Path(args.out) if args.out else None
    with ExitStack() as stack:
        try:
            done, budget_hit = _resume(args, out_path, fams) if args.resume else (0, False)
            handle = stack.enter_context(out_path.open("a" if args.resume else "w")) if out_path else sys.stdout
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc.strerror or exc}") from None
        scan_one, todo = partial(_scan_record, args), fams[done:]
        workers = min(args.workers, len(todo))  # a forked pool starts them all at once
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # imported only where a pool starts
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            lines = pool.map(scan_one, todo, chunksize=4)
        else:
            lines = map(scan_one, todo)
        for line in lines:
            budget_hit = budget_hit or _unresolved(json.loads(line))
            handle.write(line + "\n")
            handle.flush()
    return EXIT_BUDGET if budget_hit else EXIT_OK


def _cmd_verify(args) -> int:
    if args.list_checks:
        for name in CHECK_NAMES:
            print(name)
        return EXIT_OK
    if args.inject_failure is not None and args.inject_failure not in CHECK_NAMES:
        raise _UsageError(f"unknown check {args.inject_failure!r}")
    results = run_checks(args.inject_failure)
    failed = 0
    for res in results:
        if res.passed:
            print(f"PASS {res.name}")
        else:
            failed += 1
            print(f"FAIL {res.name}")
            print(f"  expected: {res.expected}")
            print(f"  actual:   {res.actual}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
        handlers = {
            "orders": _cmd_orders,
            "check": _cmd_check,
            "klein": _cmd_klein,
            "scan": _cmd_scan,
            "verify": _cmd_verify,
        }
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (WpsautoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


if __name__ == "__main__":
    sys.exit(main())
