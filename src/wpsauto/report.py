"""Deterministic JSON report assembly for the command-line surface.

Reports are plain dicts serialized with sorted keys and fixed separators,
so identical (arguments, seed, budget) produce byte-identical output.
Exact rationals are rendered as strings to avoid any float round-trip.
Every family section is read from the request's `FamilyAnalysis`, so the
flags, bounds and Klein data are computed once and the Klein eigenspace
counts honour the request's monomial budget.  The Klein section reads every
number off the one Klein chain (`klein.KleinData`); a family with a Klein
ordering meets every hypothesis of `klein_max_prime`, so none is caught.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from . import __version__
from .klein import eigenspace_filter, klein_eigenspace_check, klein_max_prime, klein_quasismooth
from .orders import BoundReport, FamilyAnalysis, OrderVerdict

__all__ = [
    "bounds_section",
    "klein_section",
    "verdict_json",
    "base_report",
    "dumps",
]


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _exact(value: "int | Fraction") -> "int | str":
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def _bound_json(report: Optional[BoundReport]) -> Optional[dict[str, Any]]:
    if report is None:
        return None
    return {
        "bound": _exact(report.bound),
        "kind": report.kind,
        "multiplicities": {str(w): nu for w, nu in report.multiplicities},
        "max_weight": report.max_weight,
    }


def bounds_section(an: FamilyAnalysis) -> dict[str, Any]:
    divides, coprime = an.bounds
    return {"divides_d": _bound_json(divides), "coprime": _bound_json(coprime)}


def klein_section(an: FamilyAnalysis) -> dict[str, Any]:
    data = an.klein
    if data is None:
        return {"exists": False}
    out: dict[str, Any] = {
        "exists": True,
        "ordering": list(data.ordering),
        "exponents": list(data.exponents),
        "cycle_count": data.cycle_count,
        "R": data.R,
        "quasi_smooth": klein_quasismooth(an),
        "max_prime": None,
        "eigenspace": None,
    }
    result = klein_max_prime(an)  # a Klein ordering makes every weight prime to d
    out["max_prime"] = {"value": result.value, "reason": result.reason}
    if result.value is not None:
        invariant, total = eigenspace_filter(an, result.value)
        out["eigenspace"] = {
            "check": klein_eigenspace_check(an),
            "invariant_monomials": invariant,
            "total_monomials": total,
        }
    return out


def verdict_json(verdict: OrderVerdict) -> dict[str, Any]:
    chain = None
    if verdict.chain is not None:
        chain = {
            "indices": list(verdict.chain.indices),
            "exponents": list(verdict.chain.exponents),
        }
    signature = None
    if verdict.signature is not None:
        signature = [s for s in verdict.signature.sigma]
    witness = None
    if verdict.witness_system is not None:
        witness = verdict.witness_system.exponents.tolist()
    return {
        "q": verdict.q,
        "status": verdict.status,
        "provenance": verdict.provenance,
        "chain": chain,
        "signature": signature,
        "witness_monomials": witness,
        "notes": list(verdict.notes),
    }


def base_report(an: FamilyAnalysis, seed: int) -> dict[str, Any]:
    return {
        "version": __version__,
        "seed": seed,
        "weights": list(an.family.weights),
        "degree": an.family.degree,
        "flags": dict(an.flags),
    }
