"""Independent checks of wpsauto reports, using only this file's own arithmetic.

A report passes when it matches `docs/report_schema.json`, answers the
request it was given (family, seed, the exact list of prime powers), has an
exit code consistent with its verdicts, names an exhaustive procedure for
every refutation, and every certified verdict re-checks from its JSON alone:

* every witness monomial has weighted degree d;
* all witness monomials lie in one eigenvalue bucket sigma . e mod q;
* the witness passes the subset criterion, tried over every variable subset;
* the induced order of the signature is exactly q.

Decided verdicts are also compared with `reference.json`, recorded at the
seed commit: any change of status other than unresolved -> decided fails.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Provenances of refutations that come from an exhaustive procedure.
EXHAUSTIVE = {"divides-d-criterion", "bound-divides-d", "bound-coprime", "necessary-condition", "oracle"}
FALSIFIER_PRIMES = [101, 499, 997]


class Schema:
    """A validator for the JSON Schema keywords `docs/report_schema.json` uses.

    jsonschema 4.26 takes about 20 ms per report (Python 3.11, 2.1 GHz x86),
    longer than most requests; this walker takes about 1 ms and is checked
    against jsonschema in the self-tests.  A keyword it does
    not know is an error, so a schema change cannot be silently ignored.
    """

    KEYWORDS = {
        "$schema", "title", "$defs", "$ref", "type", "enum", "minimum", "minItems",
        "pattern", "required", "properties", "items", "oneOf",
    }
    TYPES = {
        "object": lambda v: isinstance(v, dict),
        "array": lambda v: isinstance(v, list),
        "string": lambda v: isinstance(v, str),
        "boolean": lambda v: isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "null": lambda v: v is None,
    }

    def __init__(self, schema: dict):
        self.root = schema
        self._check_keywords(schema)
        self._validate = self._compile(schema)

    @classmethod
    def load(cls) -> "Schema":
        return cls(json.loads((ROOT / "docs" / "report_schema.json").read_text()))

    def _check_keywords(self, schema: dict) -> None:
        unknown = set(schema) - self.KEYWORDS
        if unknown:
            raise ValueError(f"report schema uses unsupported keywords {sorted(unknown)}")
        subs = list(schema.get("properties", {}).values()) + list(schema.get("$defs", {}).values())
        subs += schema.get("oneOf", []) + ([schema["items"]] if "items" in schema else [])
        for sub in subs:
            self._check_keywords(sub)

    def errors(self, value) -> list[str]:
        out: list[str] = []
        self._validate(value, "$", out)
        return out

    def _compile(self, schema: dict):
        """A function (value, path, out) appending the errors of value to out."""
        if "$ref" in schema:
            return self._compile(self.root["$defs"][schema["$ref"].removeprefix("#/$defs/")])
        type_name = schema.get("type")
        type_ok = self.TYPES[type_name] if type_name else None
        enum = schema.get("enum")
        minimum = schema.get("minimum")
        min_items = schema.get("minItems", 0)
        pattern = re.compile(schema["pattern"]) if "pattern" in schema else None
        required = schema.get("required", [])
        props = [(k, self._compile(s)) for k, s in schema.get("properties", {}).items()]
        items = self._compile(schema["items"]) if "items" in schema else None
        # arrays of plain integers (witness exponents) dominate; test them in one pass
        item_schema = schema.get("items", {})
        int_items = item_schema.get("type") == "integer" and item_schema.keys() <= {"type", "minimum"}
        item_min = item_schema.get("minimum", -math.inf)
        alternatives = [self._compile(s) for s in schema.get("oneOf", [])]

        def validate(value, path: str, out: list[str]) -> None:
            if type_ok is not None and not type_ok(value):
                out.append(f"{path}: not of type {type_name}")
                return
            if enum is not None and value not in enum:
                out.append(f"{path}: {value!r} not in {enum}")
            if minimum is not None and isinstance(value, int) and value < minimum:
                out.append(f"{path}: {value} below {minimum}")
            if pattern is not None and isinstance(value, str) and not pattern.search(value):
                out.append(f"{path}: {value!r} does not match {pattern.pattern}")
            if isinstance(value, list):
                if len(value) < min_items:
                    out.append(f"{path}: fewer than {min_items} items")
                if items is not None and not (
                    int_items and all(type(x) is int and x >= item_min for x in value)
                ):
                    for i, item in enumerate(value):
                        items(item, f"{path}[{i}]", out)
            if isinstance(value, dict):
                out.extend(f"{path}: missing {key}" for key in required if key not in value)
                for key, sub in props:
                    if key in value:
                        sub(value[key], f"{path}.{key}", out)
            if alternatives:
                matches = 0
                for alt in alternatives:
                    errs: list[str] = []
                    alt(value, path, errs)
                    matches += not errs
                if matches != 1:
                    out.append(f"{path}: matches {matches} of the oneOf alternatives")

        return validate


def prime_powers_up_to(limit: int) -> list[int]:
    out = []
    for q in range(2, limit + 1):
        p = next(k for k in range(2, q + 1) if q % k == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def induced_order(sigma: Sequence[int], weights: Sequence[int], q: int) -> int:
    """Least k >= 1 with k * sigma = c * weights (mod q) for some c."""
    for k in range(1, q + 1):
        if q % k:
            continue
        target = [k * s % q for s in sigma]
        if any(all(c * w % q == t for w, t in zip(weights, target)) for c in range(q)):
            return k
    return q


def subset_criterion(monomials: Sequence[Sequence[int]], nvars: int) -> bool:
    """For every nonempty subset I of variables: some monomial lives on I, or at
    least |I| distinct j outside I have a monomial (monomial on I) * x_j."""
    # Only whether each exponent is 0, 1 or larger matters; dedupe on that.
    monomials = {tuple(min(x, 2) for x in e) for e in monomials}
    for mask in range(1, 1 << nvars):
        inside = [j for j in range(nvars) if mask >> j & 1]
        outside = [j for j in range(nvars) if not mask >> j & 1]
        if any(all(e[j] == 0 for j in outside) for e in monomials):
            continue
        escapes = {
            j
            for e in monomials
            for j in outside
            if e[j] == 1 and all(e[k] == 0 for k in outside if k != j)
        }
        if len(escapes) < len(inside):
            return False
    return True


def certificate_problem(weights: Sequence[int], degree: int, verdict: dict) -> Optional[str]:
    """Why a certified verdict does not re-check from its JSON, or None."""
    q = verdict["q"]
    sigma = verdict["signature"]
    monos = verdict["witness_monomials"]
    nv = len(weights)
    if sigma is None or len(sigma) != nv or any(s is None or not 0 <= s < q for s in sigma):
        return f"q={q}: signature {sigma} is not a complete residue vector"
    if not monos:
        return f"q={q}: empty witness"
    if len({tuple(e) for e in monos}) != len(monos):
        return f"q={q}: repeated witness monomial"
    for e in monos:
        if len(e) != nv or min(e) < 0 or sum(w * x for w, x in zip(weights, e)) != degree:
            return f"q={q}: witness monomial {e} is not of weighted degree {degree}"
    if len({sum(s * x for s, x in zip(sigma, e)) % q for e in monos}) != 1:
        return f"q={q}: witness monomials span several eigenvalue buckets"
    if not subset_criterion(monos, nv):
        return f"q={q}: witness fails the subset criterion"
    order = induced_order(sigma, weights, q)
    if order != q:
        return f"q={q}: signature induces order {order}"
    return None


def parse_request(argv: Sequence[str]) -> dict:
    """The fields of a generated request that its report must echo."""
    opts = {"seed": 0}
    args = list(argv)
    while args:
        token = args.pop(0)
        if token in ("orders", "check"):
            opts["command"] = token
        elif token.startswith("--"):
            opts[token[2:].replace("-", "_")] = args.pop(0)
    opts["weights"] = [int(w) for w in opts["weights"].split(",")]
    for key in ("seed", "degree", "max_order", "order", "falsifier_budget"):
        if key in opts:
            opts[key] = int(opts[key])
    return opts


def reference_key(request: dict) -> str:
    bound = f"q<={request['max_order']}" if request["command"] == "orders" else f"q={request['order']}"
    return f"{','.join(map(str, request['weights']))} d={request['degree']} {bound}"


def statuses(report: dict) -> str:
    return "".join(v["status"][0] for v in report["verdicts"])


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["statuses"]


def reference_problem(key: str, got: str, reference: dict[str, str]) -> Optional[str]:
    """A status change other than unresolved -> decided, against the reference."""
    want = reference.get(key)
    if want is None:
        return None
    if len(want) != len(got) or any(w != g and w != "u" for w, g in zip(want, got)):
        return f"{key}: verdict statuses {got} differ from reference {want}"
    return None


def report_problems(argv: Sequence[str], rc: int, out: str, schema: Schema, reference: dict) -> list[str]:
    """Everything wrong with one returned report (exit code 0 or 2)."""
    request = parse_request(argv)
    lines = out.splitlines()
    if len(lines) != 1:
        return [f"expected one report line, got {len(lines)}"]
    report = json.loads(lines[0])
    problems = [f"schema: {err}" for err in schema.errors(report)]
    if problems:
        return problems
    if report["weights"] != request["weights"] or report["degree"] != request["degree"]:
        problems.append("report names another family")
    if report["seed"] != request["seed"]:
        problems.append(f"report echoes seed {report['seed']}, request had {request['seed']}")
    want_q = (
        prime_powers_up_to(request["max_order"]) if request["command"] == "orders" else [request["order"]]
    )
    if [v["q"] for v in report["verdicts"]] != want_q:
        problems.append(f"verdict orders {[v['q'] for v in report['verdicts']]} != {want_q}")
    found = {v["status"] for v in report["verdicts"]}
    want_rc = 1 if "hypothesis-violated" in found else 2 if "unresolved" in found else 0
    if rc != want_rc:
        problems.append(f"exit code {rc} for statuses {sorted(found)}")
    for verdict in report["verdicts"]:
        if verdict["status"] == "certified":
            problem = certificate_problem(request["weights"], request["degree"], verdict)
            if problem:
                problems.append(problem)
        elif verdict["status"] == "refuted" and verdict["provenance"] not in EXHAUSTIVE:
            problems.append(f"q={verdict['q']}: refutation by {verdict['provenance']}")
    if request["command"] == "check":
        certified = report["verdicts"][0]["status"] == "certified"
        falsifier = report.get("falsifier")
        if certified != (falsifier is not None):
            problems.append("falsifier section present iff certified fails")
        elif certified and (
            [f["prime"] for f in falsifier] != FALSIFIER_PRIMES
            or any(f["tested"] > request["falsifier_budget"] for f in falsifier)
        ):
            problems.append(f"falsifier section {falsifier} does not match the request")
    problem = reference_problem(reference_key(request), statuses(report), reference)
    if problem:
        problems.append(problem)
    return problems
