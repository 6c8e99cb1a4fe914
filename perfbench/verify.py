"""Independent checks on the program's outputs, and input properties.

Nothing here imports the program: the checks read the text the command
line printed and compare it with what the generator knows (the factored
number, the planted assignment), so they hold on any seed.  Output digests
mask ``elapsed_ms``, the one field that changes from run to run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import statistics
from collections import Counter
from math import comb

from gen import Item

_ELAPSED = re.compile(r'"elapsed_ms": [^,\n}]+')


def digest(output: str) -> str:
    masked = _ELAPSED.sub('"elapsed_ms": 0', output)
    return hashlib.sha256(masked.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_output(item: Item, code: int, output: str) -> tuple[str | None, int]:
    """Return (problem or None, findings count) for one command's output."""
    if code != 0:
        return f"exit code {code}", 0
    try:
        if item.check == "check":
            ok = output.strip() == "all checks passed"
            return (None if ok else "check did not print 'all checks passed'"), 0
        if item.check == "factor-analyze":
            findings = json.loads(output)["findings"]
            return _factor_analyze(item.meta["z"], findings), len(findings)
        if item.check == "factor-simplify":
            return _factor_simplify(item.meta["z"], item.meta["active"], output), 0
        if item.check == "planted-analyze":
            findings = json.loads(output)["findings"]
            return _planted_analyze(item.meta["planted"], findings), len(findings)
        if item.check == "planted-simplify":
            lines = output.splitlines()
            if any(line.startswith("UNSAT proved") for line in lines):
                return "simplify proved a planted formula unsatisfiable", 0
            ok = bool(lines) and lines[-1].startswith("fixpoint after")
            return (None if ok else "simplify did not report a fixpoint"), 0
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}", 0
    raise ValueError(f"unknown check {item.check!r}")


def _is_prime(z: int) -> bool:
    return z > 1 and all(z % d for d in range(2, int(z**0.5) + 1))


def _decode(z: int, values: dict[str, str]) -> str | None:
    n = z.bit_length()
    try:
        x = sum(int(values[f"x{i}"]) << (i - 1) for i in range(1, n + 1))
        y = sum(int(values[f"y{i}"]) << (i - 1) for i in range(1, n + 1))
    except KeyError as exc:
        return f"no single value for {exc.args[0]}"
    if x * y != z or not 1 < x < y:
        return f"decoded {x} * {y}, expected the factors of {z}"
    return None


def _factor_analyze(z: int, findings: list[dict]) -> str | None:
    if _is_prime(z):
        inconsistent = [f for f in findings if f["kind"] == "inconsistent"]
        if not inconsistent or any(f["verdict"] != "TRUE" for f in inconsistent):
            return f"prime {z}: some value is not inconsistent, so a solution exists"
        return None
    implied: dict[str, list[str]] = {}
    for f in findings:
        if f["kind"] == "implied" and f["verdict"] == "TRUE":
            implied.setdefault(f["variable"], []).extend(f["values"])
    return _decode(z, {v: vals[0] for v, vals in implied.items() if len(vals) == 1})


def _factor_simplify(z: int, active: dict[str, tuple[str, ...]], output: str) -> str | None:
    lines = output.splitlines()
    if _is_prime(z):
        if lines and lines[-1].startswith("UNSAT proved"):
            return None
        return f"prime {z}: simplify did not prove unsatisfiability"
    if not lines or not lines[-1].startswith("fixpoint after"):
        return "simplify did not report a fixpoint"
    space = {v: list(vals) for v, vals in active.items()}
    for line in lines[:-1]:
        action, binding = line.split()[:2]
        if action == "FIX":
            variable, value = binding.split("=")
            space[variable] = [value]
        elif action == "REMOVE":
            variable, value = binding.split("!=")
            space[variable].remove(value)
        else:
            return f"unexpected step line {line!r}"
    return _decode(z, {v: vals[0] for v, vals in space.items() if len(vals) == 1})


def _planted_analyze(planted: list[bool], findings: list[dict]) -> str | None:
    for f in findings:
        if f["verdict"] != "TRUE" or f["kind"] not in ("inconsistent", "implied"):
            continue
        truth = "true" if planted[int(f["variable"][1:]) - 1] else "false"
        value = f["values"][0]
        if f["kind"] == "inconsistent" and value == truth:
            return f"planted value {f['variable']}={value} reported inconsistent"
        if f["kind"] == "implied" and value != truth:
            return f"implied {f['variable']}={value} differs from the planted value"
    return None


# ---------------------------------------------------------------------------
# Input properties
# ---------------------------------------------------------------------------


def _query_count(actives: list[int], with_dependent: bool = True, dep_max: int = 2) -> int:
    """Queries as the program's ``all_queries`` counts them: per variable
    with k active values, 4k value queries, k(k-1) substitutability,
    k(k-1)/2 interchangeability, determinacy, irrelevance and, unless left
    out, dependence on every set of up to ``dep_max`` other variables."""
    n = len(actives)
    dependent = sum(comb(n - 1, s) for s in range(1, dep_max + 1)) if with_dependent else 0
    return sum(4 * k + k * (k - 1) + k * (k - 1) // 2 + 2 + dependent for k in actives)


def _extensional_properties(variables, domain, constraints):
    actives = [domain] * len(variables)
    index = {v: i for i, v in enumerate(variables)}
    checks = [([index[v] for v in scope], set(map(tuple, rows))) for _, scope, rows in constraints]
    sat = any(
        all(tuple(row[p] for p in pos) in rows for pos, rows in checks)
        for row in itertools.product(*actives)
    )
    space = 1
    for values in actives:
        space *= len(values)
    relation = max((len(rows) for _, _, rows in constraints), default=0)
    return sat, space, relation, _query_count([len(a) for a in actives])


def _boolean_properties(n, clauses, equations, planted, with_dependent):
    if planted is not None:
        sat = True
    else:
        sat = any(
            all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
            and all(sum(bits[v - 1] for v in members) % 2 == parity for members, parity in equations)
            for bits in itertools.product((False, True), repeat=n)
        )
    # Extensional rows per constraint: 2^w - 1 for a clause, 2^(w-1) for an equation.
    rows = [2 ** len(c) - 1 for c in clauses] + [2 ** (len(m) - 1) for m, _ in equations]
    return sat, 2**n, max(rows, default=0), _query_count([2] * n, with_dependent)


def input_properties(workload: str, items: list[Item]) -> dict:
    """Satisfiable share, space sizes, largest relation and query counts.

    The query count is what ``analyze --all`` would ask: all nine kinds,
    except that formulas outside ``check`` go through tractable analysis,
    which leaves out dependence.  For ``simplify`` it measures size only."""
    sat, spaces, relations, queries = [], [], [], []
    for item in items:
        meta = item.meta
        if "constraints" in meta:
            s, space, rel, q = _extensional_properties(
                meta["variables"], meta["domain"], meta["constraints"]
            )
        elif "z" in meta:
            s, space, rel, q = not _is_prime(meta["z"]), *_factoring_sizes(item)
        else:
            s, space, rel, q = _boolean_properties(
                meta["n"],
                meta["clauses"],
                meta["equations"],
                meta.get("planted"),
                item.command == "check",
            )
        sat.append(s)
        spaces.append(space)
        relations.append(rel)
        queries.append(q)

    def span(values):
        return [min(values), statistics.median(values), max(values)]

    return {
        "workload": workload,
        "inputs": len(items),
        "commands": dict(sorted(Counter(item.command for item in items).items())),
        "satisfiable_share": round(sum(sat) / len(sat), 4),
        "space_size_min_median_max": span(spaces),
        "relation_rows_min_median_max": span(relations),
        "queries_min_median_max": span(queries),
    }


def _factoring_sizes(item: Item) -> tuple[int, int, int]:
    active = item.meta["active"]
    space = 1
    for values in active.values():
        space *= len(values)
    rows = max(
        line.split(":", 1)[1].count("(")
        for line in item.text.splitlines()
        if line.startswith("con ")
    )
    return space, rows, _query_count([len(v) for v in active.values()])
