"""Exhaustive reference checks for the structural CSP properties.

Every check here enumerates the solutions inside the search space
exactly, by backtracking in declaration order: each constraint is tested
as soon as its last scope variable is bound, and nothing is propagated.
The answers are trustworthy (if exponential) and every faster detector in
this package is validated against them.  Checks stop at the first
counterexample; since enumeration follows declaration order, a reported
counterexample is always the lexicographically least one.
Value quantifiers ("some other value b", "every value a") range over the
variable's active values.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .model import AssignmentTuple, CspInstance, Row, SearchSpace

KINDS = (
    "fixable",
    "substitutable",
    "interchangeable",
    "removable",
    "inconsistent",
    "implied",
    "determined",
    "dependent",
    "irrelevant",
)

_VALUE_COUNTS = {
    "fixable": 1,
    "substitutable": 2,
    "interchangeable": 2,
    "removable": 1,
    "inconsistent": 1,
    "implied": 1,
    "determined": 0,
    "dependent": 0,
    "irrelevant": 0,
}


@dataclass(frozen=True)
class PropertyQuery:
    """One property question: a kind plus its variable/value arguments.

    ``variable`` is the queried variable (the target y for dependence) and
    ``over`` is the conditioning variable set, used by dependence only.
    """

    kind: str
    variable: str
    values: tuple[str, ...] = ()
    over: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown property kind {self.kind!r}")
        expected = _VALUE_COUNTS[self.kind]
        if len(self.values) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} value argument(s), got {len(self.values)}"
            )
        if self.over and self.kind != "dependent":
            raise ValueError(f"{self.kind} does not take a variable set")
        if self.kind == "dependent" and self.variable in self.over:
            raise ValueError("dependence target must not occur in the variable set")

    @classmethod
    def fixable(cls, x: str, a: str) -> "PropertyQuery":
        return cls("fixable", x, (a,))

    @classmethod
    def substitutable(cls, x: str, a: str, b: str) -> "PropertyQuery":
        return cls("substitutable", x, (a, b))

    @classmethod
    def interchangeable(cls, x: str, a: str, b: str) -> "PropertyQuery":
        return cls("interchangeable", x, (a, b))

    @classmethod
    def removable(cls, x: str, a: str) -> "PropertyQuery":
        return cls("removable", x, (a,))

    @classmethod
    def inconsistent(cls, x: str, a: str) -> "PropertyQuery":
        return cls("inconsistent", x, (a,))

    @classmethod
    def implied(cls, x: str, a: str) -> "PropertyQuery":
        return cls("implied", x, (a,))

    @classmethod
    def determined(cls, x: str) -> "PropertyQuery":
        return cls("determined", x)

    @classmethod
    def dependent(cls, over: Iterable[str], y: str) -> "PropertyQuery":
        return cls("dependent", y, (), tuple(over))

    @classmethod
    def irrelevant(cls, x: str) -> "PropertyQuery":
        return cls("irrelevant", x)

    def describe(self) -> str:
        bits = [self.kind, self.variable, *self.values]
        if self.kind == "dependent":
            bits.append("on(" + ",".join(self.over) + ")")
        return " ".join(bits)


class SolutionTable:
    """Cached exhaustive enumeration of Sol(C) within a search space."""

    __slots__ = ("order", "index", "actives", "rows", "members")

    def __init__(
        self,
        order: tuple[str, ...],
        actives: tuple[tuple[str, ...], ...],
        rows: tuple[Row, ...],
    ):
        self.order = order
        self.index = {v: i for i, v in enumerate(order)}
        self.actives = actives
        self.rows = rows
        self.members = frozenset(rows)

    def wrap(self, row: Row) -> AssignmentTuple:
        return AssignmentTuple(zip(self.order, row))


def _require_cover(instance: CspInstance, space: SearchSpace) -> None:
    if space.variables != instance.variables:
        raise ValueError("search space must cover exactly the instance variables")


def _solution_rows(instance: CspInstance, space: SearchSpace) -> Iterator[Row]:
    """Every row of the space that satisfies all constraints, in enumeration
    order (variables as declared, values in active order).

    Backtracking with an explicit stack of value iterators, one per bound
    variable.  A constraint is tested once, when the last of its scope
    variables is bound, so a failed test skips every row that extends the
    partial assignment; the rows come out exactly as a product scan that
    checked each row in full would yield them.
    """
    _require_cover(instance, space)
    domains = tuple(values for _, values in space.entries)
    if not domains:
        yield ()
        return
    # tests[k]: (projection, allowed) for each constraint whose last scope
    # variable is k; a unary projection gives a value, not a 1-tuple.
    tests: list[list[tuple[itemgetter, frozenset]]] = [[] for _ in domains]
    for c, pos in zip(instance.constraints, instance.scope_positions):
        allowed = c.relation.rows
        if len(pos) == 1:
            allowed = frozenset(row[0] for row in allowed)
        tests[max(pos)].append((itemgetter(*pos), allowed))
    last = len(domains) - 1
    row: list[str] = [""] * len(domains)
    stack = [iter(domains[0])]
    while stack:
        depth = len(stack) - 1
        checks = tests[depth]
        for value in stack[-1]:
            row[depth] = value
            for project, allowed in checks:
                if project(row) not in allowed:
                    break
            else:
                if depth == last:
                    yield tuple(row)
                else:
                    stack.append(iter(domains[depth + 1]))
                    break
        else:
            stack.pop()


@lru_cache(maxsize=512)
def solution_table(instance: CspInstance, space: SearchSpace) -> SolutionTable:
    """Enumerate all solutions inside the space once and cache the result."""
    rows = tuple(_solution_rows(instance, space))
    actives = tuple(space.values(v) for v in instance.variables)
    return SolutionTable(instance.variables, actives, rows)


def enumerate_solutions(
    instance: CspInstance, space: SearchSpace
) -> Iterator[AssignmentTuple]:
    """Stream the solutions inside the space, in enumeration order."""
    names = instance.variables
    for raw in _solution_rows(instance, space):
        yield AssignmentTuple(zip(names, raw))


def satisfiable(instance: CspInstance, space: SearchSpace) -> bool:
    """Brute-force satisfiability inside the space (early exit on success)."""
    return next(_solution_rows(instance, space), None) is not None


def _falsifying_rows(tbl: SolutionTable, query: PropertyQuery) -> Iterator[Row]:
    """The solution rows that falsify the query, lazily and in table order
    (for interchangeability, the a->b failures before the b->a ones); the
    property holds iff there are none.  A row may repeat.  Every rewritten
    row stays inside the space, so Sol(C) membership is a set lookup."""
    i = tbl.index[query.variable]
    active = tbl.actives[i]
    rows = tbl.rows
    members = tbl.members

    def solution_with(row: Row, value: str) -> bool:
        return row[:i] + (value,) + row[i + 1 :] in members

    def not_substitutable(a: str, b: str) -> Iterator[Row]:
        return (row for row in rows if row[i] == a and not solution_with(row, b))

    kind = query.kind
    if kind == "substitutable":
        return not_substitutable(*query.values)
    if kind == "interchangeable":
        a, b = query.values
        return itertools.chain(not_substitutable(a, b), not_substitutable(b, a))
    if kind == "determined":
        return (
            row for row in rows for b in active if b != row[i] and solution_with(row, b)
        )
    if kind == "irrelevant":
        return (row for row in rows for b in active if not solution_with(row, b))
    (a,) = query.values
    if kind == "fixable":
        return (row for row in rows if row[i] != a and not solution_with(row, a))
    if kind == "removable":
        others = tuple(b for b in active if b != a)
        return (
            row
            for row in rows
            if row[i] == a and not any(solution_with(row, b) for b in others)
        )
    if kind == "inconsistent":
        return (row for row in rows if row[i] == a)
    return (row for row in rows if row[i] != a)  # implied


def _dependence_pair(
    tbl: SolutionTable, over: tuple[str, ...], y: str
) -> tuple[Row, ...]:
    """The first two solution rows that agree on ``over`` but not on y."""
    iy = tbl.index[y]
    positions = tuple(tbl.index[v] for v in over)
    seen: dict[Row, Row] = {}
    for row in tbl.rows:
        key = tuple(row[p] for p in positions)
        first = seen.get(key)
        if first is None:
            seen[key] = row
        elif first[iy] != row[iy]:
            return first, row
    return ()


def _validate_variable(instance: CspInstance, variable: str) -> None:
    instance.var_index(variable)


def _validate_value(space: SearchSpace, variable: str, value: str) -> None:
    if value not in space.values(variable):
        raise ValueError(f"value {value!r} is not active for {variable!r}")


@dataclass(frozen=True)
class OracleVerdict:
    query: PropertyQuery
    holds: bool
    counterexamples: tuple[AssignmentTuple, ...] = ()


def evaluate(
    instance: CspInstance, space: SearchSpace, query: PropertyQuery
) -> OracleVerdict:
    """Decide one property query exhaustively, with counterexample evidence:
    the first falsifying solution row in enumeration order (the first
    falsifying pair, for dependence)."""
    _require_cover(instance, space)
    _validate_variable(instance, query.variable)
    for v in query.over:
        _validate_variable(instance, v)
    for value in query.values:
        _validate_value(space, query.variable, value)
    tbl = solution_table(instance, space)
    if query.kind == "dependent":
        witness = _dependence_pair(tbl, query.over, query.variable)
        return OracleVerdict(query, not witness, tuple(map(tbl.wrap, witness)))
    witness = next(_falsifying_rows(tbl, query), None)
    if witness is None:
        return OracleVerdict(query, True)
    return OracleVerdict(query, False, (tbl.wrap(witness),))


def check_fixable(
    instance: CspInstance, space: SearchSpace, x: str, a: str
) -> bool:
    return evaluate(instance, space, PropertyQuery.fixable(x, a)).holds


def check_substitutable(
    instance: CspInstance, space: SearchSpace, x: str, a: str, b: str
) -> bool:
    return evaluate(instance, space, PropertyQuery.substitutable(x, a, b)).holds


def check_interchangeable(
    instance: CspInstance, space: SearchSpace, x: str, a: str, b: str
) -> bool:
    return evaluate(instance, space, PropertyQuery.interchangeable(x, a, b)).holds


def check_removable(
    instance: CspInstance, space: SearchSpace, x: str, a: str
) -> bool:
    return evaluate(instance, space, PropertyQuery.removable(x, a)).holds


def check_inconsistent(
    instance: CspInstance, space: SearchSpace, x: str, a: str
) -> bool:
    return evaluate(instance, space, PropertyQuery.inconsistent(x, a)).holds


def check_implied(instance: CspInstance, space: SearchSpace, x: str, a: str) -> bool:
    return evaluate(instance, space, PropertyQuery.implied(x, a)).holds


def check_determined(instance: CspInstance, space: SearchSpace, x: str) -> bool:
    return evaluate(instance, space, PropertyQuery.determined(x)).holds


def check_dependent(
    instance: CspInstance, space: SearchSpace, over: Iterable[str], y: str
) -> bool:
    return evaluate(instance, space, PropertyQuery.dependent(over, y)).holds


def check_irrelevant(instance: CspInstance, space: SearchSpace, x: str) -> bool:
    return evaluate(instance, space, PropertyQuery.irrelevant(x)).holds


def all_queries(
    instance: CspInstance,
    space: SearchSpace,
    kinds: Iterable[str] = KINDS,
    dep_max: int = 2,
) -> list[PropertyQuery]:
    """Every admissible query in canonical order: kind, then variable
    declaration order, then active value order.

    Substitutability queries cover ordered pairs of distinct active values,
    interchangeability unordered pairs; dependence ranges over nonempty
    conditioning sets of up to ``dep_max`` other variables.
    """
    queries: list[PropertyQuery] = []
    names = instance.variables
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown property kind {kind!r}")
        for x in names:
            active = space.values(x)
            if kind in ("fixable", "removable", "inconsistent", "implied"):
                queries.extend(PropertyQuery(kind, x, (a,)) for a in active)
            elif kind == "substitutable":
                queries.extend(
                    PropertyQuery(kind, x, (a, b))
                    for a in active
                    for b in active
                    if a != b
                )
            elif kind == "interchangeable":
                queries.extend(
                    PropertyQuery(kind, x, (a, b))
                    for pos, a in enumerate(active)
                    for b in active[pos + 1 :]
                )
            elif kind in ("determined", "irrelevant"):
                queries.append(PropertyQuery(kind, x))
            else:
                others = tuple(v for v in names if v != x)
                for size in range(1, dep_max + 1):
                    queries.extend(
                        PropertyQuery.dependent(combo, x)
                        for combo in itertools.combinations(others, size)
                    )
    return queries

