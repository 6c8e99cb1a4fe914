"""Sound-but-incomplete property detection through constraint coverings.

A covering splits the constraint set into subsets whose union is the whole
set; each property is decided exactly on every subproblem and the verdicts
are combined (AND for substitutability, interchangeability, fixability and
irrelevance; OR for inconsistency, implication, determinacy and
dependence).  A satisfied combinator *establishes* the global property;
anything else stays *unknown* — local reasoning never refutes.

Removability is the one value property this approach cannot support:
per-constraint removability does not imply global removability, and acting
on it can turn a satisfiable instance unsatisfiable.  Removability queries
are therefore rejected outright.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from . import oracle
from .boolean import BooleanFormula, Literal
from .model import Constraint, CspInstance, Row, SearchSpace
from .oracle import PropertyQuery

AND_KINDS = frozenset({"substitutable", "interchangeable", "fixable", "irrelevant"})
OR_KINDS = frozenset({"inconsistent", "implied", "determined", "dependent"})
_KINDS = AND_KINDS | OR_KINDS


class UnsoundLocalCheckError(ValueError):
    """Raised for removability: local reasoning is not sound for it."""


@dataclass(frozen=True)
class Covering:
    """Constraint subsets, as index groups into the instance constraint list."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.groups, tuple):
            object.__setattr__(self, "groups", tuple(map(tuple, self.groups)))
        for group in self.groups:
            if not group:
                raise ValueError("covering subsets must be nonempty")


@dataclass(frozen=True)
class LocalVerdict:
    query: PropertyQuery
    established: bool
    per_group: tuple[bool, ...]

    @property
    def verdict(self) -> str:
        return "established" if self.established else "unknown"


def default_covering(instance: CspInstance, group_size: int = 1) -> Covering:
    """Partition the constraints into consecutive groups of at most
    ``group_size``; size 1 is per-constraint checking, size |C| is global."""
    if group_size < 1:
        raise ValueError("group size must be at least 1")
    count = len(instance.constraints)
    groups = tuple(
        tuple(range(start, min(start + group_size, count)))
        for start in range(0, count, group_size)
    )
    return Covering(groups)


def subproblem(instance: CspInstance, indices: tuple[int, ...]) -> CspInstance:
    """The instance restricted to a constraint subset; variables all stay."""
    return _subinstance(instance, tuple(indices))


@lru_cache(maxsize=1024)
def _subinstance(instance: CspInstance, indices: tuple[int, ...]) -> CspInstance:
    return dataclasses.replace(
        instance, constraints=tuple(instance.constraints[i] for i in indices)
    )


@lru_cache(maxsize=8)
def _validate_covering(instance: CspInstance, covering: Covering) -> None:
    """Raise unless the covering's groups index and cover every constraint;
    only a passing check is cached, so a bad covering raises every time."""
    count = len(instance.constraints)
    seen: set[int] = set()
    for group in covering.groups:
        for i in group:
            if not 0 <= i < count:
                raise ValueError(f"covering index {i} out of range")
            seen.add(i)
    if seen != set(range(count)):
        raise ValueError("covering subsets must jointly cover every constraint")


def local_check(
    instance: CspInstance,
    space: SearchSpace,
    covering: Covering,
    query: PropertyQuery,
) -> LocalVerdict:
    """Combine exact per-subset verdicts into an established/unknown answer."""
    if query.kind == "removable":
        raise UnsoundLocalCheckError(
            "local reasoning cannot establish removability: a value can be "
            "removable in every constraint taken alone yet required globally, "
            "and removing it may make a satisfiable instance unsatisfiable"
        )
    if query.kind not in _KINDS:
        raise ValueError(f"unsupported property kind {query.kind!r}")
    _validate_covering(instance, covering)
    instance.var_index(query.variable)
    for value in query.values:
        if value not in space.values(query.variable):
            raise ValueError(f"value {value!r} is not active for {query.variable!r}")
    rows = _active_rows(instance, space)
    results = []
    for group in covering.groups:
        if len(group) == 1:
            (i,) = group
            ok = _single_constraint_check(instance.constraints[i], rows[i], space, query)
        else:
            sub = _subinstance(instance, tuple(group))
            ok = oracle.evaluate(sub, space, query).holds
        results.append(ok)
    established = all(results) if query.kind in AND_KINDS else any(results)
    return LocalVerdict(query, established, tuple(results))


@lru_cache(maxsize=4)
def _active_rows(
    instance: CspInstance, space: SearchSpace
) -> tuple[tuple[Row, ...], ...]:
    """Per constraint, the relation rows that survive the active sets; every
    query on one space shares them, so only a few spaces are kept."""
    active = {v: frozenset(values) for v, values in space.entries}
    return tuple(
        tuple(
            row
            for row in constraint.relation.rows
            if all(value in active[v] for v, value in zip(constraint.scope, row))
        )
        for constraint in instance.constraints
    )


def _single_constraint_check(
    constraint: Constraint,
    active: tuple[Row, ...],
    space: SearchSpace,
    query: PropertyQuery,
) -> bool:
    # Exact evaluation on the one-constraint subproblem, straight off the
    # relation rows that survive the active sets (``active``).
    kind = query.kind
    x = query.variable
    scope = constraint.scope
    rows = constraint.relation.rows

    if kind == "substitutable":
        a, b = query.values
        return _substitutable(scope, rows, active, x, a, b)
    if kind == "interchangeable":
        a, b = query.values
        return _substitutable(scope, rows, active, x, a, b) and _substitutable(
            scope, rows, active, x, b, a
        )
    if kind == "fixable":
        b = query.values[0]
        if x not in scope:
            return True
        i = scope.index(x)
        return all(
            row[:i] + (b,) + row[i + 1 :] in rows
            for row in active
        )
    if kind == "irrelevant":
        if x not in scope:
            return True
        i = scope.index(x)
        return all(
            row[:i] + (a,) + row[i + 1 :] in rows
            for row in active
            for a in space.values(x)
        )
    if kind == "inconsistent":
        a = query.values[0]
        if x not in scope:
            return not active
        i = scope.index(x)
        return all(row[i] != a for row in active)
    if kind == "implied":
        a = query.values[0]
        if not active:
            return True
        if x not in scope:
            return space.values(x) == (a,)
        i = scope.index(x)
        return all(row[i] == a for row in active)
    if kind == "determined":
        if not active:
            return True
        if x not in scope:
            return len(space.values(x)) == 1
        i = scope.index(x)
        seen: dict[tuple[str, ...], str] = {}
        for row in active:
            key = row[:i] + row[i + 1 :]
            if seen.setdefault(key, row[i]) != row[i]:
                return False
        return True
    # dependent
    y = x
    if not active:
        return True
    if y not in scope:
        return len(space.values(y)) == 1
    iy = scope.index(y)
    positions = tuple(scope.index(v) for v in query.over if v in scope)
    groups: dict[tuple[str, ...], str] = {}
    for row in active:
        key = tuple(row[p] for p in positions)
        if groups.setdefault(key, row[iy]) != row[iy]:
            return False
    return True


def _substitutable(
    scope: tuple[str, ...],
    rows: frozenset[Row],
    active: tuple[Row, ...],
    x: str,
    a: str,
    b: str,
) -> bool:
    """Every active row with x = a stays in the relation with x = b."""
    if x not in scope:
        return True
    i = scope.index(x)
    return all(row[:i] + (b,) + row[i + 1 :] in rows for row in active if row[i] == a)


def pure_value_fixable(formula: BooleanFormula, x: str) -> bool | None:
    """The pure-occurrence rule: a variable whose negation never occurs is
    fixable to true, one that never occurs positively is fixable to false.

    Returns the fixable value, or None when both polarities occur.  A
    variable absent from every clause is fixable either way and reports
    true.  Equivalent to the per-clause local fixability check on the
    clausal encoding.
    """
    if not formula.is_clausal:
        raise ValueError("the pure value rule applies to clausal formulas only")
    if x not in formula.variables:
        raise ValueError(f"unknown variable {x!r}")
    positive = Literal(x, True)
    negative = Literal(x, False)
    has_positive = any(positive in c.literals for c in formula.clauses)
    has_negative = any(negative in c.literals for c in formula.clauses)
    if not has_negative:
        return True
    if not has_positive:
        return False
    return None
