"""Sound-but-incomplete property detection through constraint coverings.

A covering splits the constraint set into subsets whose union is the whole
set; each property is decided exactly on every subproblem and the verdicts
are combined (AND for substitutability, interchangeability, fixability and
irrelevance; OR for inconsistency, implication, determinacy and
dependence).  A satisfied combinator *establishes* the global property;
anything else stays *unknown* — local reasoning never refutes.

Every group, one constraint or many, is decided the same way: on the
group's solutions over the union of its scopes.  A one-constraint group's
table is its relation's rows with every value active, moved into
declaration order, so no group at group size 1 enumerates its scope
product; a larger group's table comes from the oracle's backtracking
enumerator.  ``_tables`` keeps the tables of the last few spaces, the
module's one cache: every query on one space shares them.  The simplifier
builds tables of its own and ``GroupTables.narrow`` turns them into those
of a space that narrows one variable: only the groups that hold the
variable change, each keeping the rows of its table that take an active
value there, in order.  A group verdict needs no witness, so it is read
off the queried variable's mask signature on the group's table once there
is one (see ``oracle._scan``), and is a scan by the oracle's own falsifier
before that; dependence keeps the oracle's pair scan.  Verdicts are kept
on the table they were decided on.  A variable outside that union is free
in the group's subproblem, so a query on it follows from its active values
alone, and only the groups that hold the queried variable are decided.
``local_checks`` decides a list of queries on one covering with one table
lookup, and builds the signature of each variable it asks about more than
once before it asks.

Removability is the one value property this approach cannot support:
per-constraint removability does not imply global removability, and acting
on it can turn a satisfiable instance unsatisfiable.  Removability queries
are therefore rejected outright.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import attrgetter, itemgetter
from typing import NamedTuple

from . import oracle
from .boolean import BooleanFormula
from .model import CspInstance, SearchSpace, _hash_once, _state_without_hash
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

    __hash__ = _hash_once
    __getstate__ = _state_without_hash


class LocalVerdict(NamedTuple):
    # A named tuple, not a dataclass: one is built per query, and a tuple
    # is built several times faster.
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


def _groups(
    instance: CspInstance, covering: Covering
) -> tuple[tuple[CspInstance, ...], dict[str, tuple[int, ...]]]:
    """Per covering group, the subproblem projected onto the union of its
    scopes (variables in declaration order), and per variable the indices
    of the groups whose scope holds it.  Raises unless the groups index and
    cover every constraint."""
    count = len(instance.constraints)
    seen: set[int] = set()
    for group in covering.groups:
        for i in group:
            if not 0 <= i < count:
                raise ValueError(f"covering index {i} out of range")
            seen.add(i)
    if seen != set(range(count)):
        raise ValueError("covering subsets must jointly cover every constraint")
    projected = []
    holding: dict[str, list[int]] = {}
    for g, group in enumerate(covering.groups):
        constraints = tuple(instance.constraints[i] for i in group)
        scope = {v for c in constraints for v in c.scope}
        names = tuple(sorted(scope, key=instance.var_index))
        projected.append(CspInstance(names, instance.domain, constraints))
        for v in names:
            holding.setdefault(v, []).append(g)
    return tuple(projected), {v: tuple(gs) for v, gs in holding.items()}


class GroupTables:
    """A covering's group tables for one space: per group, its solutions on
    its own scope and whether there are none; per variable, the groups that
    hold it; and whether any group has no solutions.  ``_tables`` shares
    one between the queries on a space, and nothing narrows that one."""

    __slots__ = ("tables", "empty", "holding", "some_empty")

    def __init__(
        self,
        tables: list[oracle.SolutionTable],
        holding: dict[str, tuple[int, ...]],
    ):
        self.tables = tables
        self.empty = [not tbl.rows for tbl in tables]
        self.holding = holding
        self.some_empty = any(self.empty)

    def narrow(self, x: str, active: tuple[str, ...]) -> None:
        """Become the tables of the space that narrows x to ``active`` and
        changes nothing else.  Each group that holds x keeps the rows of its
        table whose x value is still active, in order: the rows a cold build
        finds, so every verdict decided on them is the same too."""
        keep = frozenset(active).__contains__
        for g in self.holding.get(x, ()):
            tbl = self.tables[g]
            i = tbl.index[x]
            rows = tuple(compress(tbl.rows, map(keep, map(itemgetter(i), tbl.rows))))
            actives = (*tbl.actives[:i], active, *tbl.actives[i + 1 :])
            self.tables[g] = oracle.SolutionTable(tbl.order, actives, rows)
            self.empty[g] = not rows
            self.some_empty = self.some_empty or not rows

    def established(self, query: PropertyQuery, active: tuple[str, ...]) -> bool:
        """``local_check(...).established`` for a valid query whose variable
        has the active values ``active``, without the per-group verdicts:
        an AND kind needs every group that holds the variable, an OR kind
        any group at all.  An empty group makes every OR kind hold, the
        groups holding the variable included."""
        tables = self.tables
        holding = self.holding.get(query.variable, ())
        held = (_holds(tables[g], query) for g in holding)
        if query.kind in AND_KINDS:
            return all(held)
        free = _free(query.kind, active, query.values) and len(holding) < len(tables)
        return free or self.some_empty or any(held)


def _build_tables(
    instance: CspInstance, covering: Covering, space: SearchSpace
) -> GroupTables:
    """The covering's group tables for the space, built afresh."""
    groups, holding = _groups(instance, covering)
    oracle._require_cover(instance, space)
    return GroupTables([_group_table(group, space) for group in groups], holding)


@lru_cache(maxsize=4)
def _tables(
    instance: CspInstance, covering: Covering, space: SearchSpace
) -> GroupTables:
    """``_build_tables``, kept for the last few spaces: every query on one
    space shares them."""
    return _build_tables(instance, covering, space)


def _group_table(group: CspInstance, space: SearchSpace) -> oracle.SolutionTable:
    actives = tuple(map(space.values, group.variables))
    if len(group.constraints) == 1:
        rows = _relation_rows(group, actives)
    else:
        own = SearchSpace(tuple(zip(group.variables, actives)))
        rows = tuple(oracle._solution_rows(group, own))
    return oracle.SolutionTable(group.variables, actives, rows)


def _relation_rows(
    group: CspInstance, actives: tuple[tuple[str, ...], ...]
) -> tuple[tuple[str, ...], ...]:
    # A one-constraint group's solutions are its relation's rows with every
    # value active, columns moved from scope order into declaration order.
    # No witness is read off a group table, so the rows' order is free.
    relation = group.constraints[0].relation
    (positions,) = group.scope_positions
    allowed = tuple(frozenset(actives[p]) for p in positions)
    columns = sorted(range(len(positions)), key=positions.__getitem__)
    order = itemgetter(*columns) if len(columns) > 1 else tuple
    return tuple(
        order(row)
        for row in relation.rows
        if all(a in ok for a, ok in zip(row, allowed))
    )


def local_check(
    instance: CspInstance,
    space: SearchSpace,
    covering: Covering,
    query: PropertyQuery,
) -> LocalVerdict:
    """Combine exact per-subset verdicts into an established/unknown answer.

    Only the groups whose scope holds the queried variable are decided; in
    every other group that variable is free, so the verdict follows from
    its active values and the group's emptiness alone."""
    if query.kind not in _KINDS:
        _reject(query.kind)
    return _combine(instance, space, _tables(instance, covering, space), query)


def local_checks(
    instance: CspInstance,
    space: SearchSpace,
    covering: Covering,
    queries: Iterable[PropertyQuery],
) -> list[LocalVerdict]:
    """``local_check`` for each query in turn, with one lookup of the
    covering's group tables for the space.  Every kind is checked before
    the covering and the space, and each query's variable and values just
    before it is decided, as ``local_check`` does for one query."""
    queries = tuple(queries)
    for query in queries:
        if query.kind not in _KINDS:
            _reject(query.kind)
    tables = _tables(instance, covering, space)
    # The pass knows how often it asks about each variable: where it asks
    # more than once, every group table holding the variable answers from
    # its signature from the start.
    group_tables, holding = tables.tables, tables.holding
    asked = Counter(map(attrgetter("variable"), queries))
    for x, count in asked.items():
        if count > 1:
            for g in holding.get(x, ()):
                oracle._sign(group_tables[g], x)
    return [_combine(instance, space, tables, query) for query in queries]


def _reject(kind: str) -> None:
    if kind == "removable":
        raise UnsoundLocalCheckError(
            "local reasoning cannot establish removability: a value can be "
            "removable in every constraint taken alone yet required globally, "
            "and removing it may make a satisfiable instance unsatisfiable"
        )
    raise ValueError(f"unsupported property kind {kind!r}")


def _combine(
    instance: CspInstance, space: SearchSpace, groups: GroupTables, query: PropertyQuery
) -> LocalVerdict:
    tables, empty, holding = groups.tables, groups.empty, groups.holding
    kind = query.kind
    x = query.variable
    # The space covers the instance, so it knows exactly its variables: an
    # unknown one raises here, before the ``over`` variables and the values.
    active = space.values(x)
    oracle._validate(instance, space, query)
    results = [True] * len(tables) if _free(kind, active, query.values) else list(empty)
    for g in holding.get(x, ()):
        results[g] = _holds(tables[g], query)
    per_group = tuple(results)
    established = all(per_group) if kind in AND_KINDS else any(per_group)
    return LocalVerdict(query, established, per_group)


def _free(kind: str, active: tuple[str, ...], values: tuple[str, ...]) -> bool:
    """The verdict of a group whose scope leaves the queried variable free,
    unless its table is empty, which makes every OR kind hold: the AND
    kinds hold, inconsistency fails, implication holds iff a is the only
    active value, and determinacy and dependence hold iff one value is
    active."""
    if kind in AND_KINDS:
        return True
    if kind == "inconsistent":
        return False
    if kind == "implied":
        return active == values
    return len(active) == 1  # determined, dependent


def _holds(tbl: oracle.SolutionTable, query: PropertyQuery) -> bool:
    """Decide the query exactly on the solutions of a group whose scope
    holds the queried variable.  A verdict needs no witness, so once the
    variable has a signature it is read off that; before, each verdict is
    decided once per table and kept there under (kind, variable, values,
    the ``over`` variables in scope)."""
    if query.kind != "dependent":
        answers = tbl.answers.get(query.variable)
        if answers is not None:
            return answers[query.kind, query.values]
    over = query.over
    if over:
        over = tuple(v for v in over if v in tbl.index)
    key = (query.kind, query.variable, query.values, over)
    holds = tbl.verdicts.get(key)
    if holds is None:
        if query.kind == "dependent":
            holds = not oracle._dependence_pair(tbl, over, query.variable)
        else:
            holds = oracle._scan(tbl, query) is None
        tbl.verdicts[key] = holds
    return holds


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
    return pure_values(formula)[x]


def pure_values(formula: BooleanFormula) -> dict[str, bool | None]:
    """``pure_value_fixable`` for every variable of a clausal formula, in
    one pass over its clauses."""
    if not formula.is_clausal:
        raise ValueError("the pure value rule applies to clausal formulas only")
    polarity = {v: [0, 0] for v in formula.variables}
    for clause in formula.clauses:
        for lit in clause.literals:
            polarity[lit.variable][lit.positive] += 1
    return {v: pure_value(*counts) for v, counts in polarity.items()}


def pure_value(negative: int, positive: int) -> bool | None:
    """The value a variable with this many negative and positive
    occurrences is fixable to by the pure-value rule: true when it never
    occurs negatively, false when it never occurs positively, else None."""
    return True if not negative else False if not positive else None
