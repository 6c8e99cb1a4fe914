"""Sound-but-incomplete property detection through constraint coverings.

A covering splits the constraint set into subsets whose union is the whole
set; each property is decided exactly on every subproblem and the verdicts
are combined (AND for substitutability, interchangeability, fixability and
irrelevance; OR for inconsistency, implication, determinacy and
dependence).  A satisfied combinator *establishes* the global property;
anything else stays *unknown* — local reasoning never refutes.

Every group, one constraint or many, is decided the same way: on the
group's solutions over the union of its scopes.  A one-constraint group's
table is its constraint's rows with every value active, moved into
declaration order, so no group at group size 1 enumerates its scope
product; a larger group's table comes from the oracle's backtracking
enumerator.  A caller builds a covering's ``GroupTables`` for a space once
with ``group_tables`` and passes it to every query on that space.  The
simplifier turns its tables into those of a space that narrows one
variable with ``GroupTables.narrow``: only the groups that hold the
variable change, each keeping the rows of its table that take an active
value there, in order.  A variable outside that union is free in the
group's subproblem, so a query on it follows from its active values
alone, and only the groups that hold the queried variable are decided.
``local_check`` answers one query with its per-group verdicts, each read
off the variable's answer row on the group's table
(``oracle.answer_row(tbl, x, overs)``), dependence on the conditioning
variables in the group's scope.  ``GroupTables.row`` answers every
question on one variable at once, from its signatures on the groups that
hold it, and scans each group for dependence itself: ``check`` asks only
for these rows, so routing the scans through ``oracle.answer_row`` would
build a group answer row that nothing reads for every group and variable
whose row is not implied (692 in a seed-1 pass of perfbench's corpus).

Removability is the one value property this approach cannot support:
per-constraint removability does not imply global removability, and acting
on it can turn a satisfiable instance unsatisfiable.  Removability queries
are therefore rejected outright.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple

from . import oracle
from .model import CspInstance, SearchSpace
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


class LocalVerdict(NamedTuple):
    # A named tuple, not a dataclass: one is built per query, and a tuple
    # is built several times faster.
    established: bool
    per_group: tuple[bool, ...]


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
        # The constraints of a valid instance, on the variables they name.
        projected.append(CspInstance._checked(names, instance.domain, constraints))
        for v in names:
            holding.setdefault(v, []).append(g)
    return tuple(projected), {v: tuple(gs) for v, gs in holding.items()}


class GroupTables:
    """A covering's group tables for one space: the space; per group, its
    solutions on its own scope; per variable, the groups that hold it and
    its established row once asked for (see ``row``); and whether any group
    has no solutions."""

    __slots__ = ("space", "tables", "holding", "some_empty", "rows")

    def __init__(
        self,
        space: SearchSpace,
        tables: list[oracle.SolutionTable],
        holding: dict[str, tuple[int, ...]],
    ):
        self.space = space
        self.tables = tables
        self.holding = holding
        self.some_empty = not all(tbl.rows for tbl in tables)
        self.rows: dict[str, dict[tuple, bool]] = {}

    def narrow(self, space: SearchSpace, x: str) -> None:
        """Become the tables of ``space``, which narrows x and changes
        nothing else.  Each group that holds x keeps the rows of its table
        whose x value is still active, in order: the rows a cold build
        finds, so every verdict decided on them is the same too.  Every row
        (see ``row``) that reads a changed table or x's values is dropped."""
        self.space = space
        active = space.values(x)
        keep = frozenset(active).__contains__
        self.rows.pop(x, None)
        for g in self.holding.get(x, ()):
            tbl = self.tables[g]
            i = tbl.index[x]
            rows = tuple(compress(tbl.rows, map(keep, map(itemgetter(i), tbl.rows))))
            actives = (*tbl.actives[:i], active, *tbl.actives[i + 1 :])
            self.tables[g] = oracle.SolutionTable(tbl.order, actives, rows)
            for v in tbl.order:
                self.rows.pop(v, None)
            if not rows and not self.some_empty:
                self.some_empty = True
                self.rows.clear()

    def row(self, x: str, overs: Sequence[tuple[str, ...]] = ()) -> dict[tuple, bool]:
        """``local_check(...).established`` for every question on x but
        removability, keyed as the oracle's answer rows: (kind, values),
        and ("dependent", over) for each set in ``overs``.  x's signatures
        on the groups that hold it combine by AND or OR, as ``local_check``
        combines their verdicts; the row is kept (see ``narrow``)."""
        tables = self.tables
        holding = self.holding.get(x, ())
        active = self.space.values(x)
        answers = self.rows.get(x)
        if answers is None:
            # x free in some group, with one active value, is determined
            # there (see ``local_check``).
            given = len(holding) < len(tables) and len(active) == 1
            signatures = [oracle._signature(tables[g], x) for g in holding]
            answers = oracle._answers(active, signatures, self.some_empty, given)
            self.rows[x] = answers
        if not overs:
            return answers
        # x depends on a set iff the set holds a part of some group's scope
        # that x depends on there, each part decided once.  An implied value
        # (x constant on some group's rows, a group empty, or x given) makes
        # the empty set such a part.
        parts = [frozenset()] if any(answers["implied", (a,)] for a in active) else [
            part
            for g in holding
            for part in set(map(frozenset(tables[g].order).intersection, overs))
            if part and not oracle._dependence_pair(tables[g], tuple(part), x)
        ]
        for over in overs:
            answers["dependent", over] = any(map(frozenset.issubset, parts, repeat(over)))
        return answers


def group_tables(
    instance: CspInstance, covering: Covering, space: SearchSpace
) -> GroupTables:
    """The covering's group tables for the space, for every query on it."""
    groups, holding = _groups(instance, covering)
    oracle._require_cover(instance, space)
    return GroupTables(space, [_group_table(group, space) for group in groups], holding)


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
    # A one-constraint group's solutions are its constraint's rows with every
    # value active, columns moved from scope order into declaration order.
    # No witness is read off a group table, so the rows' order is free.
    # Row values lie in the domain, so only a column whose active
    # values leave part of the domain out filters the rows.
    rows = group.constraints[0].rows
    (positions,) = group.scope_positions
    for k, p in enumerate(positions):
        allowed = frozenset(actives[p])
        if not allowed.issuperset(group.domain):
            rows = [row for row in rows if row[k] in allowed]
    columns = sorted(range(len(positions)), key=positions.__getitem__)
    order = itemgetter(*columns) if len(columns) > 1 else tuple
    return tuple(map(order, rows))


def local_check(groups: GroupTables, query: PropertyQuery) -> LocalVerdict:
    """Combine exact per-subset verdicts into an established/unknown answer.

    Only the groups whose scope holds the queried variable are decided, each
    off its answer row on the group's table, dependence on the variables of
    ``over`` in the group's scope; in every other group that variable is
    free, so the verdict follows from its active values and the group's
    emptiness alone."""
    kind, x = query.kind, query.variable
    if kind == "removable":
        raise UnsoundLocalCheckError(
            "local reasoning cannot establish removability: a value can be "
            "removable in every constraint taken alone yet required globally, "
            "and removing it may make a satisfiable instance unsatisfiable"
        )
    if kind not in _KINDS:
        raise ValueError(f"unsupported property kind {kind!r}")
    # The space covers the instance, so it knows exactly its variables.
    active = oracle._validate(groups.space, query)
    # In a group that leaves x free, the AND kinds hold, inconsistency
    # fails, and the other OR kinds hold iff x has one active value (or the
    # group is empty, which makes every OR kind hold).
    free = kind in AND_KINDS or (kind != "inconsistent" and len(active) == 1)
    results = [free or not tbl.rows for tbl in groups.tables]
    for g in groups.holding.get(x, ()):
        tbl = groups.tables[g]
        over = tuple(filter(tbl.index.__contains__, query.over))
        row = oracle.answer_row(tbl, x, (over,) if kind == "dependent" else ())
        results[g] = row[kind, query.values or over]
    per_group = tuple(results)
    established = all(per_group) if kind in AND_KINDS else any(per_group)
    return LocalVerdict(established, per_group)


def pure_value(negative: int, positive: int) -> bool | None:
    """The value a variable with this many negative and positive
    occurrences is fixable to by the pure-value rule: true when it never
    occurs negatively, false when it never occurs positively, else None."""
    return True if not negative else False if not positive else None
