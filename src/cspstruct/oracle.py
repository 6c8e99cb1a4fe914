"""Exhaustive reference checks for the structural CSP properties.

Every check here enumerates the solutions inside the search space
exactly, by backtracking in declaration order: each constraint is tested
as soon as its last scope variable is bound, and nothing is propagated.
The answers are trustworthy (if exponential) and every faster detector in
this package is validated against them.  Checks stop at the first
counterexample; since enumeration follows declaration order, a reported
counterexample is always the lexicographically least one.
A caller builds one ``SolutionTable`` per (instance, space) with
``solution_table`` and passes it to every query on that space.
Every property but dependence compares the cofactors of one variable x
(the solutions with x fixed to a, to b, ...), so it is a relation on x's
mask signature: the set of distinct masks of x's values that the solution
rows take once x is left out.  x's answer row, ``answer_row(tbl, x,
overs)`` with the arguments of ``GroupTables.row``, is read off the
signature in one pass and kept on the table.  It maps (kind, values) to
every value and variable answer on x, and ("dependent", over) to
dependence on each set of ``overs``, decided once: on every set at once
when x has an implied value, else by one pair scan per set.
``evaluate`` reads a verdict off the row, validates a query only when it
misses the row, and scans the rows only for a false verdict's
counterexample; ``_falsifying_rows`` alone answers a caller that asks a
few questions of a table it narrows at every step (the test-mode
simplifier).
Value quantifiers ("some other value b", "every value a") range over the
variable's active values.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .model import CspInstance, Row, SearchSpace

# Each property kind, in canonical order, with the number of values it takes.
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

KINDS = tuple(_VALUE_COUNTS)


class PropertyQuery(namedtuple("PropertyQuery", ("kind", "variable", "values", "over"))):
    """One property question: a kind plus its variable/value arguments.

    ``variable`` is the queried variable (the target y for dependence) and
    ``over`` is the conditioning variable set, used by dependence only.
    A query is the tuple (kind, variable, values, over), checked once when
    built; ``values`` and ``over`` are stored as tuples.
    """

    __slots__ = ()

    def __new__(cls, kind: str, variable: str, values=(), over=()) -> "PropertyQuery":
        if kind not in KINDS:
            raise ValueError(f"unknown property kind {kind!r}")
        for name, arg in (("values", values), ("over", over)):
            if isinstance(arg, str):
                raise ValueError(f"{name} must be a sequence of names, not the string {arg!r}")
        values, over = tuple(values), tuple(over)
        expected = _VALUE_COUNTS[kind]
        if len(values) != expected:
            raise ValueError(
                f"{kind} takes {expected} value argument(s), got {len(values)}"
            )
        if over and kind != "dependent":
            raise ValueError(f"{kind} does not take a variable set")
        if kind == "dependent" and variable in over:
            raise ValueError("dependence target must not occur in the variable set")
        return tuple.__new__(cls, (kind, variable, values, over))

    def describe(self) -> str:
        bits = [self.kind, self.variable, *self.values]
        if self.kind == "dependent":
            bits.append("on(" + ",".join(self.over) + ")")
        return " ".join(bits)


class SolutionTable:
    """The exhaustive enumeration of Sol(C) within a search space.
    ``answers`` maps a variable to its answer row once built (see
    ``answer_row``).  ``classes`` is the relationship catalog's: per set of
    variables, the number of distinct projections of the rows on them.
    ``members``, the rows as a set, is built on first use, by
    ``_falsifying_rows``."""

    __slots__ = ("order", "index", "actives", "rows", "members", "answers", "classes")

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
        self.members: frozenset[Row] | None = None
        self.answers: dict[str, dict[tuple, bool]] = {}
        self.classes: dict[frozenset[str], int] = {}

    def values(self, variable: str) -> tuple[str, ...]:
        """The active values of a variable, as ``SearchSpace.values``."""
        try:
            return self.actives[self.index[variable]]
        except KeyError:
            raise ValueError(f"unknown variable {variable!r}") from None


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
        allowed = c.rows
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


def solution_table(instance: CspInstance, space: SearchSpace) -> SolutionTable:
    """Enumerate all solutions inside the space, for every query on it."""
    rows = tuple(_solution_rows(instance, space))
    actives = tuple(space.values(v) for v in instance.variables)
    return SolutionTable(instance.variables, actives, rows)


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
    if tbl.members is None:
        tbl.members = frozenset(rows)
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


def answer_row(
    tbl: SolutionTable, x: str, overs: Sequence[tuple[str, ...]] = ()
) -> dict[tuple, bool]:
    """x's answer row: its signature answers, built once and kept on the
    table, and ("dependent", over) for each set of ``overs``, decided once:
    true on every set when x has an implied value (the table has fewer than
    two rows, or x takes one value over them), else by one pair scan."""
    active = tbl.actives[tbl.index[x]]
    row = tbl.answers.get(x)
    if row is None:
        row = tbl.answers[x] = signature_row(active, _signature(tbl, x))
    todo = [over for over in overs if ("dependent", over) not in row]
    if todo:
        implied = any(row["implied", (a,)] for a in active)
        for over in todo:
            row["dependent", over] = implied or not _dependence_pair(tbl, over, x)
    return row


def signature_row(active: tuple[str, ...], masks: set[int]) -> dict[tuple, bool]:
    """Every answer on x but dependence, off x's one signature: removable(a)
    holds when no mask is a alone, and every other kind as ``_answers``
    reads it."""
    row = _answers(active, (masks,))
    for k, a in enumerate(active):
        row["removable", (a,)] = 1 << k not in masks
    return row


def _signature(tbl: SolutionTable, x: str) -> set[int]:
    """x's mask signature, from one pass over the rows.  Grouping the rows
    by the rest of the row (x left out) gives each group the mask of x's
    values that extend it (bit k for the k-th active value), and only the
    set of distinct masks is kept: at most 2**|active(x)| small ints."""
    i = tbl.index[x]
    bits = {a: 1 << k for k, a in enumerate(tbl.actives[i])}
    project = _projection((*range(i), *range(i + 1, len(tbl.order))))
    by_rest: dict = {}
    get = by_rest.get
    for row in tbl.rows:
        key = project(row)
        by_rest[key] = get(key, 0) | bits[row[i]]
    return set(by_rest.values())


def _projection(positions: tuple[int, ...]):
    """A function from a row to a key that two rows share iff they agree
    at ``positions``."""
    return itemgetter(*positions) if positions else (lambda row: ())


def _answers(
    active: tuple[str, ...],
    signatures: Iterable[set[int]],
    empty: bool = False,
    given: bool = False,
) -> dict[tuple, bool]:
    """Every answer on x but removability, keyed by (kind, values), on
    x's signatures (one per table) combined as local reasoning combines
    kinds.  On one: fixable(a): every mask holds a; inconsistent(a): no
    mask holds a; implied(a): every mask is a alone; substitutable(a, b):
    every mask holding a holds b; interchangeable: both ways; determined:
    every mask has one bit; irrelevant: every mask is full.  ``empty``
    makes every OR kind hold, ``given`` implication and determinacy."""
    n = len(active)
    full = (1 << n) - 1
    bits = [1 << k for k in range(n)]
    # common: the bits every mask holds; meet: the bits some mask holds on
    # every table; holding[k]: the bits every mask that holds bit k holds;
    # unions: per table, the bits some mask holds.
    common = meet = full
    holding = [full] * n
    unions = set()
    irrelevant, determined = True, False
    for masks in signatures:
        union = 0
        for mask in masks:
            union |= mask
            common &= mask
            for k in range(n):
                if mask >> k & 1:
                    holding[k] &= mask
        meet &= union
        unions.add(union)
        irrelevant = irrelevant and masks <= {full}
        determined = determined or masks.issubset(bits)
    # implied(a): some table's union is a alone, or empty.
    vacuous = given or empty or 0 in unions
    answers: dict[tuple, bool] = {
        ("determined", ()): given or empty or determined,
        ("irrelevant", ()): irrelevant,
    }
    for a, bit, held in zip(active, bits, holding):
        one = (a,)
        answers["fixable", one] = common & bit != 0
        answers["inconsistent", one] = empty or not meet & bit
        answers["implied", one] = vacuous or bit in unions
        for b, other, back in zip(active, bits, holding):
            pair = (a, b)
            answers["substitutable", pair] = sub = held & other != 0
            answers["interchangeable", pair] = sub and back & bit != 0
    return answers


def _dependence_pair(
    tbl: SolutionTable, over: tuple[str, ...], y: str
) -> tuple[Row, ...]:
    """The first two solution rows that agree on ``over`` but not on y: none
    when y is a function of ``over`` on the rows (the dependency that TANE's
    partition test encodes), and no pass on a table of fewer than two rows.
    A caller that asks many sets settles first whether y takes one value
    over the rows (``answer_row``, ``GroupTables.row``), and then scans none."""
    iy = tbl.index[y]
    rows = tbl.rows
    if len(rows) < 2:
        return ()
    project = _projection(tuple(tbl.index[v] for v in over))
    seen: dict = {}
    for row in rows:
        key = project(row)
        first = seen.get(key)
        if first is None:
            seen[key] = row
        elif first[iy] != row[iy]:
            return first, row
    return ()


def _validate(table, query: PropertyQuery) -> tuple[str, ...]:
    """Check the query's variable, then its conditioning variables, then its
    values against ``table``: a SolutionTable, or any object whose
    ``values`` raises for an unknown variable as the table does.  Returns
    the variable's active values."""
    active = table.values(query.variable)
    for v in query.over:
        table.values(v)
    for value in query.values:
        if value not in active:
            raise ValueError(f"value {value!r} is not active for {query.variable!r}")
    return active


class OracleVerdict(NamedTuple):
    holds: bool
    counterexamples: tuple[dict[str, str], ...] = ()


_HOLDS = OracleVerdict(True)


def evaluate(table: SolutionTable, query: PropertyQuery) -> OracleVerdict:
    """Decide one property query exhaustively on the table, with
    counterexample evidence: the first falsifying solution row in
    enumeration order (the first falsifying pair, for dependence), as a
    dict from each variable to its value.  A non-dependence verdict is read
    off the variable's answer row, and only a false one scans the rows, for
    its counterexample.  A query that hits the row (for dependence, names
    only the table's variables) is valid; only a miss is validated, to name
    its error.  Every true verdict is the one ``OracleVerdict(True)``."""
    kind, x, values, over = query
    if kind == "dependent":
        if not table.index.keys() >= {x, *over}:
            _validate(table, query)
        witness = _dependence_pair(table, over, x)
    else:
        holds = table.answers.get(x, {}).get((kind, values))
        if holds is None:
            _validate(table, query)
            holds = answer_row(table, x)[kind, values]
        witness = () if holds else (next(_falsifying_rows(table, query)),)
    if not witness:
        return _HOLDS
    return OracleVerdict(False, tuple(dict(zip(table.order, row)) for row in witness))


def conditioning_sets(names: Sequence[str], y: str, low: int, high: int) -> Iterator[tuple]:
    """The sets of ``low`` to ``high`` variables of ``names`` other than y,
    by size and then in declaration order, lazily."""
    others = tuple(v for v in names if v != y)
    return itertools.chain(*(itertools.combinations(others, k) for k in range(low, high + 1)))


def query_groups(
    instance: CspInstance, space: SearchSpace, kinds: Iterable[str], dep_max: int
) -> Iterator[tuple[str, str, Iterator[PropertyQuery]]]:
    """Every admissible query in canonical order (kind, then variable
    declaration order, then active value order), lazily, as runs (kind, x,
    queries) of one kind and variable.  Substitutability queries cover
    ordered pairs of distinct active values, interchangeability unordered
    pairs; dependence ranges over nonempty conditioning sets of up to
    ``dep_max`` other variables."""
    names = instance.variables
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown property kind {kind!r}")
        for x in names:
            active = space.values(x)
            values, overs = [()], repeat(())
            if _VALUE_COUNTS[kind] == 1:
                values = [(a,) for a in active]
            elif kind == "substitutable":
                values = [(a, b) for a in active for b in active if a != b]
            elif kind == "interchangeable":
                values = [(a, b) for k, a in enumerate(active) for b in active[k + 1 :]]
            elif kind == "dependent":
                values, overs = repeat(()), conditioning_sets(names, x, 1, dep_max)
            # Valid by construction, so built as bare tuples, skipping ``__new__``'s checks.
            fields = zip(repeat(kind), repeat(x), values, overs)
            yield kind, x, map(tuple.__new__, repeat(PropertyQuery), fields)


def all_queries(
    instance: CspInstance, space: SearchSpace, kinds: Iterable[str] = KINDS, dep_max: int = 2
) -> list[PropertyQuery]:
    """Every admissible query, in ``query_groups`` order."""
    return [q for _, _, run in query_groups(instance, space, kinds, dep_max) for q in run]
