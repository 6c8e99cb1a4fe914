"""Exhaustive reference checks for the structural CSP properties.

Every check here enumerates the solutions inside the search space
exactly, by backtracking in declaration order: each constraint is tested
as soon as its last scope variable is bound, and nothing is propagated.
The answers are trustworthy (if exponential) and every faster detector in
this package is validated against them.  Checks stop at the first
counterexample; since enumeration follows declaration order, a reported
counterexample is always the lexicographically least one.
A caller builds one ``SolutionTable`` per (instance, space) with
``solution_table`` and passes it to every query on that space.  Each query
is decided once per table: the verdict is kept on the table under a plain
tuple key, and the query object is built and validated only when it is
first decided.
Every property but dependence compares the cofactors of one variable x
(the solutions with x fixed to a, to b, ...), so it is a relation on x's
mask signature: the set of distinct masks of x's values that the solution
rows take once x is left out.  Questions about x on a table are decided
by scans that stop at the first falsifying row until the scans that held
(each a pass over every row) have cost about as much as the signature;
then it is built in one pass and every value and variable answer on x
filled in, so each later question is a dict lookup.  Rows are scanned
after that only for the witness of a false verdict.
Value quantifiers ("some other value b", "every value a") range over the
variable's active values.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
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
    """The exhaustive enumeration of Sol(C) within a search space, plus
    the verdicts decided on it so far, keyed by (kind, variable, values,
    over): ``evaluate`` keeps an OracleVerdict there, and the local checks
    keep a bool on a covering group's table.  ``answers`` maps a variable
    to its signature answers, and ``scanned`` the cost, in rows, of the
    scans about it that held (see ``_scan``)."""

    __slots__ = (
        "order", "index", "actives", "rows", "members", "verdicts", "answers", "scanned"
    )

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
        self.verdicts: dict[tuple, OracleVerdict | bool] = {}
        self.answers: dict[str, dict[tuple, bool]] = {}
        self.scanned: dict[str, int] = {}

    def values(self, variable: str) -> tuple[str, ...]:
        """The active values of a variable, as ``SearchSpace.values``."""
        try:
            return self.actives[self.index[variable]]
        except KeyError:
            raise ValueError(f"unknown variable {variable!r}") from None

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


def solution_table(instance: CspInstance, space: SearchSpace) -> SolutionTable:
    """Enumerate all solutions inside the space, for every query on it."""
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


# The signature pays off only when enough questions about x follow: it costs
# about a pass over the rows plus filling in every answer, while a false
# verdict's scan mostly stops a few rows in.  So only the scans that held
# (each a pass over every row, plus its set-up) are counted, in rows, and
# the signature is built once they have cost as much as it would: on a
# table of more than a few dozen rows, at the second scan that holds; on
# a table of a few rows, or for a variable asked about a few times or
# mostly falsely (the test-mode simplifier's covering groups, say), later
# or never.
_SCAN_SETUP_ROWS = 16
_SIGNATURE_FILL_ROWS = 64


def _scan(tbl: SolutionTable, query: PropertyQuery) -> Row | None:
    """The first falsifying row of a non-dependence query, None when it
    holds.  Callers scan only while ``tbl.answers`` has no signature for the
    query's variable, or for a false verdict's witness.  A scan that holds
    adds its cost to ``tbl.scanned``, and the one that brings it to the
    signature's cost builds the signature."""
    witness = next(_falsifying_rows(tbl, query), None)
    if witness is None:
        x = query.variable
        rows = len(tbl.rows)
        spent = tbl.scanned[x] = tbl.scanned.get(x, 0) + rows + _SCAN_SETUP_ROWS
        if spent >= rows + _SIGNATURE_FILL_ROWS:
            _sign(tbl, x)
    return witness


def _sign(tbl: SolutionTable, x: str) -> None:
    """Build x's signature on the table unless it has one."""
    if x not in tbl.answers:
        tbl.answers[x] = _signature_answers(tbl, x)


def _signature_answers(tbl: SolutionTable, x: str) -> dict[tuple, bool]:
    """Every value and variable answer on x, keyed by (kind, values), from
    one pass over the rows.  Grouping the rows by the rest of the row (x
    left out) gives each group the mask of x's values that extend it, and
    only the set of distinct masks is kept: at most 2**|active(x)| small
    ints.  On those masks:
    fixable(a): every mask holds a; removable(a): no mask is a alone;
    inconsistent(a): no mask holds a; implied(a): every mask is a alone;
    substitutable(a, b): every mask holding a holds b; interchangeable:
    substitutable both ways; determined: every mask has one bit;
    irrelevant: every mask is full."""
    i = tbl.index[x]
    active = tbl.actives[i]
    bits = {a: 1 << k for k, a in enumerate(active)}
    full = (1 << len(active)) - 1
    rest = (*range(i), *range(i + 1, len(tbl.order)))
    project = itemgetter(*rest) if rest else (lambda row: ())
    by_rest: dict = {}
    get = by_rest.get
    for row in tbl.rows:
        key = project(row)
        by_rest[key] = get(key, 0) | bits[row[i]]
    masks = set(by_rest.values())
    union, common = 0, full
    # holding[a]: the bits every mask that holds a also holds.
    holding = dict.fromkeys(active, full)
    for mask in masks:
        union |= mask
        common &= mask
        for a, bit in bits.items():
            if mask & bit:
                holding[a] &= mask
    answers: dict[tuple, bool] = {
        ("determined", ()): all(mask & (mask - 1) == 0 for mask in masks),
        ("irrelevant", ()): masks <= {full},
    }
    for a, bit in bits.items():
        one = (a,)
        answers["fixable", one] = bool(common & bit)
        answers["removable", one] = bit not in masks
        answers["inconsistent", one] = not union & bit
        answers["implied", one] = union | bit == bit
        for b, other in bits.items():
            pair = (a, b)
            answers["substitutable", pair] = sub = bool(holding[a] & other)
            answers["interchangeable", pair] = sub and bool(holding[b] & bit)
    return answers


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


@dataclass(frozen=True)
class OracleVerdict:
    query: PropertyQuery
    holds: bool
    counterexamples: tuple[AssignmentTuple, ...] = ()


def _decide(tbl: SolutionTable, query: PropertyQuery) -> OracleVerdict:
    if query.kind == "dependent":
        witness = _dependence_pair(tbl, query.over, query.variable)
        return OracleVerdict(query, not witness, tuple(map(tbl.wrap, witness)))
    answers = tbl.answers.get(query.variable)
    if answers is not None and answers[query.kind, query.values]:
        return OracleVerdict(query, True)
    # A false verdict, or no signature yet: scan, for the least falsifying
    # row.
    witness = _scan(tbl, query)
    if witness is None:
        return OracleVerdict(query, True)
    return OracleVerdict(query, False, (tbl.wrap(witness),))


def evaluate(table: SolutionTable, query: PropertyQuery) -> OracleVerdict:
    """Decide one property query exhaustively on the table, with
    counterexample evidence: the first falsifying solution row in
    enumeration order (the first falsifying pair, for dependence).

    The verdict is kept on the table under the plain key
    ``(kind, variable, values, over)``, so an equal query on the same table
    costs one dict lookup and skips validation: the stored query was
    validated against that key.
    """
    key = (query.kind, query.variable, query.values, query.over)
    return _verdict(table, key, query)


def _verdict(
    table: SolutionTable, key: tuple, query: PropertyQuery | None = None
) -> OracleVerdict:
    """The verdict stored under ``key``, deciding it on a miss.  The check_*
    helpers pass the key alone, so a repeated ask builds no query object:
    only a miss builds (and so checks) one."""
    verdict = table.verdicts.get(key)
    if verdict is None:
        if query is None:
            query = PropertyQuery(*key)
        _validate(table, query)
        verdict = table.verdicts[key] = _decide(table, query)
    return verdict


def check_fixable(table: SolutionTable, x: str, a: str) -> bool:
    return _verdict(table, ("fixable", x, (a,), ())).holds


def check_substitutable(table: SolutionTable, x: str, a: str, b: str) -> bool:
    return _verdict(table, ("substitutable", x, (a, b), ())).holds


def check_interchangeable(table: SolutionTable, x: str, a: str, b: str) -> bool:
    return _verdict(table, ("interchangeable", x, (a, b), ())).holds


def check_removable(table: SolutionTable, x: str, a: str) -> bool:
    return _verdict(table, ("removable", x, (a,), ())).holds


def check_inconsistent(table: SolutionTable, x: str, a: str) -> bool:
    return _verdict(table, ("inconsistent", x, (a,), ())).holds


def check_implied(table: SolutionTable, x: str, a: str) -> bool:
    return _verdict(table, ("implied", x, (a,), ())).holds


def check_determined(table: SolutionTable, x: str) -> bool:
    return _verdict(table, ("determined", x, (), ())).holds


def check_dependent(table: SolutionTable, over: Iterable[str], y: str) -> bool:
    over = tuple(over)
    if y in over:
        PropertyQuery.dependent(over, y)  # raises, before any other check
    return _verdict(table, ("dependent", y, (), over)).holds


def check_irrelevant(table: SolutionTable, x: str) -> bool:
    return _verdict(table, ("irrelevant", x, (), ())).holds


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

