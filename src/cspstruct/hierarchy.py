"""Executable catalog of the semantic relationships between properties.

Each edge states an implication or a biconditional between property
formulas, evaluated through the exhaustive oracle on one solution table:
each side reads the answer row of its variable (``oracle.answer_row``),
which is built when the table has none.  The right-hand side of the
dependence edge is its own code, not the oracle's pair scan: it counts
the rows' distinct projections, one pass per variable set, and every
(V, y) that names the set reads the count.
The catalog doubles as a set of derived detectors (either side of a
biconditional can stand in for the other) and as a cross-validation suite:
on any instance small enough to enumerate, ``validate_hierarchy`` must come
back empty.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import oracle
from .oracle import SolutionTable, answer_row

EdgeSide = Callable[[SolutionTable, tuple], bool]


@dataclass(frozen=True, eq=False)
class RelationshipEdge:
    """One implication (lhs -> rhs) or biconditional (lhs <-> rhs).

    ``args`` names the instantiation shape: "x", "xa", "xab", "vy" (a
    conditioning variable set plus target) or "none".
    """

    name: str
    kind: str  # "implies" | "iff"
    args: str
    lhs: EdgeSide
    rhs: EdgeSide


@dataclass(frozen=True)
class Violation:
    edge: str
    kind: str
    args: tuple
    lhs: bool
    rhs: bool

    def describe(self) -> str:
        arrow = "->" if self.kind == "implies" else "<->"
        return f"{self.edge} {arrow} violated at {self.args!r}: lhs={self.lhs} rhs={self.rhs}"


def _forced(table: SolutionTable, args: tuple) -> bool:
    """The dependence edge's right-hand side: pinning V to any active values
    leaves the solutions agreeing on y.  That is the partition test of
    functional-dependency discovery (TANE): the rows take as many distinct
    projections on V as on V and y together."""
    over, y = args
    return len(table.rows) < 2 or _classes(table, over) == _classes(table, (*over, y))


def _classes(table: SolutionTable, names: tuple[str, ...]) -> int:
    """The number of distinct projections of the rows on the variables
    ``names``, from one pass per set of variables, kept on the table."""
    key = frozenset(names)
    count = table.classes.get(key)
    if count is None:
        project = oracle._projection(tuple(map(table.index.__getitem__, key)))
        count = table.classes[key] = len(set(map(project, table.rows)))
    return count


def _is(kind: str) -> EdgeSide:
    """The side that reads ``kind`` of the instantiation's variable and
    values off the variable's answer row."""
    return lambda t, a: answer_row(t, a[0])[kind, a[1:]]


def _unique_solution(table: SolutionTable, _args: tuple) -> bool:
    return len(table.rows) == 1


def _all_variables_implied(table: SolutionTable, _args: tuple) -> bool:
    return all(
        any(answer_row(table, x)["implied", (a,)] for a in table.values(x))
        for x in table.order
    )


def edge_catalog() -> tuple[RelationshipEdge, ...]:
    """The eleven relationship edges, in catalog order."""
    return (
        RelationshipEdge(
            "dependence-determinacy",
            "iff",
            "vy",
            lambda t, a: oracle._dependent(t, *a),
            _forced,
        ),
        RelationshipEdge(
            "irrelevance-fixability",
            "iff",
            "x",
            _is("irrelevant"),
            lambda t, a: all(answer_row(t, a[0])["fixable", (v,)] for v in t.values(a[0])),
        ),
        RelationshipEdge(
            "determinacy-implication",
            "implies",
            "xa",
            _is("implied"),
            lambda t, a: answer_row(t, a[0])["determined", ()],
        ),
        RelationshipEdge(
            "implication-fixability", "implies", "xa", _is("implied"), _is("fixable")
        ),
        RelationshipEdge(
            "implication-inconsistency",
            "iff",
            "xa",
            _is("implied"),
            lambda t, a: all(
                answer_row(t, a[0])["inconsistent", (b,)]
                for b in t.values(a[0])
                if b != a[1]
            ),
        ),
        RelationshipEdge(
            "fixability-substitutability",
            "iff",
            "xa",
            _is("fixable"),
            lambda t, a: all(
                answer_row(t, a[0])["substitutable", (v, a[1])] for v in t.values(a[0])
            ),
        ),
        RelationshipEdge(
            "inconsistency-substitutability",
            "implies",
            "xa",
            _is("inconsistent"),
            lambda t, a: all(
                answer_row(t, a[0])["substitutable", (a[1], b)] for b in t.values(a[0])
            ),
        ),
        RelationshipEdge(
            "inconsistency-removability",
            "implies",
            "xa",
            _is("inconsistent"),
            _is("removable"),
        ),
        RelationshipEdge(
            "substitutability-removability",
            "implies",
            "xa",
            lambda t, a: any(
                answer_row(t, a[0])["substitutable", (a[1], b)]
                for b in t.values(a[0])
                if b != a[1]
            ),
            _is("removable"),
        ),
        RelationshipEdge(
            "interchangeability-definition",
            "iff",
            "xab",
            _is("interchangeable"),
            lambda t, a: (
                answer_row(t, a[0])["substitutable", a[1:]]
                and answer_row(t, a[0])["substitutable", (a[2], a[1])]
            ),
        ),
        RelationshipEdge(
            "unique-solution",
            "implies",
            "none",
            _unique_solution,
            _all_variables_implied,
        ),
    )


def find_edge(name: str, catalog: tuple[RelationshipEdge, ...] | None = None):
    for edge in edge_catalog() if catalog is None else catalog:
        if edge.name == name:
            return edge
    raise ValueError(f"no relationship edge named {name!r}")


def reverse_edge(
    name: str, catalog: tuple[RelationshipEdge, ...] | None = None
) -> tuple[RelationshipEdge, ...]:
    """A catalog with one implication edge deliberately flipped.

    Useful as a negative control: validating with a reversed edge must
    produce violations on instances where the converse fails.
    """
    if catalog is None:
        catalog = edge_catalog()
    target = find_edge(name, catalog)
    if target.kind != "implies":
        raise ValueError(f"edge {name!r} is a biconditional; only implications reverse")
    flipped = RelationshipEdge(
        target.name + "-reversed", "implies", target.args, target.rhs, target.lhs
    )
    return tuple(flipped if e is target else e for e in catalog)


def _instantiations(
    edge: RelationshipEdge, table: SolutionTable, dep_max: int
) -> Iterator[tuple]:
    names = table.order
    if edge.args == "none":
        yield ()
    elif edge.args == "x":
        for x in names:
            yield (x,)
    elif edge.args == "xa":
        for x in names:
            for a in table.values(x):
                yield (x, a)
    elif edge.args == "xab":
        for x in names:
            active = table.values(x)
            for a in active:
                for b in active:
                    yield (x, a, b)
    else:  # "vy": conditioning sets up to dep_max, including the empty set
        for y in names:
            for over in oracle.conditioning_sets(names, y, 0, dep_max):
                yield (over, y)


def validate_hierarchy(
    table: SolutionTable,
    catalog: tuple[RelationshipEdge, ...] | None = None,
    dep_max: int = 2,
) -> list[Violation]:
    """Instantiate every edge over all admissible arguments on the table's
    space and collect the failures; an empty list is the expected outcome.
    ``catalog`` None means the full catalog; an empty one checks nothing."""
    violations = []
    for edge in edge_catalog() if catalog is None else catalog:
        for args in _instantiations(edge, table, dep_max):
            lhs = edge.lhs(table, args)
            if edge.kind == "implies":
                if lhs and not edge.rhs(table, args):
                    violations.append(Violation(edge.name, edge.kind, args, lhs, False))
            else:
                rhs = edge.rhs(table, args)
                if lhs != rhs:
                    violations.append(Violation(edge.name, edge.kind, args, lhs, rhs))
    return violations
