"""Executable catalog of the semantic relationships between properties.

Each edge states an implication or a biconditional between property
formulas, evaluated through the exhaustive oracle on one solution table:
each side reads the answer rows of the table when it has them (see
``oracle.answer_rows``), and the table's verdict memo when it does not.
The catalog doubles as a set of derived detectors (either side of a
biconditional can stand in for the other) and as a cross-validation suite:
on any instance small enough to enumerate, ``validate_hierarchy`` must come
back empty.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import oracle
from .oracle import SolutionTable

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


def forced_for_every_assignment(
    table: SolutionTable, group: tuple[str, ...], y: str
) -> bool:
    """True iff pinning the group variables to any combination of active
    values leaves all remaining solutions agreeing on ``y``.

    This is the right-hand side of the dependence edge: within every
    restriction of the space, ``y`` has an implied value (vacuously, when
    the restriction kills all solutions).
    """
    iy = table.index[y]
    project = oracle._projection(tuple(table.index[v] for v in group))
    # Every row lies in the space, so the restrictions that keep a solution
    # are exactly the rows' projections onto the group.
    forced: dict = {}
    for row in table.rows:
        if forced.setdefault(project(row), row[iy]) != row[iy]:
            return False
    return True


def _unique_solution(table: SolutionTable, _args: tuple) -> bool:
    return len(table.rows) == 1


def _all_variables_implied(table: SolutionTable, _args: tuple) -> bool:
    return all(
        any(oracle.check_implied(table, x, a) for a in table.values(x))
        for x in table.order
    )


def edge_catalog() -> tuple[RelationshipEdge, ...]:
    """The eleven relationship edges, in catalog order."""
    return (
        RelationshipEdge(
            "dependence-determinacy",
            "iff",
            "vy",
            lambda t, a: oracle.check_dependent(t, a[0], a[1]),
            lambda t, a: forced_for_every_assignment(t, a[0], a[1]),
        ),
        RelationshipEdge(
            "irrelevance-fixability",
            "iff",
            "x",
            lambda t, a: oracle.check_irrelevant(t, a[0]),
            lambda t, a: all(
                oracle.check_fixable(t, a[0], v) for v in t.values(a[0])
            ),
        ),
        RelationshipEdge(
            "determinacy-implication",
            "implies",
            "xa",
            lambda t, a: oracle.check_implied(t, a[0], a[1]),
            lambda t, a: oracle.check_determined(t, a[0]),
        ),
        RelationshipEdge(
            "implication-fixability",
            "implies",
            "xa",
            lambda t, a: oracle.check_implied(t, a[0], a[1]),
            lambda t, a: oracle.check_fixable(t, a[0], a[1]),
        ),
        RelationshipEdge(
            "implication-inconsistency",
            "iff",
            "xa",
            lambda t, a: oracle.check_implied(t, a[0], a[1]),
            lambda t, a: all(
                oracle.check_inconsistent(t, a[0], b)
                for b in t.values(a[0])
                if b != a[1]
            ),
        ),
        RelationshipEdge(
            "fixability-substitutability",
            "iff",
            "xa",
            lambda t, a: oracle.check_fixable(t, a[0], a[1]),
            lambda t, a: all(
                oracle.check_substitutable(t, a[0], v, a[1])
                for v in t.values(a[0])
            ),
        ),
        RelationshipEdge(
            "inconsistency-substitutability",
            "implies",
            "xa",
            lambda t, a: oracle.check_inconsistent(t, a[0], a[1]),
            lambda t, a: all(
                oracle.check_substitutable(t, a[0], a[1], b)
                for b in t.values(a[0])
            ),
        ),
        RelationshipEdge(
            "inconsistency-removability",
            "implies",
            "xa",
            lambda t, a: oracle.check_inconsistent(t, a[0], a[1]),
            lambda t, a: oracle.check_removable(t, a[0], a[1]),
        ),
        RelationshipEdge(
            "substitutability-removability",
            "implies",
            "xa",
            lambda t, a: any(
                oracle.check_substitutable(t, a[0], a[1], b)
                for b in t.values(a[0])
                if b != a[1]
            ),
            lambda t, a: oracle.check_removable(t, a[0], a[1]),
        ),
        RelationshipEdge(
            "interchangeability-definition",
            "iff",
            "xab",
            lambda t, a: oracle.check_interchangeable(t, *a),
            lambda t, a: (
                oracle.check_substitutable(t, a[0], a[1], a[2])
                and oracle.check_substitutable(t, a[0], a[2], a[1])
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
