"""Executable catalog of the semantic relationships between properties.

Each edge states an implication or a biconditional between property
formulas, evaluated through the exhaustive oracle.  The catalog doubles as
a set of derived detectors (either side of a biconditional can stand in
for the other) and as a cross-validation suite: on any instance small
enough to enumerate, ``validate_hierarchy`` must come back empty.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import oracle
from .model import CspInstance, SearchSpace
from .oracle import solution_table

EdgeSide = Callable[[CspInstance, SearchSpace, tuple], bool]


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
    instance: CspInstance, space: SearchSpace, group: tuple[str, ...], y: str
) -> bool:
    """True iff pinning the group variables to any combination of active
    values leaves all remaining solutions agreeing on ``y``.

    This is the right-hand side of the dependence edge: within every
    restriction of the space, ``y`` has an implied value (vacuously, when
    the restriction kills all solutions).
    """
    tbl = solution_table(instance, space)
    iy = tbl.index[y]
    positions = tuple(tbl.index[v] for v in group)
    # Every row lies in the space, so the restrictions that keep a solution
    # are exactly the rows' projections onto the group.
    forced: dict[tuple[str, ...], str] = {}
    for row in tbl.rows:
        key = tuple(row[p] for p in positions)
        if forced.setdefault(key, row[iy]) != row[iy]:
            return False
    return True


def _unique_solution(instance: CspInstance, space: SearchSpace, _args: tuple) -> bool:
    return len(solution_table(instance, space).rows) == 1


def _all_variables_implied(
    instance: CspInstance, space: SearchSpace, _args: tuple
) -> bool:
    return all(
        any(oracle.check_implied(instance, space, x, a) for a in space.values(x))
        for x in instance.variables
    )


def edge_catalog() -> tuple[RelationshipEdge, ...]:
    """The eleven relationship edges, in catalog order."""
    return (
        RelationshipEdge(
            "dependence-determinacy",
            "iff",
            "vy",
            lambda inst, s, a: oracle.check_dependent(inst, s, a[0], a[1]),
            lambda inst, s, a: forced_for_every_assignment(inst, s, a[0], a[1]),
        ),
        RelationshipEdge(
            "irrelevance-fixability",
            "iff",
            "x",
            lambda inst, s, a: oracle.check_irrelevant(inst, s, a[0]),
            lambda inst, s, a: all(
                oracle.check_fixable(inst, s, a[0], v) for v in s.values(a[0])
            ),
        ),
        RelationshipEdge(
            "determinacy-implication",
            "implies",
            "xa",
            lambda inst, s, a: oracle.check_implied(inst, s, a[0], a[1]),
            lambda inst, s, a: oracle.check_determined(inst, s, a[0]),
        ),
        RelationshipEdge(
            "implication-fixability",
            "implies",
            "xa",
            lambda inst, s, a: oracle.check_implied(inst, s, a[0], a[1]),
            lambda inst, s, a: oracle.check_fixable(inst, s, a[0], a[1]),
        ),
        RelationshipEdge(
            "implication-inconsistency",
            "iff",
            "xa",
            lambda inst, s, a: oracle.check_implied(inst, s, a[0], a[1]),
            lambda inst, s, a: all(
                oracle.check_inconsistent(inst, s, a[0], b)
                for b in s.values(a[0])
                if b != a[1]
            ),
        ),
        RelationshipEdge(
            "fixability-substitutability",
            "iff",
            "xa",
            lambda inst, s, a: oracle.check_fixable(inst, s, a[0], a[1]),
            lambda inst, s, a: all(
                oracle.check_substitutable(inst, s, a[0], v, a[1])
                for v in s.values(a[0])
            ),
        ),
        RelationshipEdge(
            "inconsistency-substitutability",
            "implies",
            "xa",
            lambda inst, s, a: oracle.check_inconsistent(inst, s, a[0], a[1]),
            lambda inst, s, a: all(
                oracle.check_substitutable(inst, s, a[0], a[1], b)
                for b in s.values(a[0])
            ),
        ),
        RelationshipEdge(
            "inconsistency-removability",
            "implies",
            "xa",
            lambda inst, s, a: oracle.check_inconsistent(inst, s, a[0], a[1]),
            lambda inst, s, a: oracle.check_removable(inst, s, a[0], a[1]),
        ),
        RelationshipEdge(
            "substitutability-removability",
            "implies",
            "xa",
            lambda inst, s, a: any(
                oracle.check_substitutable(inst, s, a[0], a[1], b)
                for b in s.values(a[0])
                if b != a[1]
            ),
            lambda inst, s, a: oracle.check_removable(inst, s, a[0], a[1]),
        ),
        RelationshipEdge(
            "interchangeability-definition",
            "iff",
            "xab",
            lambda inst, s, a: oracle.check_interchangeable(inst, s, *a),
            lambda inst, s, a: (
                oracle.check_substitutable(inst, s, a[0], a[1], a[2])
                and oracle.check_substitutable(inst, s, a[0], a[2], a[1])
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
    for edge in catalog or edge_catalog():
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
    catalog = catalog or edge_catalog()
    target = find_edge(name, catalog)
    if target.kind != "implies":
        raise ValueError(f"edge {name!r} is a biconditional; only implications reverse")
    flipped = RelationshipEdge(
        target.name + "-reversed", "implies", target.args, target.rhs, target.lhs
    )
    return tuple(flipped if e is target else e for e in catalog)


def _instantiations(
    edge: RelationshipEdge, instance: CspInstance, space: SearchSpace, dep_max: int
) -> Iterator[tuple]:
    names = instance.variables
    if edge.args == "none":
        yield ()
    elif edge.args == "x":
        for x in names:
            yield (x,)
    elif edge.args == "xa":
        for x in names:
            for a in space.values(x):
                yield (x, a)
    elif edge.args == "xab":
        for x in names:
            active = space.values(x)
            for a in active:
                for b in active:
                    yield (x, a, b)
    else:  # "vy": conditioning sets up to dep_max, including the empty set
        for y in names:
            others = tuple(v for v in names if v != y)
            for size in range(0, dep_max + 1):
                for combo in itertools.combinations(others, size):
                    yield (combo, y)


def validate_hierarchy(
    instance: CspInstance,
    space: SearchSpace,
    catalog: tuple[RelationshipEdge, ...] | None = None,
    dep_max: int = 2,
) -> list[Violation]:
    """Instantiate every edge over all admissible arguments and collect the
    failures; an empty list is the expected outcome."""
    violations = []
    for edge in catalog or edge_catalog():
        for args in _instantiations(edge, instance, space, dep_max):
            lhs = edge.lhs(instance, space, args)
            if edge.kind == "implies":
                if lhs and not edge.rhs(instance, space, args):
                    violations.append(Violation(edge.name, edge.kind, args, lhs, False))
            else:
                rhs = edge.rhs(instance, space, args)
                if lhs != rhs:
                    violations.append(Violation(edge.name, edge.kind, args, lhs, rhs))
    return violations
