"""Executable catalog of the semantic relationships between properties.

Each edge states an implication or a biconditional between property
formulas, evaluated through the exhaustive oracle on one solution table.
An edge is checked per variable x, not per instantiation: each side is a
set expression over x's answer row with dependence decided on x's
conditioning sets (``oracle.answer_row(table, x, overs)``), which is read
once per variable and grouped by kind (``_held``), and gives the keys of
x's instantiations where the side holds: (a,) on an "xa" edge, (a, b) on
"xab", () on "x" and "none" (x None), the conditioning set on "vy".  An
implication fails at lhs - rhs, a biconditional at lhs ^ rhs, and only a
nonempty difference walks x's instantiations, in instantiation order.
The right-hand side of the dependence edge is its own code, not the
oracle's pair scan: it counts the rows' distinct projections, one pass
per variable set, and every (V, y) that names the set reads the count;
when y takes one value over the rows it holds on every set at once.
The catalog doubles as a set of derived detectors (either side of a
biconditional can stand in for the other) and as a cross-validation suite:
on any instance small enough to enumerate, ``validate_hierarchy`` must come
back empty.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress

from . import oracle
from .oracle import SolutionTable, answer_row

EdgeSide = Callable[[SolutionTable, "str | None", dict], set]


@dataclass(frozen=True, eq=False)
class RelationshipEdge:
    """One implication (lhs -> rhs) or biconditional (lhs <-> rhs).

    ``args`` names the instantiation shape: "x", "xa", "xab", "vy" (a
    conditioning variable set plus target) or "none".  A side maps the
    table, x and x's grouped answers (``_held``) to the keys of x's
    instantiations where it holds.
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


def _held(table: SolutionTable, x: str, overs: list[tuple]) -> dict:
    """x's answer row, dependence decided on ``overs``, grouped by kind: per
    kind, the set of keys where x's answer holds; per argument shape, every
    key of x's instantiations, in instantiation order."""
    row = answer_row(table, x, overs)
    held = {kind: set() for kind in oracle.KINDS}
    for kind, key in compress(row, row.values()):
        held[kind].add(key)
    active = table.values(x)
    held.update(x=[()], xa=[(a,) for a in active], vy=overs)
    held["xab"] = [(a, b) for a in active for b in active]
    return held


# The view of a "none" edge, which has no variable: its one key.
_NONE = {"none": [()]}


def _forced(table: SolutionTable, y: str, held: dict) -> set:
    """The dependence edge's right-hand side: the sets V such that pinning V
    to any active values leaves the solutions agreeing on y.  That is the
    partition test of functional-dependency discovery (TANE): the rows take
    as many distinct projections on V as on V and y together.  When y takes
    at most one value over the rows, every set passes; a set with fewer
    projections than y has fewer than V and y together, and fails unread."""
    overs = held["vy"]
    if len(table.rows) < 2 or (least := _classes(table, (y,))) == 1:
        return set(overs)
    return {o for o in overs if least <= _classes(table, o) == _classes(table, (*o, y))}


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
    """The side that holds where x's answer of ``kind`` does."""
    return lambda t, x, h: h[kind]


def _others_inconsistent(table: SolutionTable, x: str, held: dict) -> set:
    """The values whose every other value is inconsistent: every value when
    none is consistent, the one consistent value when one is, else none."""
    consistent = set(held["xa"]) - held["inconsistent"]
    return consistent if len(consistent) == 1 else set() if consistent else set(held["xa"])


def _missing(held: dict) -> set:
    """The pairs (a, b) where b is not substitutable for a."""
    return set(held["xab"]) - held["substitutable"]


def _all_variables_implied(table: SolutionTable) -> bool:
    return all(
        any(answer_row(table, x)["implied", (a,)] for a in table.values(x))
        for x in table.order
    )


# The eleven relationship edges, in catalog order; edges are immutable, so
# one tuple serves every caller.
_CATALOG = (
    RelationshipEdge("dependence-determinacy", "iff", "vy", _is("dependent"), _forced),
    RelationshipEdge(
        "irrelevance-fixability",
        "iff",
        "x",
        _is("irrelevant"),
        lambda t, x, h: {()} if h["fixable"].issuperset(h["xa"]) else set(),
    ),
    RelationshipEdge(
        "determinacy-implication",
        "implies",
        "xa",
        _is("implied"),
        lambda t, x, h: set(h["xa"]) if h["determined"] else set(),
    ),
    RelationshipEdge(
        "implication-fixability", "implies", "xa", _is("implied"), _is("fixable")
    ),
    RelationshipEdge(
        "implication-inconsistency", "iff", "xa", _is("implied"), _others_inconsistent
    ),
    RelationshipEdge(
        "fixability-substitutability",
        "iff",
        "xa",
        _is("fixable"),
        lambda t, x, h: set(h["xa"]) - {(b,) for _, b in _missing(h)},
    ),
    RelationshipEdge(
        "inconsistency-substitutability",
        "implies",
        "xa",
        _is("inconsistent"),
        lambda t, x, h: set(h["xa"]) - {(a,) for a, _ in _missing(h)},
    ),
    RelationshipEdge(
        "inconsistency-removability", "implies", "xa", _is("inconsistent"), _is("removable")
    ),
    RelationshipEdge(
        "substitutability-removability",
        "implies",
        "xa",
        lambda t, x, h: {(a,) for a, b in h["substitutable"] if a != b},
        _is("removable"),
    ),
    RelationshipEdge(
        "interchangeability-definition",
        "iff",
        "xab",
        _is("interchangeable"),
        lambda t, x, h: h["substitutable"] & {(b, a) for a, b in h["substitutable"]},
    ),
    RelationshipEdge(
        "unique-solution",
        "implies",
        "none",
        lambda t, x, h: {()} if len(t.rows) == 1 else set(),
        lambda t, x, h: {()} if _all_variables_implied(t) else set(),
    ),
)


def edge_catalog() -> tuple[RelationshipEdge, ...]:
    """The eleven relationship edges, in catalog order."""
    return _CATALOG


def find_edge(name: str) -> RelationshipEdge:
    for edge in _CATALOG:
        if edge.name == name:
            return edge
    raise ValueError(f"no relationship edge named {name!r}")


def reverse_edge(name: str) -> tuple[RelationshipEdge, ...]:
    """The catalog with one implication edge deliberately flipped.

    Useful as a negative control: validating with a reversed edge must
    produce violations on instances where the converse fails.
    """
    target = find_edge(name)
    if target.kind != "implies":
        raise ValueError(f"edge {name!r} is a biconditional; only implications reverse")
    flipped = RelationshipEdge(
        target.name + "-reversed", "implies", target.args, target.rhs, target.lhs
    )
    return tuple(flipped if e is target else e for e in _CATALOG)


def validate_hierarchy(
    table: SolutionTable,
    catalog: tuple[RelationshipEdge, ...] | None = None,
    dep_max: int = 2,
) -> list[Violation]:
    """Check every edge at all admissible instantiations on the table's
    space, one set comparison per edge and variable, and collect the
    failures in instantiation order; an empty list is the expected outcome.
    ``catalog`` None means the full catalog; an empty one checks nothing.
    Each variable's conditioning sets are every set of up to ``dep_max``
    other variables, the empty set included."""
    catalog = edge_catalog() if catalog is None else catalog
    views = [
        (x, _held(table, x, oracle.conditioning_sets(table.order, x, 0, dep_max)))
        for x in (table.order if catalog else ())
    ]
    violations = []
    for edge in catalog:
        implies, lhs_of, rhs_of = edge.kind == "implies", edge.lhs, edge.rhs
        for x, held in [(None, _NONE)] if edge.args == "none" else views:
            lhs = lhs_of(table, x, held)
            if implies and not lhs:
                continue
            rhs = rhs_of(table, x, held)
            wrong = lhs - rhs if implies else lhs ^ rhs
            for key in filter(wrong.__contains__, held[edge.args] if wrong else ()):
                args = (key, x) if edge.args == "vy" else key if x is None else (x, *key)
                violations.append(Violation(edge.name, edge.kind, args, key in lhs, key in rhs))
    return violations
