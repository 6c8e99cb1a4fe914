import dataclasses
import itertools
from pathlib import Path

import pytest

from cspstruct import boolean_corpus, parse_csp, parse_dimacs, standard_corpus
from cspstruct.boolean import (
    AffineEquation,
    Clause,
    Literal,
    SchaeferClass,
    _dispatch_sat,
    complement_conjunction,
    instantiate_project,
)
from cspstruct.oracle import solution_table

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def coloring():
    return parse_csp((DATA / "coloring_isolated.csp").read_text())


@pytest.fixture(scope="session")
def backbone():
    return parse_csp((DATA / "boolean_backbone.csp").read_text())


@pytest.fixture(scope="session")
def triple_tables():
    return parse_csp((DATA / "triple_tables.csp").read_text())


@pytest.fixture(scope="session")
def removability_trap():
    return parse_csp((DATA / "removability_trap.csp").read_text())


@pytest.fixture(scope="session")
def pure_literal_cnf():
    return parse_dimacs((DATA / "pure_literal.cnf").read_text())


@pytest.fixture(scope="session")
def corpus():
    return tuple(standard_corpus())


@pytest.fixture(scope="session")
def boolean_corpora():
    return {
        kind: tuple(boolean_corpus(kind))
        for kind in ("horn", "dual-horn", "2cnf", "affine")
    }


def data_path(name: str) -> Path:
    return DATA / name


def iter_rows(space):
    """Raw value rows of the space, in (variable order, value order): the
    plain product that the oracle's enumerator must agree with."""
    return itertools.product(*(values for _, values in space.entries))


def subproblem(instance, indices):
    """The instance restricted to a constraint subset, every variable kept:
    the subproblem whose exact verdict a covering group must report."""
    return dataclasses.replace(
        instance, constraints=tuple(instance.constraints[i] for i in indices)
    )


def forced_by_product(instance, space, group, y):
    """The dependence edge's right-hand side by its definition: for every
    combination of the group's active values, the solutions that agree with
    it share one value of ``y``."""
    tbl = solution_table(instance, space)
    iy = tbl.index[y]
    positions = tuple(tbl.index[v] for v in group)
    for combo in itertools.product(*(space.values(v) for v in group)):
        ys = {row[iy] for row in tbl.rows if tuple(row[p] for p in positions) == combo}
        if len(ys) > 1:
            return False
    return True


def determined_by_joint_solve(formula, cls, x):
    """Determinacy by its definition as one restricted SAT solve: two copies
    of the formula, at x=true and at x=false, sharing every other variable,
    are unsatisfiable iff the other variables fix x.  Constraints without x
    are the same in both copies and go in once."""
    joint = [c for c in formula.constraints if x not in c.variables]
    for value in (True, False):
        for c in formula.constraints:
            if x in c.variables:
                joint.extend(instantiate_project(c, x, value))
    remaining = tuple(v for v in formula.variables if v != x)
    return _dispatch_sat(SchaeferClass(cls), joint, remaining) is None


def substitutable_by_closure(formula, cls, x, a, b):
    """Substitutability through the closure operations: no constraint c on
    x has a model of formula AND x=a that violates c with x=b, where "c with
    x=b" is instantiate-and-project and its violation is the complement
    conjunction, each side one restricted SAT solve."""
    cls = SchaeferClass(cls)
    if cls is SchaeferClass.AFFINE:
        pin = AffineEquation(frozenset((x,)), a)
    else:
        pin = Clause(frozenset((Literal(x, a),)))
    for c in formula.constraints:
        if x not in c.variables:
            continue
        for part in instantiate_project(c, x, b):
            extra = (pin, *complement_conjunction(part))
            model = _dispatch_sat(cls, formula.constraints + extra, formula.variables)
            if model is not None:
                return False
    return True
