import dataclasses
import itertools
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cspstruct import boolean_corpus, parse_csp, parse_dimacs, standard_corpus
from cspstruct.model import AssignmentTuple, Constraint, CspInstance, Relation, SearchSpace
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


def is_solution(inst, t):
    """Every constraint holds the scope-ordered projection of ``t`` as a row."""
    return all(tuple(t[v] for v in c.scope) in c.relation.rows for c in inst.constraints)


def reference_solutions(inst, space):
    """Sol(C) inside the space, straight from the product of active sets."""
    names = space.variables
    tuples = (AssignmentTuple(zip(names, row)) for row in iter_rows(space))
    return [t for t in tuples if is_solution(inst, t)]


def reference_verdict(inst, space, solutions, query):
    """(holds, counterexamples) from the definitions: the witness is the
    first solution falsifying the property, in enumeration order."""
    x = query.variable
    active = space.values(x)

    def solution_with(t, value):
        return is_solution(inst, {**t, x: value})

    if query.kind == "dependent":
        for t in solutions:
            first = next(u for u in solutions if all(u[v] == t[v] for v in query.over))
            if first[x] != t[x]:
                return False, (first, t)
        return True, ()
    if query.kind in ("substitutable", "interchangeable"):
        a, b = query.values
        directions = [(a, b), (b, a)] if query.kind == "interchangeable" else [(a, b)]
        falsifiers = [
            lambda t, a=a, b=b: t[x] == a and not solution_with(t, b) for a, b in directions
        ]
    elif query.kind == "determined":
        falsifiers = [lambda t: any(solution_with(t, b) for b in active if b != t[x])]
    elif query.kind == "irrelevant":
        falsifiers = [lambda t: not all(solution_with(t, b) for b in active)]
    else:
        (a,) = query.values
        falsifiers = [
            {
                "fixable": lambda t: not solution_with(t, a),
                "removable": lambda t: t[x] == a
                and not any(solution_with(t, b) for b in active if b != a),
                "inconsistent": lambda t: t[x] == a,
                "implied": lambda t: t[x] != a,
            }[query.kind]
        ]
    for falsifies in falsifiers:
        for t in solutions:
            if falsifies(t):
                return False, (t,)
    return True, ()


@st.composite
def instances_with_spaces(draw):
    names = tuple(f"x{i}" for i in range(draw(st.integers(0, 5))))
    domain = tuple(str(v) for v in range(draw(st.integers(1, 3))))
    constraints = []
    if names:
        for k in range(draw(st.integers(0, 4))):
            # A permutation prefix: scopes come out of declaration order.
            scope = draw(st.permutations(names))[: draw(st.integers(1, min(3, len(names))))]
            rows = list(itertools.product(domain, repeat=len(scope)))
            kept = draw(st.lists(st.sampled_from(rows), unique=True)) if rows else []
            constraints.append(Constraint(f"c{k}", tuple(scope), Relation.of(len(scope), kept)))
    inst = CspInstance(names, domain, tuple(constraints))
    active = {
        v: draw(st.sets(st.sampled_from(domain), min_size=1)) for v in names
    }
    return inst, SearchSpace.over(inst, active)


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

