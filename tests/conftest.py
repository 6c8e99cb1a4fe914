import dataclasses
import itertools
from pathlib import Path

import pytest

from cspstruct import boolean_corpus, parse_csp, parse_dimacs, standard_corpus
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
