import itertools
from pathlib import Path

import pytest

from cspstruct import boolean_corpus, parse_csp, parse_dimacs, standard_corpus

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
