import itertools
import random

import pytest

from cspstruct import oracle
from cspstruct.oracle import solution_table
from cspstruct.hierarchy import (
    edge_catalog,
    find_edge,
    forced_for_every_assignment,
    reverse_edge,
    validate_hierarchy,
)
from cspstruct.instances import (
    FactoringSpec,
    RandomSpec,
    factoring_space,
    gen_factoring,
    gen_random,
)
from cspstruct.model import Constraint, CspInstance, Relation, SearchSpace

from conftest import forced_by_product

EDGE_NAMES = [
    "dependence-determinacy",
    "irrelevance-fixability",
    "determinacy-implication",
    "implication-fixability",
    "implication-inconsistency",
    "fixability-substitutability",
    "inconsistency-substitutability",
    "inconsistency-removability",
    "substitutability-removability",
    "interchangeability-definition",
    "unique-solution",
]


def test_catalog_names_and_kinds():
    catalog = edge_catalog()
    assert [e.name for e in catalog] == EDGE_NAMES
    kinds = {e.name: e.kind for e in catalog}
    assert kinds["dependence-determinacy"] == "iff"
    assert kinds["fixability-substitutability"] == "iff"
    assert kinds["determinacy-implication"] == "implies"
    assert kinds["unique-solution"] == "implies"


def test_coloring_validates_clean(coloring):
    assert validate_hierarchy(solution_table(*coloring)) == []


def test_backbone_validates_clean(backbone):
    assert validate_hierarchy(solution_table(*backbone)) == []


def test_edge_instantiations_on_fixtures(coloring, backbone):
    table4 = solution_table(*backbone)
    edge5 = find_edge("implication-inconsistency")
    assert edge5.lhs(table4, ("x", "true"))
    assert edge5.rhs(table4, ("x", "true"))
    table2 = solution_table(*coloring)
    edge2 = find_edge("irrelevance-fixability")
    assert edge2.lhs(table2, ("x1",))
    assert edge2.rhs(table2, ("x1",))


def test_reversed_edge_is_violated_on_coloring(coloring):
    table = solution_table(*coloring)
    # x1 is fixable to every color yet has no implied value
    violations = validate_hierarchy(table, reverse_edge("implication-fixability"))
    assert violations
    assert all(v.edge == "implication-fixability-reversed" for v in violations)
    # x2 is determined but has no implied value
    violations = validate_hierarchy(table, reverse_edge("determinacy-implication"))
    assert any(v.args[0] == "x2" for v in violations)


def test_only_implications_reverse():
    with pytest.raises(ValueError, match="biconditional"):
        reverse_edge("interchangeability-definition")
    with pytest.raises(ValueError, match="no relationship edge"):
        reverse_edge("no-such-edge")


def test_unique_solution_edge_on_factoring():
    spec = FactoringSpec(15, 2, ordering=True)
    inst = gen_factoring(spec)
    table = solution_table(inst, factoring_space(spec))
    edge = find_edge("unique-solution")
    assert edge.lhs(table, ())
    assert edge.rhs(table, ())


def test_forced_for_every_assignment_matches_naive_route(corpus):
    # Dual-route check for the dependence edge's right-hand side: compare
    # the filtered scan with literally restricting the space per assignment.
    for number, (inst, full) in enumerate(corpus[:25]):
        space = full
        if number % 2:  # exercise restricted spaces too
            space = full.remove(inst.variables[3], inst.domain[1])
        table = solution_table(inst, space)
        for y in inst.variables[:2]:
            others = tuple(v for v in inst.variables if v != y)
            for group in ((), others[:1], others[:2]):
                fast = forced_for_every_assignment(table, group, y)
                naive = True
                for combo in itertools.product(*(space.values(v) for v in group)):
                    restricted = space
                    for v, a in zip(group, combo):
                        restricted = restricted.assign(v, a)
                    restricted_table = solution_table(inst, restricted)
                    if not any(
                        oracle.check_implied(restricted_table, y, a)
                        for a in space.values(y)
                    ):
                        naive = False
                        break
                assert fast == naive


@pytest.mark.parametrize("seed", range(6))
def test_forced_for_every_assignment_matches_product_definition(seed):
    # The one-pass grouping against the per-combination scan it replaced,
    # on random instances over full and narrowed spaces.
    rng = random.Random(seed)
    for number in range(30):
        spec = RandomSpec(rng.randint(2, 5), rng.randint(2, 3), rng.randint(1, 5), 3, 0.6, number)
        inst, full = gen_random(spec)
        narrowed = full
        for v in inst.variables:
            if rng.random() < 0.4:
                narrowed = narrowed.remove(v, rng.choice(narrowed.values(v)))
        for space in (full, narrowed):
            table = solution_table(inst, space)
            for y in inst.variables:
                for size in range(len(inst.variables)):
                    group = tuple(rng.sample(inst.variables, size))
                    assert forced_for_every_assignment(
                        table, group, y
                    ) == forced_by_product(table, group, y)


def test_dependence_edge_rejects_the_determined_reading():
    # Equality plus a free variable: y stays determined under every
    # restriction, but dependent(S, {v}, y) is false, so the edge must use
    # the "all solutions share one y value" reading.
    eq = Constraint("eq", ("y", "z"), Relation.of(2, [("0", "0"), ("1", "1")]))
    inst = CspInstance(("v", "y", "z"), ("0", "1"), (eq,))
    table = solution_table(inst, SearchSpace.full(inst))
    assert oracle.check_determined(table, "y")
    assert not oracle.check_dependent(table, ("v",), "y")
    assert not forced_for_every_assignment(table, ("v",), "y")
    assert validate_hierarchy(table) == []


def test_fixability_edge_as_derived_detector(corpus):
    edge = find_edge("fixability-substitutability")
    for inst, space in corpus[:40]:
        table = solution_table(inst, space)
        for x in inst.variables:
            for b in space.values(x):
                derived = edge.rhs(table, (x, b))
                assert derived == oracle.check_fixable(table, x, b)


def test_validation_on_corpus_sample(corpus):
    for inst, space in corpus[:60]:
        assert validate_hierarchy(solution_table(inst, space)) == []


def test_warm_validation_builds_no_query_object_and_reuses_every_table(
    coloring, monkeypatch
):
    # The catalog asks through the check_* helpers: once every verdict it
    # asks for is on the table, validating again builds no PropertyQuery
    # and decides nothing new.
    inst, full = coloring
    catalog = reverse_edge("implication-fixability")
    tables = [solution_table(inst, space) for space in (full, full.remove("x2", "G"))]
    cold = [validate_hierarchy(table, catalog) for table in tables]
    decided = [dict(table.verdicts) for table in tables]
    assert cold[0]

    def refuse(self):
        raise AssertionError(f"built a query object for {self.describe()}")

    monkeypatch.setattr(oracle.PropertyQuery, "__post_init__", refuse)
    assert [validate_hierarchy(table, catalog) for table in tables] == cold
    assert [table.verdicts for table in tables] == decided


def test_an_empty_catalog_checks_nothing(coloring):
    # An empty catalog is not the full one: nothing is instantiated, so
    # nothing is decided on the table.
    table = solution_table(*coloring)
    assert validate_hierarchy(table, catalog=()) == []
    assert table.verdicts == {}
    with pytest.raises(ValueError, match="no relationship edge"):
        reverse_edge("implication-fixability", ())
    with pytest.raises(ValueError, match="no relationship edge"):
        find_edge("unique-solution", ())
