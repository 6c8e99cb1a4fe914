import itertools
import random

import pytest

from cspstruct import hierarchy, oracle
from cspstruct.oracle import PropertyQuery, solution_table
from cspstruct.hierarchy import (
    edge_catalog,
    find_edge,
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
from cspstruct.model import Constraint, CspInstance, SearchSpace

from conftest import edge_instances, forced_by_product, oracle_rows, reference_violations


def holds_at(side, table, x, key):
    """Whether an edge side holds at x's instantiation ``key`` (x None on a
    "none" edge)."""
    if x is None:
        return key in side(table, x, hierarchy._NONE)
    overs = oracle.conditioning_sets(table.order, x, 0, 2)
    return key in side(table, x, hierarchy._held(table, x, overs))


def forced_for_every_assignment(table, group, y):
    """The dependence edge's right-hand side, read off the table's counts
    of distinct projections, one per variable set."""
    group = tuple(group)
    return group in find_edge("dependence-determinacy").rhs(table, y, {"vy": [group]})


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
    assert holds_at(edge5.lhs, table4, "x", ("true",))
    assert holds_at(edge5.rhs, table4, "x", ("true",))
    table2 = solution_table(*coloring)
    edge2 = find_edge("irrelevance-fixability")
    assert holds_at(edge2.lhs, table2, "x1", ())
    assert holds_at(edge2.rhs, table2, "x1", ())


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
    assert holds_at(edge.lhs, table, None, ())
    assert holds_at(edge.rhs, table, None, ())


def test_forced_for_every_assignment_matches_naive_route(corpus):
    # Dual-route check for the dependence edge's right-hand side: compare
    # the projection counts with literally restricting the space per
    # assignment, for every target and every set of up to two others.
    for number, (inst, full) in enumerate(corpus[:25]):
        space = full
        if number % 2:  # exercise restricted spaces too
            space = full.remove(inst.variables[3], inst.domain[1])
        table = solution_table(inst, space)
        for y in inst.variables:
            for group in oracle.conditioning_sets(inst.variables, y, 0, 2):
                fast = forced_for_every_assignment(table, group, y)
                naive = True
                for combo in itertools.product(*(space.values(v) for v in group)):
                    restricted = space
                    for v, a in zip(group, combo):
                        restricted = restricted.assign(v, a)
                    restricted_table = solution_table(inst, restricted)
                    if not any(
                        oracle.evaluate(restricted_table, PropertyQuery("implied", y, (a,))).holds
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


def _determinacy_tables():
    """Tables on random instances over full and narrowed spaces, a table of
    no rows and a table of one row."""
    rng = random.Random(3)
    for number in range(20):
        spec = RandomSpec(rng.randint(2, 5), rng.randint(2, 3), rng.randint(1, 5), 3, 0.6, number)
        inst, full = gen_random(spec)
        narrowed = full
        for v in inst.variables:
            if rng.random() < 0.4:
                narrowed = narrowed.remove(v, rng.choice(narrowed.values(v)))
        yield solution_table(inst, full)
        yield solution_table(inst, narrowed)
    less = Constraint("less", ("a", "b"), [("0", "1")])
    inst = CspInstance(("a", "b", "c"), ("0", "1"), (less,))
    space = SearchSpace.full(inst)
    yield solution_table(inst, space.assign("b", "0"))  # no rows
    yield solution_table(inst, space.assign("c", "1"))  # one row


def test_determinacy_is_one_pass_per_variable_set(monkeypatch):
    # On a table with answer rows, validating makes one pass per variable
    # set: each target y alone, and, unless y takes one value over the rows
    # (then every V forces y), each conditioning set V of up to two
    # variables, and V with y where V takes as many projections as y (else
    # V cannot force y).  None on a table of fewer than two rows.  Every
    # (V, y) reads its answer off those passes, and each answer is the
    # product definition's.
    passes = []
    projection = oracle._projection

    def counted(positions):
        passes.append(positions)
        return projection(positions)

    sizes = set()
    for table in _determinacy_tables():
        sizes.add(len(table.rows))
        names = table.order
        oracle_rows(table, 2)
        passes.clear()
        monkeypatch.setattr(oracle, "_projection", counted)
        assert validate_hierarchy(table) == []
        monkeypatch.setattr(oracle, "_projection", projection)
        asked = [(over, y) for y in names for over in oracle.conditioning_sets(names, y, 0, 2)]
        def count(names):
            return len({tuple(row[table.index[v]] for v in names) for row in table.rows})

        varying = [(over, y) for over, y in asked if count((y,)) > 1]
        counted_sets = {frozenset((y,)) for y in names}
        counted_sets |= {frozenset(over) for over, _ in varying}
        counted_sets |= {frozenset((*o, y)) for o, y in varying if count(o) >= count((y,))}
        if len(table.rows) < 2:
            counted_sets = set()
        assert len(passes) == len(table.classes) == len(counted_sets)
        for over, y in asked:
            assert forced_for_every_assignment(table, over, y) == forced_by_product(
                table, over, y
            )
    assert {0, 1} <= sizes


def test_dependence_edge_rejects_the_determined_reading():
    # Equality plus a free variable: y stays determined under every
    # restriction, but dependent(S, {v}, y) is false, so the edge must use
    # the "all solutions share one y value" reading.
    eq = Constraint("eq", ("y", "z"), [("0", "0"), ("1", "1")])
    inst = CspInstance(("v", "y", "z"), ("0", "1"), (eq,))
    table = solution_table(inst, SearchSpace.full(inst))
    assert oracle.evaluate(table, PropertyQuery("determined", "y")).holds
    assert not oracle.evaluate(table, PropertyQuery("dependent", "y", (), ("v",))).holds
    assert not forced_for_every_assignment(table, ("v",), "y")
    assert validate_hierarchy(table) == []


def test_fixability_edge_as_derived_detector(corpus):
    edge = find_edge("fixability-substitutability")
    for inst, space in corpus[:40]:
        table = solution_table(inst, space)
        for x in inst.variables:
            for b in space.values(x):
                derived = holds_at(edge.rhs, table, x, (b,))
                assert derived == oracle.evaluate(table, PropertyQuery("fixable", x, (b,))).holds


def test_validation_on_corpus_sample(corpus):
    for inst, space in corpus[:60]:
        assert validate_hierarchy(solution_table(inst, space)) == []


def test_warm_validation_builds_no_query_object_and_reuses_every_table(
    coloring, monkeypatch
):
    # The catalog reads the answer rows: on tables with rows, validating
    # builds no PropertyQuery and decides nothing new, and finds what a
    # cold validation finds.
    inst, full = coloring
    catalog = reverse_edge("implication-fixability")
    spaces = (full, full.remove("x2", "G"))
    cold = [validate_hierarchy(solution_table(inst, space), catalog) for space in spaces]
    assert cold[0]
    tables = [solution_table(inst, space) for space in spaces]
    rows = [
        {x: dict(row) for x, row in oracle_rows(table).items()} for table in tables
    ]

    def refuse(cls, *fields):
        raise AssertionError(f"built a query object for {fields}")

    monkeypatch.setattr(oracle.PropertyQuery, "__new__", refuse)
    for _ in range(2):
        assert [validate_hierarchy(table, catalog) for table in tables] == cold
        assert [table.answers for table in tables] == rows


def test_an_empty_catalog_checks_nothing(coloring):
    # An empty catalog is not the full one: nothing is instantiated, so
    # nothing is decided on the table.
    table = solution_table(*coloring)
    assert validate_hierarchy(table, catalog=()) == []
    assert table.answers == {}


def _controls():
    """The full catalog followed by every implication reversed, as one
    catalog: its violations are each reversed catalog's, edge by edge."""
    names = [e.name for e in edge_catalog() if e.kind == "implies"]
    return edge_catalog() + tuple(reverse_edge(name)[EDGE_NAMES.index(name)] for name in names)


@pytest.mark.parametrize("dep_max", [0, 1, 2])
def test_validation_matches_the_reference_loop(corpus, dep_max):
    # The per-variable set comparison against the per-instantiation loop:
    # the same violations, in the same order, with the same sides, on the
    # corpus's first 300 instances, on tables of 0, 1 and many rows, for
    # the full catalog and every implication reversed.
    catalog = _controls()
    tables = [solution_table(inst, space) for inst, space in corpus[:300]]
    tables += [*_determinacy_tables(), *(solution_table(*case) for case in edge_instances())]
    found = 0
    for table in tables:
        want = reference_violations(table, catalog, dep_max)
        assert validate_hierarchy(table, catalog, dep_max) == want
        found += len(want)
    sizes = {len(table.rows) for table in tables}
    assert {0, 1} <= sizes and max(sizes) > 2
    assert found > 1000
    for name in [e.name for e in edge_catalog() if e.kind == "implies"]:
        for table in tables[:40]:
            reversed_catalog = reverse_edge(name)
            assert validate_hierarchy(table, reversed_catalog, dep_max) == (
                reference_violations(table, reversed_catalog, dep_max)
            )


def test_a_dropped_key_is_named_once(corpus, coloring, backbone):
    # An edge whose right-hand side drops one key where both sides hold is
    # violated at exactly that instantiation, once, with lhs true and rhs
    # false: one value, one pair, one conditioning set, or the variable.  A
    # biconditional whose left-hand side drops it is violated there with
    # lhs false and rhs true.
    tables = [solution_table(*coloring), solution_table(*backbone)]
    tables += [solution_table(inst, space) for inst, space in corpus[:30]]
    shapes = set()
    for table in tables:
        for edge in edge_catalog():
            for x in (None,) if edge.args == "none" else table.order:
                if x is None:
                    held = hierarchy._NONE
                else:
                    held = hierarchy._held(table, x, oracle.conditioning_sets(table.order, x, 0, 2))
                both = edge.lhs(table, x, held) & edge.rhs(table, x, held)
                for key in held[edge.args]:
                    if key not in both:
                        continue

                    def dropping(side, x=x, key=key):
                        return lambda t, v, h: side(t, v, h) - {key} if v == x else side(t, v, h)

                    args = (key, x) if edge.args == "vy" else key if x is None else (x, *key)
                    broken = hierarchy.RelationshipEdge(
                        edge.name, edge.kind, edge.args, edge.lhs, dropping(edge.rhs)
                    )
                    assert validate_hierarchy(table, (broken,)) == [
                        hierarchy.Violation(edge.name, edge.kind, args, True, False)
                    ]
                    if edge.kind == "iff":
                        broken = hierarchy.RelationshipEdge(
                            edge.name, edge.kind, edge.args, dropping(edge.lhs), edge.rhs
                        )
                        assert validate_hierarchy(table, (broken,)) == [
                            hierarchy.Violation(edge.name, edge.kind, args, False, True)
                        ]
                    shapes.add(edge.args)
    assert shapes == {"none", "x", "xa", "xab", "vy"}
