"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import pytest

from cspstruct import boolean, local, oracle, simplify
from cspstruct.boolean import to_extensional
from cspstruct.hierarchy import validate_hierarchy
from cspstruct.instances import FactoringSpec, factoring_space, gen_factoring
from cspstruct.local import UnsoundLocalCheckError, default_covering, local_check
from cspstruct.model import SearchSpace
from cspstruct.oracle import PropertyQuery as Q

from conftest import decode_factors, pure_values, subproblem, table_solutions


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_coloring_oracle_verdicts(coloring):
    start = time.perf_counter()
    inst, space = coloring
    table = oracle.solution_table(inst, space)
    assert oracle.evaluate(table, Q("fixable", "x1", ("R",))).holds is True
    assert oracle.evaluate(table, Q("substitutable", "x1", ("R", "G"))).holds is True
    assert oracle.evaluate(table, Q("interchangeable", "x1", ("R", "G"))).holds is True
    assert oracle.evaluate(table, Q("removable", "x1", ("G",))).holds is True
    assert oracle.evaluate(table, Q("irrelevant", "x1")).holds is True
    assert oracle.evaluate(table, Q("removable", "x5", ("G",))).holds is True
    assert oracle.evaluate(table, Q("determined", "x1")).holds is False
    assert time.perf_counter() - start < 1.0
    _report(1, "coloring example, exact oracle verdicts under 1s")


def test_criterion_02_boolean_backbone_properties(backbone):
    start = time.perf_counter()
    inst, space = backbone
    expected_true = [
        Q("inconsistent", "x", ("false",)),
        Q("inconsistent", "y", ("false",)),
        Q("fixable", "x", ("true",)),
        Q("fixable", "q", ("true",)),
        Q("fixable", "r", ("true",)),
        Q("implied", "x", ("true",)),
        Q("implied", "y", ("true",)),
        Q("implied", "q", ("true",)),
        Q("implied", "r", ("true",)),
        Q("determined", "y"),
        Q("dependent", "p", (), ("z", "w")),
        Q("dependent", "q", (), ("z", "y")),
        Q("dependent", "r", (), ("z", "y")),
    ]
    assert len(expected_true) == 13
    table = oracle.solution_table(inst, space)
    for query in expected_true:
        assert oracle.evaluate(table, query).holds, query.describe()
    assert time.perf_counter() - start < 1.0
    _report(2, "boolean example, all 13 properties under 1s")


def test_criterion_03_local_establishment(triple_tables):
    inst, space = triple_tables
    groups = local.group_tables(inst, default_covering(inst, 1), space)
    assert local_check(groups, Q("substitutable", "x", ("1", "2"))).established
    assert local_check(groups, Q("fixable", "z", ("2",))).established
    _report(3, "local reasoning establishes the two worked facts")


def test_criterion_04_pure_value_rule(pure_literal_cnf):
    assert pure_values(pure_literal_cnf)["x"] is True
    inst = to_extensional(pure_literal_cnf)
    space = SearchSpace.full(inst)
    assert oracle.evaluate(oracle.solution_table(inst, space), Q("fixable", "x", ("true",))).holds
    result = simplify.simplify_fixpoint(inst, space, formula=pure_literal_cnf)
    assert "FIX x=true BY pure-value" in result.log().splitlines()
    _report(4, "pure-value rule fires and the simplifier logs it")


def test_criterion_05_unsound_removability_regression(removability_trap):
    inst, space = removability_trap
    # (a) the local check refuses the removability query
    with pytest.raises(UnsoundLocalCheckError):
        local_check(
            local.group_tables(inst, default_covering(inst, 1), space), Q("removable", "x", ("2",))
        )
    # (b) every singleton subproblem satisfies the removability condition
    for index in range(len(inst.constraints)):
        table = oracle.solution_table(subproblem(inst, (index,)), space)
        assert oracle.evaluate(table, Q("removable", "x", ("2",))).holds
    # (c) removing the value flips satisfiability
    assert oracle.satisfiable(inst, space) is True
    assert oracle.satisfiable(inst, space.remove("x", "2")) is False
    _report(5, "locally removable value is globally required")


def test_criterion_06_schaefer_exactness(boolean_corpora):
    start = time.perf_counter()
    values = ("false", "true")
    disagreements = 0
    for kind, formulas in boolean_corpora.items():
        assert len(formulas) == 500
        for formula in formulas:
            expanded = to_extensional(formula)
            compiled = boolean.CompiledFormula(formula, kind)
            table = oracle.solution_table(expanded, SearchSpace.full(expanded))
            queries = []
            for x in formula.variables:
                for a in values:
                    queries.append(Q("inconsistent", x, (a,)))
                    queries.append(Q("implied", x, (a,)))
                    queries.append(Q("fixable", x, (a,)))
                    queries.append(Q("removable", x, (a,)))
                    for b in values:
                        queries.append(Q("substitutable", x, (a, b)))
                        queries.append(Q("interchangeable", x, (a, b)))
                queries.append(Q("determined", x))
                queries.append(Q("irrelevant", x))
            for query in queries:
                fast = boolean.tract_check(compiled, query)
                slow = oracle.evaluate(table, query).holds
                if fast != slow:
                    disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    _report(6, f"2000 formulas, zero disagreements, {elapsed:.0f}s")


def test_criterion_07_hierarchy_validation(corpus):
    assert len(corpus) == 1000
    total = 0
    for inst, space in corpus:
        total += len(validate_hierarchy(oracle.solution_table(inst, space), dep_max=2))
    assert total == 0
    _report(7, "1000 instances, zero violations over all 11 edges")


def test_criterion_08_local_soundness(corpus):
    kinds = tuple(local.AND_KINDS | local.OR_KINDS)
    for inst, space in corpus:
        queries = oracle.all_queries(inst, space, kinds, dep_max=2)
        table = oracle.solution_table(inst, space)
        truths = {q: oracle.evaluate(table, q).holds for q in queries}
        for group_size in (1, 2, len(inst.constraints)):
            groups = local.group_tables(inst, default_covering(inst, group_size), space)
            global_covering = group_size >= len(inst.constraints)
            for query in queries:
                established = local_check(groups, query).established
                if established:
                    assert truths[query], (inst, group_size, query.describe())
                if global_covering:
                    assert established == truths[query], (inst, query.describe())
    _report(8, "local facts sound at sizes 1 and 2; global covering exact")


def test_criterion_09_simplifier_equisatisfiability(corpus, boolean_corpora):
    def audit(inst, space, formula):
        before = oracle.satisfiable(inst, space)
        for mode in ("production", "test"):
            result = simplify.simplify_fixpoint(inst, space, mode=mode, formula=formula)
            product = space.size()
            for step in result.steps:
                assert step.space_after < step.space_before == product
                product = step.space_after
            if result.proved_unsatisfiable:
                assert not before
            elif result.steps:
                assert oracle.satisfiable(inst, result.final_space) == before
            # no steps: the space is unchanged, satisfiability trivially equal

    for inst, space in corpus:
        audit(inst, space, None)
    for formulas in boolean_corpora.values():
        for formula in formulas:
            inst = to_extensional(formula)
            audit(inst, SearchSpace.full(inst), formula)
    _report(9, "equi-satisfiable in both modes; every step shrinks the space")


def test_criterion_10_factoring():
    start = time.perf_counter()
    ordered = FactoringSpec(15, 2, ordering=True)
    inst = gen_factoring(ordered)
    space = factoring_space(ordered)
    solutions = table_solutions(inst, space)
    assert len(solutions) == 1
    assert decode_factors(ordered, solutions[0]) == (3, 5)
    table = oracle.solution_table(inst, space)
    for x in inst.variables:
        assert any(oracle.evaluate(table, Q("implied", x, (a,))).holds for a in space.values(x))
    digits = tuple(v for v in inst.variables if v[0] in "xy")
    for carry in (v for v in inst.variables if v.startswith("c")):
        assert oracle.evaluate(table, Q("dependent", carry, (), digits)).holds
    unordered = FactoringSpec(15, 2, ordering=False)
    inst2 = gen_factoring(unordered)
    sols2 = table_solutions(inst2, factoring_space(unordered))
    assert sorted(decode_factors(unordered, t) for t in sols2) == [(3, 5), (5, 3)]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(10, f"factoring 15 = 3*5 unique with ordering, {elapsed:.1f}s")
