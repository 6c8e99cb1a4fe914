import pytest

from cspstruct import oracle
from cspstruct.boolean import BooleanFormula, Clause, Literal, to_extensional
from cspstruct.instances import gen_random_boolean
from cspstruct.local import (
    AND_KINDS,
    OR_KINDS,
    Covering,
    UnsoundLocalCheckError,
    default_covering,
    local_check,
    pure_value_fixable,
    subproblem,
)
from cspstruct.model import Constraint, CspInstance, Relation, SearchSpace
from cspstruct.oracle import PropertyQuery as Q


class TestDefaultCovering:
    def test_singletons(self, triple_tables):
        inst, _ = triple_tables
        assert default_covering(inst, 1).groups == ((0,), (1,), (2,))

    def test_whole_set(self, triple_tables):
        inst, _ = triple_tables
        assert default_covering(inst, 3).groups == ((0, 1, 2),)

    def test_uneven_chunks(self):
        unary = Constraint("c", ("a",), Relation.of(1, [("0",)]))
        five = CspInstance(
            ("a", "b"),
            ("0",),
            tuple(
                Constraint(f"c{i}", ("a",), unary.relation) for i in range(5)
            ),
        )
        assert default_covering(five, 2).groups == ((0, 1), (2, 3), (4,))
        empty = CspInstance(("a",), ("0",))
        assert default_covering(empty, 1).groups == ()

    def test_group_size_validation(self, triple_tables):
        inst, _ = triple_tables
        with pytest.raises(ValueError, match="at least 1"):
            default_covering(inst, 0)


class TestLocalCheck:
    def test_substitutable_across_tables(self, triple_tables):
        inst, space = triple_tables
        verdict = local_check(inst, space, default_covering(inst), Q.substitutable("x", "1", "2"))
        assert verdict.established
        assert verdict.per_group == (True, True, True)
        assert verdict.verdict == "established"

    def test_fixable_in_every_table(self, triple_tables):
        inst, space = triple_tables
        verdict = local_check(inst, space, default_covering(inst), Q.fixable("z", "2"))
        assert verdict.established
        assert verdict.per_group == (True, True, True)

    def test_removable_rejected(self, triple_tables):
        inst, space = triple_tables
        with pytest.raises(UnsoundLocalCheckError, match="not sound|cannot establish"):
            local_check(inst, space, default_covering(inst), Q.removable("x", "1"))

    def test_unknown_value_rejected(self, triple_tables):
        inst, space = triple_tables
        with pytest.raises(ValueError, match="not active"):
            local_check(inst, space, default_covering(inst), Q.fixable("x", "9"))

    def test_covering_must_cover(self, triple_tables):
        inst, space = triple_tables
        bad = [
            (Covering(((0,), (1,))), "cover every constraint"),
            (Covering(((0,), (1,), (2, 7))), "covering index 7 out of range"),
        ]
        # A passing covering check is cached; a failing one must raise on
        # every call, also once a valid covering of the instance was used.
        for _ in range(2):
            for covering, message in bad:
                with pytest.raises(ValueError, match=message):
                    local_check(inst, space, covering, Q.fixable("z", "2"))
            local_check(inst, space, default_covering(inst), Q.fixable("z", "2"))
        with pytest.raises(ValueError, match="nonempty"):
            Covering(((0,), ()))

    def test_overlapping_covering_accepted(self, triple_tables):
        inst, space = triple_tables
        overlapping = Covering(((0, 1), (1, 2), (0, 2)))
        verdict = local_check(inst, space, overlapping, Q.substitutable("x", "1", "2"))
        assert verdict.established

    def test_empty_constraint_set_combinator_identities(self):
        inst = CspInstance(("a",), ("0", "1"))
        space = SearchSpace.full(inst)
        covering = default_covering(inst)
        assert covering.groups == ()
        assert local_check(inst, space, covering, Q.fixable("a", "0")).established
        assert not local_check(inst, space, covering, Q.implied("a", "0")).established


def _corpus_queries(inst, space):
    return oracle.all_queries(inst, space, tuple(AND_KINDS | OR_KINDS), dep_max=2)


class TestExactnessOfFastPaths:
    def test_singleton_fast_path_equals_subproblem_oracle(self, corpus):
        for inst, space in corpus[:40]:
            covering = default_covering(inst, 1)
            for query in _corpus_queries(inst, space):
                verdict = local_check(inst, space, covering, query)
                for position, group in enumerate(covering.groups):
                    sub = subproblem(inst, group)
                    assert verdict.per_group[position] == oracle.evaluate(
                        sub, space, query
                    ).holds

    def test_fast_path_with_restricted_space(self, corpus):
        for inst, space in corpus[:15]:
            narrowed = space.remove(inst.variables[0], inst.domain[0])
            narrowed = narrowed.remove(inst.variables[2], inst.domain[2])
            covering = default_covering(inst, 1)
            for query in _corpus_queries(inst, narrowed):
                verdict = local_check(inst, narrowed, covering, query)
                for position, group in enumerate(covering.groups):
                    sub = subproblem(inst, group)
                    assert verdict.per_group[position] == oracle.evaluate(
                        sub, narrowed, query
                    ).holds


class TestSoundness:
    def test_on_corpus_sample(self, corpus):
        for inst, space in corpus[:50]:
            queries = _corpus_queries(inst, space)
            for group_size in (1, 2):
                covering = default_covering(inst, group_size)
                for query in queries:
                    if local_check(inst, space, covering, query).established:
                        assert oracle.evaluate(inst, space, query).holds

    def test_global_covering_equals_oracle(self, corpus):
        for inst, space in corpus[:50]:
            covering = default_covering(inst, len(inst.constraints))
            for query in _corpus_queries(inst, space):
                assert (
                    local_check(inst, space, covering, query).established
                    == oracle.evaluate(inst, space, query).holds
                )


class TestRemovabilityTrapRegression:
    def test_three_assertions(self, removability_trap):
        inst, space = removability_trap
        # (a) the removability query is rejected outright
        with pytest.raises(UnsoundLocalCheckError):
            local_check(inst, space, default_covering(inst), Q.removable("x", "2"))
        # (b) yet every singleton subproblem satisfies the removability
        # condition for (x, 2)
        for index in range(len(inst.constraints)):
            sub = subproblem(inst, (index,))
            assert oracle.check_removable(sub, space, "x", "2")
        # (c) and removing 2 from x flips satisfiability
        assert oracle.satisfiable(inst, space)
        assert not oracle.satisfiable(inst, space.remove("x", "2"))


class TestPureValue:
    def test_pure_literal_cnf_fixture(self, pure_literal_cnf):
        assert pure_value_fixable(pure_literal_cnf, "x") is True
        assert pure_value_fixable(pure_literal_cnf, "y") is None
        assert pure_value_fixable(pure_literal_cnf, "z") is None

    def test_absent_variable_reports_true(self):
        f = BooleanFormula(("a", "b"), (Clause(frozenset({Literal("a", True)})),))
        assert pure_value_fixable(f, "b") is True

    def test_both_polarities_give_none(self):
        f = BooleanFormula(
            ("a",),
            (
                Clause(frozenset({Literal("a", True)})),
                Clause(frozenset({Literal("a", False)})),
            ),
        )
        assert pure_value_fixable(f, "a") is None

    def test_negative_only_gives_false(self):
        f = BooleanFormula(("a",), (Clause(frozenset({Literal("a", False)})),))
        assert pure_value_fixable(f, "a") is False

    def test_requires_clausal_formula(self):
        from cspstruct.boolean import AffineEquation

        f = BooleanFormula(("a",), (), (AffineEquation(frozenset({"a"}), True),))
        with pytest.raises(ValueError, match="clausal"):
            pure_value_fixable(f, "a")

    def test_matches_local_fixability_and_oracle_on_random_cnfs(self):
        import random

        sizes = random.Random("cnf-sizes")
        for seed in range(1, 40):
            formula = gen_random_boolean(
                "cnf", sizes.randint(3, 10), sizes.randint(1, 15), seed
            )
            inst = to_extensional(formula)
            space = SearchSpace.full(inst)
            covering = default_covering(inst, 1)
            for x in formula.variables:
                value = pure_value_fixable(formula, x)
                for candidate, name in ((True, "true"), (False, "false")):
                    local_says = local_check(
                        inst, space, covering, Q.fixable(x, name)
                    ).established
                    assert local_says == (
                        value is candidate or _pure_both_ways(formula, x)
                    ), (seed, x, candidate)
                if value is not None:
                    assert oracle.check_fixable(
                        inst, space, x, "true" if value else "false"
                    )


def _pure_both_ways(formula, x):
    return all(x not in c.variables for c in formula.clauses)
