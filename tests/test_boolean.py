import itertools

import pytest

from cspstruct import oracle
from cspstruct.boolean import (
    AffineEquation,
    BooleanFormula,
    ClassMismatchError,
    Clause,
    Literal,
    SchaeferClass,
    UnsupportedQueryError,
    classify_schaefer,
    clause_of,
    complement_conjunction,
    instantiate_project,
    sat_restricted,
    to_extensional,
    tract_check,
)
from cspstruct.instances import boolean_corpus, gen_random_boolean
from cspstruct.model import SearchSpace
from cspstruct.oracle import PropertyQuery as Q


def clause(*lits):
    return Clause(frozenset(Literal(v, positive) for v, positive in lits))


def brute_force_models(formula):
    models = []
    for bits in itertools.product((False, True), repeat=len(formula.variables)):
        model = dict(zip(formula.variables, bits))
        if formula.satisfied_by(model):
            models.append(model)
    return models


class TestClassification:
    def test_horn(self):
        f = BooleanFormula(
            ("a", "b", "c"),
            (clause(("a", False), ("b", False), ("c", True)), clause(("c", False))),
        )
        result = classify_schaefer(f)
        assert result.primary is SchaeferClass.HORN
        assert SchaeferClass.HORN in result.applicable

    def test_mixed_polarity_cnf_is_unrestricted(self, pure_literal_cnf):
        result = classify_schaefer(pure_literal_cnf)
        assert result.primary is SchaeferClass.UNRESTRICTED
        assert result.applicable == ()

    def test_affine(self):
        f = BooleanFormula(
            ("a", "b", "c"),
            (),
            (AffineEquation(frozenset("ab"), True), AffineEquation(frozenset("bc"), False)),
        )
        assert classify_schaefer(f).primary is SchaeferClass.AFFINE

    def test_mixed_is_unrestricted(self):
        f = BooleanFormula(
            ("a", "b"),
            (clause(("a", True)),),
            (AffineEquation(frozenset("b"), True),),
        )
        assert classify_schaefer(f).primary is SchaeferClass.UNRESTRICTED

    def test_unit_clauses_carry_several_tags(self):
        f = BooleanFormula(("a",), (clause(("a", True)),))
        result = classify_schaefer(f)
        assert result.primary is SchaeferClass.HORN
        assert set(result.applicable) == {
            SchaeferClass.HORN,
            SchaeferClass.DUAL_HORN,
            SchaeferClass.TWO_CNF,
        }


class TestClauseInvariants:
    def test_tautology_rejected(self):
        with pytest.raises(ValueError, match="tautological"):
            clause(("a", True), ("a", False))

    def test_clause_of_returns_none_for_tautology(self):
        assert clause_of([Literal("a", True), Literal("a", False)]) is None
        assert clause_of([Literal("a", True)]) is not None

    def test_formula_variable_discipline(self):
        with pytest.raises(ValueError, match="undeclared"):
            BooleanFormula(("a",), (clause(("b", True)),))


class TestSatRestricted:
    def test_horn_unit_chain_unsat(self):
        f = BooleanFormula(
            ("a", "b"),
            (clause(("a", False), ("b", True)), clause(("a", True)), clause(("b", False))),
        )
        assert sat_restricted(f, SchaeferClass.HORN) is None

    def test_two_cnf_model(self):
        f = BooleanFormula(
            ("a", "b"),
            (
                clause(("a", True), ("b", True)),
                clause(("a", False), ("b", True)),
                clause(("a", True), ("b", False)),
            ),
        )
        expected = brute_force_models(f)
        model = sat_restricted(f, "2cnf")
        assert model in expected
        assert model == {"a": True, "b": True}

    def test_affine_contradiction(self):
        f = BooleanFormula(
            ("a", "b"),
            (),
            (AffineEquation(frozenset("ab"), True), AffineEquation(frozenset("ab"), False)),
        )
        assert sat_restricted(f, "affine") is None

    def test_class_mismatch(self):
        f = BooleanFormula(("a", "b", "c"), (clause(("a", True), ("b", True), ("c", True)),))
        with pytest.raises(ClassMismatchError):
            sat_restricted(f, SchaeferClass.HORN)
        with pytest.raises(ClassMismatchError):
            sat_restricted(f, SchaeferClass.UNRESTRICTED)

    def test_empty_formula_is_satisfiable(self):
        f = BooleanFormula(("a",))
        assert sat_restricted(f, "horn") == {"a": False}

    def test_empty_clause_is_unsatisfiable(self):
        f = BooleanFormula(("a",), (Clause(frozenset()),))
        for cls in ("horn", "dual-horn", "2cnf"):
            assert sat_restricted(f, cls) is None

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_agrees_with_brute_force(self, kind):
        for seed in range(1, 80):
            formula = gen_random_boolean(kind, 5, 8, seed)
            model = sat_restricted(formula, kind)
            expected = brute_force_models(formula)
            if model is None:
                assert not expected, (kind, seed)
            else:
                assert formula.satisfied_by(model), (kind, seed)
                assert expected

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_agrees_with_brute_force_on_corpus_slice(self, kind):
        for formula in itertools.islice(boolean_corpus(kind), 60):
            model = sat_restricted(formula, kind)
            if model is None:
                assert not brute_force_models(formula)
            else:
                assert formula.satisfied_by(model)


class TestInstantiateProject:
    def test_clause_literal_removed(self):
        c = clause(("x", False), ("y", True))
        (result,) = instantiate_project(c, "x", True)
        assert result == clause(("y", True))

    def test_clause_satisfied(self):
        c = clause(("x", False), ("y", True))
        assert instantiate_project(c, "x", False) == ()

    def test_unit_clause_becomes_false_marker(self):
        (result,) = instantiate_project(clause(("x", True)), "x", False)
        assert result.is_empty

    def test_absent_variable_unchanged(self):
        c = clause(("y", True))
        assert instantiate_project(c, "x", True) == (c,)

    def test_equation_fold(self):
        eq = AffineEquation(frozenset("xy"), True)
        (result,) = instantiate_project(eq, "x", True)
        assert result == AffineEquation(frozenset("y"), False)

    def test_closure_on_corpus(self):
        for kind, cls in (
            ("horn", SchaeferClass.HORN),
            ("dual-horn", SchaeferClass.DUAL_HORN),
            ("2cnf", SchaeferClass.TWO_CNF),
            ("affine", SchaeferClass.AFFINE),
        ):
            for seed in range(1, 25):
                formula = gen_random_boolean(kind, 5, 6, seed)
                for item in formula.constraints:
                    for value in (False, True):
                        pieces = instantiate_project(item, "v1", value)
                        pieces += complement_conjunction(item)
                        clauses = tuple(p for p in pieces if isinstance(p, Clause))
                        equations = tuple(
                            p for p in pieces if isinstance(p, AffineEquation)
                        )
                        rebuilt = BooleanFormula(formula.variables, clauses, equations)
                        assert cls in classify_schaefer(rebuilt).applicable


class TestComplement:
    def test_clause_to_units(self):
        result = complement_conjunction(clause(("a", True), ("b", False)))
        assert result == (clause(("a", False)), clause(("b", True)))

    def test_unit_clause(self):
        assert complement_conjunction(clause(("a", True))) == (clause(("a", False)),)

    def test_equation_parity_flip(self):
        eq = AffineEquation(frozenset("ab"), True)
        assert complement_conjunction(eq) == (AffineEquation(frozenset("ab"), False),)

    def test_false_marker_complement_is_empty(self):
        assert complement_conjunction(Clause(frozenset())) == ()


class TestTractCheck:
    def test_horn_chain_properties(self):
        f = BooleanFormula(
            ("x", "y"), (clause(("x", True)), clause(("x", False), ("y", True)))
        )
        assert tract_check(f, "horn", Q.implied("x", "true"))
        assert tract_check(f, "horn", Q.implied("y", "true"))
        assert tract_check(f, "horn", Q.determined("y"))
        assert tract_check(f, "horn", Q.inconsistent("x", "false"))
        assert tract_check(f, "horn", Q.fixable("x", "true"))
        assert not tract_check(f, "horn", Q.fixable("x", "false"))

    def test_identity_substitution(self):
        f = BooleanFormula(("x",), (clause(("x", True)),))
        assert tract_check(f, "horn", Q.substitutable("x", "true", "true"))
        assert tract_check(f, "horn", Q.substitutable("x", "false", "false"))

    def test_dependence_unsupported(self):
        f = BooleanFormula(("x", "y"), (clause(("x", True)),))
        with pytest.raises(UnsupportedQueryError, match="dependence"):
            tract_check(f, "horn", Q.dependent(("x",), "y"))

    def test_class_mismatch(self):
        f = BooleanFormula(("a", "b", "c"), (clause(("a", True), ("b", True), ("c", True)),))
        with pytest.raises(ClassMismatchError):
            tract_check(f, "horn", Q.implied("a", "true"))

    def test_non_boolean_values_rejected(self):
        f = BooleanFormula(("x",), (clause(("x", True)),))
        with pytest.raises(ValueError, match="boolean"):
            tract_check(f, "horn", Q.implied("x", "maybe"))

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_agrees_with_oracle_on_sample(self, kind):
        for formula in itertools.islice(boolean_corpus(kind), 30):
            expanded = to_extensional(formula)
            space = SearchSpace.full(expanded)
            for query in _boolean_queries(formula):
                assert tract_check(formula, kind, query) == oracle.evaluate(
                    expanded, space, query
                ).holds, (kind, formula, query)


def _boolean_queries(formula):
    values = ("false", "true")
    for x in formula.variables:
        for a in values:
            yield Q.inconsistent(x, a)
            yield Q.implied(x, a)
            yield Q.fixable(x, a)
            yield Q.removable(x, a)
            for b in values:
                yield Q.substitutable(x, a, b)
                yield Q.interchangeable(x, a, b)
        yield Q.determined(x)
        yield Q.irrelevant(x)


class TestToExtensional:
    def test_clause_expansion(self):
        f = BooleanFormula(("x", "y"), (clause(("x", False), ("y", True)),))
        inst = to_extensional(f)
        assert inst.domain == ("false", "true")
        assert inst.constraints[0].relation.rows == {
            ("false", "false"),
            ("false", "true"),
            ("true", "true"),
        }

    def test_false_marker_expansion(self):
        f = BooleanFormula(("x",), (Clause(frozenset()),))
        inst = to_extensional(f)
        assert not oracle.satisfiable(inst, SearchSpace.full(inst))

    def test_equation_expansion(self):
        f = BooleanFormula(("x", "y"), (), (AffineEquation(frozenset("xy"), True),))
        inst = to_extensional(f)
        assert inst.constraints[0].relation.rows == {
            ("false", "true"),
            ("true", "false"),
        }
