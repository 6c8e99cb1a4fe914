import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import boolean, oracle
from cspstruct.boolean import (
    AffineEquation,
    BooleanFormula,
    ClassMismatchError,
    Clause,
    CompiledFormula,
    Literal,
    SchaeferClass,
    UnsupportedQueryError,
    assume,
    classify_schaefer,
    clause_of,
    instantiate_project,
    to_extensional,
    tract_check,
)
from cspstruct.instances import boolean_corpus, gen_random_boolean
from cspstruct.model import SearchSpace
from cspstruct.oracle import PropertyQuery as Q


def clause(*lits):
    return Clause(frozenset(Literal(v, positive) for v, positive in lits))


def satisfies(formula, model):
    """Every clause has a true literal and every equation its parity."""
    return all(
        any(model[l.variable] == l.positive for l in c.literals) for c in formula.clauses
    ) and all(
        sum(model[v] for v in eq.variables) % 2 == eq.parity for eq in formula.equations
    )


def brute_force_models(formula):
    models = []
    for bits in itertools.product((False, True), repeat=len(formula.variables)):
        model = dict(zip(formula.variables, bits))
        if satisfies(formula, model):
            models.append(model)
    return models


def tract(formula, kind, query):
    """``tract_check`` on a compiled form built for this query alone."""
    return tract_check(CompiledFormula(formula, kind), query)


def pinned(formula, kind, *rounds):
    """A fresh compiled form of the formula with each round of pins applied
    in turn.  Every free variable's row is read before each round, so a row
    that a pin keeps shows in its answers after."""
    compiled = CompiledFormula(formula, kind)
    for pins in rounds:
        for x in formula.variables:
            if x in compiled:
                compiled.row(x)
        compiled.pin(pins)
    return compiled


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
    """The compiled form's satisfiability against brute force."""

    def test_horn_unit_chain_unsat(self):
        f = BooleanFormula(
            ("a", "b"),
            (clause(("a", False), ("b", True)), clause(("a", True)), clause(("b", False))),
        )
        assert not CompiledFormula(f, SchaeferClass.HORN).satisfiable

    def test_two_cnf_model(self):
        f = BooleanFormula(
            ("a", "b"),
            (
                clause(("a", True), ("b", True)),
                clause(("a", False), ("b", True)),
                clause(("a", True), ("b", False)),
            ),
        )
        assert brute_force_models(f) == [{"a": True, "b": True}]
        compiled = CompiledFormula(f, "2cnf")
        assert compiled.satisfiable
        assert not pinned(f, "2cnf", {"a": False}).satisfiable
        assert pinned(f, "2cnf", {"b": True}).satisfiable

    def test_affine_contradiction(self):
        f = BooleanFormula(
            ("a", "b"),
            (),
            (AffineEquation(frozenset("ab"), True), AffineEquation(frozenset("ab"), False)),
        )
        assert not CompiledFormula(f, "affine").satisfiable

    def test_class_mismatch(self):
        f = BooleanFormula(("a", "b", "c"), (clause(("a", True), ("b", True), ("c", True)),))
        for cls in (SchaeferClass.HORN, "2cnf", "affine", SchaeferClass.UNRESTRICTED):
            with pytest.raises(ClassMismatchError):
                CompiledFormula(f, cls)

    def test_empty_formula_is_satisfiable(self):
        f = BooleanFormula(("a",))
        for cls in ("horn", "dual-horn", "2cnf", "affine"):
            assert CompiledFormula(f, cls).satisfiable

    def test_empty_clause_is_unsatisfiable(self):
        f = BooleanFormula(("a",), (Clause(frozenset()),))
        for cls in ("horn", "dual-horn", "2cnf"):
            assert not CompiledFormula(f, cls).satisfiable

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_agrees_with_brute_force(self, kind):
        for seed in range(1, 80):
            formula = gen_random_boolean(kind, 5, 8, seed)
            assert CompiledFormula(formula, kind).satisfiable == bool(
                brute_force_models(formula)
            ), (kind, seed)

    def test_two_cnf_agrees_with_brute_force(self):
        # Random 2CNFs of up to 7 variables, units included: propagation
        # alone misses the conflicts of some unsatisfiable ones, which the
        # component pass over the clauses left open must find.
        rng = random.Random(20)
        missed_by_propagation = 0
        for _ in range(3000):
            names = tuple(f"v{i}" for i in range(rng.randint(1, 7)))
            clauses = set()
            for _ in range(rng.randint(0, 3 * len(names))):
                chosen = rng.sample(names, min(len(names), rng.choice((1, 2, 2, 2))))
                clauses.add(clause(*((v, rng.random() < 0.5) for v in chosen)))
            formula = BooleanFormula(names, tuple(clauses))
            compiled = CompiledFormula(formula, "2cnf")
            assert compiled.satisfiable == bool(brute_force_models(formula)), formula
            if not compiled.satisfiable and compiled._units.consistent:
                missed_by_propagation += 1
        assert missed_by_propagation >= 10

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_agrees_with_brute_force_on_corpus_slice(self, kind):
        for formula in itertools.islice(boolean_corpus(kind), 60):
            assert CompiledFormula(formula, kind).satisfiable == bool(
                brute_force_models(formula)
            )


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
                        clauses = tuple(p for p in pieces if isinstance(p, Clause))
                        equations = tuple(
                            p for p in pieces if isinstance(p, AffineEquation)
                        )
                        rebuilt = BooleanFormula(formula.variables, clauses, equations)
                        assert cls in classify_schaefer(rebuilt).applicable


class TestTractCheck:
    def test_horn_chain_properties(self):
        f = BooleanFormula(
            ("x", "y"), (clause(("x", True)), clause(("x", False), ("y", True)))
        )
        assert tract(f, "horn", Q("implied", "x", ("true",)))
        assert tract(f, "horn", Q("implied", "y", ("true",)))
        assert tract(f, "horn", Q("determined", "y"))
        assert tract(f, "horn", Q("inconsistent", "x", ("false",)))
        assert tract(f, "horn", Q("fixable", "x", ("true",)))
        assert not tract(f, "horn", Q("fixable", "x", ("false",)))

    def test_identity_substitution(self):
        f = BooleanFormula(("x",), (clause(("x", True)),))
        assert tract(f, "horn", Q("substitutable", "x", ("true", "true")))
        assert tract(f, "horn", Q("substitutable", "x", ("false", "false")))

    def test_dependence_unsupported(self):
        f = BooleanFormula(("x", "y"), (clause(("x", True)),))
        with pytest.raises(UnsupportedQueryError, match="dependence"):
            tract(f, "horn", Q("dependent", "y", (), ("x",)))

    def test_class_mismatch(self):
        f = BooleanFormula(("a", "b", "c"), (clause(("a", True), ("b", True), ("c", True)),))
        with pytest.raises(ClassMismatchError):
            tract(f, "horn", Q("implied", "a", ("true",)))

    def test_non_boolean_values_rejected(self):
        f = BooleanFormula(("x",), (clause(("x", True)),))
        with pytest.raises(ValueError, match="boolean"):
            tract(f, "horn", Q("implied", "x", ("maybe",)))

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_agrees_with_oracle_on_sample(self, kind):
        for formula in itertools.islice(boolean_corpus(kind), 30):
            expanded = to_extensional(formula)
            table = oracle.solution_table(expanded, SearchSpace.full(expanded))
            compiled = CompiledFormula(formula, kind)
            for query in _boolean_queries(formula):
                assert tract_check(compiled, query) == oracle.evaluate(
                    table, query
                ).holds, (kind, formula, query)


def _boolean_queries(formula):
    values = ("false", "true")
    for x in formula.variables:
        for a in values:
            yield Q("inconsistent", x, (a,))
            yield Q("implied", x, (a,))
            yield Q("fixable", x, (a,))
            yield Q("removable", x, (a,))
            for b in values:
                yield Q("substitutable", x, (a, b))
                yield Q("interchangeable", x, (a, b))
        yield Q("determined", x)
        yield Q("irrelevant", x)


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


# ---------------------------------------------------------------------------
# The compiled engine
# ---------------------------------------------------------------------------

CLAUSAL_KINDS = ("horn", "dual-horn", "2cnf")


@st.composite
def formulas(draw, kind):
    """A formula of the given class over at most 8 variables."""
    n = draw(st.integers(1, 8))
    variables = tuple(f"v{i}" for i in range(1, n + 1))
    names = st.sampled_from(variables)
    count = draw(st.integers(0, 12))
    if kind == "affine":
        equations = tuple(
            AffineEquation(draw(st.frozensets(names, max_size=3)), draw(st.booleans()))
            for _ in range(count)
        )
        return BooleanFormula(variables, (), equations)
    width = min(2 if kind == "2cnf" else 3, n)
    shortest = draw(st.integers(1, width))  # often no unit clauses at all
    clauses = []
    for _ in range(count):
        chosen = draw(st.lists(names, min_size=shortest, max_size=width, unique=True))
        if kind == "2cnf":
            signs = [draw(st.booleans()) for _ in chosen]
        else:
            odd = draw(st.integers(-1, len(chosen) - 1))  # the one other-polarity slot
            signs = [(i == odd) == (kind == "horn") for i in range(len(chosen))]
        clauses.append(Clause(frozenset(map(Literal, chosen, signs))))
    return BooleanFormula(variables, tuple(clauses))


@st.composite
def formulas_with_unit_pins(draw):
    """A formula of some class and consistent pins on up to four variables."""
    kind = draw(st.sampled_from(CLAUSAL_KINDS + ("affine",)))
    formula = draw(formulas(kind))
    chosen = draw(st.lists(st.sampled_from(formula.variables), unique=True, max_size=4))
    return kind, formula, {v: draw(st.booleans()) for v in chosen}


class TestCompiledEngine:
    @settings(max_examples=400, deadline=None)
    @given(formulas_with_unit_pins())
    def test_sat_under_assumptions_matches_brute_force(self, case):
        kind, formula, pins = case
        compiled = CompiledFormula(formula, kind)
        models = brute_force_models(formula)
        assert compiled.satisfiable == bool(models)
        assert pinned(formula, kind, pins).satisfiable == any(
            all(model[v] == value for v, value in pins.items()) for model in models
        )

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CLAUSAL_KINDS + ("affine",)).flatmap(
        lambda kind: st.tuples(st.just(kind), formulas(kind))
    ))
    def test_every_query_matches_oracle(self, case):
        kind, formula = case
        expanded = to_extensional(formula)
        table = oracle.solution_table(expanded, SearchSpace.full(expanded))
        compiled = CompiledFormula(formula, kind)
        for query in _boolean_queries(formula):
            assert tract_check(compiled, query) == oracle.evaluate(table, query).holds, query

    def test_unsatisfiable_two_cnf_without_propagation_conflict(self):
        a, b = ("a", True), ("b", True)
        na, nb = ("a", False), ("b", False)
        f = BooleanFormula(
            ("a", "b"), (clause(a, b), clause(a, nb), clause(na, b), clause(na, nb))
        )
        compiled = CompiledFormula(f, "2cnf")
        assert not compiled.satisfiable
        assert not pinned(f, "2cnf", {"a": True}).satisfiable
        for value in ("false", "true"):
            assert tract(f, "2cnf", Q("inconsistent", "a", (value,)))
            assert tract(f, "2cnf", Q("implied", "b", (value,)))
        assert tract(f, "2cnf", Q("determined", "a"))

    @pytest.mark.parametrize("kind", CLAUSAL_KINDS)
    def test_empty_clause(self, kind):
        f = BooleanFormula(("a", "b"), (Clause(frozenset()), clause(("a", True))))
        compiled = CompiledFormula(f, kind)
        assert not compiled.satisfiable
        assert tract(f, kind, Q("inconsistent", "a", ("true",)))
        assert tract(f, kind, Q("substitutable", "b", ("true", "false")))

    def test_false_equation(self):
        f = BooleanFormula(("a",), (), (AffineEquation(frozenset(), True),))
        compiled = CompiledFormula(f, "affine")
        assert not compiled.satisfiable
        assert tract(f, "affine", Q("inconsistent", "a", ("false",)))
        assert tract(f, "affine", Q("determined", "a"))

    @pytest.mark.parametrize("kind", CLAUSAL_KINDS)
    def test_unit_only_formula(self, kind):
        f = BooleanFormula(("a", "b", "c"), (clause(("a", True)), clause(("b", False))))
        compiled = CompiledFormula(f, kind)
        assert compiled.satisfiable
        assert pinned(f, kind, {"a": True, "c": False}).satisfiable
        assert not pinned(f, kind, {"a": False}).satisfiable
        assert tract(f, kind, Q("implied", "a", ("true",)))
        assert tract(f, kind, Q("implied", "b", ("false",)))
        assert tract(f, kind, Q("irrelevant", "c"))
        assert not tract(f, kind, Q("determined", "c"))
        assert tract(f, kind, Q("fixable", "a", ("true",)))
        assert not tract(f, kind, Q("removable", "a", ("true",)))

    @pytest.mark.parametrize("kind", CLAUSAL_KINDS + ("affine",))
    def test_zero_constraint_formula(self, kind):
        f = BooleanFormula(("a", "b"))
        compiled = CompiledFormula(f, kind)
        assert compiled.satisfiable
        for x in f.variables:
            assert tract(f, kind, Q("irrelevant", x))
            assert not tract(f, kind, Q("determined", x))
            assert not tract(f, kind, Q("inconsistent", x, ("true",)))
            assert tract(f, kind, Q("interchangeable", x, ("false", "true")))

    def test_compiled_once_per_formula(self, monkeypatch):
        # Every query reads the state the caller compiled: none builds the
        # propagation state or the basis again.
        builds = []
        for name in ("_UnitPropagation", "_affine_basis"):
            build = getattr(boolean, name)

            def counting(*args, build=build):
                builds.append(build)
                return build(*args)

            monkeypatch.setattr(boolean, name, counting)
        f = BooleanFormula(("x", "y"), (clause(("x", False), ("y", True)),))
        compiled = CompiledFormula(f, "horn")
        assert len(builds) == 1
        for query in _boolean_queries(f):
            tract_check(compiled, query)
        assert len(builds) == 1

    def test_no_other_module_cache(self):
        caches = [n for n, v in vars(boolean).items() if hasattr(v, "cache_clear")]
        assert caches == []


# ---------------------------------------------------------------------------
# Answers read off the compiled state, against their definitions
# ---------------------------------------------------------------------------

ALL_KINDS = CLAUSAL_KINDS + ("affine",)
BOOLS = (False, True)


def brute_force_determined(formula, models, x):
    return not any(satisfies(formula, {**model, x: not model[x]}) for model in models)


def brute_force_substitutable(formula, models, x, a, b):
    return all(satisfies(formula, {**model, x: b}) for model in models if model[x] == a)


@st.composite
def edge_formulas(draw):
    """A formula of some class, at times with a false constraint (the empty
    clause or 0 = 1) and with variables that no constraint mentions."""
    kind = draw(st.sampled_from(ALL_KINDS))
    formula = draw(formulas(kind))
    unused = tuple(f"w{i}" for i in range(draw(st.integers(0, 2))))
    clauses, equations = formula.clauses, formula.equations
    if draw(st.integers(0, 7)) == 0:
        if kind == "affine":
            equations += (AffineEquation(frozenset(), True),)
        else:
            clauses += (Clause(frozenset()),)
    return kind, BooleanFormula(formula.variables + unused, clauses, equations)


def mirrored(formula):
    """The formula with every literal negated: Horn becomes dual Horn."""
    return BooleanFormula(
        formula.variables,
        tuple(Clause(frozenset(Literal(l.variable, not l.positive) for l in c.literals)) for c in formula.clauses),
    )


_a, _b, _x = ("a", True), ("b", True), ("x", True)
_na, _nb, _nx = ("a", False), ("b", False), ("x", False)
HORN_CASES = {
    "unsatisfiable": BooleanFormula(("x", "a"), (clause(_a), clause(_na, _x), clause(_nx))),
    "empty clause": BooleanFormula(("x", "a"), (Clause(frozenset()), clause(_na, _x))),
    "unit only": BooleanFormula(("x", "a", "b"), (clause(_x), clause(_na))),
    "zero constraints": BooleanFormula(("x", "a")),
    "x in no constraint": BooleanFormula(("x", "a", "b"), (clause(_na, _b),)),
    # Remainders (-a|-b) and (-a|b): with (a) they refute each other, so
    # x = b is determined; without it a = false satisfies both.
    "width 3, determined": BooleanFormula(
        ("x", "a", "b"), (clause(_x, _na, _nb), clause(_nx, _na, _b), clause(_a))
    ),
    "width 3, free": BooleanFormula(
        ("x", "a", "b"), (clause(_x, _na, _nb), clause(_nx, _na, _b))
    ),
    # Remainders (-a|-d), scanned first, and (-c|a): only once (c) makes the
    # second unit does a, through (-a|d), refute the first, so x = a.
    "width 3, chained": BooleanFormula(
        ("x", "a", "c", "d"),
        (
            clause(_x, _na, ("d", False)),
            clause(_nx, ("c", False), _a),
            clause(("c", True)),
            clause(_na, ("d", True)),
        ),
    ),
}


def fixed_cases():
    for name, formula in HORN_CASES.items():
        yield pytest.param("horn", formula, id=f"horn-{name}")
        yield pytest.param("dual-horn", mirrored(formula), id=f"dual-horn-{name}")
        if all(len(c.literals) <= 2 for c in formula.clauses):
            yield pytest.param("2cnf", formula, id=f"2cnf-{name}")
    for name, equations in {
        "false equation": (AffineEquation(frozenset(), True), AffineEquation({"x"}, True)),
        "unit only": (AffineEquation({"x"}, True),),
        "zero constraints": (),
        "x in no constraint": (AffineEquation({"a", "b"}, False),),
        "x via a chain": (AffineEquation({"x", "a"}, True), AffineEquation({"a", "b"}, False)),
    }.items():
        formula = BooleanFormula(("x", "a", "b"), (), equations)
        yield pytest.param("affine", formula, id=f"affine-{name}")


def assert_read_off_answers_match(kind, formula):
    compiled = CompiledFormula(formula, kind)
    models = brute_force_models(formula)
    for x in formula.variables:
        expected = brute_force_determined(formula, models, x)
        assert compiled.determined(x) == expected, x
        for a, b in itertools.product(BOOLS, BOOLS):
            expected = brute_force_substitutable(formula, models, x, a, b)
            assert compiled.substitutable(x, a, b) == expected, (x, a, b)


class TestReadOffAnswers:
    """determined and substitutable on the compiled state, against brute
    force."""

    @settings(max_examples=300, deadline=None)
    @given(edge_formulas())
    def test_random_formulas(self, case):
        assert_read_off_answers_match(*case)

    @pytest.mark.parametrize("kind, formula", fixed_cases())
    def test_fixed_cases(self, kind, formula):
        assert_read_off_answers_match(kind, formula)

    def test_width_3_remainders_decide_determinacy(self):
        for kind, mirror in (("horn", lambda f: f), ("dual-horn", mirrored)):
            for name in ("width 3, determined", "width 3, chained"):
                assert tract(mirror(HORN_CASES[name]), kind, Q("determined", "x"))
            assert not tract(mirror(HORN_CASES["width 3, free"]), kind, Q("determined", "x"))


def assert_rows_match_oracle(kind, formula):
    expanded = to_extensional(formula)
    table = oracle.solution_table(expanded, SearchSpace.full(expanded))
    compiled = CompiledFormula(formula, kind)
    for x in formula.variables:
        assert compiled.row(x) == oracle.answer_row(table, x), x


class TestRow:
    """``CompiledFormula.row`` holds, entry for entry, the oracle's answer
    row on the expanded formula, satisfiable or not."""

    @settings(max_examples=300, deadline=None)
    @given(edge_formulas())
    def test_random_formulas(self, case):
        assert_rows_match_oracle(*case)

    @pytest.mark.parametrize("kind, formula", fixed_cases())
    def test_fixed_cases(self, kind, formula):
        assert_rows_match_oracle(kind, formula)

    def test_kept_until_the_next_pin(self):
        compiled = CompiledFormula(BooleanFormula(("a", "b"), (clause(_na, _b),)), "horn")
        row = compiled.row("b")
        assert compiled.row("b") is row and not row["implied", ("true",)]
        compiled.pin({"a": True})
        assert compiled.row("b") is not row and compiled.row("b")["implied", ("true",)]


@st.composite
def formulas_with_pins(draw):
    """A formula, and pins on some of its variables in two rounds."""
    kind, formula = draw(edge_formulas())
    chosen = draw(st.lists(st.sampled_from(formula.variables), unique=True))
    values = [draw(st.booleans()) for _ in chosen]
    cut = draw(st.integers(0, len(chosen)))
    rounds = dict(zip(chosen[:cut], values[:cut])), dict(zip(chosen[cut:], values[cut:]))
    return kind, formula, rounds


class TestPinnedChild:
    """``CompiledFormula.pin``, in place, answers as compiling the assumed
    formula."""

    @staticmethod
    def assert_child_matches(kind, formula, rounds):
        child = pinned(formula, kind, *rounds)
        pins = {v: value for round_pins in rounds for v, value in round_pins.items()}
        assumed = assume(formula, pins)
        direct = CompiledFormula(assumed, kind)
        assert child.satisfiable == direct.satisfiable
        for x in formula.variables:
            assert (x in child) == (x not in pins) == (x in direct)
        for x in assumed.variables:
            assert child.row(x) == direct.row(x), x
            assert child.determined(x) == direct.determined(x), x
            for a in BOOLS:
                assert child.inconsistent(x, a) == direct.inconsistent(x, a), (x, a)
                for b in BOOLS:
                    assert child.substitutable(x, a, b) == direct.substitutable(x, a, b)

    @settings(max_examples=300, deadline=None)
    @given(formulas_with_pins())
    def test_random_pins(self, case):
        self.assert_child_matches(*case)

    @settings(max_examples=200, deadline=None)
    @given(formulas("affine"), st.randoms(use_true_random=False))
    def test_affine_pins_one_at_a_time(self, formula, rng):
        # Each pin folds a row into the reduced basis in place; the rows
        # holding its lead must be found, rows added by earlier pins too.
        pins = rng.sample(formula.variables, rng.randint(0, len(formula.variables)))
        rounds = [{v: rng.random() < 0.5} for v in pins]
        self.assert_child_matches("affine", formula, rounds)

    def test_affine_pin_reduces_a_row_an_earlier_pin_added(self):
        # Pinning v0 turns v0^v1^v2=0 into the row v1^v2=0 led by v1;
        # pinning v2 then has to reduce that row, which fixes v1.
        formula = BooleanFormula(
            ("v0", "v1", "v2"), (), (AffineEquation(frozenset({"v0", "v1", "v2"}), False),)
        )
        self.assert_child_matches("affine", formula, [{"v0": False, "v2": True}])
        child = pinned(formula, "affine", {"v0": False, "v2": True})
        assert child.inconsistent("v1", False) and not child.inconsistent("v1", True)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_conflicting_pins(self, kind):
        # a forces b; pinning them apart leaves no model.
        if kind == "affine":
            formula = BooleanFormula(("a", "b", "c"), (), (AffineEquation({"a", "b"}, False),))
        else:
            formula = BooleanFormula(("a", "b", "c"), (clause(_na, _b),))
        child = pinned(formula, kind, {"a": True}, {"b": False})
        assert not child.satisfiable
        assert child.inconsistent("c", True) and child.inconsistent("c", False)
        assert child.determined("c")
        self.assert_child_matches(kind, formula, ({"a": True}, {"b": False}))

    def test_unknown_or_pinned_variable_rejected(self):
        child = pinned(BooleanFormula(("a", "b")), "horn", {"a": True})
        for bad in ("nope", "a"):
            with pytest.raises(ValueError, match="unknown or pinned variable"):
                child.pin({bad: True})
        assert "a" not in child and "b" in child
        assert child.substitutable("b", False, True) and child.substitutable("b", True, False)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pin_returns_the_variables_it_changed(self, kind):
        # a forces b; c stays open.
        if kind == "affine":
            formula = BooleanFormula(("a", "b", "c"), (), (AffineEquation({"a", "b"}, False),))
        else:
            formula = BooleanFormula(("a", "b", "c"), (clause(_na, _b),))
        assert sorted(CompiledFormula(formula, kind).pin({"a": True})) == [0, 1]
        assert CompiledFormula(formula, kind).pin({"c": True}) == [2]


class TestAssume:
    """``assume`` in one pass equals ``instantiate_project`` applied for
    each assignment in turn."""

    @staticmethod
    def folded(formula, pins):
        constraints = list(formula.constraints)
        for v, value in pins.items():
            constraints = [p for c in constraints for p in instantiate_project(c, v, value)]
        return BooleanFormula(
            tuple(v for v in formula.variables if v not in pins),
            tuple(c for c in constraints if isinstance(c, Clause)),
            tuple(c for c in constraints if isinstance(c, AffineEquation)),
        )

    @settings(max_examples=300, deadline=None)
    @given(formulas_with_pins())
    def test_equals_instantiate_project_in_turn(self, case):
        _kind, formula, rounds = case
        pins = {**rounds[0], **rounds[1]}
        assert assume(formula, pins) == self.folded(formula, pins)

    def test_false_marker_and_parity(self):
        formula = BooleanFormula(
            ("a", "b", "c"),
            (clause(("a", True)), clause(("a", False), ("b", True))),
            (AffineEquation({"a", "b", "c"}, False),),
        )
        pins = {"a": False, "b": True}
        assert assume(formula, pins) == self.folded(formula, pins) == BooleanFormula(
            ("c",), (Clause(frozenset()),), (AffineEquation({"c"}, True),)
        )

    def test_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable 'z'"):
            assume(BooleanFormula(("a",)), {"a": True, "z": False})


class TestTractCheckErrorOrder:
    """Class mismatch, then dependence, then unknown kind, unknown variable,
    non-boolean value."""

    horn = BooleanFormula(("x",), (clause(("x", True)),))
    not_horn = BooleanFormula(("x", "y"), (clause(("x", True), ("y", True)),))

    @staticmethod
    def query(kind, variable="nope", values=("maybe",)):
        # Stands in for a PropertyQuery, which refuses unknown kinds itself.
        return SimpleNamespace(kind=kind, variable=variable, values=values, over=())

    def test_class_mismatch_first(self):
        for kind in ("dependent", "bogus", "implied"):
            with pytest.raises(ClassMismatchError):
                tract(self.not_horn, "horn", self.query(kind))
        with pytest.raises(ClassMismatchError):
            tract(self.horn, "unrestricted", self.query("dependent"))

    def test_dependence_before_kind_variable_and_value(self):
        with pytest.raises(UnsupportedQueryError, match="dependence"):
            tract(self.horn, "horn", self.query("dependent"))

    def test_kind_before_variable_and_value(self):
        with pytest.raises(UnsupportedQueryError, match="unsupported property kind"):
            tract(self.horn, "horn", self.query("bogus"))

    def test_variable_before_value(self):
        with pytest.raises(ValueError, match="unknown variable"):
            tract(self.horn, "horn", self.query("implied"))

    def test_value_last(self):
        with pytest.raises(ValueError, match="boolean"):
            tract(self.horn, "horn", self.query("implied", variable="x"))
