import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import boolean, local, oracle
from cspstruct.boolean import (
    BooleanFormula,
    Clause,
    CompiledFormula,
    Literal,
    SchaeferClass,
    assume,
    classify_schaefer,
    name_bool,
    to_extensional,
)
from cspstruct.instances import gen_random_boolean
from cspstruct.local import default_covering
from cspstruct.model import Constraint, CspInstance, Relation, SearchSpace
from cspstruct.simplify import (
    DETECTOR_FAMILIES,
    ProvedUnsatisfiable,
    _DetectorSet,
    _resolve_families,
    apply_fix,
    apply_remove,
    replay,
    simplify_fixpoint,
)

from conftest import (
    edge_instances,
    instances_with_spaces,
    pure_values,
    reference_simplify,
    wide_instances,
)


def clause(*lits):
    return Clause(frozenset(Literal(v, positive) for v, positive in lits))


class TestApplyFix:
    def test_basic(self):
        inst = CspInstance(("a", "b"), ("0", "1"))
        space = SearchSpace.full(inst)
        fixed = apply_fix(space, "a", "1")
        assert fixed.values("a") == ("1",) and fixed.values("b") == ("0", "1")

    def test_idempotent_on_singleton(self):
        inst = CspInstance(("a",), ("0", "1"))
        space = SearchSpace.over(inst, {"a": ["1"]})
        assert apply_fix(space, "a", "1") is space

    def test_inactive_value_rejected(self):
        inst = CspInstance(("a",), ("0", "1"))
        space = SearchSpace.over(inst, {"a": ["1"]})
        with pytest.raises(ValueError, match="not active"):
            apply_fix(space, "a", "0")


class TestApplyRemove:
    def test_basic_and_noop(self):
        inst = CspInstance(("a",), ("0", "1", "2"))
        space = SearchSpace.full(inst)
        removed = apply_remove(space, "a", "1")
        assert removed.values("a") == ("0", "2")
        assert apply_remove(removed, "a", "1") is removed  # already absent

    def test_last_value_refused_without_proof(self):
        inst = CspInstance(("a",), ("0",))
        space = SearchSpace.full(inst)
        with pytest.raises(ValueError, match="refusing"):
            apply_remove(space, "a", "0")

    def test_last_value_with_proof_is_unsat(self):
        inst = CspInstance(("a",), ("0",))
        space = SearchSpace.full(inst)
        with pytest.raises(ProvedUnsatisfiable):
            apply_remove(space, "a", "0", proved_inconsistent=True)


class TestPureValueFlow:
    def test_pure_value_step_logged(self, pure_literal_cnf):
        inst = to_extensional(pure_literal_cnf)
        space = SearchSpace.full(inst)
        result = simplify_fixpoint(inst, space, formula=pure_literal_cnf)
        assert "FIX x=true BY pure-value" in result.log().splitlines()
        assert not result.proved_unsatisfiable
        assert oracle.satisfiable(inst, result.final_space)


class TestBackboneFixes:
    def test_local_detectors_fix_the_backbone(self, backbone):
        inst, space = backbone
        result = simplify_fixpoint(inst, space, mode="production")
        fixes = {(s.variable, s.value) for s in result.steps if s.action == "fix"}
        assert ("x", "true") in fixes
        assert ("y", "true") in fixes
        assert oracle.satisfiable(inst, result.final_space)


class TestHornChain:
    def test_tractable_detectors_pin_everything(self):
        f = BooleanFormula(
            ("x", "y"), (clause(("x", True)), clause(("x", False), ("y", True)))
        )
        inst = to_extensional(f)
        space = SearchSpace.full(inst)
        result = simplify_fixpoint(inst, space, formula=f, detectors=("tractable",))
        assert [s.render() for s in result.steps] == [
            "FIX x=true BY tractable-implied",
            "FIX y=true BY tractable-implied",
        ]
        assert result.final_space.size() == 1


class TestFixpointBehaviour:
    def test_unconstrained_instance_is_immediate_fixpoint(self):
        inst = CspInstance(("a", "b"), ("0", "1"))
        space = SearchSpace.full(inst)
        result = simplify_fixpoint(inst, space)
        assert result.steps == () and not result.proved_unsatisfiable

    def test_trap_production_keeps_the_needed_value(self, removability_trap):
        inst, space = removability_trap
        result = simplify_fixpoint(inst, space, mode="production")
        assert "2" in result.final_space.values("x")
        assert oracle.satisfiable(inst, result.final_space)

    def test_proved_unsatisfiable_outcome(self):
        dead = Constraint("dead", ("a",), Relation.of(1, []))
        inst = CspInstance(("a", "b"), ("0", "1"), (dead,))
        space = SearchSpace.full(inst)
        result = simplify_fixpoint(inst, space, mode="production")
        assert result.proved_unsatisfiable
        assert result.conflict is not None
        # the surviving space is still well formed
        assert all(result.final_space.values(v) for v in inst.variables)

    def test_steps_strictly_shrink_and_replay(self, corpus):
        for inst, space in corpus[:40]:
            for mode in ("production", "test"):
                result = simplify_fixpoint(inst, space, mode=mode)
                product = space.size()
                for step in result.steps:
                    assert step.space_before == product
                    assert step.space_after < step.space_before
                    product = step.space_after
                assert replay(space, result.steps) == result.final_space

    def test_equisatisfiable_on_corpus_sample(self, corpus):
        for inst, space in corpus[:40]:
            before = oracle.satisfiable(inst, space)
            for mode in ("production", "test"):
                result = simplify_fixpoint(inst, space, mode=mode)
                if result.proved_unsatisfiable:
                    assert not before
                else:
                    assert oracle.satisfiable(inst, result.final_space) == before


class TestDetectorConfiguration:
    def test_unknown_family_rejected(self, backbone):
        inst, space = backbone
        with pytest.raises(ValueError, match="unknown or unsound"):
            simplify_fixpoint(inst, space, detectors=("local-removable",))

    def test_oracle_needs_test_mode(self, backbone):
        inst, space = backbone
        with pytest.raises(ValueError, match="test mode"):
            simplify_fixpoint(inst, space, detectors=("oracle",))

    def test_formula_detectors_need_formula(self, backbone):
        inst, space = backbone
        with pytest.raises(ValueError, match="formula"):
            simplify_fixpoint(inst, space, detectors=("pure-value",))

    def test_formula_variables_must_match(self, pure_literal_cnf):
        other = CspInstance(("q",), ("false", "true"))
        with pytest.raises(ValueError, match="disagree"):
            simplify_fixpoint(
                other, SearchSpace.full(other), formula=pure_literal_cnf
            )


class TestStepRendering:
    def test_formats(self):
        from cspstruct.simplify import SimplificationStep

        fix = SimplificationStep("fix", "x", "true", "pure-value", 8, 4)
        rem = SimplificationStep("remove", "x5", "G", "local-substitutable", 243, 162)
        assert fix.render() == "FIX x=true BY pure-value"
        assert rem.render() == "REMOVE x5!=G BY local-substitutable"


class TestOracleDetectors:
    def test_oracle_detector_steps_on_coloring(self, coloring):
        inst, space = coloring
        result = simplify_fixpoint(inst, space, mode="test", detectors=("oracle",))
        # every step stays equi-satisfiable; the first fix pins x1
        assert result.steps
        assert oracle.satisfiable(inst, result.final_space)
        assert result.steps[0].render() == "FIX x1=R BY oracle-fixable"

    def test_a_step_table_never_holds_an_answer_row(self, corpus, monkeypatch):
        # The oracle family narrows the global covering's tables from step to
        # step: it never enumerates the whole space, and it scans each step's
        # tables for a counterexample without building an answer row.
        def refuse(*args):
            raise AssertionError("a whole-space table or an answer row was built")

        monkeypatch.setattr(oracle, "solution_table", refuse)
        for inst, space in corpus[:30]:
            for group_size in (1, 2):
                simplify_fixpoint(inst, space, mode="test", group_size=group_size)
        monkeypatch.setattr(oracle, "_signature", refuse)
        for inst, space in corpus[:30]:
            simplify_fixpoint(inst, space, mode="test", detectors=("oracle",))


class TestOracleTable:
    """In test mode the oracle family builds no whole-space solution table:
    it builds the global covering's tables once per run and narrows them
    at each step."""

    def test_at_most_one_whole_space_table_is_alive(self, corpus, monkeypatch):
        def refuse(*args):
            raise AssertionError("a whole-space table was built")

        build, built = local.group_tables, []

        def recording(instance, covering, space):
            built.append(covering)
            return build(instance, covering, space)

        monkeypatch.setattr(oracle, "solution_table", refuse)
        monkeypatch.setattr(local, "group_tables", recording)
        longest = 0
        for inst, space in [_equality_chain(), *corpus[:30]]:
            built.clear()
            result = simplify_fixpoint(inst, space, mode="test", detectors=("oracle",))
            assert built == [default_covering(inst, len(inst.constraints) or 1)]
            longest = max(longest, len(result.steps))
        assert longest >= 3


def _equality_chain():
    """A chain of equalities from a pinned first variable: the oracle fixes
    one variable per step."""
    names = ("w0", "w1", "w2", "w3")
    equal = Relation.of(2, [(a, a) for a in "012"])
    constraints = tuple(
        Constraint(f"eq{i}", names[i : i + 2], equal) for i in range(3)
    ) + (Constraint("zero", ("w0",), Relation.of(1, [("0",)])),)
    inst = CspInstance(names, ("0", "1", "2"), constraints)
    return inst, SearchSpace.full(inst)


# sha256 of the step logs and outcomes below, recorded when the simplifier
# still re-instantiated every pinned variable of the original formula on
# every iteration.
STEP_LOG_DIGEST = "3b9cdd9df97e68cda781c162b591f52e5c1839a2d86f21c623f2ac13fd482c02"


def corpus_slices(boolean_corpora):
    for kind in ("horn", "dual-horn", "2cnf", "affine"):
        yield from boolean_corpora[kind][:30]


def counted_compiles(monkeypatch):
    """The classes of every ``CompiledFormula`` built from now on."""
    built = []

    def counting(formula, cls):
        built.append(cls)
        return CompiledFormula(formula, cls)

    monkeypatch.setattr(boolean, "CompiledFormula", counting)
    return built


class TestIncrementalEffectiveFormula:
    @staticmethod
    def trajectory(formula):
        """Instance and the spaces a formula-backed run sees."""
        inst = to_extensional(formula)
        space = SearchSpace.full(inst)
        result = simplify_fixpoint(inst, space, formula=formula)
        spaces = [replay(space, result.steps[:n]) for n in range(len(result.steps) + 1)]
        return inst, spaces

    @classmethod
    def assert_follows(cls, inst, formula, spaces):
        """A detector set built on the first space and advanced through the
        others, each narrowing one variable or several, matches the full
        instantiation of every pin at every space."""
        detectors = _DetectorSet(
            inst,
            _resolve_families("production", None, formula),
            formula,
            default_covering(inst),
            spaces[0],
        )
        classes = []
        previous = spaces[0]
        for space in spaces:
            narrowed = [v for v in inst.variables if space.values(v) != previous.values(v)]
            detectors.advance(space, narrowed)
            cls.assert_matches_full_assume(detectors, inst, formula, space)
            classes.append(detectors.tractable_class)
            previous = space
        return classes

    @staticmethod
    def assert_matches_full_assume(detectors, inst, formula, space):
        pinned = {
            v: name_bool(space.values(v)[0])
            for v in inst.variables
            if len(space.values(v)) == 1
        }
        expected = assume(formula, pinned)
        assert detectors.effective == expected
        # The live clauses' counts, which decide the class, are those of
        # the instantiated clauses.
        live = [left for left, alive in zip(detectors._left, detectors._live) if alive]
        assert live == [[c.negative_count, c.positive_count] for c in expected.clauses]
        primary = classify_schaefer(expected).primary
        expected_class = None if primary is SchaeferClass.UNRESTRICTED else primary
        assert detectors.tractable_class is expected_class
        if expected.is_clausal:
            pure = {v: detectors._pure(v) for v in expected.variables}
            assert pure == pure_values(expected)

    def test_equals_assume_of_every_pin_at_every_step(self, boolean_corpora):
        steps = 0
        for formula in corpus_slices(boolean_corpora):
            inst, spaces = self.trajectory(formula)
            self.assert_follows(inst, formula, spaces)
            steps += len(spaces) - 1
            # Several variables pinned since the last call.
            self.assert_follows(inst, formula, spaces[::3] + spaces[-1:])
        assert steps > 100

    def test_class_follows_the_pins(self):
        # (a)(a|b|c)(-a|-b|-c) is in no tractable class; once a is pinned
        # the rest, (-b|-c), is Horn.
        f = BooleanFormula(
            ("a", "b", "c"),
            (
                clause(("a", True)),
                clause(("a", True), ("b", True), ("c", True)),
                clause(("a", False), ("b", False), ("c", False)),
            ),
        )
        inst, spaces = self.trajectory(f)
        classes = self.assert_follows(inst, f, spaces)
        assert classes[0] is None and classes[-1] is SchaeferClass.HORN

    def test_step_logs_are_pinned(self, boolean_corpora):
        digest = hashlib.sha256()
        for formula in corpus_slices(boolean_corpora):
            inst = to_extensional(formula)
            result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=formula)
            # Recorded as (fixpoint, unsat, conflict): a run that is not
            # proved unsatisfiable ends at a fixpoint.
            unsat = result.proved_unsatisfiable
            outcome = (not unsat, unsat, result.conflict)
            digest.update(result.log().encode() + b"\n")
            digest.update(repr(outcome).encode() + b"\n")
        assert digest.hexdigest() == STEP_LOG_DIGEST

    def test_one_compile_per_run(self, boolean_corpora, monkeypatch):
        # The tractable detectors ask one compiled form, pinned at every
        # step, and the step logs stay the ones recorded above.
        built = counted_compiles(monkeypatch)
        digest = hashlib.sha256()
        for formula in corpus_slices(boolean_corpora):
            inst = to_extensional(formula)
            built.clear()
            result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=formula)
            assert len(built) == 1
            # Recorded as (fixpoint, unsat, conflict): a run that is not
            # proved unsatisfiable ends at a fixpoint.
            unsat = result.proved_unsatisfiable
            outcome = (not unsat, unsat, result.conflict)
            digest.update(result.log().encode() + b"\n")
            digest.update(repr(outcome).encode() + b"\n")
        assert digest.hexdigest() == STEP_LOG_DIGEST

    def test_compiled_once_it_turns_tractable(self, monkeypatch):
        # As in test_class_follows_the_pins: tractable only once a is pinned.
        f = BooleanFormula(
            ("a", "b", "c"),
            (
                clause(("a", True)),
                clause(("a", True), ("b", True), ("c", True)),
                clause(("a", False), ("b", False), ("c", False)),
            ),
        )
        inst = to_extensional(f)
        built = counted_compiles(monkeypatch)
        result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=f)
        assert built == [SchaeferClass.HORN]
        assert not result.proved_unsatisfiable and result.steps

    def test_a_pin_keeps_the_compiled_class(self):
        # (a|b)(-a|-b)(a|c) is compiled as 2CNF.  Pinning a=false leaves
        # (b)(c), which is Horn, but the answer still comes from the 2CNF
        # form.
        f = BooleanFormula(
            ("a", "b", "c"),
            (
                clause(("a", True), ("b", True)),
                clause(("a", False), ("b", False)),
                clause(("a", True), ("c", True)),
            ),
        )
        inst = to_extensional(f)
        space = SearchSpace.full(inst)
        detectors = _DetectorSet(inst, ("tractable",), f, default_covering(inst), space)
        narrowed = space.assign("a", "false")
        detectors.advance(narrowed, ("a",))
        assert detectors.tractable_class is SchaeferClass.HORN
        assert detectors.compiled.cls is SchaeferClass.TWO_CNF
        assert detectors.first(narrowed, "fix") == ("b", "true", "tractable-implied")


class TestReferenceLoop:
    """The production loop, with its derived tables, incremental formula
    state and skipped clean variables, takes the steps of the plain loop in
    conftest that asks every family afresh at every step."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(instances_with_spaces(), st.sampled_from(edge_instances())),
        st.sampled_from(["production", "test"]),
        st.integers(1, 3),
    )
    def test_random_instances(self, case, mode, group_size):
        inst, space = case
        expected = reference_simplify(
            inst, space, _resolve_families(mode, None, None), group_size=group_size
        )
        assert simplify_fixpoint(inst, space, mode=mode, group_size=group_size) == expected

    def test_boolean_corpora(self, boolean_corpora):
        for formula in corpus_slices(boolean_corpora):
            inst = to_extensional(formula)
            space = SearchSpace.full(inst)
            families = _resolve_families("production", None, formula)
            expected = reference_simplify(inst, space, families, formula)
            assert simplify_fixpoint(inst, space, formula=formula) == expected

    def test_pinned_starts_and_family_orders(self, boolean_corpora):
        rng = random.Random(12)
        formula_families = [f for f in DETECTOR_FAMILIES if f != "oracle"]
        for kind in ("horn", "dual-horn", "2cnf", "affine"):
            for formula in boolean_corpora[kind][:12]:
                inst = to_extensional(formula)
                pins = rng.sample(inst.variables, min(2, len(inst.variables)))
                space = SearchSpace.over(inst, {v: [rng.choice(inst.domain)] for v in pins})
                families = tuple(rng.sample(formula_families, rng.randint(1, 3)))
                mode = rng.choice(["production", "test"])
                if mode == "test":
                    families += ("oracle",)
                expected = reference_simplify(inst, space, families, formula)
                result = simplify_fixpoint(
                    inst, space, mode=mode, formula=formula, detectors=families
                )
                assert result == expected, (kind, families)


def _narrowings(space, moves):
    """The spaces a list of (variable pick, value pick, fix?) moves leads
    through, each narrowing one variable with two or more active values."""
    names = space.variables
    for pick, value, fix in moves:
        candidates = [v for v in names if len(space.values(v)) > 1]
        if not candidates:
            return
        x = candidates[pick % len(candidates)]
        active = space.values(x)
        a = active[value % len(active)]
        space = space.assign(x, a) if fix else space.remove(x, a)
        yield x, space


_MOVES = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 2), st.booleans()), min_size=1, max_size=6
)


class TestCleanVariables:
    """A detector set advanced through arbitrary narrowings, which skips the
    variables it left clean, finds the first justified fix and removal a
    fresh one built on the same space finds, though the advanced set may
    have compiled before a pin moved the formula into an earlier class."""

    @staticmethod
    def assert_advanced_equals_fresh(inst, space, families, formula, group_size, moves):
        covering = default_covering(inst, group_size)
        detectors = _DetectorSet(inst, families, formula, covering, space)
        for x, narrowed in [(None, space), *_narrowings(space, moves)]:
            if x is not None:
                detectors.advance(narrowed, (x,))
            fresh = _DetectorSet(inst, families, formula, covering, narrowed)
            for action in ("fix", "remove"):
                found = detectors.first(narrowed, action)
                assert found == fresh.first(narrowed, action), action

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["horn", "dual-horn", "2cnf", "affine"]),
        st.integers(0, 10**6),
        st.sampled_from(
            [("pure-value", "tractable", "local"), ("tractable",), ("local", "tractable"),
             ("pure-value",), ("tractable", "pure-value")]
        ),
        st.integers(1, 3),
        _MOVES,
    )
    def test_formulas(self, kind, seed, families, group_size, moves):
        rng = random.Random(seed)
        formula = gen_random_boolean(kind, rng.randint(3, 12), rng.randint(2, 16), seed)
        if not formula.is_clausal:
            families = tuple(f for f in families if f != "pure-value") or ("tractable",)
        inst = to_extensional(formula)
        self.assert_advanced_equals_fresh(
            inst, SearchSpace.full(inst), families, formula, group_size, moves
        )

    def test_a_clause_the_propagation_only_lowered(self):
        # y=true propagates v, then -w, and leaves (-y|-z|-t|w) with two
        # open literals.  Pinning z, then t, makes y=true a conflict, though
        # neither pin assigns a variable that y's propagation assigned.
        f = BooleanFormula(
            ("y", "z", "t", "w", "v"),
            (
                clause(("y", False), ("z", False), ("t", False), ("w", True)),
                clause(("w", False), ("v", False)),
                clause(("y", False), ("v", True)),
            ),
        )
        inst = to_extensional(f)
        space = SearchSpace.full(inst)
        moves = [(1, 1, True), (1, 1, True)]  # z=true, then t=true
        self.assert_advanced_equals_fresh(inst, space, ("tractable",), f, 1, moves)
        detectors = _DetectorSet(inst, ("tractable",), f, default_covering(inst), space)
        assert detectors.first(space, "fix") is None
        for x, narrowed in _narrowings(space, moves):
            detectors.advance(narrowed, (x,))
            found = detectors.first(narrowed, "fix")
        assert found == ("y", "false", "tractable-implied")

    def test_a_group_turning_empty(self):
        # a and d are scanned clean; removing 1 from b empties b's group,
        # which makes every OR kind hold on a, outside that group.
        same = Constraint("same", ("a", "d"), Relation.of(2, [("0", "0"), ("1", "1")]))
        one = Constraint("one", ("b",), Relation.of(1, [("1",)]))
        inst = CspInstance(("a", "d", "b"), ("0", "1"), (same, one))
        space = SearchSpace.full(inst)
        self.assert_advanced_equals_fresh(inst, space, ("local",), None, 1, [(2, 1, False)])
        fresh = _DetectorSet(
            inst, ("local",), None, default_covering(inst), space.remove("b", "1")
        )
        assert fresh.first(space.remove("b", "1"), "fix") == ("a", "0", "local-implied")

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(instances_with_spaces(), wide_instances(), st.sampled_from(edge_instances())),
        st.sampled_from([("local",), ("oracle",), ("local", "oracle")]),
        st.integers(1, 3),
        _MOVES,
    )
    def test_instances(self, case, families, group_size, moves):
        inst, space = case
        self.assert_advanced_equals_fresh(inst, space, families, None, group_size, moves)


class TestSharedCachesStayReadOnly:
    """The simplifier changes only state it built: a compiled form or group
    tables a caller built for the same formula or space answer after a run
    as before it."""

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_compiled_form_answers_as_a_fresh_one(self, boolean_corpora, kind):
        for formula in boolean_corpora[kind][:10]:
            cls = classify_schaefer(formula).primary
            shared = CompiledFormula(formula, cls)
            rows = {x: shared.row(x) for x in formula.variables}
            inst = to_extensional(formula)
            result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=formula)
            assert result.steps
            fresh = CompiledFormula(formula, cls)
            assert shared.satisfiable == fresh.satisfiable
            for x in formula.variables:
                assert x in shared
                assert shared.row(x) == rows[x] == fresh.row(x), x
                assert shared.determined(x) == fresh.determined(x), x
                for a in (False, True):
                    assert shared.inconsistent(x, a) == fresh.inconsistent(x, a), (x, a)
                    for b in (False, True):
                        assert shared.substitutable(x, a, b) == fresh.substitutable(x, a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(instances_with_spaces(), wide_instances()), st.integers(1, 3))
    def test_start_tables_keep_their_rows(self, case, group_size):
        inst, space = case
        shared = local.group_tables(inst, default_covering(inst, group_size), space)
        rows = [tbl.rows for tbl in shared.tables]
        empty = list(shared.empty)
        simplify_fixpoint(inst, space, group_size=group_size, detectors=("local",))
        assert shared.space is space
        assert [tbl.rows for tbl in shared.tables] == rows
        assert shared.empty == empty and shared.some_empty == any(empty)
