import hashlib

import pytest

from cspstruct import oracle
from cspstruct.boolean import (
    BooleanFormula,
    Clause,
    Literal,
    SchaeferClass,
    assume,
    classify_schaefer,
    compile_formula,
    name_bool,
    to_extensional,
)
from cspstruct.local import default_covering
from cspstruct.model import Constraint, CspInstance, Relation, SearchSpace
from cspstruct.simplify import (
    ProvedUnsatisfiable,
    _DetectorSet,
    _resolve_families,
    apply_fix,
    apply_remove,
    replay,
    simplify_fixpoint,
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
        assert result.fixpoint
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
        assert result.steps == () and result.fixpoint

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
        assert not result.fixpoint
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

        fix = SimplificationStep("fix", "x", "true", "pure-value", None, 8, 4)
        rem = SimplificationStep("remove", "x5", "G", "local-substitutable", "R", 243, 162)
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


# sha256 of the step logs and outcomes below, recorded when the simplifier
# still re-instantiated every pinned variable of the original formula on
# every iteration.
STEP_LOG_DIGEST = "3b9cdd9df97e68cda781c162b591f52e5c1839a2d86f21c623f2ac13fd482c02"


def corpus_slices(boolean_corpora):
    for kind in ("horn", "dual-horn", "2cnf", "affine"):
        yield from boolean_corpora[kind][:30]


class TestIncrementalEffectiveFormula:
    @staticmethod
    def trajectory(formula):
        """Detector set, instance and the spaces a formula-backed run sees."""
        inst = to_extensional(formula)
        space = SearchSpace.full(inst)
        result = simplify_fixpoint(inst, space, formula=formula)
        detectors = _DetectorSet(
            inst,
            _resolve_families("production", None, formula),
            formula,
            default_covering(inst),
        )
        spaces = [replay(space, result.steps[:n]) for n in range(len(result.steps) + 1)]
        return detectors, inst, spaces

    @staticmethod
    def assert_matches_full_assume(detectors, inst, formula, space):
        detectors.advance(space)
        pinned = {
            v: name_bool(space.values(v)[0])
            for v in inst.variables
            if len(space.values(v)) == 1
        }
        expected = assume(formula, pinned)
        assert detectors.effective == expected
        primary = classify_schaefer(expected).primary
        expected_class = None if primary is SchaeferClass.UNRESTRICTED else primary
        assert detectors.tractable_class is expected_class

    def test_equals_assume_of_every_pin_at_every_step(self, boolean_corpora):
        steps = 0
        for formula in corpus_slices(boolean_corpora):
            detectors, inst, spaces = self.trajectory(formula)
            for space in spaces:
                self.assert_matches_full_assume(detectors, inst, formula, space)
            steps += len(spaces) - 1
            # Several variables pinned since the last call.
            jumper, _, _ = self.trajectory(formula)
            for space in spaces[::3] + spaces[-1:]:
                self.assert_matches_full_assume(jumper, inst, formula, space)
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
        detectors, inst, spaces = self.trajectory(f)
        classes = []
        for space in spaces:
            self.assert_matches_full_assume(detectors, inst, f, space)
            classes.append(detectors.tractable_class)
        assert classes[0] is None and classes[-1] is SchaeferClass.HORN

    def test_step_logs_are_pinned(self, boolean_corpora):
        digest = hashlib.sha256()
        for formula in corpus_slices(boolean_corpora):
            inst = to_extensional(formula)
            result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=formula)
            outcome = (result.fixpoint, result.proved_unsatisfiable, result.conflict)
            digest.update(result.log().encode() + b"\n")
            digest.update(repr(outcome).encode() + b"\n")
        assert digest.hexdigest() == STEP_LOG_DIGEST

    def test_one_compile_per_run(self, boolean_corpora):
        # The tractable detectors ask a child of one compiled form per step,
        # and the step logs stay the ones recorded above.
        digest = hashlib.sha256()
        for formula in corpus_slices(boolean_corpora):
            inst = to_extensional(formula)
            compile_formula.cache_clear()
            result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=formula)
            assert compile_formula.cache_info().misses == 1
            outcome = (result.fixpoint, result.proved_unsatisfiable, result.conflict)
            digest.update(result.log().encode() + b"\n")
            digest.update(repr(outcome).encode() + b"\n")
        assert digest.hexdigest() == STEP_LOG_DIGEST

    def test_compiled_once_it_turns_tractable(self):
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
        compile_formula.cache_clear()
        result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=f)
        assert compile_formula.cache_info().misses == 1
        assert result.fixpoint and result.steps
