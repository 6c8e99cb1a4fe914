"""Satisfiability-preserving reduction of search spaces.

Fixing a fixable value and removing a removable value both leave an
instance equi-satisfiable, so a loop of soundly justified fixes and
removals shrinks the space without losing the answer.  Only sound
detectors may justify steps: the local combinators, the pure-value rule,
the tractable reductions, and (in test mode) the exhaustive oracle.  Local
removability is never a justification.

The loop scans variables in declaration order and values in domain order,
applies the first justified fix, then the first justified removal, and
re-runs the detectors after every change; it stops at a fixpoint or when
an inconsistency proof would empty a domain, which is reported as a proof
of unsatisfiability instead of an invalid space.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import boolean, local, oracle
from .boolean import BOOL_VALUES, BooleanFormula, SchaeferClass, classify_schaefer
from .local import Covering, default_covering
from .model import CspInstance, SearchSpace
from .oracle import PropertyQuery

DETECTOR_FAMILIES = ("pure-value", "local", "tractable", "oracle")


class ProvedUnsatisfiable(Exception):
    """An inconsistency proof removed the last value of some variable."""

    def __init__(self, variable: str, value: str):
        super().__init__(
            f"removing {value!r} from {variable!r} empties its domain: "
            "the instance is unsatisfiable"
        )
        self.variable = variable
        self.value = value


@dataclass(frozen=True)
class SimplificationStep:
    action: str  # "fix" | "remove"
    variable: str
    value: str
    detector: str
    witness: str | None
    space_before: int
    space_after: int

    def render(self) -> str:
        if self.action == "fix":
            return f"FIX {self.variable}={self.value} BY {self.detector}"
        return f"REMOVE {self.variable}!={self.value} BY {self.detector}"


@dataclass(frozen=True)
class SimplificationResult:
    final_space: SearchSpace
    steps: tuple[SimplificationStep, ...]
    fixpoint: bool
    proved_unsatisfiable: bool
    conflict: tuple[str, str, str] | None = None  # (variable, value, detector)

    def log(self) -> str:
        return "\n".join(step.render() for step in self.steps)


def apply_fix(space: SearchSpace, variable: str, value: str) -> SearchSpace:
    """Pin a variable to one value (no-op when already pinned to it)."""
    if value not in space.values(variable):
        raise ValueError(f"value {value!r} is not active for {variable!r}")
    if space.values(variable) == (value,):
        return space
    return space.assign(variable, value)


def apply_remove(
    space: SearchSpace,
    variable: str,
    value: str,
    proved_inconsistent: bool = False,
) -> SearchSpace:
    """Drop one active value (no-op when already absent).

    Removing the last value is refused unless the caller holds an
    inconsistency proof, in which case the instance is unsatisfiable and
    :class:`ProvedUnsatisfiable` is raised.
    """
    values = space.values(variable)
    if value not in values:
        return space
    if len(values) == 1:
        if proved_inconsistent:
            raise ProvedUnsatisfiable(variable, value)
        raise ValueError(
            f"refusing to remove the last value {value!r} of {variable!r} "
            "without an inconsistency proof"
        )
    return space.remove(variable, value)


def replay(
    space: SearchSpace, steps: tuple[SimplificationStep, ...]
) -> SearchSpace:
    """Re-apply a step log to a space; used to audit logs."""
    for step in steps:
        if step.action == "fix":
            space = apply_fix(space, step.variable, step.value)
        else:
            space = apply_remove(space, step.variable, step.value)
    return space


class _DetectorSet:
    """The sound detector families, each answering: does anything justify
    fixing (x, a) or removing (x, a) in the current space?

    ``effective`` is the formula with every pinned variable instantiated
    away and ``tractable_class`` its primary Schaefer class (None when it
    has none); ``advance`` brings both up to date with a space.  The
    tractable detectors ask ``compiled``: the effective formula compiled
    once, at the first step where it is tractable, and from then on
    derived from the previous step's form with ``CompiledFormula.pinned``.
    """

    def __init__(
        self,
        instance: CspInstance,
        families: tuple[str, ...],
        formula: BooleanFormula | None,
        covering: Covering,
    ):
        self.instance = instance
        self.families = families
        self.covering = covering
        self.effective = formula
        self.tractable_class = self._classify(formula)
        self.compiled: boolean.CompiledFormula | None = None
        self._pure = self._pure_values(formula)

    def advance(self, space: SearchSpace) -> None:
        """Instantiate the variables pinned since the last call.

        Spaces only shrink and instantiation commutes, so this equals
        instantiating every pinned variable of the original formula; the
        class is recomputed because pinning can make a formula tractable or
        move it to another class.  Pinning never takes a formula out of a
        class, so the compiled form stays in the class it was compiled in.
        """
        if self.effective is None:
            return
        pinned = {
            v: boolean.name_bool(space.values(v)[0])
            for v in self.effective.variables
            if len(space.values(v)) == 1
        }
        if pinned:
            self.effective = boolean.assume(self.effective, pinned)
            self.tractable_class = self._classify(self.effective)
            self._pure = self._pure_values(self.effective)
            if self.compiled is not None:
                self.compiled = self.compiled.pinned(pinned)
        if (
            self.compiled is None
            and self.tractable_class is not None
            and "tractable" in self.families
        ):
            self.compiled = boolean.compile_formula(self.effective, self.tractable_class)

    def _pure_values(self, formula: BooleanFormula | None) -> dict[str, bool | None]:
        # The pure-value rule's answer for every free variable, read once
        # per step instead of a scan of every clause per detector call.
        if "pure-value" in self.families and formula is not None and formula.is_clausal:
            return local.pure_values(formula)
        return {}

    @staticmethod
    def _classify(formula: BooleanFormula | None) -> SchaeferClass | None:
        if formula is None:
            return None
        primary = classify_schaefer(formula).primary
        return None if primary is SchaeferClass.UNRESTRICTED else primary

    def justify_fix(self, space, x, a):
        for family in self.families:
            if family == "pure-value":
                value = self._pure.get(x)
                if value is not None and boolean.bool_name(value) == a:
                    return "pure-value", "opposite polarity never occurs"
            elif family == "local":
                # A vacuous AND over zero subsets establishes nothing worth
                # acting on; steps need evidence from at least one subset.
                if not self.covering.groups:
                    continue
                if local.local_check(
                    self.instance, space, self.covering, PropertyQuery.fixable(x, a)
                ).established:
                    return "local-fixable", "established on every covering subset"
                if local.local_check(
                    self.instance, space, self.covering, PropertyQuery.implied(x, a)
                ).established:
                    return "local-implied", "established on some covering subset"
            elif family == "tractable":
                compiled = self.compiled
                if compiled is not None and x in compiled:
                    cls = self.tractable_class
                    query = PropertyQuery.implied(x, a)
                    if boolean.tract_check(self.effective, cls, query, compiled):
                        return "tractable-implied", f"{cls.value} reduction"
            elif family == "oracle":
                if oracle.check_fixable(self.instance, space, x, a):
                    return "oracle-fixable", "exhaustive check"
        return None

    def justify_removal(self, space, x, a):
        # Returns (detector, evidence, witness, is_inconsistency_proof).
        active = space.values(x)
        for family in self.families:
            if family == "local":
                if not self.covering.groups:
                    continue
                if local.local_check(
                    self.instance, space, self.covering, PropertyQuery.inconsistent(x, a)
                ).established:
                    return "local-inconsistent", "established on some subset", None, True
                if len(active) >= 2:
                    for b in active:
                        if b != a and local.local_check(
                            self.instance,
                            space,
                            self.covering,
                            PropertyQuery.substitutable(x, a, b),
                        ).established:
                            return (
                                "local-substitutable",
                                "established on every covering subset",
                                b,
                                False,
                            )
            elif family == "tractable":
                compiled = self.compiled
                if compiled is not None and x in compiled:
                    cls = self.tractable_class
                    query = PropertyQuery.inconsistent(x, a)
                    if boolean.tract_check(self.effective, cls, query, compiled):
                        return (
                            "tractable-inconsistent",
                            f"{cls.value} reduction",
                            None,
                            True,
                        )
            elif family == "oracle":
                if oracle.check_inconsistent(self.instance, space, x, a):
                    return "oracle-inconsistent", "exhaustive check", None, True
                if len(active) >= 2 and oracle.check_removable(
                    self.instance, space, x, a
                ):
                    return "oracle-removable", "exhaustive check", None, False
        return None


def _resolve_families(
    mode: str, detectors, formula: BooleanFormula | None
) -> tuple[str, ...]:
    if mode not in ("production", "test"):
        raise ValueError(f"mode must be 'production' or 'test', got {mode!r}")
    if detectors is None:
        families = []
        if formula is not None and formula.is_clausal:
            families.append("pure-value")
        if formula is not None:
            families.append("tractable")
        families.append("local")
        if mode == "test":
            families.append("oracle")
        return tuple(families)
    families = tuple(detectors)
    for family in families:
        if family not in DETECTOR_FAMILIES:
            raise ValueError(
                f"unknown or unsound detector family {family!r}; "
                f"sound families are {DETECTOR_FAMILIES}"
            )
    if "oracle" in families and mode != "test":
        raise ValueError("the oracle detector is only available in test mode")
    if ("pure-value" in families or "tractable" in families) and formula is None:
        raise ValueError("formula-based detectors need the boolean formula")
    return families


def simplify_fixpoint(
    instance: CspInstance,
    space: SearchSpace,
    mode: str = "production",
    formula: BooleanFormula | None = None,
    group_size: int = 1,
    detectors: tuple[str, ...] | None = None,
) -> SimplificationResult:
    """Apply justified fixes and removals until nothing changes.

    Every logged step strictly shrinks the product of active-domain sizes,
    so the loop terminates after at most sum(|active(x)| - 1) steps.  The
    final space is equi-satisfiable with the initial one.
    """
    if formula is not None:
        if set(formula.variables) != set(instance.variables):
            raise ValueError("formula and instance disagree on variables")
        if instance.domain != BOOL_VALUES:
            raise ValueError("formula-backed simplification needs a boolean domain")
    families = _resolve_families(mode, detectors, formula)
    covering = default_covering(instance, group_size)
    detector_set = _DetectorSet(instance, families, formula, covering)

    steps: list[SimplificationStep] = []
    current = space
    while True:
        detector_set.advance(current)
        applied = False
        for x in instance.variables:
            active = current.values(x)
            if len(active) == 1:
                continue
            for a in active:
                justification = detector_set.justify_fix(current, x, a)
                if justification is None:
                    continue
                detector, _evidence = justification
                before = current.size()
                current = apply_fix(current, x, a)
                steps.append(
                    SimplificationStep(
                        "fix", x, a, detector, None, before, current.size()
                    )
                )
                applied = True
                break
            if applied:
                break
        if applied:
            continue
        for x in instance.variables:
            for a in current.values(x):
                found = detector_set.justify_removal(current, x, a)
                if found is None:
                    continue
                detector, _evidence, witness, is_proof = found
                if not is_proof and len(current.values(x)) < 2:
                    continue
                before = current.size()
                try:
                    current = apply_remove(current, x, a, proved_inconsistent=is_proof)
                except ProvedUnsatisfiable:
                    return SimplificationResult(
                        current,
                        tuple(steps),
                        fixpoint=False,
                        proved_unsatisfiable=True,
                        conflict=(x, a, detector),
                    )
                steps.append(
                    SimplificationStep(
                        "remove", x, a, detector, witness, before, current.size()
                    )
                )
                applied = True
                break
            if applied:
                break
        if not applied:
            return SimplificationResult(
                current, tuple(steps), fixpoint=True, proved_unsatisfiable=False
            )
