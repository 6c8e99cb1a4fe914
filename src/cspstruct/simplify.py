"""Satisfiability-preserving reduction of search spaces.

Fixing a fixable value and removing a removable value both leave an
instance equi-satisfiable, so a loop of soundly justified fixes and
removals shrinks the space without losing the answer.  Only sound
detectors may justify steps, and the input fixes which families run, asked
in this order: the pure-value rule on a clausal formula, the tractable
reductions on any formula, the local combinators always, and the exhaustive
oracle in test mode.  Local removability is never a justification.

The loop scans variables in declaration order and values in domain order,
applies the first justified fix (``SearchSpace.assign``), else the first
justified removal (``SearchSpace.remove``), and scans again from the first
variable after every change; it stops at a fixpoint or when an
inconsistency proof would empty a domain, which is reported as a proof of
unsatisfiability instead of an invalid space.  Any other removal of a last
value is refused by ``SearchSpace.remove``, so a faulty detector raises.
A step log replays by the same two calls.

A step costs what it changes.  The detectors keep their state from step to
step (the covering's group tables, and the global covering's for the
oracle; the effective formula's counts; the compiled tractable form) and
update it from the variable a step narrows.
Each detector answer on a variable reads a known set of inputs, so a
variable a scan found nothing to justify on is skipped by later scans
until one of those inputs changes: the AC-3 idea (Mackworth 1977) applied
to the detector loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import boolean, local, oracle
from .boolean import BOOL_VALUES, BooleanFormula, SchaeferClass
from .local import Covering, default_covering
from .model import CspInstance, SearchSpace


@dataclass(frozen=True)
class SimplificationStep:
    action: str  # "fix" | "remove"
    variable: str
    value: str
    detector: str
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
    proved_unsatisfiable: bool
    conflict: tuple[str, str, str] | None = None  # (variable, value, detector)

    def log(self) -> str:
        return "\n".join(step.render() for step in self.steps)


class _DetectorSet:
    """The sound detector families the input calls for, each answering:
    does anything justify fixing (x, a) or removing (x, a) in the current
    space?  A fix is asked of pure-value (on a clausal formula), tractable
    (on any formula), local (when the covering has groups) and the oracle
    (in test mode), in that order; a removal of local and the oracle.  The
    tractable route proves no removal: an inconsistency at a is its implied
    fix at the other value, which the fix scan, run first on the same state,
    has already taken (a change to x's inputs makes x dirty for both scans).

    The set owns its state, so it may change it in place.  ``advance``
    brings it up to date with each new space, from the variable it narrows
    alone:

    - ``groups``, the covering's group tables, narrowed in place with
      ``GroupTables.narrow``: only the groups that hold the narrowed
      variable change, and only the established rows (``GroupTables.row``)
      that read them are dropped.  A caller that built the tables for the
      first space may hand them, and the rows it read, to the set.
    - ``exact``, the oracle's in test mode: the global covering's group
      tables, narrowed the same way.  Sol(C) is their rows times the free
      variables' values.
    - The effective formula (every pinned variable instantiated away) as
      its live clauses, with their literals left per polarity, occurrence
      lists, the number of live clauses outside each clausal Schaefer
      class, and each variable's polarity counts over the live clauses.
      A pin touches only the clauses that hold its variable.
      ``tractable_class`` is the effective formula's primary class (None
      when it has none), read off those counts, and the pure-value rule
      off the polarity counts.  ``effective`` is ``boolean.assume`` of the
      pins, built when read: once, at the compile.
    - ``compiled``: the effective formula compiled once, at the first step
      where it is tractable, pinned in place from then on with
      ``CompiledFormula.pin``.  It keeps the class it was compiled in,
      though a pin can move the effective formula into an earlier class.

    The answers on x read: for local and the oracle, the tables of the
    groups that hold x, x's active values and whether any group is empty;
    for pure-value, x's polarity counts; for tractable, the compiled
    variables its propagation read (see ``CompiledFormula.inconsistent``)
    and whether the formula is satisfiable.  ``first`` scans in declaration
    order but skips the clean variables: those a scan found nothing to
    justify on, whose inputs have not changed since.  A change to any input
    of x makes it dirty again for the fix and the removal scan.
    """

    def __init__(
        self,
        instance: CspInstance,
        test: bool,
        formula: BooleanFormula | None,
        covering: Covering,
        space: SearchSpace,
        groups: local.GroupTables | None = None,
    ):
        self.instance = instance
        self.groups = self.exact = None
        if covering.groups:
            self.groups = groups or local.group_tables(instance, covering, space)
        if test:
            whole = default_covering(instance, len(instance.constraints) or 1)
            self.exact = local.group_tables(instance, whole, space)
        self._position = {v: p for p, v in enumerate(instance.variables)}
        # 1 at a variable's declaration position while the fix, or the
        # removal, scan has to ask about it.
        self._fix_dirty = bytearray(b"\x01") * len(instance.variables)
        self._removal_dirty = bytearray(self._fix_dirty)
        # Per compiled variable index, the positions of the variables whose
        # tractable answers read it.
        self._watchers: dict[int, list[int]] = {}
        self._formula = formula
        self._pinned: dict[str, bool] = {}
        self.compiled: boolean.CompiledFormula | None = None
        self._polarity: dict[str, list[int]] | None = None
        if formula is not None:
            # Per clause: its literals' polarities by variable, whether it is
            # live (not satisfied), and its literals not falsified, as
            # [negative, positive] counts.
            self._signs = [
                {lit.variable: lit.positive for lit in c.literals} for c in formula.clauses
            ]
            self._live = [True] * len(self._signs)
            self._live_count = len(self._signs)
            self._left = [[c.negative_count, c.positive_count] for c in formula.clauses]
            self._occurs: dict[str, list[int]] = {v: [] for v in formula.variables}
            for k, signs in enumerate(self._signs):
                for v in signs:
                    self._occurs[v].append(k)
            # Live clauses outside each of boolean.CLAUSAL_CLASSES.
            self._outside = [0] * len(boolean.CLAUSAL_CLASSES)
            for left in self._left:
                self._count(left, 1)
            if formula.is_clausal:
                self._polarity = {v: [0, 0] for v in formula.variables}
                for signs in self._signs:
                    for v, positive in signs.items():
                        self._polarity[v][positive] += 1
        self._pin(
            {
                v: boolean.name_bool(space.values(v)[0])
                for v in instance.variables
                if formula is not None and len(space.values(v)) == 1
            }
        )

    def advance(self, space: SearchSpace, x: str) -> None:
        """Catch up with a space that narrows x since the last call and no
        other variable.

        Spaces only shrink and instantiation commutes, so pinning one
        variable at a time equals instantiating every pinned variable of the
        original formula.  Pinning never takes a formula out of a class, so
        the compiled form stays in the class it was compiled in.
        """
        active = space.values(x)
        self._touch(x)
        for tables in filter(None, (self.groups, self.exact)):
            some_empty = tables.some_empty
            tables.narrow(space, x)
            if tables.some_empty and not some_empty:
                self._touch_all()
            for g in tables.holding.get(x, ()):
                for v in tables.tables[g].order:
                    self._touch(v)
        if self._formula is not None and len(active) == 1 and x not in self._pinned:
            self._pin({x: boolean.name_bool(active[0])})

    def _touch(self, v: str) -> None:
        p = self._position[v]
        self._fix_dirty[p] = self._removal_dirty[p] = 1

    def _touch_all(self) -> None:
        self._fix_dirty[:] = self._removal_dirty[:] = b"\x01" * len(self._fix_dirty)
        self._watchers.clear()

    def _count(self, left: list[int], delta: int) -> None:
        outside = self._outside
        for k, out in enumerate(boolean.outside_clausal(*left)):
            if out:
                outside[k] += delta

    def _pin(self, pins: dict[str, bool]) -> None:
        """Instantiate variables away, in order: a clause holding the
        literal made true goes, one holding the other loses it."""
        if self._formula is None:
            self.tractable_class = None
            return
        for v, value in pins.items():
            self._pinned[v] = value
            for k in self._occurs[v]:
                if not self._live[k]:
                    continue
                signs, left = self._signs[k], self._left[k]
                self._count(left, -1)
                if signs[v] == value:
                    self._live[k] = False
                    self._live_count -= 1
                    if self._polarity is not None:
                        for u, positive in signs.items():
                            if u not in self._pinned:
                                self._polarity[u][positive] -= 1
                                self._touch(u)
                else:
                    left[signs[v]] -= 1
                    self._count(left, 1)
        compiled = self.compiled
        if pins and compiled is not None:
            changed = compiled.pin(pins)
            if not compiled.satisfiable:
                self._touch_all()
            for i in changed:
                for p in self._watchers.pop(i, ()):
                    self._fix_dirty[p] = self._removal_dirty[p] = 1
        self.tractable_class = self._classify()
        if self.compiled is None and self.tractable_class is not None:
            self.compiled = boolean.CompiledFormula(self.effective, self.tractable_class)
            self._touch_all()

    def _classify(self) -> SchaeferClass | None:
        # classify_schaefer's primary class, from the counts.
        if self._formula.equations:
            return None if self._live_count else SchaeferClass.AFFINE
        for cls, outside in zip(boolean.CLAUSAL_CLASSES, self._outside):
            if not outside:
                return cls
        return None

    @property
    def effective(self) -> BooleanFormula | None:
        """The formula with every pinned variable instantiated away."""
        if self._formula is None or not self._pinned:
            return self._formula
        return boolean.assume(self._formula, self._pinned)

    def _oracle(self, kind: str, x: str, a: str) -> bool:
        # Whether no solution falsifies the query.  With none, all hold; on a
        # free x only inconsistency fails (removability is asked with another
        # value active); else a scan of x's group, stopping at the first
        # falsifying row, costs less than x's answer row for a few questions.
        exact = self.exact
        holding = exact.holding.get(x)
        if exact.some_empty or holding is None:
            return exact.some_empty or kind != "inconsistent"
        query = oracle.PropertyQuery(kind, x, (a,))
        return next(oracle._falsifying_rows(exact.tables[holding[0]], query), None) is None

    def _inconsistent(self, x: str, value: bool) -> bool:
        # The compiled form's answer; a false one watches the variables it
        # read, which a later pin may change.
        reads: set[int] = set()
        if self.compiled.inconsistent(x, value, reads):
            return True
        p = self._position[x]
        for i in reads:
            self._watchers.setdefault(i, []).append(p)
        return False

    def first(self, space: SearchSpace, action: str):
        """The first justified step of ``action`` ("fix" or "remove") in
        scan order among the dirty variables, as (variable, value, detector)
        and, for a removal, whether it is an inconsistency proof; or None.
        Fixes skip the pinned variables.  A variable scanned without one is
        left clean."""
        fixing = action == "fix"
        dirty = self._fix_dirty if fixing else self._removal_dirty
        justify = self.justify_fix if fixing else self.justify_removal
        variables = self.instance.variables
        p = dirty.find(1)
        while p >= 0:
            x = variables[p]
            active = space.values(x)
            for a in () if fixing and len(active) == 1 else active:
                found = justify(space, x, a)
                if found is not None:
                    return (x, a, found) if fixing else (x, a, *found)
            dirty[p] = 0
            p = dirty.find(1, p + 1)
        return None

    def justify_fix(self, space, x, a):
        # Returns the detector, or None.
        if self._polarity is not None:
            # The pure-value rule on the effective formula.
            value = local.pure_value(*self._polarity[x])
            if value is not None and boolean.bool_name(value) == a:
                return "pure-value"
        if self.compiled is not None and x in self.compiled:
            if self._inconsistent(x, not boolean.name_bool(a)):
                return "tractable-implied"
        # A vacuous AND over zero subsets establishes nothing worth acting
        # on; steps need evidence from at least one subset.
        if self.groups is not None:
            row = self.groups.row(x)
            if row["fixable", (a,)]:
                return "local-fixable"
            if row["implied", (a,)]:
                return "local-implied"
        if self.exact is not None and self._oracle("fixable", x, a):
            return "oracle-fixable"
        return None

    def justify_removal(self, space, x, a):
        # Returns (detector, is_inconsistency_proof), or None.
        active = space.values(x)
        if self.groups is not None:
            row = self.groups.row(x)
            if row["inconsistent", (a,)]:
                return "local-inconsistent", True
            if any(b != a and row["substitutable", (a, b)] for b in active):
                return "local-substitutable", False
        if self.exact is not None:
            if self._oracle("inconsistent", x, a):
                return "oracle-inconsistent", True
            if len(active) >= 2 and self._oracle("removable", x, a):
                return "oracle-removable", False
        return None


def simplify_fixpoint(
    instance: CspInstance,
    space: SearchSpace,
    mode: str = "production",
    formula: BooleanFormula | None = None,
    group_size: int = 1,
    groups: local.GroupTables | None = None,
) -> SimplificationResult:
    """Apply justified fixes and removals until nothing changes.

    Every logged step strictly shrinks the product of active-domain sizes,
    so the loop terminates after at most sum(|active(x)| - 1) steps.  The
    final space is equi-satisfiable with the initial one.  ``groups`` may
    hand over the covering's tables for ``space``, to be narrowed in place.
    """
    if formula is not None:
        if set(formula.variables) != set(instance.variables):
            raise ValueError("formula and instance disagree on variables")
        if instance.domain != BOOL_VALUES:
            raise ValueError("formula-backed simplification needs a boolean domain")
    if mode not in ("production", "test"):
        raise ValueError(f"mode must be 'production' or 'test', got {mode!r}")
    covering = default_covering(instance, group_size)
    detector_set = _DetectorSet(instance, mode == "test", formula, covering, space, groups)

    steps: list[SimplificationStep] = []
    current = space
    size = space.size()
    while True:
        fix = detector_set.first(current, "fix")
        if fix is not None:
            x, a, detector = fix
            action, child = "fix", current.assign(x, a)
        else:
            removal = detector_set.first(current, "remove")
            if removal is None:
                return SimplificationResult(current, tuple(steps), proved_unsatisfiable=False)
            x, a, detector, is_proof = removal
            # A proof at x's last value empties its domain: the instance is
            # unsatisfiable.  Without one, remove refuses to empty x.
            if is_proof and current.values(x) == (a,):
                return SimplificationResult(
                    current, tuple(steps), proved_unsatisfiable=True, conflict=(x, a, detector)
                )
            action, child = "remove", current.remove(x, a)
        after = size // len(current.values(x)) * len(child.values(x))
        steps.append(SimplificationStep(action, x, a, detector, size, after))
        current, size = child, after
        detector_set.advance(current, x)
