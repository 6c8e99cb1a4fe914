"""Boolean formulas in the tractable Schaefer fragments.

Supports clause sets (Horn, dual Horn, 2CNF) and affine XOR-equation sets:
syntactic classification, instantiate-and-project (``assume`` substitutes
values and drops their variables, keeping the formula in its fragment),
expansion into an extensional instance, and exact polynomial property
checks.

Property checks run on a ``CompiledFormula``, which a caller builds once
per (formula, class) and passes to every query on it.  Compiling checks
class membership and decides the formula's own satisfiability once; every
answer is then a lookup or one propagation or reduction on that state:

- Horn, dual Horn and 2CNF share one counter-based unit propagator over
  integer literals with occurrence lists.  F's unit clauses are propagated
  at compile time; a query assumes a few literals on that state,
  propagates on and undoes what it propagated.  No conflict means
  satisfiable, once F is.
- Affine keeps F's reduced basis over GF(2), the variables it fixes (the
  rows that hold one variable) and the mask of the variables its equations
  mention; every affine answer is a lookup in those.

inconsistent(x, a) is not SAT(F AND x=a) and implied(x, a) is inconsistent
at the other value.  substitutable(x, a, b) asks, for each clause holding
x=not b, whether F AND x=a AND the negated rest of that clause is
unsatisfiable; under affine, with a != b, it is inconsistency at a unless no
equation mentions x.  determined(x) is F AND the remainders of x's clauses
(each clause minus x's literal) being unsatisfiable; under affine it is
some equation mentioning x.  ``row(x)`` holds every answer on x but
dependence, read off x's two substitutabilities and determinacy as the
oracle reads its answer rows.  ``pin`` turns F's compiled form, in place,
into that of F with some variables pinned, from F's own state.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from .model import Constraint, CspInstance
from .oracle import KINDS, PropertyQuery, signature_row

FALSE_VALUE = "false"
TRUE_VALUE = "true"
BOOL_VALUES = (FALSE_VALUE, TRUE_VALUE)


class ClassMismatchError(ValueError):
    """The formula does not belong to the requested Schaefer class."""


class UnsupportedQueryError(ValueError):
    """No tractable method exists for the requested property."""


def bool_name(value: bool) -> str:
    return TRUE_VALUE if value else FALSE_VALUE


def name_bool(name: str) -> bool:
    if name == TRUE_VALUE:
        return True
    if name == FALSE_VALUE:
        return False
    raise ValueError(f"{name!r} is not a boolean value name")


@dataclass(frozen=True)
class Literal:
    variable: str
    positive: bool

    def __repr__(self) -> str:
        return self.variable if self.positive else "-" + self.variable


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals; the empty clause is the false marker.

    Clauses holding a complementary literal pair are tautologies and are
    rejected here; the DIMACS parser drops them on this refusal.
    """

    literals: frozenset[Literal]

    def __post_init__(self) -> None:
        if not isinstance(self.literals, frozenset):
            object.__setattr__(self, "literals", frozenset(self.literals))
        by_var: dict[str, bool] = {}
        for lit in self.literals:
            if by_var.setdefault(lit.variable, lit.positive) != lit.positive:
                raise ValueError("tautological clause (complementary literals)")

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(lit.variable for lit in self.literals)

    @property
    def positive_count(self) -> int:
        return sum(1 for lit in self.literals if lit.positive)

    @property
    def negative_count(self) -> int:
        return sum(1 for lit in self.literals if not lit.positive)

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=lambda l: (l.variable, not l.positive)))

    def __repr__(self) -> str:
        if self.is_empty:
            return "(false)"
        return "(" + " | ".join(map(repr, self.sorted_literals())) + ")"


@dataclass(frozen=True)
class AffineEquation:
    """XOR of variables equal to a parity bit over GF(2)."""

    variables: frozenset[str]
    parity: bool

    def __post_init__(self) -> None:
        if not isinstance(self.variables, frozenset):
            object.__setattr__(self, "variables", frozenset(self.variables))

    def __repr__(self) -> str:
        if not self.variables:
            return f"(0 = {int(self.parity)})"
        return "(" + " ^ ".join(sorted(self.variables)) + f" = {int(self.parity)})"


BooleanConstraint = Clause | AffineEquation


@dataclass(frozen=True)
class BooleanFormula:
    """Clause list plus affine-equation list over an ordered variable set."""

    variables: tuple[str, ...]
    clauses: tuple[Clause, ...] = ()
    equations: tuple[AffineEquation, ...] = ()

    def __post_init__(self) -> None:
        for attr in ("variables", "clauses", "equations"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("formula variables must be unique")
        known = set(self.variables)
        for clause in self.clauses:
            unknown = clause.variables - known
            if unknown:
                raise ValueError(f"clause mentions undeclared variable(s) {sorted(unknown)}")
        for eq in self.equations:
            unknown = eq.variables - known
            if unknown:
                raise ValueError(f"equation mentions undeclared variable(s) {sorted(unknown)}")

    @property
    def is_clausal(self) -> bool:
        return not self.equations

    @property
    def constraints(self) -> tuple[BooleanConstraint, ...]:
        return self.clauses + self.equations


class SchaeferClass(enum.Enum):
    HORN = "horn"
    DUAL_HORN = "dual-horn"
    TWO_CNF = "2cnf"
    AFFINE = "affine"
    UNRESTRICTED = "unrestricted"


_CANONICAL_ORDER = (
    SchaeferClass.HORN,
    SchaeferClass.DUAL_HORN,
    SchaeferClass.TWO_CNF,
    SchaeferClass.AFFINE,
)


@dataclass(frozen=True)
class SchaeferClassification:
    primary: SchaeferClass
    applicable: tuple[SchaeferClass, ...]


# The clausal classes, in canonical order.
CLAUSAL_CLASSES = _CANONICAL_ORDER[:3]


def outside_clausal(negative: int, positive: int) -> tuple[bool, bool, bool]:
    """Per class of ``CLAUSAL_CLASSES``, whether a clause with this many
    negative and positive literals lies outside it."""
    return positive > 1, negative > 1, negative + positive > 2


def _members(formula: BooleanFormula) -> tuple[SchaeferClass, ...]:
    """The classes of ``_CANONICAL_ORDER`` the formula belongs to, in one
    pass over its clauses."""
    inside = [not formula.equations] * len(CLAUSAL_CLASSES)
    if not formula.equations:
        for c in formula.clauses:
            positive = c.positive_count
            for k, out in enumerate(outside_clausal(len(c.literals) - positive, positive)):
                if out:
                    inside[k] = False
    inside.append(not formula.clauses)  # affine
    return tuple(cls for cls, member in zip(_CANONICAL_ORDER, inside) if member)


def classify_schaefer(formula: BooleanFormula) -> SchaeferClassification:
    """Syntactic classification; several tags may apply, the primary one is
    the first in the fixed order Horn, dual Horn, 2CNF, affine."""
    applicable = _members(formula)
    primary = applicable[0] if applicable else SchaeferClass.UNRESTRICTED
    return SchaeferClassification(primary, applicable)


def _as_class(cls: SchaeferClass | str) -> SchaeferClass:
    return cls if isinstance(cls, SchaeferClass) else SchaeferClass(cls)


def _require_member(formula: BooleanFormula, cls: SchaeferClass) -> None:
    if cls is SchaeferClass.UNRESTRICTED:
        raise ClassMismatchError("unrestricted formulas have no tractable solver")
    if cls not in _members(formula):
        raise ClassMismatchError(f"formula is not in class {cls.value}")


# ---------------------------------------------------------------------------
# Restricted satisfiability
# ---------------------------------------------------------------------------


def _assign(value: list[bool | None], lit: int, queue: list[int]) -> bool:
    # Make a literal true; False when its variable holds the other value.
    current = value[lit >> 1]
    if current is None:
        value[lit >> 1] = not lit & 1
        queue.append(lit)
        return True
    return current == (not lit & 1)


class _UnitPropagation:
    """Clauses over integer literals (2*i for variable i, 2*i+1 for its
    negation) with occurrence lists, propagated from their unit clauses.

    ``value`` holds each variable's propagated value or None, ``left[k]``
    the number of literals of clause k not propagated as false, and
    ``consistent`` whether that propagation met no conflict.
    """

    def __init__(self, clauses: Iterable[Clause], index: Mapping[str, int]):
        self.clauses = [
            tuple([2 * index[lit.variable] + (not lit.positive) for lit in c.literals])
            for c in clauses
        ]
        self.occurs: list[list[int]] = [[] for _ in range(2 * len(index))]
        for k, lits in enumerate(self.clauses):
            for lit in lits:
                self.occurs[lit].append(k)
        self.value: list[bool | None] = [None] * len(index)
        self.left = [len(lits) for lits in self.clauses]
        units = [lits[0] for lits in self.clauses if len(lits) == 1]
        self.consistent = all(self.clauses) and self._propagate(
            self.value, self.left, units, []
        )

    def consistent_with(
        self,
        literals: Iterable[int],
        extra: Sequence[Sequence[int]] = (),
        reads: set[int] | None = None,
    ) -> bool:
        """No conflict when the literals, and then the extra clauses, are
        added to the propagated state.  The extra clauses are rescanned
        until none of them is unit, as they have no occurrence lists.  The
        query propagates on this state and undoes its changes after, so it
        costs the propagation it makes, not a copy of the state.

        ``reads``, when given, receives every variable the propagation read:
        those it assigned and those of each clause whose count it lowered.
        A state that differs from this one on none of them gives the same
        answer."""
        if not self.consistent:
            return False
        trail: list[int] = []
        try:
            return self._extend(literals, extra, trail)
        finally:
            value, left, clauses = self.value, self.left, self.clauses
            for change in trail:
                if change >= 0:
                    value[change >> 1] = None
                else:
                    left[~change] += 1
                    if reads is not None:
                        reads.update(lit >> 1 for lit in clauses[~change])
            if reads is not None:
                reads.update(change >> 1 for change in trail if change >= 0)

    def _extend(
        self, literals: Iterable[int], extra: Sequence[Sequence[int]], trail: list[int]
    ) -> bool:
        value, left = self.value, self.left
        if not self._propagate(value, left, literals, trail):
            return False
        changed = bool(extra)
        while changed:
            changed = False
            for lits in extra:
                open_lit = None
                for lit in lits:
                    current = value[lit >> 1]
                    if current is None:
                        if open_lit is not None:
                            break  # two open literals
                        open_lit = lit
                    elif current != bool(lit & 1):
                        break  # already true
                else:
                    if open_lit is None or not self._propagate(
                        value, left, (open_lit,), trail
                    ):
                        return False
                    changed = True
        return True

    def pin(self, literals: Iterable[int]) -> list[int]:
        """Propagate this state further under the literals, in place, and
        return the variables the propagation assigned."""
        trail: list[int] = []
        self.consistent = self.consistent and self._propagate(
            self.value, self.left, literals, trail
        )
        return [change >> 1 for change in trail if change >= 0]

    def _propagate(
        self,
        value: list[bool | None],
        left: list[int],
        literals: Iterable[int],
        trail: list[int],
    ) -> bool:
        # Updates value and left in place and logs each change on the trail:
        # a literal made true as itself, a lowered count of clause k as ~k.
        # When a count drops to one, the clause's last literal not known
        # false is true already, or is made true, or is false after all (a
        # conflict); no later count change can touch that clause again.
        queue: list[int] = []
        assigned = all(_assign(value, lit, queue) for lit in literals)
        trail.extend(queue)
        if not assigned:
            return False
        clauses, occurs = self.clauses, self.occurs
        while queue:
            for k in occurs[queue.pop() ^ 1]:
                left[k] -= 1
                trail.append(~k)
                if left[k] > 1:
                    continue
                for other in clauses[k]:
                    current = value[other >> 1]
                    if current is None:
                        value[other >> 1] = not other & 1
                        queue.append(other)
                        trail.append(other)
                        break
                    if current != bool(other & 1):
                        break  # already true
                else:
                    return False
        return True


def _two_cnf_satisfiable(units: _UnitPropagation) -> bool:
    """Whether 2CNF clauses whose units propagated with no conflict have a
    model: iff no open variable's two literals share a strongly connected
    component (Aspvall, Plass and Tarjan 1979) of the implication graph of
    the clauses left open (all their literals open), where a literal implies
    the other literal of each that holds its negation.  One linear pass."""
    value, clauses, occurs = units.value, units.clauses, units.occurs
    number = [0] * len(occurs)  # visit order from 1, 0 until visited
    low = [0] * len(occurs)
    component = [-1] * len(occurs)  # its root literal, once assigned
    order = itertools.count(1)
    stack, path = [], []  # Tarjan's stack; the search path with its iterators

    def enter(lit: int) -> None:
        number[lit] = low[lit] = next(order)
        stack.append(lit)
        neg = lit ^ 1
        implied = (
            b for k in occurs[neg] for b in clauses[k] if b != neg and value[b >> 1] is None
        )
        path.append((lit, implied))

    for root in range(len(occurs)):
        if number[root] or value[root >> 1] is not None:
            continue
        enter(root)
        while path:
            lit, implied = path[-1]
            for other in implied:
                if not number[other]:
                    enter(other)
                    break
                if component[other] < 0:  # still on the stack
                    low[lit] = min(low[lit], number[other])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[lit])
                if low[lit] == number[lit]:
                    while component[lit] < 0:
                        member = stack.pop()
                        component[member] = lit
                        if component[member ^ 1] == lit:
                            return False
    return True


# A reduced basis over GF(2): per lead bit, the one row that holds it, as
# (mask, rhs).  No row holds another row's lead bit.
Basis = dict[int, tuple[int, bool]]


def _equation_mask(eq: AffineEquation, index: Mapping[str, int]) -> int:
    mask = 0
    for v in eq.variables:
        mask |= 1 << index[v]
    return mask


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _reduce(basis: Basis, mask: int, rhs: bool) -> tuple[int, bool]:
    # Only the mask's own bits need a look-up: a row holds no lead bit but
    # its own, so adding one in brings in none.
    for bit in _bits(mask):
        row = basis.get(bit)
        if row is not None:
            mask ^= row[0]
            rhs ^= row[1]
    return mask, rhs


def _affine_basis(
    equations: Iterable[AffineEquation], index: Mapping[str, int]
) -> Basis | None:
    """Gauss-Jordan over GF(2): the reduced basis, or None when the
    equations are inconsistent.  Each equation is first brought to echelon
    form, led by its lowest bit, by the rows leading at its lowest bits;
    the rows are then reduced from the highest lead down.  So each row
    costs the rows it meets, not a pass over the basis."""
    echelon: Basis = {}
    for eq in equations:
        mask, rhs = _equation_mask(eq, index), eq.parity
        while mask:
            lead = (mask & -mask).bit_length() - 1
            row = echelon.get(lead)
            if row is None:
                echelon[lead] = (mask, rhs)
                break
            mask ^= row[0]
            rhs ^= row[1]
        else:
            if rhs:
                return None
    basis: Basis = {}
    for lead in sorted(echelon, reverse=True):
        basis[lead] = _reduce(basis, *echelon[lead])
    return basis


def _fixed_values(basis: Basis | None) -> dict[int, bool]:
    """The variables a reduced basis fixes, by bit: those with a row of
    their own.  Reducing the unit equation of x leaves the row that leads
    with x, minus x, or x itself; the rest of that row holds no lead bit,
    so x's value is implied only when the row is x alone."""
    if basis is None:
        return {}
    return {lead: rhs for lead, (mask, rhs) in basis.items() if mask == 1 << lead}


# ---------------------------------------------------------------------------
# Tractable property checks
# ---------------------------------------------------------------------------

class CompiledFormula:
    """One formula prepared once for many queries in one Schaefer class.

    The clausal classes keep the formula's clauses as integer literals with
    occurrence lists and the state of unit propagation from its unit
    clauses; a query adds a few literals to that state (and, for
    determinacy under Horn and dual Horn, a few clauses of the same class),
    propagates on and undoes what it propagated; a variable the units fix
    needs no propagation at all.  Affine keeps the reduced GF(2) basis, the variables it fixes and
    the mask of the variables the equations mention, and answers every
    query by a lookup in them.  ``row`` answers every question on one
    variable at once and keeps the answers until the next ``pin``.  ``pin``
    derives, in place, the compiled form of the formula with some variables
    pinned from this state, so a caller that pins variables one step at a
    time compiles once.

    Propagation is exact once the formula is satisfiable.  When it meets no
    conflict, each clause it leaves unsatisfied has two or more open
    literals.  Under Horn that includes a negative one, so all-false
    completes the assignment; dual Horn likewise with all-true.  Under 2CNF
    such a clause is an untouched original clause over open variables, so
    any model of the formula completes it.
    """

    def __init__(self, formula: BooleanFormula, cls: SchaeferClass | str):
        cls = _as_class(cls)
        _require_member(formula, cls)
        self.cls = cls
        self._index = {v: i for i, v in enumerate(formula.variables)}
        self._free = set(self._index)  # the variables not pinned
        self._rows: dict[str, dict[tuple, bool]] = {}
        if cls is SchaeferClass.AFFINE:
            self._basis = _affine_basis(formula.equations, self._index)
            self.satisfiable = self._basis is not None
            self._fixed = _fixed_values(self._basis)
            self._mentioned = 0
            for eq in formula.equations:
                self._mentioned |= _equation_mask(eq, self._index)
            return
        self._units = _UnitPropagation(formula.clauses, self._index)
        self.satisfiable = self._units.consistent
        if self.satisfiable and cls is SchaeferClass.TWO_CNF:
            # Propagation misses 2CNF conflicts like (a|b)(a|-b)(-a|b)(-a|-b).
            self.satisfiable = _two_cnf_satisfiable(self._units)

    def __contains__(self, x: str) -> bool:
        """Whether x is a variable of the formula and not pinned."""
        return x in self._free

    def inconsistent(self, x: str, a: bool, reads: set[int] | None = None) -> bool:
        """No model has x=a.  ``reads``, when given, receives the indices of
        the variables the answer read: a form pinned further, whose ``pin``
        returned none of them and that is still satisfiable, gives the same
        answer."""
        if not self.satisfiable:
            return True
        i = self._index[x]
        if reads is not None:
            reads.add(i)
        if self.cls is SchaeferClass.AFFINE:
            return self._fixed.get(i, a) != a
        propagated = self._units.value[i]
        if propagated is not None:
            return propagated != a
        return not self._units.consistent_with((2 * i + (not a),), reads=reads)

    def substitutable(self, x: str, a: bool, b: bool) -> bool:
        """Every model with x=a stays a model with x=b: flipping x to b can
        break only a constraint holding x's literal at not b, so none of
        those has a model of formula AND x=a that violates it with x=b."""
        i = self._index[x]
        if self.cls is SchaeferClass.AFFINE:
            # With a != b every equation on x breaks, so only a model with
            # x=a could fail; with a == b nothing changes.
            return a == b or not (self._mentioned >> i) & 1 or self.inconsistent(x, a)
        if not self.satisfiable:
            return True
        units = self._units
        pin, miss = 2 * i + (not a), 2 * i + b
        clauses = units.clauses
        return not any(
            units.consistent_with((pin, *(lit ^ 1 for lit in clauses[k] if lit != miss)))
            for k in units.occurs[miss]
        )

    def determined(self, x: str) -> bool:
        """No two models differ at x alone.

        Affine: flipping x breaks exactly the equations that mention it.
        Clausal: the models at x=true and at x=false share their other
        values iff the formula is consistent with the remainders of x's
        clauses (each clause minus x's literal).  An empty remainder
        refutes it at once and unit remainders are assumed literals; the
        longer ones, Horn or dual Horn clauses of the formula's own class,
        are propagated too, which stays exact for the reason the class
        docstring gives.
        """
        if not self.satisfiable:
            return True
        i = self._index[x]
        if self.cls is SchaeferClass.AFFINE:
            return bool((self._mentioned >> i) & 1)
        units = self._units
        if units.value[i] is not None:
            return True  # the formula fixes x
        assumed: list[int] = []
        extra: list[tuple[int, ...]] = []
        for own in (2 * i, 2 * i + 1):
            for k in units.occurs[own]:
                rest = tuple(lit for lit in units.clauses[k] if lit != own)
                if not rest:
                    return True
                if len(rest) == 1:
                    assumed.append(rest[0])
                else:
                    extra.append(rest)
        return not units.consistent_with(assumed, extra)

    def row(self, x: str) -> dict[tuple, bool]:
        """Every answer on x but dependence, as ``oracle.answer_row`` reads
        it off x's mask signature: a model that cannot flip x away from a
        gives the mask of a alone, two models that differ at x alone give
        the full mask.  The row is kept until the next ``pin``."""
        row = self._rows.get(x)
        if row is None:
            absent = (
                self.substitutable(x, False, True),
                self.substitutable(x, True, False),
                self.determined(x),
            )
            masks = {mask for mask, gone in zip((1, 2, 3), absent) if not gone}
            row = self._rows[x] = signature_row(BOOL_VALUES, masks)
        return row

    def pin(self, assignments: Mapping[str, bool]) -> list[int]:
        """Make this form, in place, the compiled form of
        ``assume(formula, assignments)`` in the same class: the clausal
        classes propagate the pins on from the propagated units, affine
        folds each pin into the reduced basis.  Pinning keeps a formula in
        its class, and propagation from a satisfiable formula stays exact,
        so every answer on a variable left free equals that of compiling
        the assumed formula.

        Returns the indices of the variables whose state the pins changed:
        those propagation assigned, or under affine those the basis newly
        fixes."""
        for v in assignments:
            if v not in self._free:
                raise ValueError(f"unknown or pinned variable {v!r}")
        self._free.difference_update(assignments)
        self._rows = {}
        if self.cls is not SchaeferClass.AFFINE:
            changed = self._units.pin(
                [2 * self._index[v] + (not value) for v, value in assignments.items()]
            )
            self.satisfiable = self.satisfiable and self._units.consistent
            return changed
        changed: list[int] = []
        for v, value in assignments.items():
            if self.satisfiable and not self._add_unit(self._index[v], value, changed):
                self.satisfiable, self._basis, self._fixed = False, None, {}
        return changed

    def _add_unit(self, i: int, value: bool, changed: list[int]) -> bool:
        """Fold the equation x_i = value into the reduced basis in place,
        adding the leads it newly fixes to ``changed``; False when it
        contradicts the basis.  One pass over the basis adds the new row
        into each row that holds its lead."""
        basis, fixed = self._basis, self._fixed
        mask, rhs = _reduce(basis, 1 << i, value)
        if not mask:
            return not rhs
        low = mask & -mask
        for other, (row_mask, row_rhs) in basis.items():
            if row_mask & low:
                basis[other] = row_mask, row_rhs = row_mask ^ mask, row_rhs ^ rhs
                if row_mask == 1 << other:
                    fixed[other] = row_rhs
                    changed.append(other)
        lead = low.bit_length() - 1
        basis[lead] = mask, rhs
        if mask == low:
            fixed[lead] = rhs
            changed.append(lead)
        return True


def tract_check(compiled: CompiledFormula, query: PropertyQuery) -> bool:
    """Exact polynomial property check on a formula's compiled form: a
    lookup in the variable's row.  A query that hits the row is valid; only
    a miss is checked, to name its error."""
    x = query.variable
    if x in compiled:
        holds = compiled.row(x).get((query.kind, query.values))
        if holds is not None:
            return holds
    if query.kind == "dependent":
        raise UnsupportedQueryError("no tractable method is known for dependence")
    if query.kind not in KINDS:
        raise UnsupportedQueryError(f"unsupported property kind {query.kind!r}")
    if x not in compiled:
        raise ValueError(f"unknown variable {x!r}")
    for value in query.values:
        name_bool(value)  # refuses a value that is not boolean
    return compiled.row(x)[query.kind, query.values]


# ---------------------------------------------------------------------------
# Bridges to the extensional model
# ---------------------------------------------------------------------------


def assume(formula: BooleanFormula, assignments: Mapping[str, bool]) -> BooleanFormula:
    """Instantiate several variables away in one pass over the constraints,
    keeping the same class: substitute each value and drop its variable.
    A clause holding a literal made true goes, one holding a literal made
    false loses it (the last one lost leaves the false marker), and an
    equation drops the assigned variables and flips its parity once per
    true one."""
    known = set(formula.variables)
    for variable in assignments:
        if variable not in known:
            raise ValueError(f"unknown variable {variable!r}")
    clauses = []
    for c in formula.clauses:
        kept = [lit for lit in c.literals if lit.variable not in assignments]
        if len(kept) == len(c.literals):
            clauses.append(c)
        elif all(assignments[lit.variable] != lit.positive for lit in c.literals
                 if lit.variable in assignments):
            clauses.append(Clause(frozenset(kept)))
    equations = [
        AffineEquation(
            eq.variables.difference(assignments),
            eq.parity ^ (sum(assignments[v] for v in eq.variables if v in assignments) % 2 == 1),
        )
        if not eq.variables.isdisjoint(assignments)
        else eq
        for eq in formula.equations
    ]
    remaining = tuple(v for v in formula.variables if v not in assignments)
    return BooleanFormula(remaining, tuple(clauses), tuple(equations))


def to_extensional(formula: BooleanFormula) -> CspInstance:
    """Expand every clause and equation into an extensional constraint over
    the domain (false, true)."""
    if not formula.variables:
        raise ValueError("cannot expand a formula without variables")
    constraints = []
    position = {v: i for i, v in enumerate(formula.variables)}.__getitem__
    for number, item in enumerate(formula.constraints, 1):
        scope = tuple(sorted(item.variables, key=position))
        combos = itertools.product(BOOL_VALUES, repeat=len(scope))
        if isinstance(item, Clause):
            wanted = {lit.variable: lit.positive for lit in item.literals}
            rows = frozenset(
                combo
                for combo in combos
                if any(name_bool(a) == wanted[v] for a, v in zip(combo, scope))
            )
        else:
            rows = frozenset(combo for combo in combos if _parity_of(combo) == item.parity)
        if not scope:
            if rows:  # 0 = 0
                continue
            # The empty clause or 0 = 1: the false marker, an unsatisfiable
            # unary constraint.
            scope = (formula.variables[0],)
        constraints.append(Constraint(f"c{number}", scope, rows))
    return CspInstance(formula.variables, BOOL_VALUES, tuple(constraints))


def _parity_of(combo: tuple[str, ...]) -> bool:
    parity = False
    for value in combo:
        parity ^= name_bool(value)
    return parity

