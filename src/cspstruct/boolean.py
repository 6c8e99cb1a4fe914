"""Boolean formulas in the tractable Schaefer fragments.

Supports clause sets (Horn, dual Horn, 2CNF) and affine XOR-equation sets,
with polynomial satisfiability for each fragment and exact polynomial
property checks built on two closure operations: instantiate-and-project
(substitute a value into one constraint) and complement-as-conjunction
(negate one constraint inside the same language).
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .model import Constraint, CspInstance, Relation, SearchSpace
from .oracle import PropertyQuery

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

    def negated(self) -> "Literal":
        return Literal(self.variable, not self.positive)

    def __repr__(self) -> str:
        return self.variable if self.positive else "-" + self.variable


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals; the empty clause is the false marker.

    Clauses holding a complementary literal pair are tautologies and are
    rejected here; parsers drop them before construction.
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


def clause_of(literals: Iterable[Literal]) -> Clause | None:
    """Build a clause, or return None for a tautology (dropped upstream)."""
    lits = frozenset(literals)
    variables = {lit.variable for lit in lits}
    if len(variables) != len(lits):
        return None
    return Clause(lits)


@dataclass(frozen=True)
class AffineEquation:
    """XOR of variables equal to a parity bit over GF(2)."""

    variables: frozenset[str]
    parity: bool

    def __post_init__(self) -> None:
        if not isinstance(self.variables, frozenset):
            object.__setattr__(self, "variables", frozenset(self.variables))

    @property
    def is_trivially_true(self) -> bool:
        return not self.variables and not self.parity

    @property
    def is_false(self) -> bool:
        return not self.variables and self.parity

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

    def satisfied_by(self, model: Mapping[str, bool]) -> bool:
        for clause in self.clauses:
            if not any(model[l.variable] == l.positive for l in clause.literals):
                return False
        for eq in self.equations:
            parity = False
            for v in eq.variables:
                parity ^= model[v]
            if parity != eq.parity:
                return False
        return True


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


def classify_schaefer(formula: BooleanFormula) -> SchaeferClassification:
    """Syntactic classification; several tags may apply, the primary one is
    the first in the fixed order Horn, dual Horn, 2CNF, affine."""
    applicable = []
    if not formula.equations:
        if all(c.positive_count <= 1 for c in formula.clauses):
            applicable.append(SchaeferClass.HORN)
        if all(c.negative_count <= 1 for c in formula.clauses):
            applicable.append(SchaeferClass.DUAL_HORN)
        if all(len(c.literals) <= 2 for c in formula.clauses):
            applicable.append(SchaeferClass.TWO_CNF)
    if not formula.clauses:
        applicable.append(SchaeferClass.AFFINE)
    primary = next(
        (cls for cls in _CANONICAL_ORDER if cls in applicable),
        SchaeferClass.UNRESTRICTED,
    )
    return SchaeferClassification(primary, tuple(applicable))


def _as_class(cls: SchaeferClass | str) -> SchaeferClass:
    return cls if isinstance(cls, SchaeferClass) else SchaeferClass(cls)


def _require_member(formula: BooleanFormula, cls: SchaeferClass) -> None:
    if cls is SchaeferClass.UNRESTRICTED:
        raise ClassMismatchError("unrestricted formulas have no tractable solver")
    if cls not in classify_schaefer(formula).applicable:
        raise ClassMismatchError(f"formula is not in class {cls.value}")


# ---------------------------------------------------------------------------
# Restricted satisfiability
# ---------------------------------------------------------------------------


def _solve_clausal_default(
    clauses: Sequence[Clause], variables: Sequence[str], default: bool
) -> dict[str, bool] | None:
    # Unit propagation to fixpoint, then the class default for what is left:
    # complete for Horn with default false and dual Horn with default true.
    assignment: dict[str, bool] = {}
    work = [clause.literals for clause in clauses]
    while True:
        changed = False
        remaining = []
        for lits in work:
            satisfied = False
            undecided = []
            for lit in lits:
                value = assignment.get(lit.variable)
                if value is None:
                    undecided.append(lit)
                elif value == lit.positive:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not undecided:
                return None
            if len(undecided) == 1:
                unit = undecided[0]
                assignment[unit.variable] = unit.positive
                changed = True
            else:
                remaining.append(frozenset(undecided))
        work = remaining
        if not changed:
            break
    model = {v: assignment.get(v, default) for v in variables}
    for clause in clauses:
        if not any(model[l.variable] == l.positive for l in clause.literals):
            return None
    return model


def _solve_two_cnf(
    clauses: Sequence[Clause], variables: Sequence[str]
) -> dict[str, bool] | None:
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    def node(lit: Literal) -> int:
        return 2 * index[lit.variable] + (0 if lit.positive else 1)

    def negation(node_id: int) -> int:
        return node_id ^ 1

    adjacency: list[list[int]] = [[] for _ in range(2 * n)]
    for clause in clauses:
        lits = list(clause.literals)
        if not lits:
            return None
        if len(lits) == 1:
            adjacency[negation(node(lits[0]))].append(node(lits[0]))
        else:
            u, v = node(lits[0]), node(lits[1])
            adjacency[negation(u)].append(v)
            adjacency[negation(v)].append(u)

    # Iterative Tarjan; components are numbered in reverse topological order.
    comp = [-1] * (2 * n)
    low = [0] * (2 * n)
    num = [-1] * (2 * n)
    on_stack = [False] * (2 * n)
    stack: list[int] = []
    counter = itertools.count()
    comp_counter = itertools.count()
    for root in range(2 * n):
        if num[root] != -1:
            continue
        call_stack: list[tuple[int, int]] = [(root, 0)]
        while call_stack:
            v, edge_pos = call_stack[-1]
            if edge_pos == 0:
                num[v] = low[v] = next(counter)
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while edge_pos < len(adjacency[v]):
                w = adjacency[v][edge_pos]
                edge_pos += 1
                if num[w] == -1:
                    call_stack[-1] = (v, edge_pos)
                    call_stack.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            call_stack.pop()
            if low[v] == num[v]:
                cid = next(comp_counter)
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = cid
                    if w == v:
                        break
            if call_stack:
                parent = call_stack[-1][0]
                low[parent] = min(low[parent], low[v])

    model = {}
    for v, i in index.items():
        pos, neg = comp[2 * i], comp[2 * i + 1]
        if pos == neg:
            return None
        # Lower component id means later in topological order: truth goes to
        # the literal whose component its negation can reach.
        model[v] = pos < neg
    for clause in clauses:
        if not any(model[l.variable] == l.positive for l in clause.literals):
            return None
    return model


def _solve_affine(
    equations: Sequence[AffineEquation], variables: Sequence[str]
) -> dict[str, bool] | None:
    index = {v: i for i, v in enumerate(variables)}
    # Gauss-Jordan over GF(2); a basis row is (mask, rhs, lead bit).
    basis: list[tuple[int, bool, int]] = []
    for eq in equations:
        mask = 0
        for v in eq.variables:
            mask |= 1 << index[v]
        rhs = eq.parity
        for bmask, brhs, lead in basis:
            if (mask >> lead) & 1:
                mask ^= bmask
                rhs ^= brhs
        if mask == 0:
            if rhs:
                return None
            continue
        lead = (mask & -mask).bit_length() - 1
        basis = [
            (bm ^ mask, br ^ rhs, bl) if (bm >> lead) & 1 else (bm, br, bl)
            for bm, br, bl in basis
        ]
        basis.append((mask, rhs, lead))
    model = {v: False for v in variables}
    for mask, rhs, lead in basis:
        # In reduced form the non-lead bits are all free variables (false).
        model[variables[lead]] = rhs
    for eq in equations:
        parity = False
        for v in eq.variables:
            parity ^= model[v]
        if parity != eq.parity:
            return None
    return model


def _dispatch_sat(
    cls: SchaeferClass,
    constraints: Sequence[BooleanConstraint],
    variables: Sequence[str],
) -> dict[str, bool] | None:
    clauses = [c for c in constraints if isinstance(c, Clause)]
    equations = [c for c in constraints if isinstance(c, AffineEquation)]
    if cls is SchaeferClass.AFFINE:
        if clauses:
            raise ClassMismatchError("affine solver cannot take clauses")
        return _solve_affine(equations, variables)
    if equations:
        raise ClassMismatchError(f"{cls.value} solver cannot take equations")
    if cls is SchaeferClass.HORN:
        return _solve_clausal_default(clauses, variables, default=False)
    if cls is SchaeferClass.DUAL_HORN:
        return _solve_clausal_default(clauses, variables, default=True)
    if cls is SchaeferClass.TWO_CNF:
        return _solve_two_cnf(clauses, variables)
    raise ClassMismatchError("unrestricted formulas have no tractable solver")


def sat_restricted(
    formula: BooleanFormula, cls: SchaeferClass | str
) -> dict[str, bool] | None:
    """Polynomial satisfiability for a formula in the given class; returns a
    witness model, or None when unsatisfiable."""
    cls = _as_class(cls)
    _require_member(formula, cls)
    return _dispatch_sat(cls, formula.constraints, formula.variables)


# ---------------------------------------------------------------------------
# Closure operations
# ---------------------------------------------------------------------------


def instantiate_project(
    constraint: BooleanConstraint, variable: str, value: bool
) -> tuple[BooleanConstraint, ...]:
    """Substitute a value and drop the variable; the result is an equivalent
    conjunction (possibly empty) in the same class."""
    if isinstance(constraint, Clause):
        hit = Literal(variable, value)
        if hit in constraint.literals:
            return ()
        miss = Literal(variable, not value)
        if miss in constraint.literals:
            return (Clause(constraint.literals - {miss}),)
        return (constraint,)
    if variable in constraint.variables:
        return (
            AffineEquation(constraint.variables - {variable}, constraint.parity ^ value),
        )
    return (constraint,)


def complement_conjunction(
    constraint: BooleanConstraint,
) -> tuple[BooleanConstraint, ...]:
    """Negate one constraint as a conjunction in the same class: a clause
    becomes unit clauses of its negated literals, an equation flips parity."""
    if isinstance(constraint, Clause):
        return tuple(
            Clause(frozenset((lit.negated(),))) for lit in constraint.sorted_literals()
        )
    return (AffineEquation(constraint.variables, not constraint.parity),)


# ---------------------------------------------------------------------------
# Tractable property checks
# ---------------------------------------------------------------------------

TRACTABLE_KINDS = (
    "inconsistent",
    "implied",
    "substitutable",
    "interchangeable",
    "fixable",
    "irrelevant",
    "determined",
    "removable",
)


@lru_cache(maxsize=8192)
def _instantiated(
    formula: BooleanFormula, variable: str, value: bool
) -> tuple[BooleanConstraint, ...]:
    parts: list[BooleanConstraint] = []
    for c in formula.constraints:
        parts.extend(instantiate_project(c, variable, value))
    return tuple(parts)


@lru_cache(maxsize=8192)
def _inconsistent(
    formula: BooleanFormula, cls: SchaeferClass, x: str, a: bool
) -> bool:
    remaining = tuple(v for v in formula.variables if v != x)
    return _dispatch_sat(cls, _instantiated(formula, x, a), remaining) is None


@lru_cache(maxsize=8192)
def _substitutable(
    formula: BooleanFormula, cls: SchaeferClass, x: str, a: bool, b: bool
) -> bool:
    # Not substitutable iff for some constraint c the instantiated problem at
    # a admits a solution violating c instantiated at b.
    remaining = tuple(v for v in formula.variables if v != x)
    base = _instantiated(formula, x, a)
    for c in formula.constraints:
        parts = instantiate_project(c, x, b)
        if not parts:
            continue  # instantiation is true; its complement cannot be met
        if len(parts) > 1:
            raise ClassMismatchError("instantiation did not stay a single constraint")
        negated = complement_conjunction(parts[0])
        if _dispatch_sat(cls, base + negated, remaining) is not None:
            return False
    return True


@lru_cache(maxsize=8192)
def _determined(formula: BooleanFormula, cls: SchaeferClass, x: str) -> bool:
    remaining = tuple(v for v in formula.variables if v != x)
    joint = _instantiated(formula, x, True) + _instantiated(formula, x, False)
    return _dispatch_sat(cls, joint, remaining) is None


def tract_check(
    formula: BooleanFormula, cls: SchaeferClass | str, query: PropertyQuery
) -> bool:
    """Exact polynomial property check by reduction to restricted SAT."""
    cls = _as_class(cls)
    _require_member(formula, cls)
    if query.kind == "dependent":
        raise UnsupportedQueryError("no tractable method is known for dependence")
    if query.kind not in TRACTABLE_KINDS:
        raise UnsupportedQueryError(f"unsupported property kind {query.kind!r}")
    x = query.variable
    if x not in formula.variables:
        raise ValueError(f"unknown variable {x!r}")
    values = tuple(name_bool(v) for v in query.values)
    if query.kind == "inconsistent":
        return _inconsistent(formula, cls, x, values[0])
    if query.kind == "implied":
        return _inconsistent(formula, cls, x, not values[0])
    if query.kind == "substitutable":
        a, b = values
        return a == b or _substitutable(formula, cls, x, a, b)
    if query.kind == "interchangeable":
        a, b = values
        return a == b or (
            _substitutable(formula, cls, x, a, b)
            and _substitutable(formula, cls, x, b, a)
        )
    if query.kind == "fixable":
        b = values[0]
        return _substitutable(formula, cls, x, not b, b)
    if query.kind == "irrelevant":
        return _substitutable(formula, cls, x, False, True) and _substitutable(
            formula, cls, x, True, False
        )
    if query.kind == "determined":
        return _determined(formula, cls, x)
    # removable: on booleans, removable(v) iff v is substitutable by not v
    v = values[0]
    return _substitutable(formula, cls, x, v, not v)


# ---------------------------------------------------------------------------
# Bridges to the extensional model
# ---------------------------------------------------------------------------


def assume(formula: BooleanFormula, assignments: Mapping[str, bool]) -> BooleanFormula:
    """Instantiate several variables away, keeping the same class."""
    constraints: list[BooleanConstraint] = list(formula.constraints)
    for variable, value in assignments.items():
        if variable not in formula.variables:
            raise ValueError(f"unknown variable {variable!r}")
        next_parts: list[BooleanConstraint] = []
        for c in constraints:
            next_parts.extend(instantiate_project(c, variable, value))
        constraints = next_parts
    remaining = tuple(v for v in formula.variables if v not in assignments)
    clauses = tuple(c for c in constraints if isinstance(c, Clause))
    equations = tuple(c for c in constraints if isinstance(c, AffineEquation))
    return BooleanFormula(remaining, clauses, equations)


def to_extensional(formula: BooleanFormula) -> CspInstance:
    """Expand every clause and equation into an extensional constraint over
    the domain (false, true)."""
    if not formula.variables:
        raise ValueError("cannot expand a formula without variables")
    constraints = []
    for number, item in enumerate(formula.constraints, 1):
        name = f"c{number}"
        if isinstance(item, Clause):
            if item.is_empty:
                # The false marker: an unsatisfiable unary constraint.
                scope = (formula.variables[0],)
                constraints.append(Constraint(name, scope, Relation(1, frozenset())))
                continue
            scope = tuple(v for v in formula.variables if v in item.variables)
            wanted = {lit.variable: lit.positive for lit in item.literals}
            rows = frozenset(
                combo
                for combo in itertools.product(BOOL_VALUES, repeat=len(scope))
                if any(name_bool(combo[i]) == wanted[v] for i, v in enumerate(scope))
            )
        else:
            scope = tuple(v for v in formula.variables if v in item.variables)
            if not scope:
                if item.parity:
                    scope = (formula.variables[0],)
                    constraints.append(Constraint(name, scope, Relation(1, frozenset())))
                continue
            rows = frozenset(
                combo
                for combo in itertools.product(BOOL_VALUES, repeat=len(scope))
                if _parity_of(combo) == item.parity
            )
        constraints.append(Constraint(name, scope, Relation(len(scope), rows)))
    return CspInstance(formula.variables, BOOL_VALUES, tuple(constraints))


def _parity_of(combo: tuple[str, ...]) -> bool:
    parity = False
    for value in combo:
        parity ^= name_bool(value)
    return parity


def formula_space(formula: BooleanFormula) -> SearchSpace:
    return SearchSpace.full(to_extensional(formula))

