import dataclasses
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cspstruct import (
    boolean,
    hierarchy,
    local,
    oracle,
    parse_csp,
    parse_dimacs,
    simplify,
)
from cspstruct.boolean import AffineEquation, BooleanFormula, Clause, Literal
from cspstruct.instances import (
    MAX_COLUMN_PRODUCTS,
    STANDARD_CORPUS_SEEDS,
    STANDARD_CORPUS_SPEC,
    Graph,
    _factoring_layout,
    gen_random,
)
from cspstruct.model import Constraint, CspInstance, SearchSpace
from cspstruct.oracle import PropertyQuery
from cspstruct.simplify import SimplificationResult, SimplificationStep

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def coloring():
    return parse_csp((DATA / "coloring_isolated.csp").read_text())


@pytest.fixture(scope="session")
def backbone():
    return parse_csp((DATA / "boolean_backbone.csp").read_text())


@pytest.fixture(scope="session")
def triple_tables():
    return parse_csp((DATA / "triple_tables.csp").read_text())


@pytest.fixture(scope="session")
def removability_trap():
    return parse_csp((DATA / "removability_trap.csp").read_text())


@pytest.fixture(scope="session")
def pure_literal_cnf():
    return parse_dimacs((DATA / "pure_literal.cnf").read_text())


@pytest.fixture(scope="session")
def corpus():
    return tuple(standard_corpus())


@pytest.fixture(scope="session")
def boolean_corpora():
    return {
        kind: tuple(boolean_corpus(kind))
        for kind in ("horn", "dual-horn", "2cnf", "affine")
    }


def data_path(name: str) -> Path:
    return DATA / name


def iter_rows(space):
    """Raw value rows of the space, in (variable order, value order): the
    plain product that the oracle's enumerator must agree with."""
    return itertools.product(*(values for _, values in space.entries))


def is_solution(inst, t):
    """Every constraint holds the scope-ordered projection of ``t`` as a row."""
    return all(tuple(t[v] for v in c.scope) in c.rows for c in inst.constraints)


def reference_solutions(inst, space):
    """Sol(C) inside the space, straight from the product of active sets."""
    names = space.variables
    tuples = (dict(zip(names, row)) for row in iter_rows(space))
    return [t for t in tuples if is_solution(inst, t)]


def table_solutions(inst, space):
    """The solutions on the oracle's table, as assignments in enumeration
    order."""
    table = oracle.solution_table(inst, space)
    return [dict(zip(table.order, row)) for row in table.rows]


def pure_values(formula):
    """The pure-value rule (``local.pure_value``) for every variable of a
    clausal formula, from its polarity counts over the clauses."""
    polarity = {v: [0, 0] for v in formula.variables}
    for clause in formula.clauses:
        for lit in clause.literals:
            polarity[lit.variable][lit.positive] += 1
    return {v: local.pure_value(*counts) for v, counts in polarity.items()}


def reference_verdict(inst, space, solutions, query):
    """(holds, counterexamples) from the definitions: the witness is the
    first solution falsifying the property, in enumeration order."""
    x = query.variable
    active = space.values(x)

    def solution_with(t, value):
        return is_solution(inst, {**t, x: value})

    if query.kind == "dependent":
        for t in solutions:
            first = next(u for u in solutions if all(u[v] == t[v] for v in query.over))
            if first[x] != t[x]:
                return False, (first, t)
        return True, ()
    if query.kind in ("substitutable", "interchangeable"):
        a, b = query.values
        directions = [(a, b), (b, a)] if query.kind == "interchangeable" else [(a, b)]
        falsifiers = [
            lambda t, a=a, b=b: t[x] == a and not solution_with(t, b) for a, b in directions
        ]
    elif query.kind == "determined":
        falsifiers = [lambda t: any(solution_with(t, b) for b in active if b != t[x])]
    elif query.kind == "irrelevant":
        falsifiers = [lambda t: not all(solution_with(t, b) for b in active)]
    else:
        (a,) = query.values
        falsifiers = [
            {
                "fixable": lambda t: not solution_with(t, a),
                "removable": lambda t: t[x] == a
                and not any(solution_with(t, b) for b in active if b != a),
                "inconsistent": lambda t: t[x] == a,
                "implied": lambda t: t[x] != a,
            }[query.kind]
        ]
    for falsifies in falsifiers:
        for t in solutions:
            if falsifies(t):
                return False, (t,)
    return True, ()


@st.composite
def instances_with_spaces(draw):
    names = tuple(f"x{i}" for i in range(draw(st.integers(0, 5))))
    domain = tuple(str(v) for v in range(draw(st.integers(1, 3))))
    constraints = []
    if names:
        for k in range(draw(st.integers(0, 4))):
            # A permutation prefix: scopes come out of declaration order.
            scope = draw(st.permutations(names))[: draw(st.integers(1, min(3, len(names))))]
            rows = list(itertools.product(domain, repeat=len(scope)))
            kept = draw(st.lists(st.sampled_from(rows), unique=True)) if rows else []
            constraints.append(Constraint(f"c{k}", tuple(scope), kept))
    inst = CspInstance(names, domain, tuple(constraints))
    active = {
        v: draw(st.sets(st.sampled_from(domain), min_size=1)) for v in names
    }
    return inst, SearchSpace.over(inst, active)


@st.composite
def wide_instances(draw):
    """Up to seven variables, some of them in no constraint, over up to
    three values, with up to four constraints of arity up to six, each
    keeping a random part of its scope product; the full space."""
    names = tuple(f"x{i}" for i in range(draw(st.integers(1, 7))))
    domain = tuple(str(v) for v in range(draw(st.integers(1, 3))))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    constraints = []
    for k in range(draw(st.integers(0, 4))):
        scope = tuple(rng.sample(names, rng.randint(1, min(6, len(names)))))
        rows = [
            row
            for row in itertools.product(domain, repeat=len(scope))
            if rng.random() < density
        ]
        constraints.append(Constraint(f"c{k}", scope, rows))
    inst = CspInstance(names, domain, tuple(constraints))
    return inst, SearchSpace.full(inst)


def edge_instances():
    """Edge cases for every route: a covering group with an empty table (and
    so no solutions), one active value, an active value with no support, a
    variable in no constraint, dependence on variables outside a group's
    scope, and an instance with no constraints (a covering of no groups)."""
    less = Constraint("less", ("a", "b"), [("0", "1"), ("0", "2"), ("1", "2")])
    same = Constraint("same", ("b", "c"), [(v, v) for v in "0123"])
    dead = Constraint("dead", ("c",), [])
    inst = CspInstance(("a", "b", "c", "d"), ("0", "1", "2", "3"), (less, same))
    full = SearchSpace.full(inst)
    return [
        (inst, full),
        (inst, full.assign("a", "0")),
        (inst, full.remove("b", "1").assign("d", "2")),
        (dataclasses.replace(inst, constraints=(less, same, dead)), full),
        parse_csp((DATA / "no_constraints.csp").read_text()),
    ]


def subproblem(instance, indices):
    """The instance restricted to a constraint subset, every variable kept:
    the subproblem whose exact verdict a covering group must report."""
    return dataclasses.replace(
        instance, constraints=tuple(instance.constraints[i] for i in indices)
    )


def forced_by_product(tbl, group, y):
    """The dependence edge's right-hand side by its definition: for every
    combination of the group's active values, the solutions on the table
    that agree with it share one value of ``y``."""
    iy = tbl.index[y]
    positions = tuple(tbl.index[v] for v in group)
    for combo in itertools.product(*(tbl.values(v) for v in group)):
        ys = {row[iy] for row in tbl.rows if tuple(row[p] for p in positions) == combo}
        if len(ys) > 1:
            return False
    return True


def oracle_rows(table, dep_max=2):
    """Every variable's oracle answer row on the table, dependence decided
    on every set of up to ``dep_max`` other variables, the empty set
    included: the truths ``check`` compares every route with."""
    names = table.order
    return {
        x: oracle.answer_row(table, x, oracle.conditioning_sets(names, x, 0, dep_max))
        for x in names
    }


def _holds(table, kind, x, values=(), over=()):
    return oracle.evaluate(table, PropertyQuery(kind, x, values, over)).holds


# Each catalog edge by its definition, query by query: (kind, argument
# shape, left-hand side, right-hand side), as ``hierarchy.edge_catalog``.
REFERENCE_EDGES = {
    "dependence-determinacy": (
        "iff",
        "vy",
        lambda t, V, y: _holds(t, "dependent", y, over=V),
        lambda t, V, y: forced_by_product(t, V, y),
    ),
    "irrelevance-fixability": (
        "iff",
        "x",
        lambda t, x: _holds(t, "irrelevant", x),
        lambda t, x: all(_holds(t, "fixable", x, (v,)) for v in t.values(x)),
    ),
    "determinacy-implication": (
        "implies",
        "xa",
        lambda t, x, a: _holds(t, "implied", x, (a,)),
        lambda t, x, a: _holds(t, "determined", x),
    ),
    "implication-fixability": (
        "implies",
        "xa",
        lambda t, x, a: _holds(t, "implied", x, (a,)),
        lambda t, x, a: _holds(t, "fixable", x, (a,)),
    ),
    "implication-inconsistency": (
        "iff",
        "xa",
        lambda t, x, a: _holds(t, "implied", x, (a,)),
        lambda t, x, a: all(
            _holds(t, "inconsistent", x, (b,)) for b in t.values(x) if b != a
        ),
    ),
    "fixability-substitutability": (
        "iff",
        "xa",
        lambda t, x, a: _holds(t, "fixable", x, (a,)),
        lambda t, x, a: all(_holds(t, "substitutable", x, (v, a)) for v in t.values(x)),
    ),
    "inconsistency-substitutability": (
        "implies",
        "xa",
        lambda t, x, a: _holds(t, "inconsistent", x, (a,)),
        lambda t, x, a: all(_holds(t, "substitutable", x, (a, b)) for b in t.values(x)),
    ),
    "inconsistency-removability": (
        "implies",
        "xa",
        lambda t, x, a: _holds(t, "inconsistent", x, (a,)),
        lambda t, x, a: _holds(t, "removable", x, (a,)),
    ),
    "substitutability-removability": (
        "implies",
        "xa",
        lambda t, x, a: any(
            _holds(t, "substitutable", x, (a, b)) for b in t.values(x) if b != a
        ),
        lambda t, x, a: _holds(t, "removable", x, (a,)),
    ),
    "interchangeability-definition": (
        "iff",
        "xab",
        lambda t, x, a, b: _holds(t, "interchangeable", x, (a, b)),
        lambda t, x, a, b: (
            _holds(t, "substitutable", x, (a, b)) and _holds(t, "substitutable", x, (b, a))
        ),
    ),
    "unique-solution": (
        "implies",
        "none",
        lambda t: len(t.rows) == 1,
        lambda t: all(
            any(_holds(t, "implied", x, (a,)) for a in t.values(x)) for x in t.order
        ),
    ),
}


def reference_violations(table, catalog, dep_max):
    """``hierarchy.validate_hierarchy``'s violations, found instantiation by
    instantiation: each side of ``REFERENCE_EDGES`` decided through
    ``oracle.evaluate`` and ``forced_by_product``, never read off an answer
    row grouped by kind.  A ``-reversed`` edge swaps its sides."""
    names = table.order
    shapes = {
        "none": [()],
        "x": [(x,) for x in names],
        "xa": [(x, a) for x in names for a in table.values(x)],
        "xab": [(x, a, b) for x in names for a in table.values(x) for b in table.values(x)],
        "vy": [
            (V, y)
            for y in names
            for size in range(dep_max + 1)
            for V in itertools.combinations([v for v in names if v != y], size)
        ],
    }
    violations = []
    for edge in hierarchy.edge_catalog() if catalog is None else catalog:
        base = edge.name.removesuffix("-reversed")
        kind, shape, lhs, rhs = REFERENCE_EDGES[base]
        if base != edge.name:
            lhs, rhs = rhs, lhs
        for args in shapes[shape]:
            left = lhs(table, *args)
            right = rhs(table, *args) if left or kind == "iff" else False
            if (left and not right) if kind == "implies" else left != right:
                violations.append(hierarchy.Violation(edge.name, kind, args, left, right))
    return violations


def reference_check(instance, space, formula, group_size, dep_max, catalog):
    """The problems ``cli._check_instance`` reports, found query by query:
    each truth is ``oracle.evaluate`` on one table, each local verdict
    ``local_check`` on its covering, the catalog is ``reference_violations``
    on a table of its own, and the tractable route is asked per query.  A
    covering of no groups is not the global one."""
    local_kinds = tuple(k for k in oracle.KINDS if k != "removable")
    table = oracle.solution_table(instance, space)
    queries = oracle.all_queries(instance, space, local_kinds, dep_max)
    truths = [oracle.evaluate(table, query).holds for query in queries]
    fresh = oracle.solution_table(instance, space)
    problems = [v.describe() for v in reference_violations(fresh, catalog, dep_max)]
    sizes = [group_size]
    if len(instance.constraints) > group_size:
        sizes.append(len(instance.constraints))
    for size in sizes:
        whole = 0 < len(instance.constraints) <= size
        groups = local.group_tables(instance, local.default_covering(instance, size), space)
        for query, truth in zip(queries, truths):
            established = local.local_check(groups, query).established
            if established and not truth:
                problems.append(f"local({size}) established a false fact: {query.describe()}")
            if whole and established != truth:
                problems.append(f"global covering disagrees with oracle on {query.describe()}")
    if formula is not None:
        cls = boolean.classify_schaefer(formula).primary
        if cls is not boolean.SchaeferClass.UNRESTRICTED:
            compiled = boolean.CompiledFormula(formula, cls)
            kinds = tuple(k for k in oracle.KINDS if k != "dependent")
            for query in oracle.all_queries(instance, space, kinds, dep_max):
                if boolean.tract_check(compiled, query) != oracle.evaluate(table, query).holds:
                    problems.append(f"tractable disagrees with oracle on {query.describe()}")
    before = oracle.satisfiable(instance, space)
    result = simplify.simplify_fixpoint(instance, space, mode="production", formula=formula)
    if result.proved_unsatisfiable:
        if before:
            problems.append("simplifier proved a satisfiable instance unsatisfiable")
    elif before != oracle.satisfiable(instance, result.final_space):
        problems.append("simplification changed satisfiability")
    return problems


def reference_simplify(instance, space, mode="production", formula=None, group_size=1):
    """The simplifier by its definition, for comparison with
    ``simplify_fixpoint``: every step builds each family's state afresh,
    scans from the first variable, asks every family in order, and takes
    the first justified fix, else the first justified removal.  The
    families follow from the input: pure-value on a clausal formula,
    tractable on any formula, local always, the oracle in test mode.  The
    effective formula is ``assume`` of every pin.

    Unlike the production loop, this one also asks the tractable route for
    removals: an inconsistency it proves at a is an implied fix at the
    other value, which the fix scan takes first, so equal results show
    that the production loop loses nothing by not asking."""
    families = ["local", "oracle"] if mode == "test" else ["local"]
    if formula is not None:
        families[:0] = ["pure-value", "tractable"] if formula.is_clausal else ["tractable"]
    covering = local.default_covering(instance, group_size)
    steps = []
    size = space.size()
    while True:
        effective = compiled = None
        pure = {}
        if formula is not None:
            pins = {
                v: boolean.name_bool(space.values(v)[0])
                for v in instance.variables
                if len(space.values(v)) == 1
            }
            effective = boolean.assume(formula, pins)
            cls = boolean.classify_schaefer(effective).primary
            if effective.is_clausal:
                pure = pure_values(effective)
            if cls is not boolean.SchaeferClass.UNRESTRICTED:
                compiled = boolean.CompiledFormula(effective, cls)
        groups = local.group_tables(instance, covering, space)
        table = oracle.solution_table(instance, space) if "oracle" in families else None

        def locally(query):
            return bool(covering.groups) and local.local_check(groups, query).established

        def exhaustively(query):
            return oracle.evaluate(table, query).holds

        def tractably(query):
            return (
                compiled is not None
                and query.variable in effective.variables
                and boolean.tract_check(compiled, query)
            )

        def fix_detector(x, a):
            for family in families:
                if family == "pure-value" and x in pure and pure[x] is not None:
                    if boolean.bool_name(pure[x]) == a:
                        return "pure-value"
                elif family == "local":
                    if locally(PropertyQuery("fixable", x, (a,))):
                        return "local-fixable"
                    if locally(PropertyQuery("implied", x, (a,))):
                        return "local-implied"
                elif family == "tractable" and tractably(PropertyQuery("implied", x, (a,))):
                    return "tractable-implied"
                elif family == "oracle" and exhaustively(PropertyQuery("fixable", x, (a,))):
                    return "oracle-fixable"
            return None

        def removal(x, a):
            active = space.values(x)
            for family in families:
                if family == "local":
                    if locally(PropertyQuery("inconsistent", x, (a,))):
                        return "local-inconsistent"
                    for b in active:
                        if b != a and locally(PropertyQuery("substitutable", x, (a, b))):
                            return "local-substitutable"
                elif family == "tractable" and tractably(PropertyQuery("inconsistent", x, (a,))):
                    return "tractable-inconsistent"
                elif family == "oracle":
                    if exhaustively(PropertyQuery("inconsistent", x, (a,))):
                        return "oracle-inconsistent"
                    if len(active) > 1 and exhaustively(PropertyQuery("removable", x, (a,))):
                        return "oracle-removable"
            return None

        step = None
        for x, a in (
            (x, a)
            for x in instance.variables
            if len(space.values(x)) > 1
            for a in space.values(x)
        ):
            detector = fix_detector(x, a)
            if detector is not None:
                step = ("fix", x, a, detector, space.assign(x, a))
                break
        else:
            for x, a in ((x, a) for x in instance.variables for a in space.values(x)):
                detector = removal(x, a)
                if detector is None:
                    continue
                if len(space.values(x)) == 1:
                    return SimplificationResult(space, tuple(steps), True, (x, a, detector))
                step = ("remove", x, a, detector, space.remove(x, a))
                break
        if step is None:
            return SimplificationResult(space, tuple(steps), False)
        action, x, a, detector, space = step
        steps.append(SimplificationStep(action, x, a, detector, size, space.size()))
        size = space.size()


def replay(space, steps):
    """The space a step log leaves: each fix is ``SearchSpace.assign``,
    each removal ``SearchSpace.remove``."""
    for step in steps:
        if step.action == "fix":
            space = space.assign(step.variable, step.value)
        else:
            space = space.remove(step.variable, step.value)
    return space


# ---------------------------------------------------------------------------
# Reference helpers that no command needs
# ---------------------------------------------------------------------------


def instantiate_project(constraint, variable, value):
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


ISOLATED_NODE_GRAPH = Graph(5, ((2, 3), (3, 4), (2, 4), (4, 5)))


def decode_factors(spec, assignment):
    """Read the two factors out of a solution."""
    n = spec.digit_count
    b = spec.base
    x = sum(int(assignment[f"x{i}"]) * b ** (i - 1) for i in range(1, n + 1))
    y = sum(int(assignment[f"y{i}"]) * b ** (i - 1) for i in range(1, n + 1))
    return x, y


def encode_solution(spec, x, y):
    """The full assignment (digits, carries, partial sums) for a known
    factorization; raises when x * y != z."""
    if x * y != spec.z:
        raise ValueError(f"{x} * {y} != {spec.z}")
    n = spec.digit_count
    b = spec.base
    layout = _factoring_layout(spec)
    xd = [(x // b**i) % b for i in range(n)]
    yd = [(y // b**i) % b for i in range(n)]
    values = {}
    for i in range(n):
        values[f"x{i+1}"] = str(xd[i])
        values[f"y{i+1}"] = str(yd[i])
    carry = 0
    values["c1"] = "0"
    for j, (terms, chunks) in enumerate(layout.columns, 1):
        total = sum(xd[i - 1] * yd[j - i] for i in range(1, j + 1))
        running = 0
        for t, (aux_name, _) in enumerate(chunks):
            begin = t * MAX_COLUMN_PRODUCTS
            running += sum(
                xd[i - 1] * yd[j - i]
                for i in range(begin + 1, min(begin + MAX_COLUMN_PRODUCTS, j) + 1)
            )
            values[aux_name] = str(running)
        out, digit = divmod(total + carry, b)
        if digit != spec.digits[j - 1]:
            raise ValueError("factorization does not reproduce the digits")
        values[f"c{j+1}"] = str(out)
        carry = out
    return values


def standard_corpus(seeds=STANDARD_CORPUS_SEEDS):
    """The fixed test corpus: 5 variables, 3 values, 6 constraints of arity
    at most 2, density 0.5, seeds 1..1000."""
    for seed in seeds:
        yield gen_random(dataclasses.replace(STANDARD_CORPUS_SPEC, seed=seed))


BOOLEAN_KINDS = ("horn", "dual-horn", "2cnf", "affine", "cnf")


def gen_random_boolean(kind, variable_count, constraint_count, seed):
    """Seeded random formula inside one fragment ("cnf" = unrestricted)."""
    if kind not in BOOLEAN_KINDS:
        raise ValueError(f"unknown boolean kind {kind!r}")
    rng = random.Random(f"{kind}/{variable_count}/{constraint_count}/{seed}")
    variables = tuple(f"v{i}" for i in range(1, variable_count + 1))
    clauses = []
    equations = []
    for _ in range(constraint_count):
        if kind == "affine":
            width = rng.randint(1, min(3, variable_count))
            members = frozenset(rng.sample(variables, width))
            equations.append(AffineEquation(members, rng.random() < 0.5))
            continue
        width = rng.randint(1, min(2 if kind == "2cnf" else 3, variable_count))
        chosen = rng.sample(variables, width)
        if kind == "horn":
            positives = rng.randrange(width + 1)  # index of the positive slot, or none
            literals = [
                Literal(v, i == positives) for i, v in enumerate(chosen)
            ]
        elif kind == "dual-horn":
            negatives = rng.randrange(width + 1)
            literals = [
                Literal(v, i != negatives) for i, v in enumerate(chosen)
            ]
        else:
            literals = [Literal(v, rng.random() < 0.5) for v in chosen]
        clauses.append(Clause(frozenset(literals)))
    return BooleanFormula(variables, tuple(clauses), tuple(equations))


def boolean_corpus(kind, count=500, max_variables=12, max_constraints=20):
    """Seeded corpus of one fragment with sizes drawn per seed."""
    sizes = random.Random(f"{kind}-corpus-sizes")
    for seed in range(1, count + 1):
        n = sizes.randint(3, max_variables)
        m = sizes.randint(1, max_constraints)
        yield gen_random_boolean(kind, n, m, seed)
