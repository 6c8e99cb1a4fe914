"""Instance ingestion, serialization and generation.

Text formats
------------
Extensional CSP files (one statement per line, ``#`` starts a comment)::

    csp 1
    vars: x1 x2 x3
    domain: R G B
    active: x1 = R G          # optional; omitted variables keep the domain
    con NE(x1,x2): (R,G) (G,R) ...

Boolean files use DIMACS CNF (``p cnf <vars> <clauses>``, clauses as
nonzero integers terminated by 0) with an optional companion XOR section
``p xnf <vars> <eqs>`` whose lines read ``<idx>+ = <0|1>``.  Variables are
named v1..vn unless ``c var <idx> <name>`` comments rename them.

Generators cover the worked example families (graph coloring, integer
factoring) and seeded random extensional instances.  The standard corpus
is ``STANDARD_CORPUS_SPEC`` at each of ``STANDARD_CORPUS_SEEDS``.
"""

from __future__ import annotations

import itertools
import logging
import random
import re
from collections import namedtuple
from collections.abc import Iterable
from typing import NamedTuple

from .boolean import (
    AffineEquation,
    BooleanFormula,
    Clause,
    Literal,
)
from .model import Constraint, CspInstance, SearchSpace

logger = logging.getLogger(__name__)

_TOKEN = re.compile(r"^[^\s(),:=#]+$")
_CON_LINE = re.compile(r"^con\s+([^\s(]+)\(([^)]*)\)\s*:\s*(.*)$")
_TUPLE = re.compile(r"\(([^()]*)\)")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_token(token: str, what: str, line: int) -> str:
    if not _TOKEN.match(token):
        raise ParseError(f"invalid {what} {token!r}", line)
    return token


def parse_csp(text: str) -> tuple[CspInstance, SearchSpace]:
    """Parse the extensional format; inverse of :func:`emit_csp`."""
    variables: tuple[str, ...] | None = None
    domain: tuple[str, ...] | None = None
    active: dict[str, tuple[str, ...]] = {}
    constraints: list[Constraint] = []
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "csp 1":
                raise ParseError("expected header 'csp 1'", line_no)
            header_seen = True
            continue
        if line.startswith("vars:"):
            if variables is not None:
                raise ParseError("duplicate vars line", line_no)
            names = line[len("vars:") :].split()
            if not names:
                raise ParseError("vars line declares no variables", line_no)
            for name in names:
                _check_token(name, "variable name", line_no)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable name", line_no)
            variables = tuple(names)
            continue
        if line.startswith("domain:"):
            if domain is not None:
                raise ParseError("duplicate domain line", line_no)
            values = line[len("domain:") :].split()
            if not values:
                raise ParseError("domain line declares no values", line_no)
            for value in values:
                _check_token(value, "domain value", line_no)
            if len(set(values)) != len(values):
                raise ParseError("duplicate domain value", line_no)
            domain = tuple(values)
            domain_set = set(values)
            continue
        if variables is None or domain is None:
            raise ParseError("vars and domain must precede this line", line_no)
        if line.startswith("active:"):
            body = line[len("active:") :]
            if "=" not in body:
                raise ParseError("active line must read 'active: <var> = <values>'", line_no)
            var_part, _, values_part = body.partition("=")
            var = var_part.strip()
            if var not in variables:
                raise ParseError(f"active set for unknown variable {var!r}", line_no)
            if var in active:
                raise ParseError(f"duplicate active line for {var!r}", line_no)
            values = values_part.split()
            if not values:
                raise ParseError(f"empty active set for {var!r}", line_no)
            for value in values:
                if value not in domain:
                    raise ParseError(
                        f"active value {value!r} is outside the domain", line_no
                    )
            active[var] = tuple(values)
            continue
        match = _CON_LINE.match(line)
        if match is None:
            raise ParseError(f"unrecognized statement {line!r}", line_no)
        name, scope_part, rows_part = match.groups()
        _check_token(name, "constraint label", line_no)
        scope = tuple(s.strip() for s in scope_part.split(",")) if scope_part.strip() else ()
        if not scope:
            raise ParseError(f"constraint {name!r} has an empty scope", line_no)
        for v in scope:
            if v not in variables:
                raise ParseError(
                    f"constraint {name!r} mentions unknown variable {v!r}", line_no
                )
        if len(set(scope)) != len(scope):
            raise ParseError(f"constraint {name!r} repeats a scope variable", line_no)
        # emit_csp's layout "(..) (..)" splits on ") (": when each parenthesis
        # counts one per piece, no piece holds one, so the pieces are the
        # regex's tuples.  Other text takes the regex, in one pass: tuples'
        # contents at the odd places, the text between them at the even.
        groups = rows_part[1:-1].split(") (")
        canonical = rows_part[:1] + rows_part[-1:] == "()"
        if not (canonical and rows_part.count("(") == len(groups) == rows_part.count(")")):
            pieces = _TUPLE.split(rows_part)
            leftovers = "".join(pieces[::2]).strip()
            if leftovers:
                raise ParseError(
                    f"constraint {name!r} has stray text {leftovers!r}", line_no
                )
            groups = pieces[1::2]
        arity = len(scope)
        # Every tuple's values in one list, ``arity`` per tuple of arity - 1
        # commas.  An empty tuple gives "", which no domain value equals.
        joined = ",".join(groups)
        cells = joined.split(",") if groups else []
        if joined.split(None, 1) != [joined]:  # whitespace inside a tuple
            cells = list(map(str.strip, cells))
        commas = set(map(str.count, groups, itertools.repeat(",")))
        if not (commas <= {arity - 1} and domain_set.issuperset(cells)):
            for group in groups:  # name the first bad tuple in text order
                items = tuple(s.strip() for s in group.split(",")) if group.strip() else ()
                if len(items) != len(scope):
                    raise ParseError(
                        f"constraint {name!r}: tuple {group!r} does not match "
                        f"arity {len(scope)}",
                        line_no,
                    )
                for value in items:
                    if value not in domain_set:
                        raise ParseError(
                            f"constraint {name!r}: value {value!r} is outside the domain",
                            line_no,
                        )
        rows = frozenset(zip(*[iter(cells)] * arity))
        # Checked above as Constraint checks it, with the line named.
        constraints.append(Constraint._make((name, scope, rows)))
    if not header_seen:
        raise ParseError("empty input: expected header 'csp 1'", 1)
    if variables is None or domain is None:
        raise ParseError("missing vars or domain declaration", 1)
    instance = CspInstance._make((variables, domain, tuple(constraints)))
    space = SearchSpace.over(instance, active)
    return instance, space


def emit_csp(
    instance: CspInstance,
    space: SearchSpace | None = None,
    comments: Iterable[str] = (),
) -> str:
    """Serialize an instance (and space restrictions) back to text."""
    names = tuple(c.name for c in instance.constraints)
    for token in (*instance.variables, *instance.domain, *names):
        if not _TOKEN.match(token):
            raise ValueError(f"token {token!r} cannot be serialized")
    order = {value: i for i, value in enumerate(instance.domain)}
    lines = [f"# {comment}" for comment in comments]
    lines.append("csp 1")
    lines.append("vars: " + " ".join(instance.variables))
    lines.append("domain: " + " ".join(instance.domain))
    if space is not None:
        for name, values in space.entries:
            if values != instance.domain:
                lines.append(f"active: {name} = " + " ".join(values))
    for c in instance.constraints:
        rows = sorted(c.rows, key=lambda row: tuple(order[v] for v in row))
        rendered = " ".join("(" + ",".join(row) + ")" for row in rows)
        lines.append(f"con {c.name}({','.join(c.scope)}):" + (" " + rendered if rendered else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DIMACS / XNF
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> BooleanFormula:
    """Parse DIMACS CNF with an optional ``p xnf`` XOR section."""
    names: dict[int, str] = {}
    clause_tokens: list[int] = []
    clauses: list[Clause] = []
    equations: list[AffineEquation] = []
    dropped = 0
    var_count = 0
    section: str | None = None
    declared: dict[str, int] = {}
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "var":
                try:
                    idx = int(parts[2])
                except ValueError:
                    raise ParseError("malformed variable naming comment", line_no)
                _check_token(parts[3], "variable name", line_no)
                names[idx] = parts[3]
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] not in ("cnf", "xnf"):
                raise ParseError(f"malformed problem line {line!r}", line_no)
            if parts[1] in declared:
                raise ParseError(f"duplicate 'p {parts[1]}' section", line_no)
            try:
                section_vars = int(parts[2])
                declared[parts[1]] = int(parts[3])
            except ValueError:
                raise ParseError(f"malformed problem line {line!r}", line_no)
            var_count = max(var_count, section_vars)
            section = parts[1]
            continue
        if section == "cnf":
            for token in line.split():
                try:
                    lit = int(token)
                except ValueError:
                    raise ParseError(f"clause token {token!r} is not an integer", line_no)
                if lit == 0:
                    literals = frozenset(
                        Literal(_dimacs_name(abs(l), names), l > 0)
                        for l in clause_tokens
                    )
                    try:
                        clauses.append(Clause(literals))
                    except ValueError:  # a tautology
                        dropped += 1
                    clause_tokens = []
                else:
                    if abs(lit) > var_count:
                        raise ParseError(f"literal {lit} is out of range", line_no)
                    clause_tokens.append(lit)
        elif section == "xnf":
            if "=" not in line:
                raise ParseError("equation line must read '<idx>+ = <0|1>'", line_no)
            left, _, right = line.partition("=")
            right = right.strip()
            if right not in ("0", "1"):
                raise ParseError(f"equation parity must be 0 or 1, got {right!r}", line_no)
            indices = []
            for token in left.split():
                try:
                    idx = int(token)
                except ValueError:
                    raise ParseError(f"equation token {token!r} is not an index", line_no)
                if not 1 <= idx <= var_count:
                    raise ParseError(f"equation index {idx} is out of range", line_no)
                if idx in indices:
                    raise ParseError(f"equation repeats index {idx}", line_no)
                indices.append(idx)
            if not indices:
                raise ParseError("equation has no variables", line_no)
            members = frozenset(_dimacs_name(idx, names) for idx in indices)
            equations.append(AffineEquation(members, right == "1"))
        else:
            raise ParseError("content before any problem line", line_no)
    if clause_tokens:
        raise ParseError("unterminated clause (missing trailing 0)", line_no)
    if not declared:
        raise ParseError("no 'p cnf' or 'p xnf' problem line found", 1)
    if "cnf" in declared and len(clauses) + dropped != declared["cnf"]:
        raise ParseError(
            f"expected {declared['cnf']} clauses, found {len(clauses) + dropped}",
            line_no,
        )
    if "xnf" in declared and len(equations) != declared["xnf"]:
        raise ParseError(
            f"expected {declared['xnf']} equations, found {len(equations)}", line_no
        )
    if dropped:
        logger.warning("dropped %d tautological clause(s)", dropped)
    variables = tuple(_dimacs_name(i, names) for i in range(1, var_count + 1))
    if len(set(variables)) != len(variables):
        raise ParseError("variable naming comments collide", 1)
    return BooleanFormula(variables, tuple(clauses), tuple(equations))


def _dimacs_name(index: int, names: dict[int, str]) -> str:
    return names.get(index, f"v{index}")


def emit_dimacs(formula: BooleanFormula) -> str:
    index = {v: i + 1 for i, v in enumerate(formula.variables)}
    lines = [f"c var {i} {v}" for v, i in index.items() if v != f"v{i}"]
    if formula.clauses or not formula.equations:
        lines.append(f"p cnf {len(formula.variables)} {len(formula.clauses)}")
        for clause in formula.clauses:
            lits = [
                (index[l.variable] if l.positive else -index[l.variable])
                for l in clause.sorted_literals()
            ]
            lines.append(" ".join(map(str, lits + [0])))
    if formula.equations:
        lines.append(f"p xnf {len(formula.variables)} {len(formula.equations)}")
        for eq in formula.equations:
            members = sorted(index[v] for v in eq.variables)
            lines.append(" ".join(map(str, members)) + f" = {int(eq.parity)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graph coloring
# ---------------------------------------------------------------------------


class Graph(namedtuple("Graph", ("nodes", "edges"))):
    __slots__ = ()

    def __new__(cls, nodes: int, edges) -> "Graph":
        edges = tuple(map(tuple, edges))
        if nodes < 1:
            raise ValueError("graph needs at least one node")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (1 <= u <= nodes and 1 <= v <= nodes):
                raise ValueError(f"edge ({u},{v}) leaves the node range 1..{nodes}")
        return tuple.__new__(cls, (nodes, edges))


def _palette(k: int) -> tuple[str, ...]:
    if k <= 3:
        return ("R", "G", "B")[:k]
    return tuple(f"C{i}" for i in range(1, k + 1))


def gen_coloring(graph: Graph, colors: int) -> CspInstance:
    """One variable per node, one not-equal constraint per edge."""
    if colors < 1:
        raise ValueError("need at least one color")
    palette = _palette(colors)
    not_equal = frozenset((a, b) for a in palette for b in palette if a != b)
    constraints = tuple(
        Constraint("NE", (f"x{u}", f"x{v}"), not_equal) for u, v in graph.edges
    )
    variables = tuple(f"x{i}" for i in range(1, graph.nodes + 1))
    return CspInstance(variables, palette, constraints)


# ---------------------------------------------------------------------------
# Factoring
# ---------------------------------------------------------------------------

# Columns with more products than this get split with auxiliary partial-sum
# variables; the worked desk-scale sizes stay below it, keeping their
# search spaces enumerable.
MAX_COLUMN_PRODUCTS = 6

MAX_DIGITS = 8


class FactoringSpec(namedtuple("FactoringSpec", ("z", "base", "ordering"))):
    """Factor z into two nontrivial factors, digit by digit in a base."""

    __slots__ = ()

    def __new__(cls, z: int, base: int = 2, ordering: bool = False) -> "FactoringSpec":
        if z < 4:
            raise ValueError("z must be at least 4 to have nontrivial factors")
        if base < 2:
            raise ValueError("base must be at least 2")
        return tuple.__new__(cls, (z, base, ordering))

    @property
    def digits(self) -> tuple[int, ...]:
        out = []
        z = self.z
        while z:
            out.append(z % self.base)
            z //= self.base
        return tuple(out)

    @property
    def digit_count(self) -> int:
        return len(self.digits)

    @property
    def carry_bound(self) -> int:
        return (self.base - 1) ** 2 * self.digit_count // self.base


class _FactoringLayout(NamedTuple):
    xs: tuple[str, ...]
    ys: tuple[str, ...]
    carries: tuple[str, ...]
    columns: tuple[tuple[tuple[tuple[str, str], ...], tuple[tuple[str, int], ...]], ...]
    aux_bounds: tuple[tuple[str, int], ...]
    domain: tuple[str, ...]


def _factoring_layout(spec: FactoringSpec) -> _FactoringLayout:
    n = spec.digit_count
    b = spec.base
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    carries = tuple(f"c{j}" for j in range(1, n + 2))
    columns = []
    aux_bounds: list[tuple[str, int]] = []
    top = max(b - 1, spec.carry_bound)
    for j in range(1, n + 1):
        terms = tuple((xs[i - 1], ys[j - i]) for i in range(1, j + 1))
        chunks: list[tuple[str, int]] = []
        if len(terms) > MAX_COLUMN_PRODUCTS:
            running = 0
            for t in range(0, len(terms), MAX_COLUMN_PRODUCTS):
                running += len(terms[t : t + MAX_COLUMN_PRODUCTS]) * (b - 1) ** 2
                name = f"s{j}_{t // MAX_COLUMN_PRODUCTS + 1}"
                chunks.append((name, running))
                aux_bounds.append((name, running))
                top = max(top, running)
        columns.append((terms, tuple(chunks)))
    domain = tuple(str(v) for v in range(top + 1))
    return _FactoringLayout(xs, ys, carries, tuple(columns), tuple(aux_bounds), domain)


def _factoring_variables(layout: _FactoringLayout) -> tuple[str, ...]:
    return (
        layout.xs
        + layout.ys
        + layout.carries
        + tuple(name for name, _ in layout.aux_bounds)
    )


def gen_factoring(spec: FactoringSpec) -> CspInstance:
    """Long-multiplication circuit for z = X * Y with X, Y != 1.

    Digit variables x1..xn / y1..yn (least significant first) and carries
    c1..c(n+1) share one domain; unary constraints restore the per-kind
    bounds.  Column j demands sum(x_i * y_k for i+k=j+1) + c_j equal
    z_j + base * c_(j+1), with c_1 = 0, c_(n+1) = 0 and every product
    beyond column n forced to zero so the result fits z exactly.
    """
    n = spec.digit_count
    if n > MAX_DIGITS:
        raise ValueError(
            f"z has {n} digits in base {spec.base}; the desk-scale cap is {MAX_DIGITS}"
        )
    b = spec.base
    layout = _factoring_layout(spec)
    variables = _factoring_variables(layout)
    domain = layout.domain
    digit_values = tuple(str(v) for v in range(b))
    carry_values = tuple(str(v) for v in range(spec.carry_bound + 1))
    zdigits = spec.digits

    constraints: list[Constraint] = []
    if len(digit_values) < len(domain):
        digit_rows = frozenset((v,) for v in digit_values)
        for v in layout.xs + layout.ys:
            constraints.append(Constraint(f"dom_{v}", (v,), digit_rows))
    if len(carry_values) < len(domain):
        carry_rows = frozenset((v,) for v in carry_values)
        for v in layout.carries:
            constraints.append(Constraint(f"dom_{v}", (v,), carry_rows))
    for name, bound in layout.aux_bounds:
        rows = frozenset((str(v),) for v in range(bound + 1))
        constraints.append(Constraint(f"dom_{name}", (name,), rows))
    constraints.append(Constraint("carry_in", (layout.carries[0],), {("0",)}))
    constraints.append(Constraint("carry_out", (layout.carries[-1],), {("0",)}))

    for j, (terms, chunks) in enumerate(layout.columns, 1):
        c_in, c_out = layout.carries[j - 1], layout.carries[j]
        target = zdigits[j - 1]
        if not chunks:
            scope = tuple(x for x, _ in terms) + tuple(y for _, y in terms) + (c_in, c_out)
            rows = frozenset(
                tuple(map(str, digits + closing))
                for digits, total in _products(b, len(terms))
                for closing in _closings(spec, total, target)
            )
            constraints.append(Constraint(f"col{j}", scope, rows))
        else:
            constraints.extend(
                _split_column(spec, j, terms, chunks, c_in, c_out, target)
            )

    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if i + k >= n + 2:
                rows = frozenset(
                    (str(p), str(q))
                    for p in range(b)
                    for q in range(b)
                    if p * q == 0
                )
                constraints.append(
                    Constraint(f"hz_x{i}y{k}", (layout.xs[i - 1], layout.ys[k - 1]), rows)
                )

    one = ("1",) + ("0",) * (n - 1)
    factor_rows = frozenset(
        combo
        for combo in itertools.product(digit_values, repeat=n)
        if combo != one
    )
    constraints.append(Constraint("x_not_1", layout.xs, factor_rows))
    constraints.append(Constraint("y_not_1", layout.ys, factor_rows))

    if spec.ordering:
        rows = set()
        for xcombo in itertools.product(range(b), repeat=n):
            for ycombo in itertools.product(range(b), repeat=n):
                xval = sum(d * b**i for i, d in enumerate(xcombo))
                yval = sum(d * b**i for i, d in enumerate(ycombo))
                if xval < yval:
                    rows.add(tuple(map(str, xcombo + ycombo)))
        constraints.append(Constraint("x_below_y", layout.xs + layout.ys, rows))

    return CspInstance(variables, domain, tuple(constraints))


def _products(b: int, width: int):
    # Each vector of width x digits then width y digits, with its sum of
    # products.
    for digits in itertools.product(range(b), repeat=2 * width):
        yield digits, sum(digits[t] * digits[width + t] for t in range(width))


def _closings(spec: FactoringSpec, total: int, target: int):
    # The (carry in, carry out) pairs that close a column summing to total.
    for carry in range(spec.carry_bound + 1):
        out, digit = divmod(total + carry, spec.base)
        if digit == target and out <= spec.carry_bound:
            yield carry, out


def _split_column(spec, j, terms, chunks, c_in, c_out, target):
    # Partial sums: s_{j,k} holds the sum carried in s_{j,k-1} (none for
    # the first chunk) plus the k-th chunk of products, and the final
    # constraint closes the column.
    out: list[Constraint] = []
    head: tuple[str, ...] = ()
    carried = range(1)
    for k, (name, bound) in enumerate(chunks, 1):
        chunk = terms[(k - 1) * MAX_COLUMN_PRODUCTS : k * MAX_COLUMN_PRODUCTS]
        scope = head + tuple(x for x, _ in chunk) + tuple(y for _, y in chunk) + (name,)
        rows = frozenset(
            tuple(map(str, (c,) * len(head) + digits + (c + total,)))
            for digits, total in _products(spec.base, len(chunk))
            for c in carried
        )
        out.append(Constraint(f"col{j}_sum{k}", scope, rows))
        head, carried = (name,), range(bound + 1)
    rows = frozenset(
        (str(total), str(carry), str(quotient))
        for total in carried
        for carry, quotient in _closings(spec, total, target)
    )
    out.append(Constraint(f"col{j}_close", head + (c_in, c_out), rows))
    return out


def factoring_space(spec: FactoringSpec) -> SearchSpace:
    """Search space with per-column carry bounds tightened by the column
    recurrence and the fact that the product equals z; every solution of the
    generated instance lies inside it."""
    instance = gen_factoring(spec)
    n = spec.digit_count
    b = spec.base
    layout = _factoring_layout(spec)
    digit_values = tuple(str(v) for v in range(b))
    active: dict[str, tuple[str, ...]] = {}
    for v in layout.xs + layout.ys:
        active[v] = digit_values
    tight = 0
    for j, name in enumerate(layout.carries, 1):
        if j == 1:
            tight = 0
        else:
            column_max = min(j - 1, n) * (b - 1) ** 2
            recurrence = (column_max + tight) // b
            product_cap = (b**n - 1) // (b ** (j - 1))
            tight = min(spec.carry_bound, recurrence, product_cap)
        active[name] = tuple(str(v) for v in range(tight + 1))
    for name, bound in layout.aux_bounds:
        active[name] = tuple(str(v) for v in range(bound + 1))
    return SearchSpace.over(instance, active)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


class RandomSpec(
    namedtuple(
        "RandomSpec",
        ("variable_count", "domain_size", "constraint_count", "max_arity", "density", "seed"),
    )
):
    """Reproducible random extensional instance: same spec, same instance."""

    __slots__ = ()

    def __new__(
        cls,
        variable_count: int,
        domain_size: int,
        constraint_count: int,
        max_arity: int = 2,
        density: float = 0.5,
        seed: int = 0,
    ) -> "RandomSpec":
        if variable_count < 1 or domain_size < 1:
            raise ValueError("need at least one variable and one domain value")
        if constraint_count < 0 or max_arity < 1:
            raise ValueError("bad constraint count or arity bound")
        if not 0 < density <= 1:
            raise ValueError("density must be in (0, 1]")
        return tuple.__new__(
            cls, (variable_count, domain_size, constraint_count, max_arity, density, seed)
        )


def gen_random(spec: RandomSpec) -> tuple[CspInstance, SearchSpace]:
    rng = random.Random(spec.seed)
    variables = tuple(f"x{i}" for i in range(1, spec.variable_count + 1))
    domain = tuple(str(v) for v in range(spec.domain_size))
    constraints = []
    for number in range(1, spec.constraint_count + 1):
        arity = rng.randint(1, min(spec.max_arity, spec.variable_count))
        scope = tuple(rng.sample(variables, arity))
        while True:
            rows = frozenset(
                combo
                for combo in itertools.product(domain, repeat=arity)
                if rng.random() < spec.density
            )
            if rows or spec.density <= 0.5:
                break
        constraints.append(Constraint(f"c{number}", scope, rows))
    instance = CspInstance(variables, domain, tuple(constraints))
    return instance, SearchSpace.full(instance)


STANDARD_CORPUS_SPEC = RandomSpec(5, 3, 6, 2, 0.5)
STANDARD_CORPUS_SEEDS = range(1, 1001)
