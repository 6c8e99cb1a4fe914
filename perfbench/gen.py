"""Seeded input generator for the benchmark, standard library only.

The benchmark writes its own CSP and DIMACS/XNF text, so a later change to
the program's generators cannot change a workload.  The same seed always
gives the same texts.  Each input carries what the independent output
checks need: the factored number, the planted assignment, or the initial
active sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("corpus", "factoring", "schaefer")

# corpus: shaped like the acceptance corpus (5 variables, 3 values,
# 6 constraints of arity at most 2, density 0.5) plus small formulas from
# the four Schaefer fragments.
CORPUS_EXTENSIONAL = 120
CORPUS_BOOLEAN_PER_KIND = 2
CORPUS_BOOLEAN_VARS = (8, 10)
CORPUS_BOOLEAN_CONSTRAINTS = 12

# factoring: base 2 with the X < Y ordering.  Squares are left out because
# the ordering makes them unsatisfiable; every listed number has exactly one
# solution.  Each slot draws from one pool, so a seed changes the numbers
# but not the cost of a pass: within a pool the oracle enumerates the same
# number of tuples, to 1%.  A 6-digit simplify (16 spaces, 5 s) is left
# out to keep a pass near 3 s, so a run holds several passes.
SEMIPRIMES = {4: (10, 14, 15), 5: (21, 22, 26), 6: (33, 34, 35, 38, 39, 46, 51, 55, 57, 58, 62)}
PRIMES = (17, 19, 23, 29, 31)
FACTORING_SLOTS = (
    (4, "analyze"),
    (4, "simplify"),
    (5, "analyze"),
    (5, "simplify"),
    (6, "analyze"),
)

# schaefer: one analyze and one simplify input per fragment and size, with
# as many constraints as variables.  Three sizes rather than two larger
# formulas keep the cost of a pass steady across seeds.
SCHAEFER_KINDS = ("horn", "dual-horn", "2cnf", "affine")
SCHAEFER_SIZES = (30, 34, 38)

ANALYZE_ORACLE = ("--method", "oracle", "--all", "--json")
ANALYZE_TRACTABLE = ("--method", "tractable", "--all", "--json")
SIMPLIFY_TEST = ("--mode", "test")


@dataclass(frozen=True)
class Item:
    """One input and the one command it goes through."""

    name: str
    suffix: str  # ".csp" or ".cnf"
    text: str
    command: str  # "check" | "analyze" | "simplify"
    options: tuple[str, ...]
    check: str  # which independent check applies to the output
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def filename(self) -> str:
        return self.name + self.suffix

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.options]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


# ---------------------------------------------------------------------------
# Text writers (the program's extensional and DIMACS/XNF formats)
# ---------------------------------------------------------------------------


def csp_text(variables, domain, constraints, active=None) -> str:
    """``constraints`` is a list of (name, scope, rows); rows are written in
    domain order, ``active`` maps variables to restricted value tuples."""
    order = {value: i for i, value in enumerate(domain)}
    lines = ["csp 1", "vars: " + " ".join(variables), "domain: " + " ".join(domain)]
    for v in variables:
        values = (active or {}).get(v)
        if values is not None and tuple(values) != tuple(domain):
            lines.append(f"active: {v} = " + " ".join(values))
    for name, scope, rows in constraints:
        ordered = sorted(rows, key=lambda row: tuple(order[x] for x in row))
        rendered = " ".join("(" + ",".join(row) + ")" for row in ordered)
        lines.append(f"con {name}({','.join(scope)}):" + (" " + rendered if rendered else ""))
    return "\n".join(lines) + "\n"


def dimacs_text(var_count: int, clauses, equations) -> str:
    """Clauses are lists of nonzero ints; equations are (indices, parity)."""
    lines = []
    if clauses or not equations:
        lines.append(f"p cnf {var_count} {len(clauses)}")
        lines.extend(" ".join(map(str, clause + [0])) for clause in clauses)
    if equations:
        lines.append(f"p xnf {var_count} {len(equations)}")
        lines.extend(
            " ".join(map(str, sorted(members))) + f" = {int(parity)}"
            for members, parity in equations
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Boolean fragments
# ---------------------------------------------------------------------------


def _clause(rng: random.Random, kind: str, n: int, width: int) -> list[int]:
    chosen = rng.sample(range(1, n + 1), width)
    if kind == "horn":
        slot = rng.randrange(width + 1)  # the one positive literal, or none
        return [v if i == slot else -v for i, v in enumerate(chosen)]
    if kind == "dual-horn":
        slot = rng.randrange(width + 1)  # the one negative literal, or none
        return [-v if i == slot else v for i, v in enumerate(chosen)]
    return [v if rng.random() < 0.5 else -v for v in chosen]


def _width(rng: random.Random, kind: str, n: int) -> int:
    top = 2 if kind == "2cnf" else 3
    return rng.randint(1, min(top, n))


def random_formula(rng: random.Random, kind: str, n: int, m: int):
    """A formula of one fragment, satisfiable or not."""
    clauses, equations = [], []
    for _ in range(m):
        width = _width(rng, kind, n)
        if kind == "affine":
            equations.append((rng.sample(range(1, n + 1), width), rng.random() < 0.5))
        else:
            clauses.append(_clause(rng, kind, n, width))
    return clauses, equations


def planted_formula(rng: random.Random, kind: str, n: int, m: int):
    """A formula of one fragment that the planted assignment satisfies.

    Unit constraints are rarer than in ``random_formula`` so that the
    planted assignment is not simply spelled out.
    """
    planted = [rng.random() < 0.5 for _ in range(n)]
    clauses, equations = [], []
    while len(clauses) + len(equations) < m:
        width = 1 if rng.random() < 0.1 else rng.randint(2, 2 if kind == "2cnf" else 3)
        if kind == "affine":
            members = rng.sample(range(1, n + 1), width)
            parity = False
            for v in members:
                parity ^= planted[v - 1]
            equations.append((members, parity))
            continue
        clause = _clause(rng, kind, n, width)
        if any(planted[abs(lit) - 1] == (lit > 0) for lit in clause):
            clauses.append(clause)
    return planted, clauses, equations


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _random_extensional(rng: random.Random):
    variables = tuple(f"x{i}" for i in range(1, 6))
    domain = ("0", "1", "2")
    constraints = []
    for number in range(1, 7):
        arity = rng.randint(1, 2)
        scope = tuple(rng.sample(variables, arity))
        rows = [
            combo
            for combo in itertools.product(domain, repeat=arity)
            if rng.random() < 0.5
        ]
        constraints.append((f"c{number}", scope, rows))
    return variables, domain, constraints


def corpus_items(seed: int) -> list[Item]:
    rng = _rng("corpus", seed)
    items = []
    for number in range(1, CORPUS_EXTENSIONAL + 1):
        variables, domain, constraints = _random_extensional(rng)
        items.append(
            Item(
                f"corpus-{number:03d}",
                ".csp",
                csp_text(variables, domain, constraints),
                "check",
                (),
                "check",
                {"variables": variables, "domain": domain, "constraints": constraints},
            )
        )
    for kind in SCHAEFER_KINDS:
        for k, n in enumerate(CORPUS_BOOLEAN_VARS[:CORPUS_BOOLEAN_PER_KIND], 1):
            clauses, equations = random_formula(rng, kind, n, CORPUS_BOOLEAN_CONSTRAINTS)
            items.append(
                Item(
                    f"corpus-{kind}-{k}",
                    ".cnf",
                    dimacs_text(n, clauses, equations),
                    "check",
                    (),
                    "check",
                    {"n": n, "clauses": clauses, "equations": equations},
                )
            )
    return items


def factoring_text(z: int) -> tuple[str, dict[str, tuple[str, ...]]]:
    """The base-2 long-multiplication encoding of z = X * Y with X, Y != 1
    and X < Y, over its restricted search space; returns the text and the
    active sets.  Columns stay below six products for z < 64, so no
    partial-sum variables appear."""
    n = z.bit_length()
    if not 4 <= n <= 6:
        raise ValueError("factoring inputs have 4 to 6 binary digits")
    carry_bound = n // 2
    domain = tuple(str(v) for v in range(max(1, carry_bound) + 1))
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    carries = [f"c{j}" for j in range(1, n + 2)]
    zdigits = [(z >> j) & 1 for j in range(n)]
    constraints = []
    if len(domain) > 2:
        for v in xs + ys:
            constraints.append((f"dom_{v}", (v,), [("0",), ("1",)]))
    constraints.append(("carry_in", (carries[0],), [("0",)]))
    constraints.append(("carry_out", (carries[-1],), [("0",)]))
    for j in range(1, n + 1):
        terms = [(xs[i - 1], ys[j - i]) for i in range(1, j + 1)]
        scope = tuple(x for x, _ in terms) + tuple(y for _, y in terms)
        scope += (carries[j - 1], carries[j])
        width = len(terms)
        rows = set()
        for digits in itertools.product(range(2), repeat=2 * width):
            total = sum(digits[t] * digits[width + t] for t in range(width))
            for carry in range(carry_bound + 1):
                out, digit = divmod(total + carry, 2)
                if digit == zdigits[j - 1] and out <= carry_bound:
                    rows.add(tuple(map(str, digits + (carry, out))))
        constraints.append((f"col{j}", scope, rows))
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if i + k >= n + 2:
                constraints.append(
                    (f"hz_x{i}y{k}", (xs[i - 1], ys[k - 1]), [("0", "0"), ("0", "1"), ("1", "0")])
                )
    one = ("1",) + ("0",) * (n - 1)
    not_one = [c for c in itertools.product("01", repeat=n) if c != one]
    constraints.append(("x_not_1", tuple(xs), not_one))
    constraints.append(("y_not_1", tuple(ys), not_one))
    below = []
    for xc in itertools.product(range(2), repeat=n):
        for yc in itertools.product(range(2), repeat=n):
            if sum(d << i for i, d in enumerate(xc)) < sum(d << i for i, d in enumerate(yc)):
                below.append(tuple(map(str, xc + yc)))
    constraints.append(("x_below_y", tuple(xs + ys), below))

    active = {v: ("0", "1") for v in xs + ys}
    tight = 0
    for j, name in enumerate(carries, 1):
        if j > 1:
            recurrence = (min(j - 1, n) + tight) // 2
            product_cap = (2**n - 1) >> (j - 1)
            tight = min(carry_bound, recurrence, product_cap)
        active[name] = tuple(str(v) for v in range(tight + 1))
    variables = xs + ys + carries
    return csp_text(variables, domain, constraints, active), active


def factoring_items(seed: int) -> list[Item]:
    rng = _rng("factoring", seed)
    items = []
    for number, (digits, command) in enumerate(FACTORING_SLOTS, 1):
        items.append(_factoring_item(number, rng.choice(SEMIPRIMES[digits]), command))
    prime_command = rng.choice(("analyze", "simplify"))
    items.append(_factoring_item(len(items) + 1, rng.choice(PRIMES), prime_command))
    return items


def _factoring_item(number: int, z: int, command: str) -> Item:
    text, active = factoring_text(z)
    options = ANALYZE_ORACLE if command == "analyze" else SIMPLIFY_TEST
    return Item(
        f"factoring-{number}-z{z}",
        ".csp",
        text,
        command,
        options,
        f"factor-{command}",
        {"z": z, "active": active},
    )


def schaefer_items(seed: int) -> list[Item]:
    rng = _rng("schaefer", seed)
    items = []
    for kind in SCHAEFER_KINDS:
        for n in SCHAEFER_SIZES:
            for command in ("analyze", "simplify"):
                planted, clauses, equations = planted_formula(rng, kind, n, n)
                options = ANALYZE_TRACTABLE if command == "analyze" else ()
                items.append(
                    Item(
                        f"schaefer-{kind}-{n}-{command}",
                        ".cnf",
                        dimacs_text(n, clauses, equations),
                        command,
                        options,
                        f"planted-{command}",
                        {"planted": planted, "n": n, "clauses": clauses, "equations": equations},
                    )
                )
    return items


def make_items(workload: str, seed: int) -> list[Item]:
    if workload == "corpus":
        return corpus_items(seed)
    if workload == "factoring":
        return factoring_items(seed)
    if workload == "schaefer":
        return schaefer_items(seed)
    raise ValueError(f"unknown workload {workload!r}")
