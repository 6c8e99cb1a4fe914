"""Command-line front end.

Subcommands: ``analyze`` (evaluate properties for all admissible
arguments), ``simplify`` (run the reduction loop and print its step log),
``check`` (cross-validate detectors against the oracle and validate the
relationship catalog; nonzero exit on violations), ``gen`` (emit generated
instances) and ``classify`` (Schaefer classification of a boolean file).

A command line of exact long options, with values that do not start with
``-``, is read from the option table ``_OPTIONS`` without argparse.  Any
other line (help, an abbreviation, ``--opt=value``, ``--``, a file named
``-`` or ``-1``, ``gen`` and every usage error) goes to the parser of every
subcommand that ``_build_parser`` builds from the same table; it writes all
help, usage and error text.  The cyclic collector waits while a command
runs: a command leaves no cyclic garbage.

Exit codes:

- 0: success;
- 1: ``check`` found violations;
- 2: bad input or usage: an unreadable or malformed file, a formula with
  no variables, an invalid option value, a search space (or, for local
  analysis with ``--group-size`` above 1, a covering group's space) over
  ``--max-space``;
- 3: internal error, reported as ``internal error:`` and a traceback on
  stderr;
- 141 (128 + SIGPIPE): stdout was closed before the output was written,
  with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
import time
import traceback
from itertools import compress
from pathlib import Path

from . import boolean, hierarchy, local, oracle, report, simplify
from .boolean import BooleanFormula, SchaeferClass, classify_schaefer, to_extensional
from .instances import (
    Graph,
    FactoringSpec,
    ParseError,
    STANDARD_CORPUS_SEEDS,
    STANDARD_CORPUS_SPEC,
    RandomSpec,
    emit_csp,
    gen_coloring,
    gen_factoring,
    gen_random,
    parse_csp,
    parse_dimacs,
)
from .model import CspInstance, SearchSpace
from .oracle import KINDS

DEFAULT_MAX_SPACE = 10_000_000

LOCAL_KINDS = tuple(k for k in KINDS if k != "removable")
TRACTABLE_KINDS = tuple(k for k in KINDS if k != "dependent")


class _UsageError(Exception):
    pass


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}")


def _load(path: str) -> tuple[CspInstance, SearchSpace, BooleanFormula | None, str]:
    text = _read(path)
    meaningful = (line.split("#", 1)[0].strip() for line in text.splitlines())
    first = next(filter(None, meaningful), "")
    try:
        # DIMACS reads any line that starts with "c" as a comment.
        if first.split(None, 1)[:1] == ["csp"]:
            instance, space = parse_csp(text)
            return instance, space, None, text
        formula = parse_dimacs(text)
        instance = to_extensional(formula)  # refuses a formula with no variables
    except ParseError:
        raise
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}")
    return instance, SearchSpace.full(instance), formula, text


def _guard_space(size: int, cap: int) -> None:
    if size > cap:
        raise _UsageError(
            f"search space holds {size} tuples, above the cap of {cap}; "
            "exhaustive analysis refused (raise --max-space to override)"
        )


def _guard_groups(
    instance: CspInstance, space: SearchSpace, group_size: int, cap: int
) -> None:
    # A covering group enumerates only the active values on its own scope.
    groups, _ = local._groups(instance, local.default_covering(instance, group_size))
    for group in groups:
        size = math.prod(len(space.values(v)) for v in group.variables)
        if size > cap:
            raise _UsageError(
                f"a covering group spans {size} tuples on its scope, above the cap "
                f"of {cap}; local analysis refused (raise --max-space to override)"
            )


def _findings(queries, decide, method, render) -> list[report.Finding]:
    """One finding per query: ``decide`` answers it, timed on its own, and
    ``render`` turns the answer into the verdict and the evidence.  A query
    is the tuple (kind, variable, values, over) that starts its finding."""
    findings = []
    new = tuple.__new__  # a Finding's fields are known, so no length check
    for query in queries:
        start = time.perf_counter()
        answer = decide(query)
        elapsed = (time.perf_counter() - start) * 1000.0
        verdict, evidence = render(answer)
        findings.append(new(report.Finding, (*query, verdict, method, evidence, elapsed)))
    return findings


def _oracle_rendering(verdict):
    if verdict.holds:
        return "TRUE", None
    return "FALSE", "counterexample " + ", ".join(
        "{" + ", ".join(f"{v}={a}" for v, a in solution.items()) + "}"
        for solution in verdict.counterexamples
    )


def _local_rendering(verdict):
    subsets = "".join("+" if ok else "-" for ok in verdict.per_group)
    return "ESTABLISHED" if verdict.established else "UNKNOWN", f"subsets {subsets}"


def _cmd_analyze(args) -> int:
    instance, space, formula, text = _load(args.file)
    methods = [args.method] if args.method != "all" else ["oracle", "local", "tractable"]
    if "tractable" in methods and formula is None:
        if args.method == "tractable":
            raise _UsageError("tractable analysis needs a boolean (DIMACS/XNF) input")
        methods.remove("tractable")
    if "tractable" in methods:
        cls = classify_schaefer(formula).primary
        if cls is SchaeferClass.UNRESTRICTED:
            if args.method == "tractable":
                raise _UsageError(
                    "formula is in no tractable class; tractable analysis refused"
                )
            methods.remove("tractable")
    findings: list[report.Finding] = []
    # Each method builds what answers its queries once, before the first
    # query, so a finding's time is its own query's alone: its lookup and,
    # for a false oracle verdict, its counterexample scan.  The answer rows
    # are built here too, not by whichever query asks first.
    for method in methods:
        if method == "oracle":
            _guard_space(space.size(), args.max_space)
            table = oracle.solution_table(instance, space)
            for x in table.order:
                oracle.answer_row(table, x)
            findings += _findings(
                oracle.all_queries(instance, space, KINDS, args.dep_max),
                functools.partial(oracle.evaluate, table),
                method,
                _oracle_rendering,
            )
        elif method == "local":
            if args.group_size > 1:
                _guard_groups(instance, space, args.group_size, args.max_space)
            covering = local.default_covering(instance, args.group_size)
            groups = local.group_tables(instance, covering, space)
            for tbl in groups.tables:
                for x in tbl.order:
                    oracle.answer_row(tbl, x)
            findings += _findings(
                oracle.all_queries(instance, space, LOCAL_KINDS, args.dep_max),
                lambda query: local.local_check(groups, query),
                method,
                _local_rendering,
            )
        else:
            compiled = boolean.CompiledFormula(formula, cls)
            for x in formula.variables:
                compiled.row(x)
            findings += _findings(
                oracle.all_queries(instance, space, TRACTABLE_KINDS, args.dep_max),
                functools.partial(boolean.tract_check, compiled),
                method,
                lambda holds: ("TRUE" if holds else "FALSE", f"{cls.value} reduction"),
            )
    if not args.all:
        findings = [f for f in findings if f.verdict in ("TRUE", "ESTABLISHED")]
    analysis = report.make_report(report.digest_text(text), args.method, findings)
    if args.json:
        print(report.to_json(analysis))
    else:
        print(analysis.render())
    return 0


def _cmd_simplify(args) -> int:
    instance, space, formula, _text = _load(args.file)
    if args.mode == "test":
        _guard_space(space.size(), args.max_space)
    elif args.group_size > 1:
        _guard_groups(instance, space, args.group_size, args.max_space)
    result = simplify.simplify_fixpoint(
        instance, space, mode=args.mode, formula=formula, group_size=args.group_size
    )
    for step in result.steps:
        print(step.render())
    if result.proved_unsatisfiable:
        variable, value, detector = result.conflict
        print(f"UNSAT proved by {detector} at {variable}={value}")
    else:
        print(
            f"fixpoint after {len(result.steps)} step(s); "
            f"space {space.size()} -> {result.final_space.size()}"
        )
    if args.out:
        _write(args.out, emit_csp(instance, result.final_space))
    return 0


def _check_instance(instance, space, formula, group_size, dep_max, catalog):
    # One solution table answers every oracle question: each variable's
    # conditioning sets (the empty set first) and answer row are built
    # first, once, and the catalog and the other routes are compared with them.
    names = instance.variables
    overs = {x: oracle.conditioning_sets(names, x, 0, dep_max) for x in names}
    table = oracle.solution_table(instance, space)
    truths = {x: oracle.answer_row(table, x, overs[x]) for x in names}
    catalog_found = hierarchy.validate_hierarchy(table, catalog, dep_max)
    problems = [violation.describe() for violation in catalog_found]
    # Each route gives one row per variable: (rows, kinds, sound, exact).  A
    # sound route (a covering) establishes only true facts; an exact one (the
    # whole covering, the tractable route) agrees with every truth.
    routes = []
    inherited = None
    sizes = [group_size]
    if len(instance.constraints) > group_size:
        sizes.append(len(instance.constraints))
    for size in sizes:
        covering = local.default_covering(instance, size)
        # A covering of no groups (no constraints) is not the global one.
        whole = bool(covering.groups) and size >= len(instance.constraints)
        groups = local.group_tables(instance, covering, space)
        rows = {x: groups.row(x, overs[x][1:]) for x in names}
        if size == 1:  # the simplifier's covering: it takes the tables over
            inherited = groups
        exact = "global covering" if whole else None
        routes.append((rows, LOCAL_KINDS, f"local({size})", exact))
    if formula is not None:
        cls = classify_schaefer(formula).primary
        if cls is not SchaeferClass.UNRESTRICTED:
            compiled = boolean.CompiledFormula(formula, cls)
            rows = {x: compiled.row(x) for x in names}
            routes.append((rows, TRACTABLE_KINDS, None, "tractable"))
    # Row against row; a disagreement is named query by query.
    for rows, kinds, sound, exact in routes:
        if all(
            rows[x].items() <= truths[x].items() if exact
            else all(map(truths[x].__getitem__, compress(rows[x], rows[x].values())))
            for x in names
        ):
            continue
        for query in oracle.all_queries(instance, space, kinds, dep_max):
            x = query.variable
            key = query.kind, query.values or query.over
            answer, truth = rows[x][key], truths[x][key]
            if sound and answer and not truth:
                problems.append(f"{sound} established a false fact: {query.describe()}")
            if exact and answer != truth:
                problems.append(f"{exact} disagrees with oracle on {query.describe()}")
    # The table holds every solution in the space, and the simplified space
    # narrows it, so both satisfiability answers are read off its rows.
    before = bool(table.rows)
    result = simplify.simplify_fixpoint(
        instance, space, mode="production", formula=formula, groups=inherited
    )
    if result.proved_unsatisfiable:
        if before:
            problems.append("simplifier proved a satisfiable instance unsatisfiable")
    else:
        final = [set(result.final_space.values(v)) for v in table.order]
        after = any(all(map(set.__contains__, final, row)) for row in table.rows)
        if before != after:
            problems.append("simplification changed satisfiability")
    return problems


# Each key of a ``--corpus`` spec but seeds: the RandomSpec field it sets
# and that field's type.
_CORPUS_KEYS = {
    "vars": ("variable_count", int),
    "dom": ("domain_size", int),
    "cons": ("constraint_count", int),
    "arity": ("max_arity", int),
    "density": ("density", float),
}


def _parse_corpus_spec(spec: str, cap: int):
    """The standard corpus with the keys of ``spec`` applied, a later key
    replacing an earlier one."""
    changes, seeds = {}, STANDARD_CORPUS_SEEDS
    try:
        if spec != "default":
            for part in spec.split(","):
                key, _, value = part.partition("=")
                key = key.strip()
                if key == "seeds":
                    first, _, last = value.partition("..")
                    seeds = range(int(first), int(last) + 1)
                elif key in _CORPUS_KEYS:
                    field, kind = _CORPUS_KEYS[key]
                    changes[field] = kind(value)
                else:
                    raise _UsageError(f"unknown corpus setting {key!r}")
        if not seeds:
            raise ValueError(f"seed range {seeds.start}..{seeds.stop - 1} is empty")
        template = RandomSpec(*STANDARD_CORPUS_SPEC._replace(**changes))
    except ValueError as exc:
        raise _UsageError(f"bad corpus spec {spec!r}: {exc}")
    # Every instance has the full space: refuse it before generating any.
    _guard_space(template.domain_size**template.variable_count, cap)
    return (gen_random(template._replace(seed=seed)) for seed in seeds)


def _cmd_check(args) -> int:
    if args.file and args.corpus:
        raise _UsageError("check takes a file or --corpus, not both")
    catalog = None
    if args.reverse_edge:
        try:
            catalog = hierarchy.reverse_edge(args.reverse_edge)
        except ValueError as exc:
            raise _UsageError(str(exc))
    problems = []
    if args.corpus:
        corpus = _parse_corpus_spec(args.corpus, args.max_space)
        for number, (instance, space) in enumerate(corpus, 1):
            found = _check_instance(
                instance, space, None, args.group_size, args.dep_max, catalog
            )
            problems.extend(f"seed {number}: {p}" for p in found)
    elif args.file:
        instance, space, formula, _text = _load(args.file)
        _guard_space(space.size(), args.max_space)
        problems = _check_instance(
            instance, space, formula, args.group_size, args.dep_max, catalog
        )
    else:
        raise _UsageError("check needs a file or --corpus")
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} violation(s)")
        return 1
    print("all checks passed")
    return 0


def _parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    edges = []
    for part in text.split(","):
        u, _, v = part.partition("-")
        edges.append((int(u), int(v)))
    return tuple(edges)


def _cmd_gen(args) -> int:
    try:
        text = _generate(args)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return 0


def _generate(args) -> str:
    if args.family == "coloring":
        instance = gen_coloring(Graph(args.nodes, _parse_edges(args.edges)), args.colors)
        return emit_csp(instance, comments=(f"{args.colors}-coloring, {args.nodes} nodes",))
    if args.family == "factoring":
        spec = FactoringSpec(args.number, args.base, args.ordering)
        instance = gen_factoring(spec)
        notes = [
            f"factoring: {args.number} = X * Y in base {args.base}, X,Y != 1",
            "digit variables x*/y* (least significant first), carries c*",
        ]
        if any(name.startswith("s") for name in instance.variables):
            notes.append("s<j>_<t> are partial sums of column j, chunked")
        if args.ordering:
            notes.append("ordering X < Y enforced")
        return emit_csp(instance, comments=notes)
    instance, space = gen_random(
        RandomSpec(
            args.vars,
            args.domain_size,
            args.constraints,
            args.max_arity,
            args.density,
            args.seed,
        )
    )
    return emit_csp(instance, space, comments=(f"random instance, seed {args.seed}",))


def _cmd_classify(args) -> int:
    formula = parse_dimacs(_read(args.file))
    classification = classify_schaefer(formula)
    applicable = ", ".join(c.value for c in classification.applicable) or "none"
    print(f"primary: {classification.primary.value}")
    print(f"applicable: {applicable}")
    return 0


# Each option of analyze, simplify, check and classify, declared once as
# ``add_argument``'s keywords.  ``_build_parser`` adds them for argparse, and
# ``_plain_args`` reads a plain command line from them without argparse.
_OPTIONS = {
    "--method": {"choices": ("oracle", "local", "tractable", "all"), "default": "all"},
    "--mode": {"choices": ("production", "test"), "default": "production"},
    "--corpus": {"help": "'default' or k=v list (seeds=A..B, vars=, ...)"},
    "--group-size": {"type": _positive, "default": 1},
    "--dep-max": {"type": _non_negative, "default": 2},
    "--max-space": {"type": _positive, "default": DEFAULT_MAX_SPACE},
    "--json": {"action": "store_true", "default": False},
    "--all": {"action": "store_true", "default": False, "help": "list negative findings too"},
    "--out": {},
    "--reverse-edge": {"help": "negative control: validate with the named implication reversed"},
}


def _fill_gen(gen: argparse.ArgumentParser) -> None:
    gen_sub = gen.add_subparsers(dest="family", required=True)
    coloring = gen_sub.add_parser("coloring")
    coloring.add_argument("--nodes", type=int, required=True)
    coloring.add_argument("--edges", default="", help="comma list like 2-3,3-4")
    coloring.add_argument("--colors", type=int, default=3)
    factoring = gen_sub.add_parser("factoring")
    factoring.add_argument("--number", type=int, required=True)
    factoring.add_argument("--base", type=int, default=2)
    factoring.add_argument("--ordering", action="store_true")
    rand = gen_sub.add_parser("random")
    rand.add_argument("--vars", type=int, required=True)
    rand.add_argument("--domain-size", type=int, required=True)
    rand.add_argument("--constraints", type=int, required=True)
    rand.add_argument("--max-arity", type=int, default=2)
    rand.add_argument("--density", type=float, default=0.5)
    rand.add_argument("--seed", type=int, required=True)
    for sub_parser in (coloring, factoring, rand):
        sub_parser.add_argument("--out")


# Subcommand name: (help line, handler, nargs of its file, its options in
# help order); gen's options are None, as ``_fill_gen`` adds its families.
_SUBCOMMANDS = {
    "analyze": ("evaluate properties on an instance", _cmd_analyze, None, (
        "--method", "--group-size", "--dep-max", "--max-space", "--json", "--all")),
    "simplify": ("apply satisfiability-preserving reductions", _cmd_simplify, None, (
        "--mode", "--group-size", "--max-space", "--out")),
    "check": ("cross-validate detectors against the oracle", _cmd_check, "?", (
        "--corpus", "--group-size", "--dep-max", "--max-space", "--reverse-edge")),
    "gen": ("generate an instance", _cmd_gen, None, None),
    "classify": ("Schaefer classification of a boolean file", _cmd_classify, None, ()),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, from ``_SUBCOMMANDS`` and ``_OPTIONS``."""
    parser = argparse.ArgumentParser(
        prog="cspstruct",
        description="Structural-property engine for finite-domain CSPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, nargs, options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        if options is None:
            _fill_gen(command)
        else:
            command.add_argument("file", nargs=nargs)
            for flag in options:
                command.add_argument(flag, **_OPTIONS[flag])
        command.set_defaults(handler=handler)
    return parser


def _plain_args(argv) -> argparse.Namespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read
    from the option table, when ``argv`` is a subcommand other than gen
    followed by the files it takes and by exact long options of its own,
    each value not starting with '-' and accepted by the option's type and
    choices; else None, and argparse reads ``argv``."""
    _, handler, nargs, options = _SUBCOMMANDS.get(argv[0] if argv else None, (None,) * 4)
    if options is None:
        return None
    given, files = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
        elif token not in options:
            return None
        elif "action" in _OPTIONS[token]:
            given[token] = True
        else:
            spec, text = _OPTIONS[token], next(tokens, "-")
            try:
                given[token] = value = spec.get("type", str)(text)
            except Exception:
                return None
            if text.startswith("-") or value not in spec.get("choices", (value,)):
                return None
    if len(files) > 1 or (nargs is None and not files):
        return None
    values = {"command": argv[0], "file": files[0] if files else None, "handler": handler}
    for flag in options:
        values[flag[2:].replace("-", "_")] = given.get(flag, _OPTIONS[flag].get("default"))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    # A command leaves no cyclic garbage (tests/test_cli.py), so a collection
    # while it runs would scan the heap and free nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # A reader closed stdout; fd 1 to devnull quiets the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Input and option errors were turned into the two cases above, so
        # anything else is a fault in the program, not in its input.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
