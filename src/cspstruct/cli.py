"""Command-line front end.

Subcommands: ``analyze`` (evaluate properties for all admissible
arguments), ``simplify`` (run the reduction loop and print its step log),
``check`` (cross-validate detectors against the oracle and validate the
relationship catalog; nonzero exit on violations), ``gen`` (emit generated
instances) and ``classify`` (Schaefer classification of a boolean file).

Exit codes: 0 success, 1 check violations, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import boolean, hierarchy, local, oracle, report, simplify
from .boolean import BooleanFormula, SchaeferClass, classify_schaefer, to_extensional
from .instances import (
    Graph,
    FactoringSpec,
    ParseError,
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


def _load(path: str) -> tuple[CspInstance, SearchSpace, BooleanFormula | None, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    stripped = [
        line for line in (l.split("#", 1)[0].strip() for l in text.splitlines()) if line
    ]
    if stripped and stripped[0].startswith("csp"):
        instance, space = parse_csp(text)
        return instance, space, None, text
    formula = parse_dimacs(text)
    instance = to_extensional(formula)
    return instance, SearchSpace.full(instance), formula, text


def _guard_space(space: SearchSpace, cap: int) -> None:
    if space.size() > cap:
        raise _UsageError(
            f"search space holds {space.size()} tuples, above the cap of {cap}; "
            "exhaustive analysis refused (raise --max-space to override)"
        )


def _oracle_findings(instance, space, dep_max):
    queries = oracle.all_queries(instance, space, KINDS, dep_max)

    def evaluate(query):
        start = time.perf_counter()
        verdict = oracle.evaluate(instance, space, query)
        elapsed = (time.perf_counter() - start) * 1000.0
        evidence = None
        if not verdict.holds and verdict.counterexamples:
            evidence = "counterexample " + ", ".join(map(repr, verdict.counterexamples))
        return report.Finding(
            query.kind,
            query.variable,
            query.values,
            query.over,
            "TRUE" if verdict.holds else "FALSE",
            "oracle",
            evidence,
            elapsed,
        )

    return [evaluate(query) for query in queries]


def _local_findings(instance, space, group_size, dep_max):
    covering = local.default_covering(instance, group_size)
    queries = oracle.all_queries(instance, space, LOCAL_KINDS, dep_max)

    def evaluate(query):
        start = time.perf_counter()
        verdict = local.local_check(instance, space, covering, query)
        elapsed = (time.perf_counter() - start) * 1000.0
        return report.Finding(
            query.kind,
            query.variable,
            query.values,
            query.over,
            "ESTABLISHED" if verdict.established else "UNKNOWN",
            "local",
            f"subsets {''.join('+' if ok else '-' for ok in verdict.per_group)}",
            elapsed,
        )

    return [evaluate(query) for query in queries]


def _tractable_findings(formula, instance, space, dep_max):
    classification = classify_schaefer(formula)
    if classification.primary is SchaeferClass.UNRESTRICTED:
        raise _UsageError("formula is in no tractable class; tractable analysis refused")
    cls = classification.primary
    queries = oracle.all_queries(instance, space, TRACTABLE_KINDS, dep_max)

    def evaluate(query):
        start = time.perf_counter()
        holds = boolean.tract_check(formula, cls, query)
        elapsed = (time.perf_counter() - start) * 1000.0
        return report.Finding(
            query.kind,
            query.variable,
            query.values,
            query.over,
            "TRUE" if holds else "FALSE",
            "tractable",
            f"{cls.value} reduction",
            elapsed,
        )

    return [evaluate(query) for query in queries]


def _cmd_analyze(args) -> int:
    instance, space, formula, text = _load(args.file)
    methods = [args.method] if args.method != "all" else ["oracle", "local", "tractable"]
    if "tractable" in methods and formula is None:
        if args.method == "tractable":
            raise _UsageError("tractable analysis needs a boolean (DIMACS/XNF) input")
        methods.remove("tractable")
    if "tractable" in methods and args.method == "all":
        if classify_schaefer(formula).primary is SchaeferClass.UNRESTRICTED:
            methods.remove("tractable")
    findings: list[report.Finding] = []
    for method in methods:
        if method == "oracle":
            _guard_space(space, args.max_space)
            findings.extend(_oracle_findings(instance, space, args.dep_max))
        elif method == "local":
            if args.group_size > 1:
                _guard_space(space, args.max_space)
            findings.extend(_local_findings(instance, space, args.group_size, args.dep_max))
        else:
            findings.extend(_tractable_findings(formula, instance, space, args.dep_max))
    if not args.all:
        findings = [f for f in findings if f.verdict in ("TRUE", "ESTABLISHED")]
    analysis = report.make_report(report.digest_text(text), args.method, findings)
    if args.json:
        print(report.to_json(analysis))
    else:
        print(analysis.render(positives_only=False))
    return 0


def _cmd_simplify(args) -> int:
    instance, space, formula, _text = _load(args.file)
    if args.mode == "test" or args.group_size > 1:
        _guard_space(space, args.max_space)
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
        Path(args.out).write_text(emit_csp(instance, result.final_space))
    return 0


def _check_instance(instance, space, formula, group_size, dep_max, catalog):
    problems = []
    for violation in hierarchy.validate_hierarchy(instance, space, catalog, dep_max):
        problems.append(violation.describe())
    sizes = [group_size]
    if len(instance.constraints) > group_size:
        sizes.append(len(instance.constraints))
    for size in sizes:
        covering = local.default_covering(instance, size)
        whole = size >= len(instance.constraints)
        for query in oracle.all_queries(instance, space, LOCAL_KINDS, dep_max):
            verdict = local.local_check(instance, space, covering, query)
            truth = oracle.evaluate(instance, space, query).holds
            if verdict.established and not truth:
                problems.append(f"local({size}) established a false fact: {query.describe()}")
            if whole and verdict.established != truth:
                problems.append(
                    f"global covering disagrees with oracle on {query.describe()}"
                )
    if formula is not None:
        classification = classify_schaefer(formula)
        if classification.primary is not SchaeferClass.UNRESTRICTED:
            for query in oracle.all_queries(instance, space, TRACTABLE_KINDS, dep_max):
                tract = boolean.tract_check(formula, classification.primary, query)
                truth = oracle.evaluate(instance, space, query).holds
                if tract != truth:
                    problems.append(
                        f"tractable disagrees with oracle on {query.describe()}"
                    )
    before = oracle.satisfiable(instance, space)
    result = simplify.simplify_fixpoint(instance, space, mode="production", formula=formula)
    if result.proved_unsatisfiable:
        if before:
            problems.append("simplifier proved a satisfiable instance unsatisfiable")
    else:
        after = oracle.satisfiable(instance, result.final_space)
        if before != after:
            problems.append("simplification changed satisfiability")
    return problems


def _parse_corpus_spec(spec: str):
    settings = {
        "vars": 5,
        "dom": 3,
        "cons": 6,
        "arity": 2,
        "density": 0.5,
        "seeds": (1, 1000),
    }
    if spec != "default":
        for part in spec.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key == "seeds":
                first, _, last = value.partition("..")
                settings["seeds"] = (int(first), int(last))
            elif key in ("vars", "dom", "cons", "arity"):
                settings[key] = int(value)
            elif key == "density":
                settings["density"] = float(value)
            else:
                raise _UsageError(f"unknown corpus setting {key!r}")
    first, last = settings["seeds"]
    for seed in range(first, last + 1):
        yield gen_random(
            RandomSpec(
                settings["vars"],
                settings["dom"],
                settings["cons"],
                settings["arity"],
                settings["density"],
                seed,
            )
        )


def _cmd_check(args) -> int:
    catalog = None
    if args.reverse_edge:
        catalog = hierarchy.reverse_edge(args.reverse_edge)
    problems = []
    if args.corpus:
        for number, (instance, space) in enumerate(_parse_corpus_spec(args.corpus), 1):
            _guard_space(space, args.max_space)
            found = _check_instance(
                instance, space, None, args.group_size, args.dep_max, catalog
            )
            problems.extend(f"seed {number}: {p}" for p in found)
    elif args.file:
        instance, space, formula, _text = _load(args.file)
        _guard_space(space, args.max_space)
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
    if args.family == "coloring":
        instance = gen_coloring(Graph(args.nodes, _parse_edges(args.edges)), args.colors)
        text = emit_csp(instance, comments=(f"{args.colors}-coloring, {args.nodes} nodes",))
    elif args.family == "factoring":
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
        text = emit_csp(instance, comments=notes)
    else:
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
        text = emit_csp(instance, space, comments=(f"random instance, seed {args.seed}",))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_classify(args) -> int:
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.file}: {exc}")
    formula = parse_dimacs(text)
    classification = classify_schaefer(formula)
    applicable = ", ".join(c.value for c in classification.applicable) or "none"
    print(f"primary: {classification.primary.value}")
    print(f"applicable: {applicable}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspstruct",
        description="Structural-property engine for finite-domain CSPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="evaluate properties on an instance")
    analyze.add_argument("file")
    analyze.add_argument(
        "--method", choices=("oracle", "local", "tractable", "all"), default="all"
    )
    analyze.add_argument("--group-size", type=int, default=1)
    analyze.add_argument("--dep-max", type=int, default=2)
    analyze.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE)
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--all", action="store_true", help="list negative findings too")
    analyze.set_defaults(handler=_cmd_analyze)

    simp = sub.add_parser("simplify", help="apply satisfiability-preserving reductions")
    simp.add_argument("file")
    simp.add_argument("--mode", choices=("production", "test"), default="production")
    simp.add_argument("--group-size", type=int, default=1)
    simp.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE)
    simp.add_argument("--out")
    simp.set_defaults(handler=_cmd_simplify)

    check = sub.add_parser("check", help="cross-validate detectors against the oracle")
    check.add_argument("file", nargs="?")
    check.add_argument("--corpus", help="'default' or k=v list (seeds=A..B, vars=, ...)")
    check.add_argument("--group-size", type=int, default=1)
    check.add_argument("--dep-max", type=int, default=2)
    check.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE)
    check.add_argument(
        "--reverse-edge",
        help="negative control: validate with the named implication reversed",
    )
    check.set_defaults(handler=_cmd_check)

    gen = sub.add_parser("gen", help="generate an instance")
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
    gen.set_defaults(handler=_cmd_gen)

    classify = sub.add_parser("classify", help="Schaefer classification of a boolean file")
    classify.add_argument("file")
    classify.set_defaults(handler=_cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
