import contextlib
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import boolean, cli, hierarchy, local, oracle, simplify
from cspstruct.cli import main
from cspstruct.instances import emit_csp, emit_dimacs, parse_csp, parse_dimacs
from cspstruct.model import SearchSpace
from cspstruct.report import AnalysisReport, Finding, from_json, make_report, to_json
from cspstruct.simplify import SimplificationResult

from conftest import (
    data_path,
    edge_instances,
    instances_with_spaces,
    oracle_rows,
    reference_check,
    reference_simplify,
    reference_solutions,
    reference_verdict,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReportSchema:
    def test_json_round_trip(self):
        findings = (
            Finding("fixable", "x1", ("R",), (), "TRUE", "oracle", None, 0.25),
            Finding(
                "dependent", "p", (), ("z", "w"), "FALSE", "oracle", "counterexample", 1.5
            ),
        )
        original = make_report("abc123", "oracle", findings)
        assert from_json(to_json(original)) == original

    def test_line_rendering(self):
        finding = Finding("removable", "x5", ("G",), (), "TRUE", "oracle", None, 0.0)
        assert finding.line() == "removable x5 G TRUE"
        finding = Finding("dependent", "p", (), ("z", "w"), "TRUE", "oracle", None, 0.0)
        assert finding.line() == "dependent p on(z,w) TRUE"


class TestAnalyze:
    def test_oracle_report_mentions_isolated_node_facts(self, capsys):
        code, out, _ = run(capsys, "analyze", str(data_path("coloring_isolated.csp")), "--method", "oracle")
        assert code == 0
        lines = out.splitlines()
        assert "irrelevant x1 TRUE" in lines
        assert "removable x5 G TRUE" in lines
        assert "determined x1" not in out  # negative finding hidden by default

    def test_all_flag_lists_negatives(self, capsys):
        code, out, _ = run(
            capsys, "analyze", str(data_path("coloring_isolated.csp")), "--method", "oracle", "--all"
        )
        assert code == 0
        assert "determined x1 FALSE" in out.splitlines()

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "analyze", str(data_path("coloring_isolated.csp")), "--method", "oracle", "--json"
        )
        assert code == 0
        parsed = from_json(out)
        assert isinstance(parsed, AnalysisReport)
        assert to_json(parsed) == out.rstrip("\n")

    def test_space_cap_refusal(self, capsys, tmp_path):
        big = tmp_path / "big.csp"
        big.write_text("csp 1\nvars: " + " ".join(f"x{i}" for i in range(30)) + "\ndomain: 0 1\n")
        code, _, err = run(capsys, "analyze", str(big), "--method", "oracle")
        assert code == 2
        assert "cap" in err

    def test_tractable_on_extensional_refused(self, capsys):
        code, _, err = run(
            capsys, "analyze", str(data_path("coloring_isolated.csp")), "--method", "tractable"
        )
        assert code == 2
        assert "boolean" in err

    def test_local_method_on_cnf(self, capsys):
        code, out, _ = run(
            capsys, "analyze", str(data_path("pure_literal.cnf")), "--method", "local"
        )
        assert code == 0
        assert "fixable x true ESTABLISHED" in out.splitlines()


def analyze_findings(path, method, *options):
    """The findings of ``analyze --all --json``, without their times."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path), "--method", method, "--all", "--json", *options]) == 0
    return [
        (f.kind, f.variable, f.values, f.over, f.verdict, f.method, f.evidence)
        for f in from_json(out.getvalue()).findings
    ]


def expected_findings(inst, space, method, dep_max, formula=None):
    """What ``analyze --all`` should find with one method: the reference
    verdict and its first counterexample for the oracle, ``local_check``
    for local coverings and ``tract_check`` for the tractable route."""
    kinds = {"oracle": oracle.KINDS, "local": cli.LOCAL_KINDS, "tractable": cli.TRACTABLE_KINDS}
    solutions = reference_solutions(inst, space)
    groups = local.group_tables(inst, local.default_covering(inst), space)
    if method == "tractable":
        cls = boolean.classify_schaefer(formula).primary
        compiled = boolean.CompiledFormula(formula, cls)
    expected = []
    for query in oracle.all_queries(inst, space, kinds[method], dep_max):
        if method == "oracle":
            holds, witness = reference_verdict(inst, space, solutions, query)
            verdict = "TRUE" if holds else "FALSE"
            evidence = None
            if witness:
                evidence = "counterexample " + ", ".join(
                    "{" + ", ".join(f"{v}={a}" for v, a in t.items()) + "}" for t in witness
                )
        elif method == "local":
            answer = local.local_check(groups, query)
            verdict = "ESTABLISHED" if answer.established else "UNKNOWN"
            evidence = "subsets " + "".join("+" if ok else "-" for ok in answer.per_group)
        else:
            verdict = "TRUE" if boolean.tract_check(compiled, query) else "FALSE"
            evidence = f"{cls.value} reduction"
        expected.append(
            (query.kind, query.variable, query.values, query.over, verdict, method, evidence)
        )
    return expected


class TestFindingsMatchReferences:
    """Every ``analyze --all --json`` finding, for each ``--method``, says
    of its query what the reference or the route's own check says, evidence
    text included, in ``all_queries`` order."""

    @settings(max_examples=40, deadline=None)
    @given(instances_with_spaces().filter(lambda case: case[0].variables))
    def test_extensional_instances(self, tmp_path_factory, case):
        inst, space = case
        path = tmp_path_factory.getbasetemp() / "findings.csp"
        path.write_text(emit_csp(inst, space))
        expected = {m: expected_findings(inst, space, m, 2) for m in ("oracle", "local")}
        for method in ("oracle", "local"):
            assert analyze_findings(path, method) == expected[method]
        assert analyze_findings(path, "all") == expected["oracle"] + expected["local"]

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_boolean_corpora(self, boolean_corpora, tmp_path, kind):
        small = [formula for formula in boolean_corpora[kind] if len(formula.variables) <= 7]
        for number, written in enumerate(small[:6]):
            path = tmp_path / f"{kind}-{number}.cnf"
            path.write_text(emit_dimacs(written))
            formula = parse_dimacs(path.read_text())
            inst = boolean.to_extensional(formula)
            space = SearchSpace.full(inst)
            methods = ("oracle", "local", "tractable")
            expected = {m: expected_findings(inst, space, m, 1, formula) for m in methods}
            for method in methods:
                assert analyze_findings(path, method, "--dep-max", "1") == expected[method]
            assert analyze_findings(path, "all", "--dep-max", "1") == [
                finding for method in methods for finding in expected[method]
            ]

    def test_counterexample_text_is_pinned(self):
        # Written as {variable=value, ...} per solution, in declaration
        # order: one solution for a value property, the falsifying pair for
        # dependence.  Recorded before counterexamples were plain dicts.
        found = [
            (kind, variable, values, over, evidence)
            for kind, variable, values, over, _, _, evidence in analyze_findings(
                data_path("no_constraints.csp"), "oracle"
            )
            if evidence is not None
        ]
        assert found == [
            ("removable", "a", ("0",), (), "counterexample {a=0, b=0}"),
            ("inconsistent", "a", ("0",), (), "counterexample {a=0, b=0}"),
            ("inconsistent", "b", ("0",), (), "counterexample {a=0, b=0}"),
            ("inconsistent", "b", ("1",), (), "counterexample {a=0, b=1}"),
            ("implied", "b", ("0",), (), "counterexample {a=0, b=1}"),
            ("implied", "b", ("1",), (), "counterexample {a=0, b=0}"),
            ("determined", "b", (), (), "counterexample {a=0, b=0}"),
            ("dependent", "b", (), ("a",), "counterexample {a=0, b=0}, {a=0, b=1}"),
        ]


# The full catalog, then each catalog with one implication reversed.
CATALOGS = [None] + [
    hierarchy.reverse_edge(edge.name)
    for edge in hierarchy.edge_catalog()
    if edge.kind == "implies"
]


class TestCheckMatchesReference:
    """``check`` compares answer rows; its problems, in order, are those a
    query-by-query loop over the same routes finds."""

    @staticmethod
    def assert_same(inst, space, formula=None, group_size=1, dep_max=2):
        for catalog in CATALOGS:
            expected = reference_check(inst, space, formula, group_size, dep_max, catalog)
            got = cli._check_instance(inst, space, formula, group_size, dep_max, catalog)
            assert got == expected, catalog and [e.name for e in catalog]

    @settings(max_examples=60, deadline=None)
    @given(instances_with_spaces(), st.integers(1, 2), st.integers(0, 2))
    def test_extensional_instances(self, case, group_size, dep_max):
        self.assert_same(*case, group_size=group_size, dep_max=dep_max)

    def test_edge_instances(self):
        for inst, space in edge_instances():
            for group_size in (1, 2):
                self.assert_same(inst, space, group_size=group_size)

    def test_agreeing_rows_ask_no_query(self, corpus, monkeypatch):
        # Rows that agree with the truths are compared whole: no query list
        # is built for the local comparison.
        kinds = []
        queries = oracle.all_queries
        monkeypatch.setattr(
            oracle, "all_queries", lambda *args: kinds.append(args[2]) or queries(*args)
        )
        for inst, space in corpus[:20]:
            for group_size in (1, 2):
                assert cli._check_instance(inst, space, None, group_size, 2, None) == []
        assert kinds == []

    def test_disagreeing_rows_are_named_in_query_order(self, triple_tables, monkeypatch):
        # Two false facts established and one true fact not: each covering
        # names what it gets wrong query by query.  The flipped kinds are
        # ones the simplifier does not read.
        inst, space = triple_tables
        truths = oracle_rows(oracle.solution_table(inst, space), 2)
        queries = [
            q
            for q in oracle.all_queries(inst, space, cli.LOCAL_KINDS, 2)
            if q.kind in ("interchangeable", "determined", "dependent", "irrelevant")
        ]

        def key(q):
            return q.kind, q.values or q.over

        false = [q for q in queries if not truths[q.variable][key(q)]]
        true = [q for q in queries if truths[q.variable][key(q)]]
        flips = {false[0], false[-1], true[0]}
        build = local.GroupTables.row

        def flipped(self, x, overs=()):
            row = dict(build(self, x, overs))
            for q in flips:
                if q.variable == x:
                    row[key(q)] = not truths[x][key(q)]
            return row

        monkeypatch.setattr(local.GroupTables, "row", flipped)
        expected = []
        for size in (1, len(inst.constraints)):
            for q in oracle.all_queries(inst, space, cli.LOCAL_KINDS, 2):
                if q in flips and not truths[q.variable][key(q)]:
                    expected.append(f"local({size}) established a false fact: {q.describe()}")
                if q in flips and size > 1:
                    expected.append(f"global covering disagrees with oracle on {q.describe()}")
        assert cli._check_instance(inst, space, None, 1, 2, None) == expected
        assert len(expected) == 7

    def test_agreeing_tractable_rows_ask_no_query(self, boolean_corpora, monkeypatch):
        # On formula inputs the compiled form's rows are compared whole too.
        kinds = []
        queries = oracle.all_queries
        monkeypatch.setattr(
            oracle, "all_queries", lambda *args: kinds.append(args[2]) or queries(*args)
        )
        for kind in ("horn", "dual-horn", "2cnf", "affine"):
            for formula in [f for f in boolean_corpora[kind] if len(f.variables) <= 6][:3]:
                inst = boolean.to_extensional(formula)
                space = SearchSpace.full(inst)
                assert cli._check_instance(inst, space, formula, 1, 1, None) == []
        assert kinds == []

    def test_disagreeing_tractable_rows_are_named_in_query_order(
        self, boolean_corpora, monkeypatch
    ):
        # One true answer and two false ones flipped in the compiled form's
        # rows; only the tractable route names them, in query order.
        formula = next(f for f in boolean_corpora["horn"] if 3 <= len(f.variables) <= 6)
        inst = boolean.to_extensional(formula)
        space = SearchSpace.full(inst)
        truths = oracle_rows(oracle.solution_table(inst, space), 1)
        queries = oracle.all_queries(inst, space, cli.TRACTABLE_KINDS, 1)
        false = [q for q in queries if not truths[q.variable][q.kind, q.values]]
        true = [q for q in queries if truths[q.variable][q.kind, q.values]]
        flips = {false[0], false[-1], true[0]}
        build = boolean.CompiledFormula.row

        def flipped(self, x):
            row = dict(build(self, x))
            for q in flips:
                if q.variable == x:
                    row[q.kind, q.values] = not row[q.kind, q.values]
            return row

        monkeypatch.setattr(boolean.CompiledFormula, "row", flipped)
        expected = [
            f"tractable disagrees with oracle on {q.describe()}" for q in queries if q in flips
        ]
        assert cli._check_instance(inst, space, formula, 1, 1, None) == expected
        assert len(expected) == 3

    def test_negative_controls_find_violations(self, corpus):
        # Each reversed implication fails somewhere in the corpus sample.
        for catalog in CATALOGS[1:]:
            assert any(
                cli._check_instance(inst, space, None, 1, 2, catalog)
                for inst, space in corpus[:100]
            ), [edge.name for edge in catalog if edge.name.endswith("-reversed")]

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_boolean_corpora(self, boolean_corpora, kind):
        small = [f for f in boolean_corpora[kind] if len(f.variables) <= 7][:4]
        for formula in small:
            inst = boolean.to_extensional(formula)
            self.assert_same(inst, SearchSpace.full(inst), formula, dep_max=1)


class TestCheckInheritsSimplifier:
    """At group size 1 the simplifier inside ``check`` starts from the
    covering's tables and the rows ``check`` read on them; its result is
    that of a cold run and of the reference loop."""

    @staticmethod
    def assert_same(inst, space, formula=None, group_size=1):
        cold = simplify.simplify_fixpoint(inst, space, mode="production", formula=formula)
        families = simplify._resolve_families("production", None, formula)
        expected = reference_simplify(inst, space, families, formula)
        calls = []
        run_fixpoint = simplify.simplify_fixpoint

        def recorded(*args, **kwargs):
            result = run_fixpoint(*args, **kwargs)
            calls.append((kwargs.get("groups"), result))
            return result

        with mock.patch.object(simplify, "simplify_fixpoint", recorded):
            cli._check_instance(inst, space, formula, group_size, 2, None)
        ((groups, result),) = calls
        assert (groups is not None) == (group_size == 1)
        assert result == cold == expected

    @settings(max_examples=60, deadline=None)
    @given(instances_with_spaces(), st.integers(1, 2))
    def test_extensional_instances(self, case, group_size):
        self.assert_same(*case, group_size=group_size)

    def test_edge_instances(self):
        for inst, space in edge_instances():
            for group_size in (1, 2):
                self.assert_same(inst, space, group_size=group_size)

    @pytest.mark.parametrize("kind", ["horn", "dual-horn", "2cnf", "affine"])
    def test_boolean_corpora(self, boolean_corpora, kind):
        small = [f for f in boolean_corpora[kind] if len(f.variables) <= 7][:6]
        for formula in small:
            inst = boolean.to_extensional(formula)
            for group_size in (1, 2):
                self.assert_same(inst, SearchSpace.full(inst), formula, group_size)


CSP_INPUTS = ("triple_tables.csp", "boolean_backbone.csp", "coloring_isolated.csp")


class TestFindingTime:
    """A finding's ``elapsed_ms`` covers its own query alone: what answers
    the queries is built before the first one is timed."""

    @pytest.mark.parametrize(
        "method, module, builder",
        [("oracle", oracle, "solution_table"), ("local", local, "group_tables")],
    )
    def test_the_build_is_not_charged_to_a_finding(
        self, capsys, monkeypatch, method, module, builder
    ):
        build = getattr(module, builder)

        def slow(*args):
            time.sleep(0.2)
            return build(*args)

        monkeypatch.setattr(module, builder, slow)
        code, out, _ = run(
            capsys, "analyze", str(data_path("triple_tables.csp")),
            "--method", method, "--all", "--json",
        )
        assert code == 0
        times = [finding.elapsed_ms for finding in from_json(out).findings]
        assert times and max(times) < 200

    # Per method: the inputs, and what builds a part of an answer row.
    BUILDERS = {
        "oracle": (CSP_INPUTS, [(oracle, "_signature")]),
        "local": (CSP_INPUTS, [(oracle, "_signature")]),
        "tractable": (
            [f"planted_{kind}.cnf" for kind in ("horn", "2cnf", "affine")],
            [(boolean.CompiledFormula, name)
             for name in ("inconsistent", "substitutable", "determined")],
        ),
    }

    @pytest.mark.parametrize("method", ["oracle", "local", "tractable"])
    def test_no_answer_row_is_built_inside_a_finding(self, capsys, monkeypatch, method):
        # Every answer row is built before the timed loop, so no query pays
        # for a signature, or a compiled form's decision, that a later query
        # reads.
        names, deciders = self.BUILDERS[method]
        findings = cli._findings
        calls = []

        def refuse(*args):
            raise AssertionError("a finding built part of an answer row")

        def guarded(queries, decide, *rest):
            def checked(query):
                with monkeypatch.context() as patch:
                    for holder, name in deciders:
                        patch.setattr(holder, name, refuse)
                    calls.append(query)
                    return decide(query)

            return findings(queries, checked, *rest)

        monkeypatch.setattr(cli, "_findings", guarded)
        for name in names:
            calls.clear()
            code, _, _ = run(
                capsys, "analyze", str(data_path(name)), "--method", method, "--all",
                "--json",
            )
            assert code == 0 and calls, name


class TestSimplify:
    def test_pure_value_step_logged(self, capsys):
        code, out, _ = run(capsys, "simplify", str(data_path("pure_literal.cnf")))
        assert code == 0
        assert "FIX x=true BY pure-value" in out.splitlines()

    def test_writes_simplified_instance(self, capsys, tmp_path):
        target = tmp_path / "out.csp"
        code, _, _ = run(
            capsys, "simplify", str(data_path("pure_literal.cnf")), "--out", str(target)
        )
        assert code == 0
        instance, space = parse_csp(target.read_text())
        assert space.values("x") == ("true",)


class TestSpaceBudget:
    """Every route that can run the oracle over the whole space honours
    --max-space; under the cap the output is unchanged."""

    COLORING_TEST_MODE = (
        "FIX x1=R BY local-fixable\n"
        "REMOVE x5!=R BY oracle-removable\n"
        "fixpoint after 2 step(s); space 243 -> 54\n"
    )
    COLORING_GROUPS_OF_TWO = (
        "FIX x1=R BY local-fixable\n"
        "fixpoint after 1 step(s); space 243 -> 81\n"
    )
    TRAP_LOCAL_GROUPS_OF_TWO = (
        "inconsistent x 1 ESTABLISHED\n"
        "inconsistent x 3 ESTABLISHED\n"
        "implied x 2 ESTABLISHED\n"
        "determined x ESTABLISHED\n"
        "determined y ESTABLISHED\n"
        "dependent x on(y) ESTABLISHED\n"
        "dependent y on(x) ESTABLISHED\n"
        "# instance 149c84c14c64: ESTABLISHED=7\n"
    )

    def assert_refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "above the cap of" in err

    def test_simplify_test_mode(self, capsys):
        path = str(data_path("coloring_isolated.csp"))
        self.assert_refused(capsys, "simplify", path, "--mode", "test", "--max-space", "242")
        code, out, _ = run(capsys, "simplify", path, "--mode", "test", "--max-space", "243")
        assert code == 0
        assert out == self.COLORING_TEST_MODE

    def test_simplify_group_size(self, capsys):
        # Groups of two constraints span x2,x3,x4 and x2,x4,x5: 27 tuples
        # each, of a 243-tuple space.
        path = str(data_path("coloring_isolated.csp"))
        self.assert_refused(capsys, "simplify", path, "--group-size", "2", "--max-space", "26")
        for cap in ("27", "242", str(cli.DEFAULT_MAX_SPACE)):
            code, out, _ = run(
                capsys, "simplify", path, "--group-size", "2", "--max-space", cap
            )
            assert code == 0
            assert out == self.COLORING_GROUPS_OF_TWO

    def test_simplify_production_singletons_unguarded(self, capsys):
        # Per-constraint local checks never enumerate the whole space.
        code, out, _ = run(
            capsys, "simplify", str(data_path("coloring_isolated.csp")), "--max-space", "1"
        )
        assert code == 0
        assert out.endswith("space 243 -> 81\n")

    def test_analyze_local_group_size(self, capsys):
        path = str(data_path("removability_trap.csp"))
        self.assert_refused(
            capsys, "analyze", path, "--method", "local", "--group-size", "2", "--max-space", "8"
        )
        code, out, _ = run(
            capsys, "analyze", path, "--method", "local", "--group-size", "2", "--max-space", "9"
        )
        assert code == 0
        assert out == self.TRAP_LOCAL_GROUPS_OF_TWO

    def test_local_groups_guarded_by_their_own_scope(self, capsys):
        # free20: 2^20 tuples, but the one group of both constraints spans
        # four variables, 16 tuples.
        argv = ("analyze", str(data_path("free20.csp")), "--method", "local",
                "--group-size", "2", "--dep-max", "1", "--all", "--json")
        code, uncapped, _ = run(capsys, *argv)
        assert code == 0
        code, capped, err = run(capsys, *argv, "--max-space", "100000")
        assert (code, err) == (0, "")

        def masked(text):
            payload = json.loads(text)
            for finding in payload["findings"]:
                finding["elapsed_ms"] = None
            return payload

        assert masked(capped) == masked(uncapped)
        code, out, err = run(capsys, *argv, "--max-space", "15")
        assert (code, out) == (2, "")
        assert err == (
            "error: a covering group spans 16 tuples on its scope, above the cap of 15; "
            "local analysis refused (raise --max-space to override)\n"
        )
        # The simplifier's groups are guarded the same way; test mode runs the
        # oracle over the whole space and keeps the whole-space guard.
        path = str(data_path("free20.csp"))
        code, _, _ = run(capsys, "simplify", path, "--group-size", "2", "--max-space", "16")
        assert code == 0
        self.assert_refused(capsys, "simplify", path, "--group-size", "2", "--max-space", "15")
        self.assert_refused(
            capsys, "simplify", path, "--mode", "test", "--group-size", "2",
            "--max-space", "100000",
        )


class TestCheck:
    def test_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "check", str(data_path("coloring_isolated.csp")))
        assert code == 0
        assert "all checks passed" in out

    def test_boolean_fixture_passes(self, capsys):
        code, out, _ = run(capsys, "check", str(data_path("pure_literal.cnf")))
        assert code == 0

    def test_reversed_edge_is_negative_control(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            str(data_path("coloring_isolated.csp")),
            "--reverse-edge",
            "implication-fixability",
        )
        assert code == 1
        assert "violation" in out

    def test_a_simplifier_that_changes_satisfiability_is_caught(
        self, capsys, monkeypatch, coloring
    ):
        _, full = coloring
        dead = full.assign("x2", "R").assign("x3", "R")  # x2 and x3 are adjacent
        faults = {
            "simplification changed satisfiability": SimplificationResult(dead, (), False),
            "simplifier proved a satisfiable instance unsatisfiable": SimplificationResult(
                full, (), True, ("x1", "R", "oracle-inconsistent")
            ),
        }
        for message, result in faults.items():
            monkeypatch.setattr(cli.simplify, "simplify_fixpoint", lambda *a, **k: result)
            code, out, _ = run(capsys, "check", str(data_path("coloring_isolated.csp")))
            assert code == 1 and message in out.splitlines()

    def test_corpus_slice(self, capsys):
        code, out, _ = run(capsys, "check", "--corpus", "seeds=1..40")
        assert code == 0
        assert "all checks passed" in out

    def test_corpus_space_cap_refusal(self, capsys):
        code, _, err = run(capsys, "check", "--corpus", "seeds=1..1", "--max-space", "100")
        assert code == 2
        assert "cap" in err

    def test_oversized_corpus_is_refused_before_generating(self, capsys, monkeypatch):
        # Every corpus instance has the full space, dom ** vars tuples, so
        # the cap refuses the spec before a relation of 3 ** 17 rows is
        # enumerated.
        def refuse(spec):
            raise AssertionError("generated a corpus instance")

        monkeypatch.setattr(cli, "gen_random", refuse)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "check", "--corpus", "vars=17,arity=17,cons=6,seeds=1..1"
        )
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert "search space holds 129140163 tuples, above the cap of 10000000; " in err

    def test_default_corpus_spec_matches_standard_corpus(self):
        from cspstruct.cli import _parse_corpus_spec
        from cspstruct.instances import standard_corpus

        first_default = next(iter(_parse_corpus_spec("default", cli.DEFAULT_MAX_SPACE)))
        assert first_default == next(iter(standard_corpus()))

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csp"
        bad.write_text("csp 1\nvars: x\ndomain: 0\ncon c(x): (0,1)\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "line 4" in err

    def test_check_needs_input(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2


class TestGen:
    def test_coloring_round_trip(self, capsys, tmp_path, coloring):
        target = tmp_path / "coloring_isolated.csp"
        code, _, _ = run(
            capsys,
            "gen",
            "coloring",
            "--nodes",
            "5",
            "--edges",
            "2-3,3-4,2-4,4-5",
            "--colors",
            "3",
            "--out",
            str(target),
        )
        assert code == 0
        assert parse_csp(target.read_text())[0] == coloring[0]

    def test_factoring_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "factoring", "--number", "15", "--ordering")
        assert code == 0
        instance, _ = parse_csp(out)
        assert "x1" in instance.variables

    def test_random_emits_parseable_instance(self, capsys):
        code, out, _ = run(
            capsys,
            "gen",
            "random",
            "--vars",
            "4",
            "--domain-size",
            "3",
            "--constraints",
            "5",
            "--seed",
            "11",
        )
        assert code == 0
        instance, _ = parse_csp(out)
        assert len(instance.constraints) == 5


class TestClassify:
    def test_cnf(self, capsys, tmp_path):
        horn = tmp_path / "horn.cnf"
        horn.write_text("p cnf 2 2\n-1 2 0\n-2 0\n")
        code, out, _ = run(capsys, "classify", str(horn))
        assert code == 0
        assert "primary: horn" in out
        assert "2cnf" in out

    def test_mixed_polarity_cnf_unrestricted(self, capsys):
        code, out, _ = run(capsys, "classify", str(data_path("pure_literal.cnf")))
        assert code == 0
        assert "primary: unrestricted" in out

    def test_non_boolean_input_fails(self, capsys):
        code, _, err = run(capsys, "classify", str(data_path("coloring_isolated.csp")))
        assert code == 2


PARSER_ARGVS = [
    *([command, "-h"] for command in ("analyze", "simplify", "check", "gen", "classify")),
    ["gen", "coloring", "-h"],
    ["check", "--bogus", "x"],
    ["simplify", "x", "--mode", "nope"],
    ["analyze"],
    ["gen", "coloring"],
    ["gen", "nope"],
    ["bogus"],
    ["-h"],
    [],
]


class TestParser:
    """A command fills in only its own subcommand's arguments and asks for
    the terminal width once; what argparse prints and returns is the same
    as with every subcommand filled in by argparse's own formatter."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        captured = capsys.readouterr()
        return exit_info.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", PARSER_ARGVS)
    def test_usage_and_errors_match_the_full_parser(self, capsys, argv):
        full = self.outcome(capsys, cli._build_parser([]).parse_args, argv)
        assert self.outcome(capsys, main, argv) == full
        assert full[0] in (0, 2) and (full[1] or full[2])

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", PARSER_ARGVS)
    def test_same_bytes_at_any_terminal_width(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        full = self.outcome(capsys, cli._build_parser([]).parse_args, argv)
        assert self.outcome(capsys, main, argv) == full

    def test_the_width_is_honoured(self, capsys, monkeypatch):
        helps = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            helps.append(self.outcome(capsys, main, ["check", "-h"])[1])
        narrow, wide = (max(map(len, text.splitlines())) for text in helps)
        assert narrow < wide


class TestExitCodes:
    """2 for anything the input or the options got wrong, 3 for faults."""

    @pytest.mark.parametrize("command", ["analyze", "simplify", "check"])
    def test_group_size_zero_is_usage(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(data_path("coloring_isolated.csp")), "--group-size", "0"])
        assert exit_info.value.code == 2
        assert "--group-size: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("analyze", "--dep-max", "-1"), "--dep-max: must be at least 0"),
            (("check", "--dep-max", "-1"), "--dep-max: must be at least 0"),
            (("analyze", "--max-space", "-1"), "--max-space: must be at least 1"),
            (("analyze", "--max-space", "0"), "--max-space: must be at least 1"),
            (("simplify", "--max-space", "0"), "--max-space: must be at least 1"),
            (("check", "--max-space", "-1"), "--max-space: must be at least 1"),
        ],
    )
    def test_work_disabling_option_values_are_usage(self, capsys, argv, message):
        # A negative --dep-max used to skip every dependence instantiation
        # and pass, and a --max-space below 1 refused every space.
        command, *options = argv
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(data_path("triple_tables.csp")), *options])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_zero_dep_max_still_checks(self, capsys):
        code, out, _ = run(capsys, "check", str(data_path("triple_tables.csp")), "--dep-max", "0")
        assert (code, out) == (0, "all checks passed\n")

    def test_formula_without_variables(self, capsys, tmp_path):
        empty = tmp_path / "empty.cnf"
        empty.write_text("p cnf 0 0\n")
        for command in ("analyze", "simplify", "check"):
            code, out, err = run(capsys, command, str(empty))
            assert (code, out) == (2, "")
            assert err == f"error: {empty}: cannot expand a formula without variables\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--corpus", "seeds=a..b"),
            ("check", "--corpus", "vars=0,seeds=1..2"),
            ("check", "--corpus", "colour=3"),
            ("check", str(data_path("coloring_isolated.csp")), "--reverse-edge", "nope"),
            ("gen", "coloring", "--nodes", "0"),
            ("gen", "coloring", "--nodes", "2", "--edges", "1-x"),
            ("gen", "factoring", "--number", "3"),
            ("gen", "random", "--vars", "2", "--domain-size", "2", "--constraints", "1",
             "--seed", "1", "--density", "2"),
            ("check", "--corpus", "seeds=3..1"),
            ("check", "--corpus", "seeds=3..1", "--reverse-edge", "implication-fixability"),
        ],
    )
    def test_bad_option_values(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["analyze", "simplify", "check", "classify"])
    def test_undecodable_file_is_usage(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.cnf"
        path.write_bytes("p cnf 1 1\n1 0\n".encode("utf-16"))
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csp"
        for argv in (
            ("simplify", str(data_path("coloring_isolated.csp")), "--out", str(target)),
            ("gen", "coloring", "--nodes", "2", "--out", str(target)),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith(f"error: cannot write {target}")

    @pytest.mark.parametrize("fault", [ValueError, KeyError, RuntimeError])
    def test_fault_is_internal_error(self, capsys, monkeypatch, tmp_path, fault):
        def broken(*args):
            raise fault("engine fault")

        horn = tmp_path / "horn.cnf"
        horn.write_text("p cnf 2 2\n-1 2 0\n1 0\n")
        monkeypatch.setattr(boolean, "tract_check", broken)
        code, out, err = run(capsys, "analyze", str(horn), "--method", "tractable")
        assert (code, out) == (3, "")
        assert err.startswith(f"internal error: {fault.__name__}: ")
        assert "engine fault" in err.splitlines()[0]
        assert "Traceback" in err

    @pytest.mark.parametrize("options", [(), ("--all", "--json")])
    def test_closed_stdout_is_not_a_fault(self, options):
        # The reader closed the pipe before the command wrote a byte: exit
        # 128 + SIGPIPE, quietly, whether the write happens in the command
        # (a large report) or at its final flush (a short one).
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        argv = ["analyze", str(data_path("coloring_isolated.csp")), *options]
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cspstruct.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")
