from cspstruct.cli import main
from cspstruct.instances import parse_csp
from cspstruct.report import AnalysisReport, Finding, from_json, make_report, to_json

from conftest import data_path


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
        path = str(data_path("coloring_isolated.csp"))
        self.assert_refused(capsys, "simplify", path, "--group-size", "2", "--max-space", "242")
        code, out, _ = run(capsys, "simplify", path, "--group-size", "2")
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
        code, out, _ = run(capsys, "analyze", path, "--method", "local", "--group-size", "2")
        assert code == 0
        assert out == self.TRAP_LOCAL_GROUPS_OF_TWO


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

    def test_corpus_slice(self, capsys):
        code, out, _ = run(capsys, "check", "--corpus", "seeds=1..40")
        assert code == 0
        assert "all checks passed" in out

    def test_corpus_space_cap_refusal(self, capsys):
        code, _, err = run(capsys, "check", "--corpus", "seeds=1..1", "--max-space", "100")
        assert code == 2
        assert "cap" in err

    def test_default_corpus_spec_matches_standard_corpus(self):
        from cspstruct.cli import _parse_corpus_spec
        from cspstruct.instances import standard_corpus

        first_default = next(iter(_parse_corpus_spec("default")))
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
