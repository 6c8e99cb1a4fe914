import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import oracle
from cspstruct.boolean import AffineEquation, SchaeferClass, classify_schaefer
from cspstruct.instances import (
    FactoringSpec,
    Graph,
    ParseError,
    RandomSpec,
    emit_csp,
    emit_dimacs,
    factoring_space,
    gen_coloring,
    gen_factoring,
    gen_random,
    parse_csp,
    parse_dimacs,
)
from cspstruct.model import CspInstance, SearchSpace
from cspstruct.oracle import PropertyQuery

from conftest import (
    ISOLATED_NODE_GRAPH,
    boolean_corpus,
    data_path,
    decode_factors,
    encode_solution,
    gen_random_boolean,
    instances_with_spaces,
    is_solution,
    standard_corpus,
    table_solutions,
)


class TestCspRoundTrip:
    @pytest.mark.parametrize(
        "name", ["coloring_isolated.csp", "boolean_backbone.csp", "triple_tables.csp", "removability_trap.csp"]
    )
    def test_fixture_round_trip(self, name):
        text = data_path(name).read_text()
        instance, space = parse_csp(text)
        assert parse_csp(emit_csp(instance, space)) == (instance, space)

    def test_random_round_trip(self):
        for seed in range(1, 101):
            instance, space = gen_random(RandomSpec(4, 3, 5, 2, 0.5, seed))
            space = space.remove(instance.variables[0], instance.domain[0])
            assert parse_csp(emit_csp(instance, space)) == (instance, space)

    def test_active_line_restricts_space(self):
        text = "csp 1\nvars: x1\ndomain: R G B\nactive: x1 = R G\n"
        _, space = parse_csp(text)
        assert space.values("x1") == ("R", "G")

    def test_empty_relation_round_trip(self):
        text = "csp 1\nvars: x\ndomain: 0 1\ncon dead(x):\n"
        instance, space = parse_csp(text)
        assert instance.constraints[0].rows == frozenset()
        assert parse_csp(emit_csp(instance, space)) == (instance, space)

    def test_comments_are_preserved_semantically(self):
        instance, _ = parse_csp(data_path("coloring_isolated.csp").read_text())
        text = emit_csp(instance, comments=("regenerated", "two lines"))
        assert text.startswith("# regenerated\n# two lines\n")
        assert parse_csp(text)[0] == instance


class TestTupleWhitespace:
    COMPACT = "csp 1\nvars: x y\ndomain: 0 1 2\ncon c(x,y): (0,1) (1,2) (2,0)\n"

    @pytest.mark.parametrize(
        "tuples",
        [
            "( 0 , 1 ) ( 1 , 2 ) ( 2 , 0 )",
            "(0,\t1)\t(1 ,2)  (2,0 )",
            "(0,1)  (1,2)  (2,0)",
            "(0,1)\t(1,2) (2,0) (0,1)",
        ],
    )
    def test_spacing_inside_and_between_tuples(self, tuples):
        text = self.COMPACT.replace("(0,1) (1,2) (2,0)", tuples)
        assert parse_csp(text) == parse_csp(self.COMPACT)


class TestCanonicalTupleSplit:
    """A tuple list in emit_csp's layout splits on ") (" and any other text
    takes the regex; both give the same instance or the same error.  The
    expected outcomes were recorded from the regex alone."""

    HEAD = "csp 1\nvars: x y\ndomain: 0 1\ncon c(x,y): "

    @pytest.mark.parametrize(
        "tuples, expected",
        [
            ("(0,1)(1,0)", {("0", "1"), ("1", "0")}),
            ("(0,1) ((1,0))", "constraint 'c' has stray text '()'"),
            ("((0,1)) (1,0)", "constraint 'c' has stray text '()'"),
            ("(0,1) (1,0) )", "constraint 'c' has stray text ')'"),
            ("( (0,1) (1,0)", "constraint 'c' has stray text '('"),
            ("(0,1) x (1,0)", "constraint 'c' has stray text 'x'"),
            ("()", "constraint 'c': tuple '' does not match arity 2"),
            ("(0,1) () (1,0)", "constraint 'c': tuple '' does not match arity 2"),
            ("", set()),
        ],
    )
    def test_edges_of_the_parenthesis_count(self, tuples, expected):
        text = self.HEAD + tuples + "\n"
        if isinstance(expected, set):
            assert parse_csp(text)[0].constraints[0].rows == expected
        else:
            with pytest.raises(ParseError) as error:
                parse_csp(text)
            assert str(error.value) == f"line 4: {expected}"

    @settings(max_examples=100, deadline=None)
    @given(
        instances_with_spaces().filter(lambda case: case[0].variables),
        st.sampled_from([")\t(", ")  ("]),
    )
    def test_emitted_text_parses_alike_with_other_gaps(self, case, gap):
        text = emit_csp(*case)
        assert parse_csp(text.replace(") (", gap)) == parse_csp(text) == case


class TestParseErrors:
    def test_arity_mismatch_names_line(self):
        text = "csp 1\nvars: x y\ndomain: 0 1\ncon c(x,y): (0,1) (1)\n"
        with pytest.raises(ParseError, match="line 4.*does not match"):
            parse_csp(text)

    @pytest.mark.parametrize(
        "tuples, message",
        [
            ("(0,1) (1) (7,0)", "tuple '1' does not match arity 2"),
            ("(0,1) (7,0) (1)", "value '7' is outside the domain"),
            ("(0,1) (0, 8) (9,0)", "value '8' is outside the domain"),
            ("(0,1) () (1,1)", "tuple '' does not match arity 2"),
            ("(0,1) ( ) (1,1)", "tuple ' ' does not match arity 2"),
            # As many values as two good tuples hold, split wrongly.
            ("(0,1,1) (0)", "tuple '0,1,1' does not match arity 2"),
            ("(0,1) ( 1 , 7 )", "value '7' is outside the domain"),
        ],
    )
    def test_first_bad_tuple_in_text_order_is_named(self, tuples, message):
        text = f"csp 1\nvars: x y\ndomain: 0 1\ncon c(x,y): {tuples}\n"
        with pytest.raises(ParseError) as error:
            parse_csp(text)
        assert str(error.value) == f"line 4: constraint 'c': {message}"

    def test_a_bad_value_is_named_before_a_later_bad_line(self):
        text = "csp 1\nvars: x\ndomain: 0 1\ncon c(x): (0) (2)\nnonsense\n"
        with pytest.raises(ParseError) as error:
            parse_csp(text)
        assert str(error.value) == "line 4: constraint 'c': value '2' is outside the domain"
        assert error.value.line == 4

    def test_a_unary_empty_tuple_is_an_arity_error(self):
        text = "csp 1\nvars: x\ndomain: 0 1\ncon c(x): (0) ()\n"
        with pytest.raises(ParseError) as error:
            parse_csp(text)
        assert str(error.value) == "line 4: constraint 'c': tuple '' does not match arity 1"

    def test_parsed_instance_equals_a_checked_build(self):
        text = "csp 1\nvars: x y z\ndomain: 0 1 2\ncon c(z,x): (0,1) (2,2)\ncon d(y): (1)\n"
        inst, _ = parse_csp(text)
        built = CspInstance(inst.variables, inst.domain, inst.constraints)
        assert built == inst and hash(built) == hash(inst)
        assert built.scope_positions == inst.scope_positions == ((2, 0), (1,))
        assert built.var_index("z") == inst.var_index("z") == 2
        # Built by hand, the same constraints still have every value checked.
        with pytest.raises(ValueError, match="uses value '2' outside the domain"):
            CspInstance(inst.variables, ("0", "1"), inst.constraints)

    def test_arity_error_wins_over_domain_error_within_a_tuple(self):
        text = "csp 1\nvars: x y\ndomain: 0 1\ncon c(x,y): (0,1) (7,8,9)\n"
        with pytest.raises(ParseError) as error:
            parse_csp(text)
        assert str(error.value) == (
            "line 4: constraint 'c': tuple '7,8,9' does not match arity 2"
        )

    def test_unknown_scope_variable(self):
        text = "csp 1\nvars: x\ndomain: 0\ncon c(z): (0)\n"
        with pytest.raises(ParseError, match="unknown variable"):
            parse_csp(text)

    def test_value_outside_domain(self):
        text = "csp 1\nvars: x\ndomain: 0\ncon c(x): (7)\n"
        with pytest.raises(ParseError, match="outside the domain"):
            parse_csp(text)

    def test_empty_active_set(self):
        text = "csp 1\nvars: x\ndomain: 0\nactive: x =\n"
        with pytest.raises(ParseError, match="empty active set"):
            parse_csp(text)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_csp("vars: x\ndomain: 0\n")

    def test_stray_text_in_tuples(self):
        text = "csp 1\nvars: x\ndomain: 0\ncon c(x): (0) junk\n"
        with pytest.raises(ParseError, match="stray"):
            parse_csp(text)


class TestDimacs:
    def test_pure_literal_file(self, pure_literal_cnf):
        assert pure_literal_cnf.variables == ("x", "y", "z")
        assert len(pure_literal_cnf.clauses) == 3

    def test_empty_clause_line(self):
        formula = parse_dimacs("p cnf 1 1\n0\n")
        assert formula.clauses[0].is_empty

    def test_tautology_dropped(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            formula = parse_dimacs("p cnf 1 2\n1 -1 0\n1 0\n")
        assert len(formula.clauses) == 1
        assert "tautological" in caplog.text

    def test_out_of_range_literal(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 2 clauses"):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_xnf_section(self):
        formula = parse_dimacs("p xnf 3 2\n1 2 = 1\n2 3 = 0\n")
        assert len(formula.equations) == 2
        assert classify_schaefer(formula).primary is SchaeferClass.AFFINE

    @pytest.mark.parametrize("equation", ["1 1 = 1", "1 1 2 = 1"])
    def test_repeated_equation_index_is_refused(self, equation):
        # x ^ x is 0, so reading a repeat as one occurrence changes the
        # equation: 1 1 = 1 would read as v1 = 1, where it says 0 = 1.
        with pytest.raises(ParseError) as error:
            parse_dimacs(f"p xnf 2 1\n{equation}\n")
        assert str(error.value) == "line 2: equation repeats index 1"
        assert error.value.line == 2
        (parsed,) = parse_dimacs("p xnf 2 1\n1 2 = 1\n").equations
        assert parsed == AffineEquation(frozenset({"v1", "v2"}), True)

    def test_combined_sections_round_trip(self):
        text = "p cnf 3 1\n1 -2 0\np xnf 3 1\n2 3 = 1\n"
        formula = parse_dimacs(text)
        assert parse_dimacs(emit_dimacs(formula)) == formula

    def test_named_variables_round_trip(self, pure_literal_cnf):
        assert parse_dimacs(emit_dimacs(pure_literal_cnf)) == pure_literal_cnf


class TestColoring:
    def test_reproduces_the_fixture_exactly(self, coloring):
        instance, _ = coloring
        generated = gen_coloring(ISOLATED_NODE_GRAPH, 3)
        assert generated == instance
        assert generated.constraints[0].rows == {
            ("R", "G"), ("R", "B"), ("G", "R"), ("G", "B"), ("B", "R"), ("B", "G"),
        }
        assert [c.scope for c in generated.constraints] == [
            ("x2", "x3"), ("x3", "x4"), ("x2", "x4"), ("x4", "x5"),
        ]

    def test_edgeless_graph_everything_irrelevant(self):
        instance = gen_coloring(Graph(3, ()), 2)
        assert instance.constraints == ()
        table = oracle.solution_table(instance, SearchSpace.full(instance))
        for x in instance.variables:
            assert oracle.evaluate(table, PropertyQuery("irrelevant", x)).holds

    def test_triangle_two_colors_unsat(self):
        instance = gen_coloring(Graph(3, ((1, 2), (2, 3), (1, 3))), 2)
        assert not oracle.satisfiable(instance, SearchSpace.full(instance))

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((1, 1),))
        with pytest.raises(ValueError, match="node range"):
            Graph(2, ((1, 3),))


class TestFactoring:
    def test_z15_with_ordering_unique(self):
        spec = FactoringSpec(15, 2, ordering=True)
        instance = gen_factoring(spec)
        space = factoring_space(spec)
        solutions = table_solutions(instance, space)
        assert len(solutions) == 1
        assert decode_factors(spec, solutions[0]) == (3, 5)

    def test_z15_without_ordering_two_solutions(self):
        spec = FactoringSpec(15, 2)
        instance = gen_factoring(spec)
        sols = table_solutions(instance, factoring_space(spec))
        assert sorted(decode_factors(spec, t) for t in sols) == [(3, 5), (5, 3)]

    @pytest.mark.parametrize("z", [6, 15, 21, 35])
    def test_solutions_always_factor(self, z):
        spec = FactoringSpec(z, 2)
        instance = gen_factoring(spec)
        for t in table_solutions(instance, factoring_space(spec)):
            x, y = decode_factors(spec, t)
            assert x * y == z and x != 1 and y != 1

    def test_tight_space_loses_no_solution(self):
        # Compare against the space induced by the unary bounds alone.
        spec = FactoringSpec(6, 2)
        instance = gen_factoring(spec)
        broad = SearchSpace.full(instance)
        tight = factoring_space(spec)
        broad_rows = {
            tuple(t[v] for v in instance.variables)
            for t in table_solutions(instance, broad)
        }
        tight_rows = {
            tuple(t[v] for v in instance.variables)
            for t in table_solutions(instance, tight)
        }
        assert broad_rows == tight_rows

    def test_carry_dependence_on_digits(self):
        spec = FactoringSpec(15, 2)
        instance = gen_factoring(spec)
        space = factoring_space(spec)
        table = oracle.solution_table(instance, space)
        digits = tuple(v for v in instance.variables if v[0] in "xy")
        for carry in (v for v in instance.variables if v.startswith("c")):
            assert oracle.evaluate(table, PropertyQuery("dependent", carry, (), digits)).holds

    def test_desk_scale_cap(self):
        with pytest.raises(ValueError, match="desk-scale"):
            gen_factoring(FactoringSpec(1 << 10, 2))
        with pytest.raises(ValueError, match="at least 4"):
            FactoringSpec(3)

    def test_split_columns_validated_by_known_factorization(self):
        spec = FactoringSpec(143, 2)  # 8 digits: columns 7 and 8 split
        instance = gen_factoring(spec)
        assert any(v.startswith("s") for v in instance.variables)
        assignment = encode_solution(spec, 11, 13)
        assert is_solution(instance, assignment)
        assignment = encode_solution(spec, 13, 11)
        assert is_solution(instance, assignment)

    def test_encode_rejects_non_factorization(self):
        with pytest.raises(ValueError, match="!="):
            encode_solution(FactoringSpec(15, 2), 3, 4)

    def test_carry_bound_formula(self):
        assert FactoringSpec(15, 2).carry_bound == 2  # (2-1)^2 * 4 // 2
        assert FactoringSpec(35, 2).carry_bound == 3  # 6 digits


class TestRandomGeneration:
    def test_determinism(self):
        spec = RandomSpec(5, 3, 6, 2, 0.5, seed=1)
        assert gen_random(spec) == gen_random(spec)

    def test_density_one_gives_full_relations(self):
        instance, space = gen_random(RandomSpec(4, 2, 5, 2, 1.0, seed=3))
        for c in instance.constraints:
            assert len(c.rows) == len(instance.domain) ** len(c.scope)
        table = oracle.solution_table(instance, space)
        for x in instance.variables:
            assert oracle.evaluate(table, PropertyQuery("irrelevant", x)).holds

    def test_standard_corpus_shape(self):
        instance, space = next(iter(standard_corpus()))
        assert len(instance.variables) == 5
        assert len(instance.domain) == 3
        assert len(instance.constraints) == 6
        assert all(len(c.scope) <= 2 for c in instance.constraints)
        assert space.size() == 243

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomSpec(0, 3, 6)
        with pytest.raises(ValueError):
            RandomSpec(5, 3, 6, density=0.0)


class TestRandomBoolean:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("horn", SchaeferClass.HORN),
            ("dual-horn", SchaeferClass.DUAL_HORN),
            ("2cnf", SchaeferClass.TWO_CNF),
            ("affine", SchaeferClass.AFFINE),
        ],
    )
    def test_corpus_members_are_in_class(self, kind, cls):
        for formula in itertools.islice(boolean_corpus(kind), 40):
            assert cls in classify_schaefer(formula).applicable

    def test_determinism(self):
        assert gen_random_boolean("horn", 6, 9, 4) == gen_random_boolean("horn", 6, 9, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown boolean kind"):
            gen_random_boolean("xor3", 5, 5, 1)
