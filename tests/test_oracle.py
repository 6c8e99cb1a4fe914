import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import oracle
from cspstruct.boolean import to_extensional
from cspstruct.model import (
    Constraint,
    CspInstance,
    SearchSpace,
)
from cspstruct.oracle import (
    PropertyQuery,
    all_queries,
    evaluate,
    satisfiable,
    solution_table,
)

from conftest import (
    edge_instances,
    instances_with_spaces,
    is_solution,
    oracle_rows,
    reference_solutions,
    reference_verdict,
    standard_corpus,
    table_solutions,
)


def unsat_instance():
    dead = Constraint("dead", ("a",), [])
    return CspInstance(("a", "b"), ("0", "1"), (dead,))


def free_instance():
    return CspInstance(("a", "b"), ("0", "1"))


def independent_coloring_count():
    # Proper 3-colorings of the subgraph {2,3,4,5} with edges
    # (2,3),(3,4),(2,4),(4,5), counted by direct enumeration.
    count = 0
    for combo in itertools.product("RGB", repeat=4):
        c2, c3, c4, c5 = combo
        if c2 != c3 and c3 != c4 and c2 != c4 and c4 != c5:
            count += 1
    return count


class TestEnumerateSolutions:
    def test_coloring_count_against_independent_enumeration(self, coloring):
        inst, space = coloring
        sols = table_solutions(inst, space)
        assert len(sols) == 3 * independent_coloring_count() == 36
        assert len(solution_table(inst, space).rows) == 36

    def test_no_constraints_yields_whole_space(self):
        inst = free_instance()
        space = SearchSpace.full(inst)
        assert len(table_solutions(inst, space)) == 4

    def test_backbone_values_in_every_solution(self, backbone):
        inst, space = backbone
        for t in table_solutions(inst, space):
            assert t["x"] == t["y"] == t["q"] == t["r"] == "true"


def assert_enumerator_matches_product(inst, space):
    """Table rows, the assignments made of them and satisfiability all agree
    with the plain product scan, order included."""
    expected = [tuple(t[v] for v in inst.variables) for t in reference_solutions(inst, space)]
    assert list(solution_table(inst, space).rows) == expected
    streamed = table_solutions(inst, space)
    assert [tuple(t[v] for v in inst.variables) for t in streamed] == expected
    assert all(tuple(t) == inst.variables for t in streamed)
    assert satisfiable(inst, space) is bool(expected)


class TestEnumerator:
    @settings(max_examples=300, deadline=None)
    @given(instances_with_spaces())
    def test_matches_product_reference(self, case):
        assert_enumerator_matches_product(*case)

    def test_zero_variable_instance_has_one_empty_solution(self):
        inst = CspInstance((), ("0",))
        space = SearchSpace.full(inst)
        assert_enumerator_matches_product(inst, space)
        assert solution_table(inst, space).rows == ((),)

    def test_out_of_order_scopes_unary_and_empty_relations(self):
        lt = Constraint("lt", ("c", "a"), [("1", "0"), ("2", "0"), ("2", "1")])
        odd = Constraint("odd", ("b",), [("1",)])
        wide = Constraint(
            "wide",
            ("c", "b", "a"),
            [r for r in itertools.product("012", repeat=3) if r[0] != r[2]],
        )
        inst = CspInstance(("a", "b", "c"), ("0", "1", "2"), (lt, odd, wide))
        space = SearchSpace.full(inst)
        assert_enumerator_matches_product(inst, space)
        assert_enumerator_matches_product(inst, space.remove("c", "2"))
        dead = Constraint("dead", ("c",), [])
        assert_enumerator_matches_product(inst._replace(constraints=(lt, dead)), space)

    def test_restricted_and_fully_pinned_spaces(self, coloring, removability_trap):
        inst, space = coloring
        restricted = space.remove("x2", "R").remove("x4", "B")
        assert_enumerator_matches_product(inst, restricted)
        for colors in ("RGBRG", "RGBGG"):  # one solution, then none
            pinned = space
            for x, a in zip(inst.variables, colors):
                pinned = pinned.assign(x, a)
            assert_enumerator_matches_product(inst, pinned)
        inst, space = removability_trap
        assert_enumerator_matches_product(inst, space.assign("x", "2").assign("y", "2"))

    def test_pruning_finds_the_one_solution_behind_a_dead_first_value(self):
        # The product scan meets 2**39 rows with x1=0 before any solution;
        # the enumerator rejects x1=0 at once and follows the chain.
        names = tuple(f"x{i}" for i in range(1, 41))
        not_zero = Constraint("not0", ("x1",), [("1",)])
        equal = [("0", "0"), ("1", "1")]
        chain = tuple(
            Constraint(f"eq{i}", (names[i], names[i + 1]), equal) for i in range(39)
        )
        inst = CspInstance(names, ("0", "1"), (not_zero, *chain))
        space = SearchSpace.full(inst)
        assert satisfiable(inst, space)
        assert solution_table(inst, space).rows == (("1",) * 40,)


class TestColoringProperties:
    def test_isolated_node_claims(self, coloring):
        tbl = solution_table(*coloring)
        assert evaluate(tbl, PropertyQuery("fixable", "x1", ("R",))).holds
        assert evaluate(tbl, PropertyQuery("substitutable", "x1", ("R", "G"))).holds
        assert evaluate(tbl, PropertyQuery("interchangeable", "x1", ("R", "G"))).holds
        assert evaluate(tbl, PropertyQuery("removable", "x1", ("G",))).holds
        assert evaluate(tbl, PropertyQuery("irrelevant", "x1")).holds
        assert evaluate(tbl, PropertyQuery("removable", "x5", ("G",))).holds
        assert not evaluate(tbl, PropertyQuery("determined", "x1")).holds
        assert not evaluate(tbl, PropertyQuery("irrelevant", "x4")).holds

    def test_reassigning_x1_keeps_solutions(self, coloring):
        inst, space = coloring
        for t in table_solutions(inst, space):
            assert is_solution(inst, {**t, "x1": "G"})


class TestBackboneProperties:
    def test_all_thirteen(self, backbone):
        tbl = solution_table(*backbone)
        assert evaluate(tbl, PropertyQuery("inconsistent", "x", ("false",))).holds
        assert evaluate(tbl, PropertyQuery("inconsistent", "y", ("false",))).holds
        assert evaluate(tbl, PropertyQuery("fixable", "x", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("fixable", "q", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("fixable", "r", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("implied", "x", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("implied", "y", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("implied", "q", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("implied", "r", ("true",))).holds
        assert evaluate(tbl, PropertyQuery("determined", "y")).holds
        assert evaluate(tbl, PropertyQuery("dependent", "p", (), ("z", "w"))).holds
        assert evaluate(tbl, PropertyQuery("dependent", "q", (), ("z", "y"))).holds
        assert evaluate(tbl, PropertyQuery("dependent", "r", (), ("z", "y"))).holds


class TestVacuity:
    def test_all_nine_hold_on_unsat(self):
        inst = unsat_instance()
        space = SearchSpace.full(inst)
        assert not satisfiable(inst, space)
        tbl = solution_table(inst, space)
        for x in inst.variables:
            assert evaluate(tbl, PropertyQuery("determined", x)).holds
            assert evaluate(tbl, PropertyQuery("irrelevant", x)).holds
            for a in inst.domain:
                assert evaluate(tbl, PropertyQuery("fixable", x, (a,))).holds
                assert evaluate(tbl, PropertyQuery("removable", x, (a,))).holds
                assert evaluate(tbl, PropertyQuery("inconsistent", x, (a,))).holds
                assert evaluate(tbl, PropertyQuery("implied", x, (a,))).holds
                for b in inst.domain:
                    assert evaluate(tbl, PropertyQuery("substitutable", x, (a, b))).holds
                    assert evaluate(tbl, PropertyQuery("interchangeable", x, (a, b))).holds
        assert evaluate(tbl, PropertyQuery("dependent", "b", (), ("a",))).holds

    def test_implied_everywhere_simultaneously(self):
        inst = unsat_instance()
        tbl = solution_table(inst, SearchSpace.full(inst))
        assert all(evaluate(tbl, PropertyQuery("implied", "a", (a,))).holds for a in inst.domain)


class TestFreeInstance:
    def test_every_tuple_is_solution(self):
        inst = free_instance()
        tbl = solution_table(inst, SearchSpace.full(inst))
        for x in inst.variables:
            assert evaluate(tbl, PropertyQuery("irrelevant", x)).holds
            for a in inst.domain:
                assert not evaluate(tbl, PropertyQuery("inconsistent", x, (a,))).holds


class TestRemovable:
    def test_pinned_equality_counterexample(self, removability_trap):
        inst, space = removability_trap
        core = inst._replace(constraints=inst.constraints[:2])  # x<=y and x>=y only
        tbl = solution_table(core, space)
        assert not evaluate(tbl, PropertyQuery("removable", "x", ("2",))).holds

    def test_single_active_value_requires_inconsistency(self):
        inst = free_instance()
        space = SearchSpace.over(inst, {"a": ["0"]})
        # a=0 appears in solutions and no alternative exists
        tbl = solution_table(inst, space)
        assert not evaluate(tbl, PropertyQuery("removable", "a", ("0",))).holds
        dead = unsat_instance()
        space = SearchSpace.over(dead, {"a": ["0"]})
        tbl = solution_table(dead, space)
        assert evaluate(tbl, PropertyQuery("removable", "a", ("0",))).holds

    def test_identity_substitution_always_holds(self, triple_tables):
        inst, space = triple_tables
        tbl = solution_table(inst, space)
        for x in inst.variables:
            for a in inst.domain:
                assert evaluate(tbl, PropertyQuery("substitutable", x, (a, a))).holds


class TestDependence:
    def test_substitutable_across_tables(self, triple_tables):
        tbl = solution_table(*triple_tables)
        assert evaluate(tbl, PropertyQuery("substitutable", "x", ("1", "2"))).holds

    def test_unique_solution_instance_fully_dependent(self, removability_trap):
        inst, space = removability_trap
        tbl = solution_table(inst, space)
        assert len(tbl.rows) == 1
        for y in inst.variables:
            rest = tuple(v for v in inst.variables if v != y)
            assert evaluate(tbl, PropertyQuery("dependent", y, (), rest)).holds


class TestImpliedInconsistentLink:
    def test_on_corpus_sample(self, corpus):
        for inst, space in corpus[:60]:
            tbl = solution_table(inst, space)
            for x in inst.variables:
                for a in space.values(x):
                    lhs = evaluate(tbl, PropertyQuery("implied", x, (a,))).holds
                    rhs = all(
                        evaluate(tbl, PropertyQuery("inconsistent", x, (b,))).holds
                        for b in space.values(x)
                        if b != a
                    )
                    assert lhs == rhs


class TestMonotonicity:
    def test_restricting_other_variables_preserves_inconsistency(self, corpus):
        rng = random.Random(7)
        for inst, space in corpus[:60]:
            x = inst.variables[0]
            a = inst.domain[0]
            query = PropertyQuery("inconsistent", x, (a,))
            if not evaluate(solution_table(inst, space), query).holds:
                continue
            y = rng.choice([v for v in inst.variables if v != x])
            keep = rng.sample(space.values(y), 2)
            narrowed = SearchSpace.over(inst, {y: keep})
            assert evaluate(solution_table(inst, narrowed), query).holds


class TestEvidence:
    def test_counterexample_is_lexicographically_least(self, coloring):
        inst, space = coloring
        verdict = evaluate(solution_table(inst, space), PropertyQuery("irrelevant", "x4"))
        assert not verdict.holds
        first_solution = table_solutions(inst, space)[0]
        assert verdict.counterexamples[0] == first_solution

    def test_dependent_counterexample_is_a_pair(self, coloring):
        inst, space = coloring
        query = PropertyQuery("dependent", "x5", (), ("x2",))
        verdict = evaluate(solution_table(inst, space), query)
        assert not verdict.holds
        assert len(verdict.counterexamples) == 2

    def test_every_kind_matches_definition_reference(self, corpus):
        rng = random.Random(11)
        for inst, full in corpus[:40]:
            narrowed = full
            for x in rng.sample(inst.variables, 2):
                if len(narrowed.values(x)) > 1:
                    narrowed = narrowed.remove(x, rng.choice(narrowed.values(x)))
            for space in (full, narrowed):
                solutions = reference_solutions(inst, space)
                tbl = solution_table(inst, space)
                for query in all_queries(inst, space, dep_max=2):
                    verdict = evaluate(tbl, query)
                    expected = reference_verdict(inst, space, solutions, query)
                    assert (verdict.holds, verdict.counterexamples) == expected, query


def signature_keys(active):
    """Every (kind, values) a variable's signature answers: each kind but
    dependence, over every active value and every ordered pair, a == b too."""
    keys = [("determined", ()), ("irrelevant", ())]
    for a in active:
        keys += [(kind, (a,)) for kind in ("fixable", "removable", "inconsistent", "implied")]
        for b in active:
            keys += [("substitutable", (a, b)), ("interchangeable", (a, b))]
    return keys


def signature_cases():
    """Tables the signature must get right at the edges: empty, one active
    value, an active value with no support, a variable in no constraint."""
    less = Constraint("less", ("a", "b"), [("0", "1"), ("0", "2"), ("1", "2")])
    inst = CspInstance(("a", "b", "c"), ("0", "1", "2", "3"), (less,))
    full = SearchSpace.full(inst)
    return [
        (unsat_instance(), SearchSpace.full(unsat_instance())),
        (free_instance(), SearchSpace.full(free_instance())),
        (free_instance(), SearchSpace.full(free_instance()).assign("a", "1")),
        (inst, full),  # a=2, a=3, b=0 and b=3 have no support; c is free
        (inst, full.assign("c", "3")),
        (inst, full.assign("a", "0")),
        (inst, full.remove("b", "2")),
    ]


def assert_signature_matches_references(inst, space):
    """Every answer of every variable's signature equals the falsifier scan
    on the table and the product-enumerating reference."""
    solutions = reference_solutions(inst, space)
    tbl = solution_table(inst, space)
    for x in inst.variables:
        answers = oracle.answer_row(solution_table(inst, space), x)
        assert sorted(answers) == sorted(signature_keys(space.values(x)))
        for (kind, values), holds in answers.items():
            query = PropertyQuery(kind, x, values)
            scanned = next(oracle._falsifying_rows(tbl, query), None) is None
            assert holds == scanned == reference_verdict(inst, space, solutions, query)[0], (
                query.describe(), space
            )


def assert_asks_match_references(inst, space, rng):
    """Each value and variable query, asked through ``evaluate`` in a
    shuffled order on a fresh table: every verdict (counterexample
    included) equals the product-enumerating reference, and the first ask
    about a variable builds its answer row."""
    solutions = reference_solutions(inst, space)
    queries = [
        PropertyQuery(kind, x, values)
        for x in inst.variables
        for kind, values in signature_keys(space.values(x))
    ]
    rng.shuffle(queries)
    tbl = solution_table(inst, space)
    for query in queries:
        verdict = evaluate(tbl, query)
        expected = reference_verdict(inst, space, solutions, query)
        assert (verdict.holds, verdict.counterexamples) == expected, query.describe()
        assert query.variable in tbl.answers, query.describe()


class TestSignatureAnswers:
    @settings(max_examples=200, deadline=None)
    @given(instances_with_spaces())
    def test_every_answer_matches_scan_and_product(self, case):
        assert_signature_matches_references(*case)

    @settings(max_examples=100, deadline=None)
    @given(instances_with_spaces(), st.randoms(use_true_random=False))
    def test_first_and_later_asks_match_product(self, case, rng):
        assert_asks_match_references(*case, rng)

    def test_edge_tables(self):
        rng = random.Random(5)
        for inst, space in signature_cases():
            assert_signature_matches_references(inst, space)
            assert_asks_match_references(inst, space, rng)

    def test_empty_table_holds_everything(self):
        inst = unsat_instance()
        tbl = solution_table(inst, SearchSpace.full(inst))
        assert not tbl.rows
        for x in inst.variables:
            assert all(oracle.answer_row(tbl, x).values())


class TestPreconditions:
    def test_value_outside_active_set(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        with pytest.raises(ValueError, match="not active"):
            evaluate(solution_table(inst, narrowed), PropertyQuery("fixable", "x1", ("B",)))

    def test_unknown_variable(self, coloring):
        inst, space = coloring
        with pytest.raises(ValueError, match="unknown variable"):
            evaluate(solution_table(inst, space), PropertyQuery("determined", "nope"))

    def test_dependent_target_in_set(self):
        with pytest.raises(ValueError, match="must not occur"):
            PropertyQuery("dependent", "x", (), ("x", "y"))

    def test_space_must_cover_instance(self, coloring):
        inst, space = coloring
        partial = SearchSpace(space.entries[:3])
        other = SearchSpace.full(CspInstance(("q",), ("0",)))
        for bad in (partial, other):
            with pytest.raises(
                ValueError, match="search space must cover exactly the instance variables"
            ):
                solution_table(inst, bad)

    def test_query_arity_validation(self):
        with pytest.raises(ValueError, match="value argument"):
            PropertyQuery("fixable", "x", ())
        with pytest.raises(ValueError, match="unknown property kind"):
            PropertyQuery("magic", "x")

    def test_lists_give_the_tuple_verdict(self, coloring):
        inst, space = coloring
        table = solution_table(inst, space)
        for as_tuple, as_list in [
            (PropertyQuery("fixable", "x1", ("R",)), PropertyQuery("fixable", "x1", ["R"])),
            (
                PropertyQuery("dependent", "x2", (), ("x3", "x4")),
                PropertyQuery("dependent", "x2", [], ["x3", "x4"]),
            ),
        ]:
            assert as_list == as_tuple
            assert evaluate(table, as_list) == evaluate(table, as_tuple)

    def test_a_string_is_refused(self):
        with pytest.raises(ValueError, match="^values must be a sequence of names"):
            PropertyQuery("fixable", "x1", "R")
        with pytest.raises(ValueError, match="^over must be a sequence of names"):
            PropertyQuery("dependent", "x2", (), "x3")


def fresh_verdict(inst, space, query):
    return evaluate(solution_table(inst, space), query)


class TestDependenceOnOneTargetValue:
    """A target that takes at most one value over the solutions depends on
    every set, so dependence holds with no counterexamples on tables of 0
    and 1 rows and with a constant target, as the reference says; a target
    that varies still gets the reference's first falsifying pair."""

    @staticmethod
    def cases():
        one = Constraint("one", ("a", "b"), [("0", "1")])
        pinned = Constraint("pinned", ("c",), [("1",)])
        free3 = CspInstance(("a", "b", "c"), ("0", "1", "2"), (pinned,))
        return [
            (unsat_instance(), SearchSpace.full(unsat_instance()), 0),
            (CspInstance(("a", "b"), ("0", "1"), (one,)), None, 1),
            (free_instance(), SearchSpace.full(free_instance()).assign("a", "1").assign("b", "0"), 1),
            (free3, SearchSpace.full(free3), 9),
        ]

    def test_verdicts_match_the_reference(self):
        for inst, space, rows in self.cases():
            space = space or SearchSpace.full(inst)
            tbl = solution_table(inst, space)
            assert len(tbl.rows) == rows
            solutions = reference_solutions(inst, space)
            for y in inst.variables:
                others = [v for v in inst.variables if v != y]
                constant = len({row[tbl.index[y]] for row in tbl.rows}) <= 1
                for size in range(len(others) + 1):
                    for over in itertools.combinations(others, size):
                        query = PropertyQuery("dependent", y, (), over)
                        verdict = evaluate(tbl, query)
                        expected = reference_verdict(inst, space, solutions, query)
                        assert (verdict.holds, verdict.counterexamples) == expected, query
                        if constant:
                            assert expected == (True, ())

    def test_answer_rows_settle_a_constant_target_at_once(self, monkeypatch):
        # A target with one value over the rows (every target on a table of
        # 0 or 1 rows) depends on every set with no pair scan; each entry,
        # and each verdict and witness ``evaluate`` gives, is the
        # reference's at every dep_max.
        scanned = []
        pair = oracle._dependence_pair

        def recording_pair(tbl, over, y):
            scanned.append(y)
            return pair(tbl, over, y)

        monkeypatch.setattr(oracle, "_dependence_pair", recording_pair)
        for inst, space, _rows in self.cases():
            space = space or SearchSpace.full(inst)
            solutions = reference_solutions(inst, space)
            for dep_max in range(3):
                tbl = solution_table(inst, space)
                constant = {
                    y for y in inst.variables if len({row[tbl.index[y]] for row in tbl.rows}) <= 1
                }
                scanned.clear()
                rows = oracle_rows(tbl, dep_max)
                assert constant and not constant & set(scanned)
                for y, row in rows.items():
                    for over in oracle.conditioning_sets(inst.variables, y, 0, dep_max):
                        query = PropertyQuery("dependent", y, (), over)
                        expected = reference_verdict(inst, space, solutions, query)
                        assert row["dependent", over] == expected[0], query
                        verdict = evaluate(tbl, query)
                        assert (verdict.holds, verdict.counterexamples) == expected, query


class TestVerdictMemo:
    """An ask on a table whose answer rows earlier asks built gets the
    verdict a fresh table gives."""

    @settings(max_examples=80, deadline=None)
    @given(instances_with_spaces())
    def test_verdicts_after_the_rows_are_built(self, case):
        # As analyze asks: every answer row first, then each query once.  A
        # true verdict is the bare OracleVerdict(True), a false one still
        # carries the least counterexample (the first pair, for dependence).
        inst, space = case
        solutions = reference_solutions(inst, space)
        tbl = solution_table(inst, space)
        oracle_rows(tbl, 1)
        for query in all_queries(inst, space, dep_max=1):
            verdict = evaluate(tbl, query)
            expected = reference_verdict(inst, space, solutions, query)
            assert (verdict.holds, verdict.counterexamples) == expected, query
            if verdict.holds:
                assert verdict == oracle.OracleVerdict(True, ())

    @settings(max_examples=80, deadline=None)
    @given(instances_with_spaces(), st.randoms(use_true_random=False))
    def test_repeated_queries_match_fresh_evaluation(self, case, rng):
        inst, space = case
        queries = all_queries(inst, space, dep_max=2)
        # Every query at least once, a third of them again as equal but
        # distinct objects, in a shuffled order.
        asked = queries + [
            PropertyQuery(q.kind, q.variable, q.values, q.over)
            for q in rng.sample(queries, len(queries) // 3)
        ]
        rng.shuffle(asked)
        tbl = solution_table(inst, space)
        answers = [evaluate(tbl, q) for q in asked]
        for query, got in zip(asked, answers):
            assert got == fresh_verdict(inst, space, query), query

    def test_invalid_queries_raise_on_every_call(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        tables = {valid: solution_table(inst, valid) for valid in (space, narrowed)}
        cases = [
            (
                lambda: evaluate(tables[narrowed], PropertyQuery("fixable", "x1", ("B",))),
                "value 'B' is not active for 'x1'",
            ),
            (
                lambda: evaluate(tables[space], PropertyQuery("determined", "nope")),
                "unknown variable 'nope'",
            ),
            (
                lambda: evaluate(
                    tables[space], PropertyQuery("dependent", "x5", (), ("x2", "nope"))
                ),
                "unknown variable 'nope'",
            ),
            (
                lambda: evaluate(
                    tables[space], PropertyQuery("dependent", "x5", (), ("x2", "x5"))
                ),
                "dependence target must not occur in the variable set",
            ),
        ]
        for _ in range(2):
            for ask, message in cases:
                for _ in range(2):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        ask()
            # Build the rows of both valid spaces by asking, then ask again.
            for valid, tbl in tables.items():
                for query in all_queries(inst, valid, dep_max=1):
                    evaluate(tbl, query)
            assert set(tables[narrowed].answers) == set(inst.variables)

    def test_each_space_keeps_its_own_verdict(self, coloring):
        inst, full = coloring
        pinned = full.assign("x1", "G")
        query = PropertyQuery("implied", "x1", ("G",))
        expected = {
            space: fresh_verdict(inst, space, query) for space in (full, pinned)
        }
        assert not expected[full].holds and expected[pinned].holds
        for order in ((full, pinned), (pinned, full)):
            tables = {space: solution_table(inst, space) for space in order}
            for space in order * 2:
                assert evaluate(tables[space], query) == expected[space]


def falsifying_positions(tbl, query):
    """The table positions of the rows that falsify the query."""
    position = {row: k for k, row in enumerate(tbl.rows)}
    return sorted({position[row] for row in oracle._falsifying_rows(tbl, query)})


class TestAskPath:
    """Every oracle question is ``evaluate``: a non-dependence verdict is
    read off the variable's answer row, and only a false one scans the
    rows, for its least counterexample."""

    @settings(max_examples=100, deadline=None)
    @given(instances_with_spaces())
    def test_a_true_verdict_scans_no_row(self, case):
        inst, space = case
        solutions = reference_solutions(inst, space)
        queries = [
            PropertyQuery(kind, x, values)
            for x in inst.variables
            for kind, values in signature_keys(space.values(x))
        ]
        true = [q for q in queries if reference_verdict(inst, space, solutions, q)[0]]
        tbl = solution_table(inst, space)

        def refuse(*args):
            raise AssertionError("a true verdict scanned the rows")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_falsifying_rows", refuse)
            for query in true:
                assert evaluate(tbl, query) == (True, ()), query.describe()

    @settings(max_examples=100, deadline=None)
    @given(instances_with_spaces())
    def test_a_false_verdict_names_the_least_falsifying_row(self, case):
        # Least in table order; for interchangeability, a failure of a->b
        # comes before any failure of b->a.
        inst, space = case
        solutions = reference_solutions(inst, space)
        tbl = solution_table(inst, space)
        for x in inst.variables:
            for kind, values in signature_keys(space.values(x)):
                query = PropertyQuery(kind, x, values)
                verdict = evaluate(tbl, query)
                expected = reference_verdict(inst, space, solutions, query)
                assert (verdict.holds, verdict.counterexamples) == expected, query
                if verdict.holds:
                    continue
                if kind == "interchangeable":
                    a, b = values
                    there = PropertyQuery("substitutable", x, (a, b))
                    back = PropertyQuery("substitutable", x, (b, a))
                    positions = falsifying_positions(tbl, there) or falsifying_positions(
                        tbl, back
                    )
                else:
                    positions = falsifying_positions(tbl, query)
                assert verdict.counterexamples == (dict(zip(tbl.order, tbl.rows[positions[0]])),)

    def test_invalid_asks_raise_in_order_on_every_call(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        tbl, narrow_tbl = solution_table(inst, space), solution_table(inst, narrowed)
        target = "dependence target must not occur in the variable set"
        Q = PropertyQuery
        # Each query is built inside the ask: the target check raises there.
        cases = [
            (narrow_tbl, lambda: Q("fixable", "x1", ("B",)), "value 'B' is not active for 'x1'"),
            (narrow_tbl, lambda: Q("substitutable", "x1", ("R", "B")), "value 'B' is not active"),
            (tbl, lambda: Q("determined", "nope"), "unknown variable 'nope'"),
            # The unknown variable comes before the inactive value.
            (tbl, lambda: Q("fixable", "nope", ("Z",)), "unknown variable 'nope'"),
            # The variable comes before the conditioning set.
            (tbl, lambda: Q("dependent", "gone", (), ("nope",)), "unknown variable 'gone'"),
            (tbl, lambda: Q("dependent", "x5", (), ("x2", "nope")), "unknown variable 'nope'"),
            (tbl, lambda: Q("dependent", "x5", (), ("x2", "x5")), target),
            (tbl, lambda: Q("dependent", "x5", (), ("nope", "x5")), target),
        ]
        for _ in range(2):
            for table, query, message in cases:
                for _ in range(2):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        evaluate(table, query())
            # Build the rows of both valid spaces, then ask again.
            for table in (tbl, narrow_tbl):
                oracle_rows(table, dep_max=2)
            assert set(narrow_tbl.answers) == set(inst.variables)

    def test_table_values_match_the_space(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B").assign("x4", "G")
        tbl = solution_table(inst, narrowed)
        assert [tbl.values(x) for x in inst.variables] == [
            narrowed.values(x) for x in inst.variables
        ]
        with pytest.raises(ValueError, match="unknown variable 'nope'"):
            tbl.values("nope")


def row_queries(row, x):
    """The query each entry of x's answer row answers."""
    for kind, values in row:
        if kind == "dependent":
            yield (kind, values), PropertyQuery("dependent", x, (), values)
        else:
            yield (kind, values), PropertyQuery(kind, x, values)


def assert_rows_match_reference(inst, space, dep_max):
    """Every entry of every answer row equals the reference verdict, and
    the rows answer every value and variable question (substitutability and
    interchangeability over every ordered pair, a == b included) and
    dependence on every set of up to ``dep_max`` other variables."""
    solutions = reference_solutions(inst, space)
    rows = oracle_rows(solution_table(inst, space), dep_max)
    assert list(rows) == list(inst.variables)
    for x, row in rows.items():
        active = space.values(x)
        others = [v for v in inst.variables if v != x]
        assert set(row) == {
            ("determined", ()),
            ("irrelevant", ()),
            *((kind, (a,)) for kind in ("fixable", "removable", "inconsistent", "implied")
              for a in active),
            *((kind, (a, b)) for kind in ("substitutable", "interchangeable")
              for a in active for b in active),
            *(("dependent", over) for size in range(dep_max + 1)
              for over in itertools.combinations(others, size)),
        }
        for key, query in row_queries(row, x):
            expected = reference_verdict(inst, space, solutions, query)[0]
            assert row[key] == expected, query.describe()


class TestAnswerRows:
    @settings(max_examples=150, deadline=None)
    @given(instances_with_spaces(), st.integers(0, 2))
    def test_every_entry_matches_the_reference(self, case, dep_max):
        assert_rows_match_reference(*case, dep_max)

    def test_edge_instances(self):
        for inst, space in edge_instances():
            assert_rows_match_reference(inst, space, 2)

    def test_boolean_corpora(self, boolean_corpora):
        for formulas in boolean_corpora.values():
            for formula in [f for f in formulas if len(f.variables) <= 6][:8]:
                inst = to_extensional(formula)
                assert_rows_match_reference(inst, SearchSpace.full(inst), 1)

    def test_a_row_is_built_once(self, coloring):
        inst, space = coloring
        tbl = solution_table(inst, space)
        rows = oracle_rows(tbl, 1)
        again = oracle_rows(tbl, 2)
        assert all(again[x] is rows[x] is tbl.answers[x] for x in inst.variables)
        assert list(tbl.answers) == list(inst.variables)


class TestAnswerRowDependence:
    """``answer_row(tbl, x, overs)`` decides dependence by one rule: every
    set at once when x has an implied value, else one pair scan per set
    not yet on the row."""

    def test_each_set_is_scanned_once(self, monkeypatch):
        scanned = []
        pair = oracle._dependence_pair

        def recording_pair(tbl, over, y):
            scanned.append((over, y))
            return pair(tbl, over, y)

        monkeypatch.setattr(oracle, "_dependence_pair", recording_pair)
        same = Constraint("same", ("a", "x"), [("0", "0"), ("1", "1")])
        inst = CspInstance(("a", "b", "x"), ("0", "1"), (same,))
        full = SearchSpace.full(inst)
        tbl = solution_table(inst, full)
        overs = [(), ("a",), ("b",), ("a", "b")]
        row = oracle.answer_row(tbl, "x", overs)
        # ("a", "b") holds ("a",), which x depends on, and gets its own scan.
        assert scanned == [(over, "x") for over in overs]
        assert [row["dependent", over] for over in overs] == [False, True, False, True]
        scanned.clear()
        assert oracle.answer_row(tbl, "x", overs) is row
        assert oracle.answer_row(tbl, "x", overs[1:3]) is row
        assert scanned == []
        # A constant target, and every target on a table of 1 or 0 rows.
        cases = [
            (solution_table(inst, full.assign("x", "0")), 2, ("x",)),
            (solution_table(inst, full.assign("x", "0").assign("b", "1")), 1, inst.variables),
            (solution_table(unsat_instance(), SearchSpace.full(unsat_instance())), 0, ("a", "b")),
        ]
        for table, size, targets in cases:
            assert len(table.rows) == size
            for y in targets:
                sets = oracle.conditioning_sets(table.order, y, 0, 2)
                row = oracle.answer_row(table, y, sets)
                assert all(row["dependent", over] for over in sets)
        assert scanned == []

    @pytest.mark.parametrize("dep_max", [0, 1, 2])
    def test_every_entry_matches_the_reference_on_the_corpus(self, dep_max):
        cases = [*standard_corpus(range(1, 301)), *edge_instances()]
        for inst, space in cases:
            solutions = reference_solutions(inst, space)
            for y, row in oracle_rows(solution_table(inst, space), dep_max).items():
                for over in oracle.conditioning_sets(inst.variables, y, 0, dep_max):
                    query = PropertyQuery("dependent", y, (), over)
                    expected = reference_verdict(inst, space, solutions, query)[0]
                    assert row["dependent", over] == expected, query.describe()


class TestAllQueries:
    def test_counts_and_order(self, triple_tables):
        inst, space = triple_tables
        queries = all_queries(inst, space, dep_max=2)
        kinds = [q.kind for q in queries]
        assert kinds == sorted(kinds, key=oracle.KINDS.index)
        # 3 variables, 3 active values each
        assert kinds.count("fixable") == 9
        assert kinds.count("substitutable") == 18
        assert kinds.count("interchangeable") == 9
        assert kinds.count("determined") == 3
        assert kinds.count("dependent") == 3 * 3  # sizes 1 and 2 over 2 others
