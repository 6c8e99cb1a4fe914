import dataclasses
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
    Relation,
    SearchSpace,
)
from cspstruct.oracle import (
    PropertyQuery,
    all_queries,
    check_dependent,
    check_determined,
    check_fixable,
    check_implied,
    check_inconsistent,
    check_interchangeable,
    check_irrelevant,
    check_removable,
    check_substitutable,
    evaluate,
    satisfiable,
    solution_table,
)

from conftest import (
    edge_instances,
    instances_with_spaces,
    is_solution,
    reference_solutions,
    reference_verdict,
    table_solutions,
)


def unsat_instance():
    dead = Constraint("dead", ("a",), Relation.of(1, []))
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
    """Table rows, the assignments they wrap and satisfiability all agree
    with the plain product scan, order included."""
    expected = [tuple(t[v] for v in inst.variables) for t in reference_solutions(inst, space)]
    assert list(solution_table(inst, space).rows) == expected
    streamed = table_solutions(inst, space)
    assert [tuple(t[v] for v in inst.variables) for t in streamed] == expected
    assert all(t.variables == inst.variables for t in streamed)
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
        lt = Constraint("lt", ("c", "a"), Relation.of(2, [("1", "0"), ("2", "0"), ("2", "1")]))
        odd = Constraint("odd", ("b",), Relation.of(1, [("1",)]))
        wide = Constraint(
            "wide",
            ("c", "b", "a"),
            Relation.of(3, [r for r in itertools.product("012", repeat=3) if r[0] != r[2]]),
        )
        inst = CspInstance(("a", "b", "c"), ("0", "1", "2"), (lt, odd, wide))
        space = SearchSpace.full(inst)
        assert_enumerator_matches_product(inst, space)
        assert_enumerator_matches_product(inst, space.remove("c", "2"))
        dead = Constraint("dead", ("c",), Relation.of(1, []))
        assert_enumerator_matches_product(dataclasses.replace(inst, constraints=(lt, dead)), space)

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
        not_zero = Constraint("not0", ("x1",), Relation.of(1, [("1",)]))
        equal = Relation.of(2, [("0", "0"), ("1", "1")])
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
        assert check_fixable(tbl, "x1", "R")
        assert check_substitutable(tbl, "x1", "R", "G")
        assert check_interchangeable(tbl, "x1", "R", "G")
        assert check_removable(tbl, "x1", "G")
        assert check_irrelevant(tbl, "x1")
        assert check_removable(tbl, "x5", "G")
        assert not check_determined(tbl, "x1")
        assert not check_irrelevant(tbl, "x4")

    def test_reassigning_x1_keeps_solutions(self, coloring):
        inst, space = coloring
        for t in table_solutions(inst, space):
            assert is_solution(inst, {**t, "x1": "G"})


class TestBackboneProperties:
    def test_all_thirteen(self, backbone):
        tbl = solution_table(*backbone)
        assert check_inconsistent(tbl, "x", "false")
        assert check_inconsistent(tbl, "y", "false")
        assert check_fixable(tbl, "x", "true")
        assert check_fixable(tbl, "q", "true")
        assert check_fixable(tbl, "r", "true")
        assert check_implied(tbl, "x", "true")
        assert check_implied(tbl, "y", "true")
        assert check_implied(tbl, "q", "true")
        assert check_implied(tbl, "r", "true")
        assert check_determined(tbl, "y")
        assert check_dependent(tbl, ("z", "w"), "p")
        assert check_dependent(tbl, ("z", "y"), "q")
        assert check_dependent(tbl, ("z", "y"), "r")


class TestVacuity:
    def test_all_nine_hold_on_unsat(self):
        inst = unsat_instance()
        space = SearchSpace.full(inst)
        assert not satisfiable(inst, space)
        tbl = solution_table(inst, space)
        for x in inst.variables:
            assert check_determined(tbl, x)
            assert check_irrelevant(tbl, x)
            for a in inst.domain:
                assert check_fixable(tbl, x, a)
                assert check_removable(tbl, x, a)
                assert check_inconsistent(tbl, x, a)
                assert check_implied(tbl, x, a)
                for b in inst.domain:
                    assert check_substitutable(tbl, x, a, b)
                    assert check_interchangeable(tbl, x, a, b)
        assert check_dependent(tbl, ("a",), "b")

    def test_implied_everywhere_simultaneously(self):
        inst = unsat_instance()
        tbl = solution_table(inst, SearchSpace.full(inst))
        assert all(check_implied(tbl, "a", a) for a in inst.domain)


class TestFreeInstance:
    def test_every_tuple_is_solution(self):
        inst = free_instance()
        tbl = solution_table(inst, SearchSpace.full(inst))
        for x in inst.variables:
            assert check_irrelevant(tbl, x)
            for a in inst.domain:
                assert not check_inconsistent(tbl, x, a)


class TestRemovable:
    def test_pinned_equality_counterexample(self, removability_trap):
        inst, space = removability_trap
        core = dataclasses.replace(inst, constraints=inst.constraints[:2])  # x<=y and x>=y only
        assert not check_removable(solution_table(core, space), "x", "2")

    def test_single_active_value_requires_inconsistency(self):
        inst = free_instance()
        space = SearchSpace.over(inst, {"a": ["0"]})
        # a=0 appears in solutions and no alternative exists
        assert not check_removable(solution_table(inst, space), "a", "0")
        dead = unsat_instance()
        space = SearchSpace.over(dead, {"a": ["0"]})
        assert check_removable(solution_table(dead, space), "a", "0")

    def test_identity_substitution_always_holds(self, triple_tables):
        inst, space = triple_tables
        tbl = solution_table(inst, space)
        for x in inst.variables:
            for a in inst.domain:
                assert check_substitutable(tbl, x, a, a)


class TestDependence:
    def test_substitutable_across_tables(self, triple_tables):
        assert check_substitutable(solution_table(*triple_tables), "x", "1", "2")

    def test_unique_solution_instance_fully_dependent(self, removability_trap):
        inst, space = removability_trap
        tbl = solution_table(inst, space)
        assert len(tbl.rows) == 1
        for y in inst.variables:
            rest = tuple(v for v in inst.variables if v != y)
            assert check_dependent(tbl, rest, y)


class TestImpliedInconsistentLink:
    def test_on_corpus_sample(self, corpus):
        for inst, space in corpus[:60]:
            tbl = solution_table(inst, space)
            for x in inst.variables:
                for a in space.values(x):
                    lhs = check_implied(tbl, x, a)
                    rhs = all(
                        check_inconsistent(tbl, x, b)
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
            if not check_inconsistent(solution_table(inst, space), x, a):
                continue
            y = rng.choice([v for v in inst.variables if v != x])
            keep = rng.sample(space.values(y), 2)
            narrowed = SearchSpace.over(inst, {y: keep})
            assert check_inconsistent(solution_table(inst, narrowed), x, a)


class TestEvidence:
    def test_counterexample_is_lexicographically_least(self, coloring):
        inst, space = coloring
        verdict = evaluate(solution_table(inst, space), PropertyQuery.irrelevant("x4"))
        assert not verdict.holds
        first_solution = table_solutions(inst, space)[0]
        assert verdict.counterexamples[0] == first_solution

    def test_dependent_counterexample_is_a_pair(self, coloring):
        inst, space = coloring
        verdict = evaluate(solution_table(inst, space), PropertyQuery.dependent(("x2",), "x5"))
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
    less = Constraint(
        "less", ("a", "b"), Relation.of(2, [("0", "1"), ("0", "2"), ("1", "2")])
    )
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
        answers = oracle._sign(solution_table(inst, space), x)
        assert sorted(answers) == sorted(signature_keys(space.values(x)))
        for (kind, values), holds in answers.items():
            query = PropertyQuery(kind, x, values)
            scanned = next(oracle._falsifying_rows(tbl, query), None) is None
            assert holds == scanned == reference_verdict(inst, space, solutions, query)[0], (
                query.describe(), space
            )


def assert_asks_match_references(inst, space, rng):
    """Each value and variable query, asked through ``evaluate`` in a
    shuffled order on a fresh table: asks about a variable scan until the
    scans that held (each a pass over every row plus its set-up) have cost
    a pass plus the filling-in of answers, later ones read its signature,
    and every verdict (counterexample included) equals the
    product-enumerating reference."""
    solutions = reference_solutions(inst, space)
    queries = [
        PropertyQuery(kind, x, values)
        for x in inst.variables
        for kind, values in signature_keys(space.values(x))
    ]
    rng.shuffle(queries)
    tbl = solution_table(inst, space)
    rows = len(tbl.rows)
    spent = {}
    for query in queries:
        x = query.variable
        scanned = x not in tbl.answers
        verdict = evaluate(tbl, query)
        expected = reference_verdict(inst, space, solutions, query)
        assert (verdict.holds, verdict.counterexamples) == expected, query.describe()
        if scanned and verdict.holds:
            spent[x] = spent.get(x, 0) + rows + oracle._SCAN_SETUP_ROWS
        signed = spent.get(x, 0) >= rows + oracle._SIGNATURE_FILL_ROWS
        assert (x in tbl.answers) is signed, query.describe()


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

    def test_scans_that_held_pay_for_the_signature(self):
        # No constraints, so every question holds: 3**5 = 243 rows build the
        # signature at the second scan, 3 rows only at the fourth.
        for names, needed in (("abcde", 2), ("a", 4)):
            inst = CspInstance(tuple(names), ("0", "1", "2"))
            tbl = solution_table(inst, SearchSpace.full(inst))
            asks = [PropertyQuery.fixable("a", v) for v in "012"]
            asks += [PropertyQuery.irrelevant("a"), PropertyQuery.determined("a")]
            for count, query in enumerate(asks, 1):
                assert evaluate(tbl, query).holds is (query.kind != "determined")
                assert ("a" in tbl.answers) is (count >= needed), (names, count)

    def test_empty_table_holds_everything(self):
        inst = unsat_instance()
        tbl = solution_table(inst, SearchSpace.full(inst))
        assert not tbl.rows
        for x in inst.variables:
            assert all(oracle._sign(tbl, x).values())


class TestPreconditions:
    def test_value_outside_active_set(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        with pytest.raises(ValueError, match="not active"):
            check_fixable(solution_table(inst, narrowed), "x1", "B")

    def test_unknown_variable(self, coloring):
        inst, space = coloring
        with pytest.raises(ValueError, match="unknown variable"):
            check_determined(solution_table(inst, space), "nope")

    def test_dependent_target_in_set(self):
        with pytest.raises(ValueError, match="must not occur"):
            PropertyQuery.dependent(("x", "y"), "x")

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


def fresh_verdict(inst, space, query):
    return evaluate(solution_table(inst, space), query)


def same_verdict(got, want):
    return (got.query, got.holds, got.counterexamples) == (
        want.query,
        want.holds,
        want.counterexamples,
    )


class TestDependenceOnOneTargetValue:
    """A target that takes at most one value over the solutions depends on
    every set, so dependence holds with no counterexamples on tables of 0
    and 1 rows and with a constant target, as the reference says; a target
    that varies still gets the reference's first falsifying pair."""

    @staticmethod
    def cases():
        one = Constraint("one", ("a", "b"), Relation.of(2, [("0", "1")]))
        pinned = Constraint("pinned", ("c",), Relation.of(1, [("1",)]))
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
                        query = PropertyQuery.dependent(over, y)
                        verdict = evaluate(tbl, query)
                        expected = reference_verdict(inst, space, solutions, query)
                        assert (verdict.holds, verdict.counterexamples) == expected, query
                        if constant:
                            assert expected == (True, ())


class TestVerdictMemo:
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
            assert same_verdict(got, fresh_verdict(inst, space, query)), query

    def test_invalid_queries_raise_on_every_call(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        tables = {valid: solution_table(inst, valid) for valid in (space, narrowed)}
        cases = [
            (
                lambda: evaluate(tables[narrowed], PropertyQuery.fixable("x1", "B")),
                "value 'B' is not active for 'x1'",
            ),
            (
                lambda: evaluate(tables[space], PropertyQuery.determined("nope")),
                "unknown variable 'nope'",
            ),
            (
                lambda: evaluate(
                    tables[space], PropertyQuery.dependent(("x2", "nope"), "x5")
                ),
                "unknown variable 'nope'",
            ),
            (
                lambda: evaluate(
                    tables[space], PropertyQuery.dependent(("x2", "x5"), "x5")
                ),
                "dependence target must not occur in the variable set",
            ),
        ]
        for _ in range(2):
            for ask, message in cases:
                for _ in range(2):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        ask()
            # Fill the memos of both valid spaces, then ask again.
            for valid, tbl in tables.items():
                for query in all_queries(inst, valid, dep_max=1):
                    evaluate(tbl, query)
            assert tables[narrowed].verdicts

    def test_each_space_keeps_its_own_verdict(self, coloring):
        inst, full = coloring
        pinned = full.assign("x1", "G")
        query = PropertyQuery.implied("x1", "G")
        expected = {
            space: fresh_verdict(inst, space, query) for space in (full, pinned)
        }
        assert not expected[full].holds and expected[pinned].holds
        for order in ((full, pinned), (pinned, full)):
            tables = {space: solution_table(inst, space) for space in order}
            for space in order * 2:
                assert same_verdict(evaluate(tables[space], query), expected[space])


def every_ask(inst, space, dep_max=2):
    """Every check_* helper call on the space, with the query it asks as a
    plain (kind, variable, values, over) tuple."""
    for x in inst.variables:
        active = space.values(x)
        yield check_determined, (x,), ("determined", x, (), ())
        yield check_irrelevant, (x,), ("irrelevant", x, (), ())
        for a in active:
            yield check_fixable, (x, a), ("fixable", x, (a,), ())
            yield check_removable, (x, a), ("removable", x, (a,), ())
            yield check_inconsistent, (x, a), ("inconsistent", x, (a,), ())
            yield check_implied, (x, a), ("implied", x, (a,), ())
            for b in active:
                yield check_substitutable, (x, a, b), ("substitutable", x, (a, b), ())
                yield check_interchangeable, (x, a, b), ("interchangeable", x, (a, b), ())
        others = [v for v in inst.variables if v != x]
        for size in range(dep_max + 1):
            for combo in itertools.combinations(others, size):
                yield check_dependent, (combo, x), ("dependent", x, (), combo)


class TestAskPath:
    """The check_* helpers read the variable's answer row when the table
    has one: no query object, nothing decided.  Without a row they ask the
    table's verdict memo with a plain key: a query object only on a miss,
    and a hit is one dict lookup."""

    def test_each_ask_looks_the_table_up_once_and_matches_evaluate(self, coloring):
        inst, full = coloring
        for space in (full, full.remove("x1", "B").assign("x4", "G")):
            expected = {
                query: fresh_verdict(inst, space, PropertyQuery(*query)).holds
                for _, _, query in every_ask(inst, space)
            }
            rowed, memo = solution_table(inst, space), solution_table(inst, space)
            rows = oracle.answer_rows(rowed, dep_max=2)
            assert set(rows) == set(inst.variables)
            for _ in range(2):  # a miss, then a memo hit
                for check, args, query in every_ask(inst, space):
                    kind, x, values, over = query
                    assert check(rowed, *args) == expected[query], query
                    assert rows[x][kind, values or over] == expected[query], query
                    assert check(memo, *args) == expected[query], query
            # Every ask was read off a row; the memo holds only what was
            # asked before the scans that held built the variable's row.
            assert rowed.verdicts == {}
            for query, verdict in memo.verdicts.items():
                assert verdict.holds == expected[query], query
                if query[0] != "dependent" and query[1] in memo.answers:
                    assert memo.answers[query[1]][query[0], query[2]] == verdict.holds

    def test_warm_asks_build_no_query_object(self, coloring, monkeypatch):
        inst, full = coloring
        spaces = (full, full.assign("x2", "R"))
        tables = [solution_table(inst, space) for space in spaces]
        rowed = [solution_table(inst, space) for space in spaces]
        for tbl in rowed:
            oracle.answer_rows(tbl, dep_max=2)

        def asks(tables):
            return [
                check(tbl, *args)
                for tbl, space in zip(tables, spaces)
                for check, args, _ in every_ask(inst, space)
            ]

        answers = asks(tables)
        rows = [dict(tbl.answers) for tbl in rowed]

        def refuse(cls, *fields):
            raise AssertionError(f"built a query object for {fields}")

        monkeypatch.setattr(PropertyQuery, "__new__", refuse)
        assert answers == asks(tables) == asks(rowed)
        # The rows answered every ask: nothing was decided on them.
        assert [tbl.answers for tbl in rowed] == rows
        assert all(tbl.verdicts == {} for tbl in rowed)

    def test_invalid_asks_raise_in_order_on_every_call(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        tbl, narrow_tbl = solution_table(inst, space), solution_table(inst, narrowed)
        target = "dependence target must not occur in the variable set"
        cases = [
            (lambda: check_fixable(narrow_tbl, "x1", "B"), "value 'B' is not active for 'x1'"),
            (lambda: check_substitutable(narrow_tbl, "x1", "R", "B"), "value 'B' is not active"),
            (lambda: check_determined(tbl, "nope"), "unknown variable 'nope'"),
            # The unknown variable comes before the inactive value.
            (lambda: check_fixable(tbl, "nope", "Z"), "unknown variable 'nope'"),
            # The variable comes before the conditioning set.
            (lambda: check_dependent(tbl, ("nope",), "gone"), "unknown variable 'gone'"),
            (lambda: check_dependent(tbl, ("x2", "nope"), "x5"), "unknown variable 'nope'"),
            (lambda: check_dependent(tbl, ("x2", "x5"), "x5"), target),
            (lambda: check_dependent(tbl, ("nope", "x5"), "x5"), target),
        ]
        for _ in range(2):
            for ask, message in cases:
                for _ in range(2):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        ask()
            # Build the rows of both valid spaces, then ask again.
            for table in (tbl, narrow_tbl):
                oracle.answer_rows(table, dep_max=2)
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
            yield (kind, values), PropertyQuery.dependent(values, x)
        else:
            yield (kind, values), PropertyQuery(kind, x, values)


def assert_rows_match_reference(inst, space, dep_max):
    """Every entry of every answer row equals the reference verdict, and
    the rows answer every value and variable question (substitutability and
    interchangeability over every ordered pair, a == b included) and
    dependence on every set of up to ``dep_max`` other variables."""
    solutions = reference_solutions(inst, space)
    rows = oracle.answer_rows(solution_table(inst, space), dep_max)
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
        rows = oracle.answer_rows(tbl, 1)
        built = {x: row for x, row in rows.items()}
        assert oracle.answer_rows(tbl, 2) is rows
        assert all(rows[x] is built[x] for x in inst.variables)
        assert tbl.verdicts == {}


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
