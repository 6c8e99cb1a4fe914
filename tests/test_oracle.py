import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import oracle
from cspstruct.model import (
    AssignmentTuple,
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
    enumerate_solutions,
    evaluate,
    satisfiable,
    solution_table,
)

from conftest import iter_rows


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


def reference_solutions(inst, space):
    """Sol(C) inside the space, straight from the product of active sets."""
    names = space.variables
    tuples = (AssignmentTuple(zip(names, row)) for row in iter_rows(space))
    return [t for t in tuples if inst.is_solution(t)]


def reference_verdict(inst, space, solutions, query):
    """(holds, counterexamples) from the definitions: the witness is the
    first solution falsifying the property, in enumeration order."""
    x = query.variable
    active = space.values(x)

    def solution_with(t, value):
        return inst.is_solution(t.assign(x, value))

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


class TestEnumerateSolutions:
    def test_coloring_count_against_independent_enumeration(self, coloring):
        inst, space = coloring
        sols = list(enumerate_solutions(inst, space))
        assert len(sols) == 3 * independent_coloring_count() == 36
        assert len(solution_table(inst, space).rows) == 36

    def test_no_constraints_yields_whole_space(self):
        inst = free_instance()
        space = SearchSpace.full(inst)
        assert len(list(enumerate_solutions(inst, space))) == 4

    def test_backbone_values_in_every_solution(self, backbone):
        inst, space = backbone
        for t in enumerate_solutions(inst, space):
            assert t["x"] == t["y"] == t["q"] == t["r"] == "true"


def assert_enumerator_matches_product(inst, space):
    """Table rows, streamed solutions and satisfiability all agree with the
    plain product scan, order included."""
    expected = [t.values_over(inst.variables) for t in reference_solutions(inst, space)]
    assert list(solution_table(inst, space).rows) == expected
    streamed = list(enumerate_solutions(inst, space))
    assert [t.values_over(inst.variables) for t in streamed] == expected
    assert all(t.variables == inst.variables for t in streamed)
    assert satisfiable(inst, space) is bool(expected)


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
            constraints.append(Constraint(f"c{k}", tuple(scope), Relation.of(len(scope), kept)))
    inst = CspInstance(names, domain, tuple(constraints))
    active = {
        v: draw(st.sets(st.sampled_from(domain), min_size=1)) for v in names
    }
    return inst, SearchSpace.over(inst, active)


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
        assert_enumerator_matches_product(inst.with_constraints((lt, dead)), space)

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
        inst, space = coloring
        assert check_fixable(inst, space, "x1", "R")
        assert check_substitutable(inst, space, "x1", "R", "G")
        assert check_interchangeable(inst, space, "x1", "R", "G")
        assert check_removable(inst, space, "x1", "G")
        assert check_irrelevant(inst, space, "x1")
        assert check_removable(inst, space, "x5", "G")
        assert not check_determined(inst, space, "x1")
        assert not check_irrelevant(inst, space, "x4")

    def test_reassigning_x1_keeps_solutions(self, coloring):
        inst, space = coloring
        for t in enumerate_solutions(inst, space):
            assert inst.is_solution(t.assign("x1", "G"))


class TestBackboneProperties:
    def test_all_thirteen(self, backbone):
        inst, space = backbone
        assert check_inconsistent(inst, space, "x", "false")
        assert check_inconsistent(inst, space, "y", "false")
        assert check_fixable(inst, space, "x", "true")
        assert check_fixable(inst, space, "q", "true")
        assert check_fixable(inst, space, "r", "true")
        assert check_implied(inst, space, "x", "true")
        assert check_implied(inst, space, "y", "true")
        assert check_implied(inst, space, "q", "true")
        assert check_implied(inst, space, "r", "true")
        assert check_determined(inst, space, "y")
        assert check_dependent(inst, space, ("z", "w"), "p")
        assert check_dependent(inst, space, ("z", "y"), "q")
        assert check_dependent(inst, space, ("z", "y"), "r")


class TestVacuity:
    def test_all_nine_hold_on_unsat(self):
        inst = unsat_instance()
        space = SearchSpace.full(inst)
        assert not satisfiable(inst, space)
        for x in inst.variables:
            assert check_determined(inst, space, x)
            assert check_irrelevant(inst, space, x)
            for a in inst.domain:
                assert check_fixable(inst, space, x, a)
                assert check_removable(inst, space, x, a)
                assert check_inconsistent(inst, space, x, a)
                assert check_implied(inst, space, x, a)
                for b in inst.domain:
                    assert check_substitutable(inst, space, x, a, b)
                    assert check_interchangeable(inst, space, x, a, b)
        assert check_dependent(inst, space, ("a",), "b")

    def test_implied_everywhere_simultaneously(self):
        inst = unsat_instance()
        space = SearchSpace.full(inst)
        assert all(check_implied(inst, space, "a", a) for a in inst.domain)


class TestFreeInstance:
    def test_every_tuple_is_solution(self):
        inst = free_instance()
        space = SearchSpace.full(inst)
        for x in inst.variables:
            assert check_irrelevant(inst, space, x)
            for a in inst.domain:
                assert not check_inconsistent(inst, space, x, a)


class TestRemovable:
    def test_pinned_equality_counterexample(self, removability_trap):
        inst, space = removability_trap
        core = inst.with_constraints(inst.constraints[:2])  # x<=y and x>=y only
        assert not check_removable(core, space, "x", "2")

    def test_single_active_value_requires_inconsistency(self):
        inst = free_instance()
        space = SearchSpace.over(inst, {"a": ["0"]})
        # a=0 appears in solutions and no alternative exists
        assert not check_removable(inst, space, "a", "0")
        dead = unsat_instance()
        space = SearchSpace.over(dead, {"a": ["0"]})
        assert check_removable(dead, space, "a", "0")

    def test_identity_substitution_always_holds(self, triple_tables):
        inst, space = triple_tables
        for x in inst.variables:
            for a in inst.domain:
                assert check_substitutable(inst, space, x, a, a)


class TestDependence:
    def test_substitutable_across_tables(self, triple_tables):
        inst, space = triple_tables
        assert check_substitutable(inst, space, "x", "1", "2")

    def test_unique_solution_instance_fully_dependent(self, removability_trap):
        inst, space = removability_trap
        assert len(solution_table(inst, space).rows) == 1
        for y in inst.variables:
            rest = tuple(v for v in inst.variables if v != y)
            assert check_dependent(inst, space, rest, y)


class TestImpliedInconsistentLink:
    def test_on_corpus_sample(self, corpus):
        for inst, space in corpus[:60]:
            for x in inst.variables:
                for a in space.values(x):
                    lhs = check_implied(inst, space, x, a)
                    rhs = all(
                        check_inconsistent(inst, space, x, b)
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
            if not check_inconsistent(inst, space, x, a):
                continue
            y = rng.choice([v for v in inst.variables if v != x])
            keep = rng.sample(space.values(y), 2)
            narrowed = SearchSpace.over(inst, {y: keep})
            assert check_inconsistent(inst, narrowed, x, a)


class TestEvidence:
    def test_counterexample_is_lexicographically_least(self, coloring):
        inst, space = coloring
        verdict = evaluate(inst, space, PropertyQuery.irrelevant("x4"))
        assert not verdict.holds
        first_solution = next(enumerate_solutions(inst, space))
        assert verdict.counterexamples[0] == first_solution

    def test_dependent_counterexample_is_a_pair(self, coloring):
        inst, space = coloring
        verdict = evaluate(inst, space, PropertyQuery.dependent(("x2",), "x5"))
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
                for query in all_queries(inst, space, dep_max=2):
                    verdict = evaluate(inst, space, query)
                    expected = reference_verdict(inst, space, solutions, query)
                    assert (verdict.holds, verdict.counterexamples) == expected, query


class TestPreconditions:
    def test_value_outside_active_set(self, coloring):
        inst, space = coloring
        narrowed = space.remove("x1", "B")
        with pytest.raises(ValueError, match="not active"):
            check_fixable(inst, narrowed, "x1", "B")

    def test_unknown_variable(self, coloring):
        inst, space = coloring
        with pytest.raises(ValueError, match="unknown variable"):
            check_determined(inst, space, "nope")

    def test_dependent_target_in_set(self):
        with pytest.raises(ValueError, match="must not occur"):
            PropertyQuery.dependent(("x", "y"), "x")

    def test_space_must_cover_instance(self, coloring):
        inst, _space = coloring
        other = CspInstance(("q",), ("0",))
        with pytest.raises(ValueError, match="cover"):
            check_irrelevant(inst, SearchSpace.full(other), "q")

    def test_query_arity_validation(self):
        with pytest.raises(ValueError, match="value argument"):
            PropertyQuery("fixable", "x", ())
        with pytest.raises(ValueError, match="unknown property kind"):
            PropertyQuery("magic", "x")


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
