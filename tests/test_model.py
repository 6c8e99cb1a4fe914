import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct.model import (
    AssignmentTuple,
    Constraint,
    CspInstance,
    Relation,
    SearchSpace,
    iter_rows,
)


def make_constraint(name, scope, rows):
    return Constraint(name, tuple(scope), Relation.of(len(scope), rows))


@pytest.fixture
def c1():
    # first table of the substitutability fixture
    return make_constraint("c1", "xy", [("0", "1"), ("1", "2"), ("2", "1"), ("2", "2")])


class TestAssignmentTuple:
    def test_assign_rebinding(self):
        t = AssignmentTuple({"x1": "R", "x2": "G"})
        assert t.assign("x1", "G") == {"x1": "G", "x2": "G"}
        assert t == {"x1": "R", "x2": "G"}  # original untouched

    def test_assign_same_value_is_identity(self):
        t = AssignmentTuple({"x": "1", "y": "2"})
        assert t.assign("x", "1") is t

    def test_assign_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown variable"):
            AssignmentTuple({"x": "1"}).assign("z", "1")

    def test_restrict(self):
        t = AssignmentTuple({"x": "1", "y": "2", "z": "0"})
        assert t.restrict(["x", "z"]) == {"x": "1", "z": "0"}
        assert t.restrict(["x", "y", "z"]) == t
        assert t.restrict([]) == {}

    def test_restrict_unbound(self):
        with pytest.raises(ValueError, match="unbound"):
            AssignmentTuple({"x": "1"}).restrict(["x", "w"])

    def test_hash_ignores_order(self):
        a = AssignmentTuple({"x": "1", "y": "2"})
        b = AssignmentTuple({"y": "2", "x": "1"})
        assert a == b and hash(a) == hash(b)


class TestSatisfies:
    def test_example_rows(self, c1):
        assert c1.satisfied_by(AssignmentTuple({"x": "1", "y": "2"}))
        assert not c1.satisfied_by(AssignmentTuple({"x": "0", "y": "0"}))

    def test_empty_relation_never_satisfied(self):
        empty = make_constraint("none", "xy", [])
        for a, b in itertools.product("01", repeat=2):
            assert not empty.satisfied_by(AssignmentTuple({"x": a, "y": b}))

    def test_full_relation_always_satisfied(self):
        full = make_constraint("full", "xy", itertools.product("01", repeat=2))
        for a, b in itertools.product("01", repeat=2):
            assert full.satisfied_by(AssignmentTuple({"x": a, "y": b}))

    def test_unbound_scope_variable(self, c1):
        with pytest.raises(ValueError, match="does not bind"):
            c1.satisfied_by(AssignmentTuple({"x": "1"}))


class TestSearchSpace:
    def test_full_and_size(self, tiny_instance=None):
        inst = CspInstance(tuple(f"x{i}" for i in range(5)), ("R", "G", "B"))
        space = SearchSpace.full(inst)
        assert space.size() == 243
        assert sum(1 for _ in iter_rows(space)) == 243

    def test_singletons_give_one_tuple(self):
        inst = CspInstance(("a", "b"), ("0", "1"))
        space = SearchSpace.over(inst, {"a": ["1"], "b": ["0"]})
        assert list(iter_rows(space)) == [("1", "0")]

    def test_enumeration_is_deterministic(self):
        inst = CspInstance(("a", "b", "c"), ("0", "1", "2"))
        space = SearchSpace.full(inst)
        first = list(iter_rows(space))
        second = list(iter_rows(space))
        assert first == second
        assert first[0] == ("0", "0", "0") and first[-1] == ("2", "2", "2")

    def test_over_reorders_into_domain_order(self):
        inst = CspInstance(("a",), ("0", "1", "2"))
        space = SearchSpace.over(inst, {"a": ["2", "0"]})
        assert space.values("a") == ("0", "2")

    def test_assign_and_remove(self):
        inst = CspInstance(("a",), ("0", "1"))
        space = SearchSpace.full(inst)
        assert space.assign("a", "1").values("a") == ("1",)
        assert space.remove("a", "0").values("a") == ("1",)
        with pytest.raises(ValueError, match="not active"):
            space.assign("a", "7")
        with pytest.raises(ValueError, match="no active values"):
            space.remove("a", "0").remove("a", "1")

    def test_empty_active_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SearchSpace((("a", ()),))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.data(),
)
def test_enumeration_cardinality(var_count, dom_size, data):
    inst = CspInstance(
        tuple(f"x{i}" for i in range(var_count)),
        tuple(str(v) for v in range(dom_size)),
    )
    active = {}
    for v in inst.variables:
        chosen = data.draw(
            st.sets(st.sampled_from(inst.domain), min_size=1)
        )
        active[v] = chosen
    space = SearchSpace.over(inst, active)
    expected = 1
    for v in inst.variables:
        expected *= len(space.values(v))
    assert space.size() == expected
    assert sum(1 for _ in iter_rows(space)) == expected


class TestInstanceValidation:
    def test_duplicate_variables(self):
        with pytest.raises(ValueError, match="unique"):
            CspInstance(("a", "a"), ("0",))

    def test_unknown_scope_variable(self):
        c = make_constraint("c", ["q"], [("0",)])
        with pytest.raises(ValueError, match="unknown variable"):
            CspInstance(("a",), ("0",), (c,))

    def test_value_outside_domain(self):
        c = make_constraint("c", ["a"], [("9",)])
        with pytest.raises(ValueError, match="outside the domain"):
            CspInstance(("a",), ("0",), (c,))

    def test_repeated_scope_variable(self):
        with pytest.raises(ValueError, match="repeats"):
            make_constraint("c", ["a", "a"], [("0", "0")])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            Constraint("c", ("a", "b"), Relation.of(1, [("0",)]))
