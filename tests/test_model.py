import dataclasses
import importlib
import itertools
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cspstruct
from cspstruct.local import Covering, default_covering
from cspstruct.model import Constraint, CspInstance, SearchSpace
from cspstruct.oracle import solution_table

from conftest import iter_rows


def make_constraint(name, scope, rows):
    return Constraint(name, tuple(scope), rows)


@pytest.fixture
def c1():
    # first table of the substitutability fixture
    return make_constraint("c1", "xy", [("0", "1"), ("1", "2"), ("2", "1"), ("2", "2")])


class TestSatisfies:
    """The assignments that satisfy a constraint are the solutions of an
    instance that holds it alone."""

    @staticmethod
    def solutions(constraint, domain):
        inst = CspInstance(constraint.scope, tuple(domain), (constraint,))
        return set(solution_table(inst, SearchSpace.full(inst)).rows)

    def test_example_rows(self, c1):
        solutions = self.solutions(c1, "012")
        assert ("1", "2") in solutions and ("0", "0") not in solutions
        assert solutions == c1.rows

    def test_empty_relation_never_satisfied(self):
        empty = make_constraint("none", "xy", [])
        assert self.solutions(empty, "01") == set()

    def test_full_relation_always_satisfied(self):
        full = make_constraint("full", "xy", itertools.product("01", repeat=2))
        assert self.solutions(full, "01") == set(itertools.product("01", repeat=2))

    def test_unbound_scope_variable(self, c1):
        with pytest.raises(ValueError, match="mentions unknown variable 'y'"):
            CspInstance(("x",), ("0", "1", "2"), (c1,))


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
            Constraint("c", ("a", "b"), [("0",)])

    def test_rows_are_stored_as_a_frozenset_of_tuples(self):
        rows = {("0", "1"), ("1", "1")}
        for given in ([["0", "1"], ["1", "1"]], (iter(row) for row in sorted(rows))):
            c = Constraint("c", ["a", "b"], given)
            assert type(c.rows) is frozenset and c.rows == rows
            assert all(type(row) is tuple for row in c.rows)
            assert c == Constraint("c", ("a", "b"), frozenset(rows))


class TestRelationMessages:
    def test_wrong_arity_row_is_named(self):
        with pytest.raises(ValueError) as error:
            Constraint("c", ("a", "b"), [("0", "1"), ("0", "1", "2")])
        assert str(error.value) == "row ('0', '1', '2') does not match arity 2"

    def test_out_of_domain_value_is_named(self):
        c = make_constraint("c", ["a", "b"], [("0", "0"), ("0", "9")])
        with pytest.raises(ValueError) as error:
            CspInstance(("a", "b"), ("0", "1"), (c,))
        assert str(error.value) == "constraint 'c' uses value '9' outside the domain"

    def test_bad_rows_are_caught_among_many_good_ones(self):
        good = list(itertools.product("01", repeat=3))
        with pytest.raises(ValueError, match=r"row \('1',\) does not match arity 3"):
            Constraint("c", ("x", "y", "z"), [*good, ("1",)])
        c = make_constraint("c", "xyz", [*good, ("1", "1", "2")])
        with pytest.raises(ValueError, match="value '2' outside the domain"):
            CspInstance(("x", "y", "z"), ("0", "1"), (c,))
        valid = make_constraint("c", "xyz", good)
        assert CspInstance(("x", "y", "z"), ("0", "1"), (valid,)).constraints == (valid,)


def build_instance(extra=()):
    ne = make_constraint("ne", "xy", [("0", "1"), ("1", "0")])
    return CspInstance(("x", "y", "z"), ("0", "1"), (ne, *extra))


class TestCachedHash:
    """Instances, spaces and coverings hash by their fields, so equal values
    hash equal, also after a pickle round trip into another process."""

    def test_equal_builds_hash_equal(self):
        a, b = build_instance(), build_instance()
        assert a is not b and a == b and hash(a) == hash(b)
        sa, sb = SearchSpace.full(a), SearchSpace.full(b)
        assert sa is not sb and sa == sb and hash(sa) == hash(sb)

    def test_hash_is_the_field_hash(self):
        inst = build_instance()
        assert hash(inst) == hash((inst.variables, inst.domain, inst.constraints))
        space = SearchSpace.full(inst)
        assert hash(space) == hash((space.entries,))

    def test_derived_values_hash_like_fresh_builds(self):
        inst = build_instance()
        hash(inst)
        unary = make_constraint("one", "z", [("1",)])
        extended = dataclasses.replace(inst, constraints=(*inst.constraints, unary))
        assert hash(extended) == hash(build_instance((unary,)))
        assert hash(dataclasses.replace(inst, constraints=())) == hash(
            CspInstance(("x", "y", "z"), ("0", "1"))
        )
        space = SearchSpace.full(inst)
        hash(space)
        pinned = SearchSpace.over(inst, {"z": ["1"]})
        narrowed = SearchSpace.over(inst, {"x": ["1"]})
        assert space.assign("z", "1") == pinned and hash(space.assign("z", "1")) == hash(pinned)
        assert space.remove("x", "0") == narrowed and hash(space.remove("x", "0")) == hash(narrowed)

    def test_covering_keeps_its_field_hash(self):
        covering = default_covering(build_instance(), 1)
        assert hash(covering) == hash((covering.groups,))
        assert covering == Covering([[0]]) and hash(Covering([[0]])) == hash(covering)
        loaded = pickle.loads(pickle.dumps(covering))
        assert loaded == covering and hash(loaded) == hash(covering)

    def test_pickled_values_hash_right_under_another_hash_seed(self):
        inst = build_instance()
        space = SearchSpace.full(inst)
        hash(inst), hash(space)
        script = (
            "import pickle, sys\n"
            "from cspstruct.model import CspInstance, SearchSpace\n"
            "inst, space = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = CspInstance(inst.variables, inst.domain, inst.constraints)\n"
            "assert hash(inst) == hash(fresh)\n"
            "assert hash(space) == hash(SearchSpace.full(fresh))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps((inst, space)),
            env=env,
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()


def test_no_module_holds_a_cache():
    # Every command builds what answers its queries and passes it down, so
    # no module keeps anything between calls.
    names = [info.name for info in pkgutil.iter_modules(cspstruct.__path__, "cspstruct.")]
    assert {"cspstruct.oracle", "cspstruct.local", "cspstruct.boolean"} <= set(names)
    caches = [
        f"{name}.{attribute}"
        for name in names
        for attribute, value in vars(importlib.import_module(name)).items()
        if hasattr(value, "cache_clear")
    ]
    assert caches == []
