import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct import local, oracle
from cspstruct.boolean import BooleanFormula, Clause, Literal, to_extensional
from cspstruct.instances import RandomSpec, gen_random, parse_csp
from cspstruct.local import (
    AND_KINDS,
    OR_KINDS,
    Covering,
    UnsoundLocalCheckError,
    default_covering,
    group_tables,
    local_check,
)
from cspstruct.model import Constraint, CspInstance, SearchSpace
from cspstruct.oracle import PropertyQuery as Q
from cspstruct.oracle import solution_table
from cspstruct.simplify import simplify_fixpoint

from conftest import (
    data_path,
    edge_instances,
    gen_random_boolean,
    instances_with_spaces,
    pure_values,
    reference_solutions,
    reference_verdict,
    subproblem,
    wide_instances,
)


class TestDefaultCovering:
    def test_singletons(self, triple_tables):
        inst, _ = triple_tables
        assert default_covering(inst, 1).groups == ((0,), (1,), (2,))

    def test_whole_set(self, triple_tables):
        inst, _ = triple_tables
        assert default_covering(inst, 3).groups == ((0, 1, 2),)

    def test_uneven_chunks(self):
        unary = Constraint("c", ("a",), [("0",)])
        five = CspInstance(
            ("a", "b"),
            ("0",),
            tuple(
                Constraint(f"c{i}", ("a",), unary.rows) for i in range(5)
            ),
        )
        assert default_covering(five, 2).groups == ((0, 1), (2, 3), (4,))
        empty = CspInstance(("a",), ("0",))
        assert default_covering(empty, 1).groups == ()

    def test_group_size_validation(self, triple_tables):
        inst, _ = triple_tables
        with pytest.raises(ValueError, match="at least 1"):
            default_covering(inst, 0)


def ask(inst, space, covering, query):
    """One local query on group tables built for it alone."""
    return local_check(group_tables(inst, covering, space), query)


class TestLocalCheck:
    def test_substitutable_across_tables(self, triple_tables):
        inst, space = triple_tables
        verdict = ask(inst, space, default_covering(inst), Q("substitutable", "x", ("1", "2")))
        assert verdict.established
        assert verdict.per_group == (True, True, True)

    def test_fixable_in_every_table(self, triple_tables):
        inst, space = triple_tables
        verdict = ask(inst, space, default_covering(inst), Q("fixable", "z", ("2",)))
        assert verdict.established
        assert verdict.per_group == (True, True, True)

    def test_removable_rejected(self, triple_tables):
        inst, space = triple_tables
        with pytest.raises(UnsoundLocalCheckError, match="not sound|cannot establish"):
            ask(inst, space, default_covering(inst), Q("removable", "x", ("1",)))

    def test_unknown_value_rejected(self, triple_tables):
        inst, space = triple_tables
        with pytest.raises(ValueError, match="not active"):
            ask(inst, space, default_covering(inst), Q("fixable", "x", ("9",)))

    def test_covering_must_cover(self, triple_tables):
        inst, space = triple_tables
        bad = [
            (Covering(((0,), (1,))), "cover every constraint"),
            (Covering(((0,), (1,), (2, 7))), "covering index 7 out of range"),
        ]
        # A failing covering must raise on every build, also once a valid
        # covering of the instance was used.
        for _ in range(2):
            for covering, message in bad:
                with pytest.raises(ValueError, match=message):
                    group_tables(inst, covering, space)
            ask(inst, space, default_covering(inst), Q("fixable", "z", ("2",)))
        with pytest.raises(ValueError, match="nonempty"):
            Covering(((0,), ()))

    @pytest.mark.parametrize("group_size", [1, 2])
    def test_bad_space_or_variable_rejected_at_every_group_size(
        self, triple_tables, group_size
    ):
        inst, space = triple_tables
        covering = default_covering(inst, group_size)
        lacking = SearchSpace(space.entries[:2])
        extra = SearchSpace(space.entries + (("w", ("0",)),))
        for bad in (lacking, extra):
            with pytest.raises(ValueError, match="must cover exactly the instance variables"):
                group_tables(inst, covering, bad)
        groups = group_tables(inst, covering, space)
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            local_check(groups, Q("dependent", "x", (), ("w",)))
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            local_check(groups, Q("fixable", "w", ("0",)))

    def test_overlapping_covering_accepted(self, triple_tables):
        inst, space = triple_tables
        overlapping = Covering(((0, 1), (1, 2), (0, 2)))
        verdict = ask(inst, space, overlapping, Q("substitutable", "x", ("1", "2")))
        assert verdict.established

    def test_empty_constraint_set_combinator_identities(self):
        inst = CspInstance(("a",), ("0", "1"))
        space = SearchSpace.full(inst)
        covering = default_covering(inst)
        assert covering.groups == ()
        groups = group_tables(inst, covering, space)
        assert local_check(groups, Q("fixable", "a", ("0",))).established
        assert not local_check(groups, Q("implied", "a", ("0",))).established


def _corpus_queries(inst, space):
    return oracle.all_queries(inst, space, tuple(AND_KINDS | OR_KINDS), dep_max=2)


def _coverings(inst):
    """Groups of 1, 2, 3 and |C| constraints, plus an overlapping covering
    that pairs each constraint with the next one."""
    count = len(inst.constraints)
    coverings = [default_covering(inst, size) for size in sorted({1, 2, 3, count})]
    coverings.append(Covering(tuple((i, (i + 1) % count) for i in range(count))))
    return coverings


def _assert_groups_exact(inst, space):
    for covering in _coverings(inst):
        groups = group_tables(inst, covering, space)
        subs = [solution_table(subproblem(inst, group), space) for group in covering.groups]
        for query in _corpus_queries(inst, space):
            verdict = local_check(groups, query)
            expected = tuple(oracle.evaluate(sub, query).holds for sub in subs)
            assert verdict.per_group == expected, (covering, query.describe())


class TestExactnessOfFastPaths:
    # Every covering group reports the oracle's verdict on its subproblem
    # (the group's constraints over every variable of the instance).
    def test_singleton_fast_path_equals_subproblem_oracle(self, corpus):
        for inst, space in corpus[:40]:
            _assert_groups_exact(inst, space)

    def test_fast_path_with_restricted_space(self, corpus):
        for inst, space in corpus[:15]:
            narrowed = space.remove(inst.variables[0], inst.domain[0])
            narrowed = narrowed.remove(inst.variables[2], inst.domain[2])
            _assert_groups_exact(inst, narrowed)


class TestLocality:
    def test_free_variables_are_never_enumerated(self, monkeypatch):
        # Twenty variables, two binary constraints: each group is decided on
        # its own scope, so no query may reach the oracle's whole-space table.
        inst, space = parse_csp(data_path("free20.csp").read_text())

        def refuse(*args):
            raise AssertionError("local reasoning consulted the oracle")

        monkeypatch.setattr(oracle, "solution_table", refuse)
        monkeypatch.setattr(oracle, "evaluate", refuse)
        for group_size in (1, 2):
            groups = group_tables(inst, default_covering(inst, group_size), space)
            for query in _corpus_queries(inst, space):
                local_check(groups, query)
            assert local_check(groups, Q("irrelevant", "v5")).established
            assert local_check(groups, Q("fixable", "v2", ("1",))).established
            assert not local_check(groups, Q("determined", "v5")).established

    def test_assignment_rebuilds_only_the_groups_it_touches(self, corpus, monkeypatch):
        # Narrowing derives the groups that hold the variable from their
        # tables, enumerating nothing; every other group keeps its table
        # object and the answer rows built on it.
        def refuse(*args):
            raise AssertionError("narrowing enumerated a group")

        narrowed_groups = 0
        for inst, space in corpus[:10]:
            query = Q("fixable", inst.variables[0], (space.values(inst.variables[0])[0],))
            for group_size in (1, 2):
                covering = default_covering(inst, group_size)
                tables = group_tables(inst, covering, space)
                current = space
                for v in inst.variables[1:]:
                    if len(current.values(v)) == 1:
                        continue
                    local_check(tables, query)
                    before = list(tables.tables)
                    rows = [dict(tbl.answers) for tbl in before]
                    current = current.assign(v, current.values(v)[0])
                    with monkeypatch.context() as patch:
                        patch.setattr(oracle, "_solution_rows", refuse)
                        tables.narrow(current, v)
                    assert tables.space is current
                    for old, new, built in zip(before, tables.tables, rows):
                        if v in old.index:
                            assert new is not old and not new.answers, (group_size, v)
                            narrowed_groups += 1
                        else:
                            assert new is old and new.answers == built, (group_size, v)
                    expected = ask(inst, current, covering, query)
                    assert local_check(tables, query) == expected
        assert narrowed_groups > 0


def _narrowing_chain(inst, space, rng, steps):
    """Spaces the simplifier could visit, each with the variable it narrows
    (None for the first): each one assigns a variable or removes one of
    its values, so the spaces only shrink."""
    chain = [(space, None)]
    for _ in range(steps):
        open_vars = [v for v in inst.variables if len(space.values(v)) > 1]
        if not open_vars:
            break
        v = rng.choice(open_vars)
        value = rng.choice(space.values(v))
        space = space.assign(v, value) if rng.random() < 0.5 else space.remove(v, value)
        chain.append((space, v))
    return chain


class TestGroupVerdictMemo:
    @pytest.mark.parametrize("seed", range(6))
    def test_warm_memo_along_a_narrowing_chain_equals_subproblem_oracle(self, seed):
        # Verdicts decided on earlier spaces stay on the tables of groups
        # that a step left untouched; each must still be the exact verdict
        # on the group's subproblem in the narrowed space.
        rng = random.Random(f"chain/{seed}")
        checked = 0
        for number in range(8):
            inst, space = gen_random(
                RandomSpec(
                    rng.randint(2, 5),
                    rng.randint(2, 3),
                    rng.randint(1, 5),
                    max_arity=3,
                    density=rng.choice((0.4, 0.6, 0.8)),
                    seed=rng.randrange(10**6),
                )
            )
            coverings = _coverings(inst)
            warm = [group_tables(inst, covering, space) for covering in coverings]
            for narrowed, v in _narrowing_chain(inst, space, rng, 4):
                for covering, groups in zip(coverings, warm):
                    if v is not None:
                        groups.narrow(narrowed, v)
                    subs = [
                        solution_table(subproblem(inst, group), narrowed)
                        for group in covering.groups
                    ]
                    for query in _corpus_queries(inst, narrowed):
                        verdict = local_check(groups, query)
                        expected = tuple(oracle.evaluate(sub, query).holds for sub in subs)
                        assert verdict.per_group == expected, (
                            seed, number, narrowed, covering, query.describe()
                        )
                        checked += 1
        assert checked > 1000

    def test_only_groups_holding_the_variable_are_scanned_and_only_once(
        self, corpus, monkeypatch
    ):
        scanned = []
        signature = oracle._signature
        dependence_pair = oracle._dependence_pair

        def recording_signature(tbl, x):
            scanned.append(tbl)
            return signature(tbl, x)

        def recording_pair(tbl, over, y):
            scanned.append(tbl)
            return dependence_pair(tbl, over, y)

        def refuse(*args):
            raise AssertionError("a group verdict scanned for a falsifying row")

        monkeypatch.setattr(oracle, "_signature", recording_signature)
        monkeypatch.setattr(oracle, "_dependence_pair", recording_pair)
        monkeypatch.setattr(oracle, "_falsifying_rows", refuse)
        for inst, space in corpus[:12]:
            pinned = inst.variables[-1]
            narrowed = space.assign(pinned, space.values(pinned)[0])
            for covering in _coverings(inst):
                groups = group_tables(inst, covering, space)
                for query in _corpus_queries(inst, space):
                    scanned.clear()
                    local_check(groups, query)
                    assert all(query.variable in tbl.index for tbl in scanned), (
                        covering, query.describe()
                    )
                    scanned.clear()
                    local_check(groups, query)
                    assert scanned == [], query.describe()
                # Every query on the narrowed space is asked on the full one
                # first: a group outside the assigned variable's scope keeps
                # its table and its answer rows through ``narrow``.
                groups.narrow(narrowed, pinned)
                for query in _corpus_queries(inst, narrowed):
                    scanned.clear()
                    local_check(groups, query)
                    assert all(
                        query.variable in tbl.index and pinned in tbl.index for tbl in scanned
                    ), (covering, query.describe())
                    scanned.clear()
                    local_check(groups, query)
                    assert scanned == [], query.describe()


def _group_queries(inst, space):
    """Every local query, with substitutability and interchangeability over
    every ordered pair of active values, a == b included."""
    queries = _corpus_queries(inst, space)
    for x in inst.variables:
        for a in space.values(x):
            queries += [Q("substitutable", x, (a, b)) for b in space.values(x)]
            queries += [Q("interchangeable", x, (a, b)) for b in space.values(x)]
    return queries


def _assert_group_answers_match_references(inst, space, rng):
    """Every group verdict, asked query by query in a shuffled order on
    fresh tables (each read off the variable's answer row on the group's
    table), equals the product-enumerating reference on the group's
    subproblem; every value and variable verdict also equals the falsifier
    scan on the group's table.  On fresh tables, each variable's
    established row (``GroupTables.row``) holds the same verdicts, read off
    the variable's signatures and kept on no table."""
    queries = _group_queries(inst, space)
    coverings = _coverings(inst) if inst.constraints else [default_covering(inst)]
    for covering in coverings:
        subs = [subproblem(inst, group) for group in covering.groups]
        solutions = [reference_solutions(sub, space) for sub in subs]
        order = rng.sample(queries, len(queries))
        groups = group_tables(inst, covering, space)
        tables = groups.tables
        singles = []
        for query in order + order[: len(order) // 2]:
            verdict = local_check(groups, query)
            singles.append(verdict)
            expected = tuple(
                reference_verdict(sub, space, sols, query)[0]
                for sub, sols in zip(subs, solutions)
            )
            assert verdict.per_group == expected, (covering, query.describe())
            if query.kind == "dependent":
                continue
            for tbl, holds in zip(tables, verdict.per_group):
                if query.variable in tbl.index:
                    scanned = next(oracle._falsifying_rows(tbl, query), None) is None
                    assert holds == scanned, (covering, query.describe())
        fresh = group_tables(inst, covering, space)
        overs = {x: [q.over for q in queries if q.variable == x and q.over] for x in inst.variables}
        for x in inst.variables:
            row = fresh.row(x, overs[x])
            for query, verdict in zip(order, singles):
                if query.variable == x:
                    key = (query.kind, query.values or query.over)
                    assert row[key] == verdict.established, (covering, query.describe())
        assert not any(tbl.answers for tbl in fresh.tables), covering


class TestGroupAnswers:
    @settings(max_examples=60, deadline=None)
    @given(instances_with_spaces(), st.randoms(use_true_random=False))
    def test_every_group_verdict_matches_scan_and_product(self, case, rng):
        _assert_group_answers_match_references(*case, rng)

    def test_edge_groups(self):
        rng = random.Random(3)
        for inst, space in edge_instances():
            _assert_group_answers_match_references(inst, space, rng)

    def test_errors_come_in_local_check_order(self, triple_tables):
        inst, space = triple_tables
        covering = default_covering(inst)
        x = inst.variables[0]
        good = Q("fixable", x, (space.values(x)[0],))
        groups = group_tables(inst, covering, space)
        # The kind is checked first, then the variable, then its values; a
        # row checks its variable.
        assert local_check(groups, good).established in (True, False)
        with pytest.raises(UnsoundLocalCheckError):
            local_check(groups, Q("removable", "nope", ("1",)))
        with pytest.raises(ValueError, match="unknown variable 'nope'"):
            local_check(groups, Q("fixable", "nope", ("9",)))
        with pytest.raises(ValueError, match="not active"):
            local_check(groups, Q("fixable", x, ("9",)))
        with pytest.raises(ValueError, match="unknown variable 'nope'"):
            groups.row("nope")


def assert_rows_match_local_check(inst, space, dep_max=2):
    """Every entry of each variable's established row equals
    ``local_check(...).established`` at group sizes 1, 2 and whole."""
    names = inst.variables
    queries = oracle.all_queries(inst, space, tuple(AND_KINDS | OR_KINDS), dep_max)
    for size in sorted({1, 2, max(len(inst.constraints), 1)}):
        covering = default_covering(inst, size)
        groups = group_tables(inst, covering, space)
        rows = {x: groups.row(x, oracle.conditioning_sets(names, x, 1, dep_max)) for x in names}
        asked = group_tables(inst, covering, space)
        for query in queries:
            established = local_check(asked, query).established
            key = (query.kind, query.values or query.over)
            assert rows[query.variable][key] == established, (size, query.describe())
        for x in names:
            active = space.values(x)
            pairs = [(a, b) for a in active for b in active]
            for a, b in pairs:
                for kind in ("substitutable", "interchangeable"):
                    query = Q(kind, x, (a, b))
                    assert rows[x][kind, (a, b)] == local_check(asked, query).established
            assert not any(kind == "removable" for kind, _ in rows[x]), x


class TestEstablishedRows:
    @settings(max_examples=150, deadline=None)
    @given(instances_with_spaces())
    def test_every_entry_matches_local_check(self, case):
        assert_rows_match_local_check(*case)

    def test_edge_instances(self):
        for inst, space in edge_instances():
            assert_rows_match_local_check(inst, space)

    def test_boolean_corpora(self, boolean_corpora):
        for formulas in boolean_corpora.values():
            for formula in [f for f in formulas if len(f.variables) <= 8][:8]:
                inst = to_extensional(formula)
                assert_rows_match_local_check(inst, SearchSpace.full(inst), 1)


class TestSoundness:
    def test_on_corpus_sample(self, corpus):
        for inst, space in corpus[:50]:
            queries = _corpus_queries(inst, space)
            table = solution_table(inst, space)
            for group_size in (1, 2):
                groups = group_tables(inst, default_covering(inst, group_size), space)
                for query in queries:
                    if local_check(groups, query).established:
                        assert oracle.evaluate(table, query).holds

    def test_global_covering_equals_oracle(self, corpus):
        for inst, space in corpus[:50]:
            groups = group_tables(inst, default_covering(inst, len(inst.constraints)), space)
            table = solution_table(inst, space)
            for query in _corpus_queries(inst, space):
                assert (
                    local_check(groups, query).established
                    == oracle.evaluate(table, query).holds
                )


class TestRemovabilityTrapRegression:
    def test_three_assertions(self, removability_trap):
        inst, space = removability_trap
        # (a) the removability query is rejected outright
        with pytest.raises(UnsoundLocalCheckError):
            ask(inst, space, default_covering(inst), Q("removable", "x", ("2",)))
        # (b) yet every singleton subproblem satisfies the removability
        # condition for (x, 2)
        for index in range(len(inst.constraints)):
            sub = subproblem(inst, (index,))
            assert oracle.evaluate(solution_table(sub, space), Q("removable", "x", ("2",))).holds
        # (c) and removing 2 from x flips satisfiability
        assert oracle.satisfiable(inst, space)
        assert not oracle.satisfiable(inst, space.remove("x", "2"))


class TestPureValue:
    def test_pure_literal_cnf_fixture(self, pure_literal_cnf):
        assert pure_values(pure_literal_cnf)["x"] is True
        assert pure_values(pure_literal_cnf)["y"] is None
        assert pure_values(pure_literal_cnf)["z"] is None

    def test_absent_variable_reports_true(self):
        f = BooleanFormula(("a", "b"), (Clause(frozenset({Literal("a", True)})),))
        assert pure_values(f)["b"] is True

    def test_both_polarities_give_none(self):
        f = BooleanFormula(
            ("a",),
            (
                Clause(frozenset({Literal("a", True)})),
                Clause(frozenset({Literal("a", False)})),
            ),
        )
        assert pure_values(f)["a"] is None

    def test_negative_only_gives_false(self):
        f = BooleanFormula(("a",), (Clause(frozenset({Literal("a", False)})),))
        assert pure_values(f)["a"] is False

    def test_requires_clausal_formula(self):
        # The rule reads clause polarities, so it never acts on a formula
        # with equations, where a variable occurs in neither polarity: there
        # the tractable route fixes a, which pure-value would fix first.
        from cspstruct.boolean import AffineEquation

        f = BooleanFormula(("a",), (), (AffineEquation(frozenset({"a"}), True),))
        inst = to_extensional(f)
        result = simplify_fixpoint(inst, SearchSpace.full(inst), formula=f)
        assert result.log() == "FIX a=true BY tractable-implied"

    def test_matches_local_fixability_and_oracle_on_random_cnfs(self):
        import random

        sizes = random.Random("cnf-sizes")
        for seed in range(1, 40):
            formula = gen_random_boolean(
                "cnf", sizes.randint(3, 10), sizes.randint(1, 15), seed
            )
            inst = to_extensional(formula)
            space = SearchSpace.full(inst)
            groups = group_tables(inst, default_covering(inst, 1), space)
            table = solution_table(inst, space)
            for x in formula.variables:
                value = pure_values(formula)[x]
                for candidate, name in ((True, "true"), (False, "false")):
                    local_says = local_check(groups, Q("fixable", x, (name,))).established
                    assert local_says == (
                        value is candidate or _pure_both_ways(formula, x)
                    ), (seed, x, candidate)
                if value is not None:
                    pure = Q("fixable", x, ("true" if value else "false",))
                    assert oracle.evaluate(table, pure).holds


def _pure_both_ways(formula, x):
    return all(x not in c.variables for c in formula.clauses)


class TestDerivedTables:
    """``GroupTables.narrow`` gives what a cold build of the narrowed space
    gives."""

    @settings(max_examples=100, deadline=None)
    @given(
        wide_instances(),
        st.integers(1, 3),
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 2), st.booleans()), max_size=8
        ),
    )
    def test_narrowed_tables_equal_cold_builds(self, case, group_size, moves):
        inst, space = case
        covering = default_covering(inst, group_size)
        projected, _ = local._groups(inst, covering)
        tables = group_tables(inst, covering, space)
        for pick, value, fix in moves:
            candidates = [v for v in inst.variables if len(space.values(v)) > 1]
            if not candidates:
                break
            x = candidates[pick % len(candidates)]
            a = space.values(x)[value % len(space.values(x))]
            space = space.assign(x, a) if fix else space.remove(x, a)
            tables.narrow(space, x)
            cold = group_tables(inst, covering, space)
            for tbl, cold_tbl, group in zip(tables.tables, cold.tables, projected):
                actives = tuple(map(space.values, group.variables))
                enumerated = oracle._solution_rows(group, SearchSpace(tuple(zip(group.variables, actives))))
                assert set(tbl.rows) == set(cold_tbl.rows) == set(enumerated)
                assert len(tbl.rows) == len(cold_tbl.rows)
                assert tbl.actives == cold_tbl.actives == actives
            empty = [not tbl.rows for tbl in cold.tables]
            assert [not tbl.rows for tbl in tables.tables] == empty
            assert tables.some_empty == cold.some_empty == any(empty)
            rows = {}
            for query in _group_queries(inst, space):
                expected = local_check(cold, query)
                assert local_check(tables, query) == expected
                x = query.variable
                if x not in rows:
                    rows[x] = tables.row(x, oracle.conditioning_sets(inst.variables, x, 1, 2))
                assert rows[x][query.kind, query.values or query.over] == expected.established

    def test_one_wide_constraint_is_not_enumerated(self, monkeypatch):
        # Three rows, against 3^17 in the scope product.  Value 2 occurs in
        # no row, so the simplifier removes it from every variable and stops.
        inst, space = parse_csp(data_path("wide17.csp").read_text())
        monkeypatch.setattr(oracle, "_solution_rows", None)
        groups = group_tables(inst, default_covering(inst), space)
        assert local_check(groups, Q("inconsistent", "x1", ("2",))).established
        assert not local_check(groups, Q("fixable", "x1", ("0",))).established
        result = simplify_fixpoint(inst, space)
        assert result.log().splitlines() == [
            f"REMOVE {x}!=2 BY local-inconsistent" for x in inst.variables
        ]
        assert not result.proved_unsatisfiable and result.final_space.size() == 2**17
