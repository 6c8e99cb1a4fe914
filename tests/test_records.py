"""Every record type of the package is a tuple and keeps the contract it
had as a frozen dataclass: its fields in order, its repr, equality and
hash by value among records of one class, read-only fields and each
validation message."""

import pytest

from cspstruct.boolean import (
    AffineEquation,
    BooleanFormula,
    Clause,
    Literal,
    SchaeferClass,
    SchaeferClassification,
)
from cspstruct.hierarchy import RelationshipEdge, Violation
from cspstruct.instances import FactoringSpec, Graph, RandomSpec, _FactoringLayout
from cspstruct.local import Covering
from cspstruct.model import Constraint, CspInstance, SearchSpace
from cspstruct.report import AnalysisReport, Finding
from cspstruct.simplify import SimplificationResult, SimplificationStep

X, NOT_Y = Literal("x", True), Literal("y", False)
NE = Constraint("ne", ("x", "y"), [("0", "1")])
SPACE = SearchSpace((("x", ("0", "1")), ("y", ("1",))))
STEP = SimplificationStep("fix", "y", "1", "tractable", 4, 2)
FINDING = Finding("fixable", "x", ("0",), (), "TRUE", "oracle", None, 0.5)

# Per class: its fields, the arguments of one record and of a record that
# differs from it, and that record's repr.  The fields and reprs were
# recorded while every class was a frozen dataclass.  RelationshipEdge then
# compared by identity; as a tuple it compares by value, its two sides
# being functions, which compare by identity.
RECORDS = [
    (Constraint, "name scope rows", ("ne", ("x", "y"), [("0", "1")]),
     ("ne", ("x", "y"), [("1", "0")]),
     "Constraint(name='ne', scope=('x', 'y'), rows=frozenset({('0', '1')}))"),
    (CspInstance, "variables domain constraints", (("x", "y"), ("0", "1"), (NE,)),
     (("x", "y"), ("0", "1")),
     "CspInstance(variables=('x', 'y'), domain=('0', '1'), constraints=(Constraint("
     "name='ne', scope=('x', 'y'), rows=frozenset({('0', '1')})),))"),
    (SearchSpace, "entries", ((("x", ("0", "1")), ("y", ("1",))),),
     ((("x", ("0",)), ("y", ("1",))),),
     "SearchSpace(entries=(('x', ('0', '1')), ('y', ('1',))))"),
    (Covering, "groups", (((0, 1), (2,)),), (((0,), (1, 2)),),
     "Covering(groups=((0, 1), (2,)))"),
    (Literal, "variable positive", ("y", False), ("y", True), "-y"),
    (Clause, "literals", ([X, NOT_Y],), ([X],), "(x | -y)"),
    (AffineEquation, "variables parity", (["y", "x"], True), (["y", "x"], False),
     "(x ^ y = 1)"),
    (BooleanFormula, "variables clauses equations",
     (("x", "y"), [Clause([X, NOT_Y])], [AffineEquation(["x"], False)]), (("x", "y"),),
     "BooleanFormula(variables=('x', 'y'), clauses=((x | -y),), equations=((x = 0),))"),
    (SchaeferClassification, "primary applicable",
     (SchaeferClass.HORN, (SchaeferClass.HORN, SchaeferClass.AFFINE)),
     (SchaeferClass.HORN, (SchaeferClass.HORN,)),
     "SchaeferClassification(primary=<SchaeferClass.HORN: 'horn'>, applicable="
     "(<SchaeferClass.HORN: 'horn'>, <SchaeferClass.AFFINE: 'affine'>))"),
    (RelationshipEdge, "name kind args lhs rhs", ("e", "implies", "xa", len, set),
     ("e", "iff", "xa", len, set),
     "RelationshipEdge(name='e', kind='implies', args='xa', lhs=<built-in function len>,"
     " rhs=<class 'set'>)"),
    (Violation, "edge kind args lhs rhs", ("e", "implies", ("x", "0"), True, False),
     ("e", "implies", ("x", "1"), True, False),
     "Violation(edge='e', kind='implies', args=('x', '0'), lhs=True, rhs=False)"),
    (AnalysisReport, "digest method findings summary",
     ("0123456789ab", "oracle", (FINDING,), {"TRUE": 1}),
     ("0123456789ab", "oracle", (), {}),
     "AnalysisReport(digest='0123456789ab', method='oracle', findings=(Finding(kind="
     "'fixable', variable='x', values=('0',), over=(), verdict='TRUE', method='oracle',"
     " evidence=None, elapsed_ms=0.5),), summary={'TRUE': 1})"),
    (SimplificationStep, "action variable value detector space_before space_after",
     ("fix", "y", "1", "tractable", 4, 2), ("remove", "y", "1", "tractable", 4, 2),
     "SimplificationStep(action='fix', variable='y', value='1', detector='tractable',"
     " space_before=4, space_after=2)"),
    (SimplificationResult, "final_space steps proved_unsatisfiable conflict",
     (SPACE, (STEP,), True, ("x", "0", "local")), (SPACE, (STEP,), False),
     "SimplificationResult(final_space=SearchSpace(entries=(('x', ('0', '1')), ('y', "
     "('1',)))), steps=(SimplificationStep(action='fix', variable='y', value='1', "
     "detector='tractable', space_before=4, space_after=2),), proved_unsatisfiable=True,"
     " conflict=('x', '0', 'local'))"),
    (Graph, "nodes edges", (3, ((1, 2), (2, 3))), (3, ((1, 2),)),
     "Graph(nodes=3, edges=((1, 2), (2, 3)))"),
    (FactoringSpec, "z base ordering", (15, 2, True), (15, 3, True),
     "FactoringSpec(z=15, base=2, ordering=True)"),
    (_FactoringLayout, "xs ys carries columns aux_bounds domain",
     (("x1",), ("y1",), ("c1", "c2"), ((((("x1", "y1"),), ()),)), (), ("0", "1")),
     (("x1",), ("y1",), ("c1", "c2"), (), (), ("0", "1")),
     "_FactoringLayout(xs=('x1',), ys=('y1',), carries=('c1', 'c2'), columns=(((('x1',"
     " 'y1'),), ()),), aux_bounds=(), domain=('0', '1'))"),
    (RandomSpec, "variable_count domain_size constraint_count max_arity density seed",
     (5, 3, 6, 2, 0.5, 7), (5, 3, 6, 2, 0.5, 8),
     "RandomSpec(variable_count=5, domain_size=3, constraint_count=6, max_arity=2,"
     " density=0.5, seed=7)"),
]

# Each validation message, with arguments that are wrong in that way (and,
# where two checks could fire, in the one checked first).
REFUSED = [
    (Constraint, ("c", ("x", "x"), [("0",)]), "constraint 'c' repeats a scope variable"),
    (Constraint, ("c", ("x", "y"), [("0",)]), "row ('0',) does not match arity 2"),
    (CspInstance, (("x", "x"), ()), "variable names must be unique"),
    (CspInstance, (("x",), ()), "domain must contain at least one value"),
    (CspInstance, (("x",), ("0", "0")), "domain values must be unique"),
    (CspInstance, (("x",), ("0",), [Constraint("c", (), [])]),
     "constraint 'c' has an empty scope"),
    (CspInstance, (("x",), ("0",), [Constraint("c", ("q",), [("7",)])]),
     "constraint 'c' mentions unknown variable 'q'"),
    (CspInstance, (("x",), ("0",), [Constraint("c", ("x",), [("7",)])]),
     "constraint 'c' uses value '7' outside the domain"),
    (SearchSpace, ([("x", ()), ("x", ("1",))],), "search space repeats a variable"),
    (SearchSpace, ([("x", ())],), "active set for 'x' is empty"),
    (SearchSpace, ([("x", ("0", "0"))],), "active set for 'x' repeats a value"),
    (Covering, ([(0,), ()],), "covering subsets must be nonempty"),
    (Clause, ([X, Literal("x", False)],), "tautological clause (complementary literals)"),
    (BooleanFormula, (("x", "x"), [Clause([Literal("q", True)])]),
     "formula variables must be unique"),
    (BooleanFormula, (("x",), [Clause([Literal("q", True)])]),
     "clause mentions undeclared variable(s) ['q']"),
    (BooleanFormula, (("x",), (), [AffineEquation(["r", "q"], True)]),
     "equation mentions undeclared variable(s) ['q', 'r']"),
    (Graph, (0, [(1, 1)]), "graph needs at least one node"),
    (Graph, (3, [(1, 1)]), "self-loop on node 1"),
    (Graph, (3, [(1, 5)]), "edge (1,5) leaves the node range 1..3"),
    (FactoringSpec, (3, 1), "z must be at least 4 to have nontrivial factors"),
    (FactoringSpec, (15, 1), "base must be at least 2"),
    (RandomSpec, (0, 3, -1), "need at least one variable and one domain value"),
    (RandomSpec, (5, 0, 1), "need at least one variable and one domain value"),
    (RandomSpec, (5, 3, -1, 2, 0.0), "bad constraint count or arity bound"),
    (RandomSpec, (5, 3, 1, 0), "bad constraint count or arity bound"),
    (RandomSpec, (5, 3, 1, 2, 0.0), "density must be in (0, 1]"),
    (RandomSpec, (5, 3, 1, 2, 1.5), "density must be in (0, 1]"),
]


def test_every_record_class_is_listed():
    assert len({record[0] for record in RECORDS}) == len(RECORDS) == 18
    assert {cls for cls, _, _ in REFUSED} <= {record[0] for record in RECORDS}


@pytest.mark.parametrize(
    "cls, fields, args, other, shown", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_contract(cls, fields, args, other, shown):
    record, same, different = cls(*args), cls(*args), cls(*other)
    assert cls._fields == tuple(fields.split())
    assert repr(record) == shown
    assert record == same and not record != same
    assert record != different and not record == different
    if cls is AnalysisReport:  # its summary is a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(different, field))
    assert record == same


@pytest.mark.parametrize(
    "cls, args, message", REFUSED, ids=[f"{cls.__name__}-{m}" for cls, _, m in REFUSED]
)
def test_validation_message(cls, args, message):
    with pytest.raises(ValueError) as error:
        cls(*args)
    assert str(error.value) == message
