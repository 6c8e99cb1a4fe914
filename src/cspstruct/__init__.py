"""Structural-property engine for finite-domain CSPs.

Detects fixable, removable, substitutable, interchangeable, inconsistent,
implied, determined, dependent and irrelevant values/variables by three
routes: an exact brute-force oracle, sound local reasoning over constraint
coverings, and polynomial reductions for boolean Schaefer classes.  The
relationship catalog between the properties is executable, and a
simplifier applies satisfiability-preserving fixes and removals.
"""

from .boolean import (
    AffineEquation,
    BooleanFormula,
    ClassMismatchError,
    Clause,
    CompiledFormula,
    Literal,
    SchaeferClass,
    SchaeferClassification,
    UnsupportedQueryError,
    classify_schaefer,
    to_extensional,
    tract_check,
)
from .hierarchy import (
    RelationshipEdge,
    Violation,
    edge_catalog,
    reverse_edge,
    validate_hierarchy,
)
from .instances import (
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
from .local import (
    Covering,
    LocalVerdict,
    UnsoundLocalCheckError,
    default_covering,
    group_tables,
    local_check,
)
from .model import (
    Constraint,
    CspInstance,
    SearchSpace,
)
from .oracle import (
    KINDS,
    OracleVerdict,
    PropertyQuery,
    all_queries,
    evaluate,
    solution_table,
)
from .simplify import (
    SimplificationResult,
    SimplificationStep,
    simplify_fixpoint,
)

__version__ = "0.1.0"
