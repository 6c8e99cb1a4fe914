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
    instantiate_project,
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
    boolean_corpus,
    decode_factors,
    emit_csp,
    emit_dimacs,
    encode_solution,
    factoring_space,
    gen_coloring,
    gen_factoring,
    gen_random,
    gen_random_boolean,
    parse_csp,
    parse_dimacs,
    standard_corpus,
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
    Relation,
    SearchSpace,
)
from .oracle import (
    KINDS,
    OracleVerdict,
    PropertyQuery,
    all_queries,
    evaluate,
    satisfiable,
    solution_table,
)
from .simplify import (
    ProvedUnsatisfiable,
    SimplificationResult,
    SimplificationStep,
    apply_fix,
    apply_remove,
    replay,
    simplify_fixpoint,
)

__version__ = "0.1.0"
