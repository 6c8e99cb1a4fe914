"""Write the planted formulas in tests/data: one per tractable Schaefer
class, 400 variables and 400 constraints each, satisfied by an assignment
drawn from a fixed seed.

    PYTHONPATH=src python tests/make_planted.py

The files are committed; running the script again rewrites them with the
same bytes.  They are large enough that a tractable answer costing a solve
per variable, or a compile per simplifier step, shows in the run time.
"""

import random
from pathlib import Path

from cspstruct.boolean import AffineEquation, BooleanFormula, Clause, Literal
from cspstruct.instances import emit_dimacs

KINDS = ("horn", "dual-horn", "2cnf", "affine")
SIZE = 400
DATA = Path(__file__).parent / "data"


def planted_formula(kind: str, n: int, seed: int = 1) -> BooleanFormula:
    """n constraints of the class over n variables, each satisfied by the
    planted assignment; one in ten is unit, the rest of width 2 or 3 (2
    under 2CNF)."""
    rng = random.Random(f"planted/{kind}/{n}/{seed}")
    variables = tuple(f"v{i}" for i in range(1, n + 1))
    planted = {v: rng.random() < 0.5 for v in variables}
    clauses, equations = [], []
    while len(clauses) + len(equations) < n:
        width = 1 if rng.random() < 0.1 else rng.randint(2, 2 if kind == "2cnf" else 3)
        chosen = rng.sample(variables, width)
        if kind == "affine":
            parity = sum(planted[v] for v in chosen) % 2 == 1
            equations.append(AffineEquation(frozenset(chosen), parity))
            continue
        slot = rng.randrange(width + 1)  # the one odd-polarity literal, or none
        if kind == "horn":
            signs = [i == slot for i in range(width)]
        elif kind == "dual-horn":
            signs = [i != slot for i in range(width)]
        else:
            signs = [rng.random() < 0.5 for _ in chosen]
        literals = [Literal(v, s) for v, s in zip(chosen, signs)]
        if any(planted[lit.variable] == lit.positive for lit in literals):
            clauses.append(Clause(frozenset(literals)))
    return BooleanFormula(variables, tuple(clauses), tuple(equations))


def main() -> None:
    for kind in KINDS:
        path = DATA / f"planted_{kind}.cnf"
        path.write_text(emit_dimacs(planted_formula(kind, SIZE)))
        print(path)


if __name__ == "__main__":
    main()
