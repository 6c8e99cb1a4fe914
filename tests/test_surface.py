"""The package holds only what its commands run.

Every module-level name in ``src/cspstruct`` must be reached from outside
the tests: used in a package module other than ``__init__.py`` (its own
module included), or named in the benchmark, the planted-formula writer
or the CI workflow.  A helper that only the tests call belongs in
``tests/conftest.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cspstruct"
CALLERS = (
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "make_planted.py",
    ROOT / ".github" / "workflows" / "tier1.yml",
)
# Names kept although only the tests call them, each with its reason.
ALLOWED = {
    "report.from_json": "the README documents from_json(to_json(r)) == r",
}


def defined(tree):
    """The names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def used(tree):
    """Every identifier a module reads, every attribute it names and every
    name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def unreached():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reached = set()
    for stem, tree in modules.items():
        if stem != "__init__":
            reached.update(used(tree))
    for path in CALLERS:
        reached.update(re.findall(r"\w+", path.read_text()))
    return [
        f"{stem}.{name}"
        for stem, tree in modules.items()
        for name in defined(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in reached
        and f"{stem}.{name}" not in ALLOWED
    ]


def test_every_package_name_has_a_caller_outside_the_tests():
    names = unreached()
    assert not names, f"only the tests call {', '.join(names)}: move them into tests/conftest.py"


def test_each_allowed_name_still_exists():
    names = {
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in defined(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= names
