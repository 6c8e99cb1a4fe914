"""The package holds only what its commands run.

Every module-level name in ``src/cspstruct`` must be reached from outside
the tests: used in a package module other than ``__init__.py`` (its own
module included), or named in the benchmark, the planted-formula writer
or the CI workflow.  A helper that only the tests call belongs in
``tests/conftest.py``.

Every parameter with a default must likewise be set, by keyword or by
position, at some call outside the tests: in a package module, the
benchmark or the planted-formula writer.  An option only the tests set
is a second code path that no command runs.
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
# Parameters kept although only the tests set them, each with its reason.
ALLOWED_OPTIONS = {
    "oracle.PropertyQuery.__new__(over)": (
        "all_queries builds the dependence queries, which carry over, as bare "
        "tuples that skip __new__'s checks"
    ),
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


def defaulted(tree):
    """(name a call uses, qualified name, parameter, position or None) for
    each parameter with a default of each function in a module.  A
    constructor's parameters are set through its class name, and the
    position of a method's parameter does not count ``self``."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from parameters(child, owner)
                yield from visit(child, None)
            else:
                yield from visit(child, owner)

    def parameters(func, owner):
        called = func.name
        qualified = func.name if owner is None else f"{owner.name}.{func.name}"
        if owner is not None and func.name in ("__init__", "__new__"):
            called = owner.name
        positional = [*func.args.posonlyargs, *func.args.args]
        static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
        skip = 1 if owner is not None and not static else 0
        first = len(positional) - len(func.args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield called, qualified, arg.arg, k - skip
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield called, qualified, arg.arg, None

    yield from visit(tree, None)


def calls_by_name(trees):
    """Per called name, what its calls set: (positional count, keywords),
    where a starred argument sets every position and ``**`` every keyword."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            count = float("inf") if starred else len(node.args)
            calls.setdefault(name, []).append((count, keywords))
    return calls


def unset_options():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    callers = [ast.parse(path.read_text()) for path in CALLERS if path.suffix == ".py"]
    calls = calls_by_name([*modules.values(), *callers])
    return [
        f"{stem}.{qualified}({param})"
        for stem, tree in modules.items()
        for called, qualified, param, position in defaulted(tree)
        if f"{stem}.{qualified}({param})" not in ALLOWED_OPTIONS
        and not any(
            param in keywords or None in keywords or (position is not None and position < count)
            for count, keywords in calls.get(called, ())
        )
    ]


def test_every_option_is_set_outside_the_tests():
    options = unset_options()
    assert not options, f"only the tests set {', '.join(options)}: drop the parameter"


def test_each_allowed_option_still_exists():
    options = {
        f"{path.stem}.{qualified}({param})"
        for path in PACKAGE.glob("*.py")
        for _, qualified, param, _ in defaulted(ast.parse(path.read_text()))
    }
    assert set(ALLOWED_OPTIONS) <= options
