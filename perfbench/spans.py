"""Span tracing from outside the program.

``Tracer`` wraps the public functions of each layer for the length of a
``with tracer.installed():`` block.  A function is replaced under every
name a ``cspstruct`` module holds it by, because several modules import
functions with ``from ... import``.  Spans (layer, parent span, input,
start, end) are kept in typed arrays in memory and written out when the
run ends; per-layer self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, layer).  Layers: instances -> oracle / local / boolean
# -> hierarchy -> simplify -> report, under cli.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("instances", "parse_csp", "instances.parse"),
    ("instances", "parse_dimacs", "instances.parse"),
    ("oracle", "solution_table", "oracle.table"),
    ("oracle", "evaluate", "oracle.evaluate"),
    ("oracle", "satisfiable", "oracle.satisfiable"),
    ("local", "local_check", "local.check"),
    ("boolean", "tract_check", "boolean.tract"),
    ("boolean", "classify_schaefer", "boolean.classify"),
    ("boolean", "assume", "boolean.assume"),
    ("boolean", "to_extensional", "boolean.to_extensional"),
    ("hierarchy", "validate_hierarchy", "hierarchy.validate"),
    ("simplify", "simplify_fixpoint", "simplify.fixpoint"),
    ("report", "to_json", "report.to_json"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))

COLUMNS = (("layer", "H"), ("parent", "i"), ("item", "i"), ("start", "d"), ("end", "d"))


def _observe_local(tracer: "Tracer", verdict) -> None:
    if verdict.established:
        tracer.counts["local.established"] += 1


def _observe_simplify(tracer: "Tracer", result) -> None:
    tracer.counts["simplify.steps"] += len(result.steps)


OBSERVERS = {"local.check": _observe_local, "simplify.fixpoint": _observe_simplify}


def package_modules(package: str = "cspstruct") -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


class Tracer:
    def __init__(self, package: str = "cspstruct"):
        self.package = package
        self.columns = {name: array(code) for name, code in COLUMNS}
        self.stack = [-1]
        self.item = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _wrap(self, fn, layer_code: int, observe):
        layer_col = self.columns["layer"]
        parent_col = self.columns["parent"]
        item_col = self.columns["item"]
        start_col = self.columns["start"]
        end_col = self.columns["end"]
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start_col)
            layer_col.append(layer_code)
            parent_col.append(stack[-1])
            item_col.append(tracer.item)
            end_col.append(0.0)
            stack.append(span)
            start_col.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[span] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, result)
            return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the block and restore the originals after."""
        modules = {m.__name__: m for m in package_modules(self.package)}
        replaced = []
        missing = []
        try:
            for module_name, function, layer in TARGETS:
                module = modules.get(f"{self.package}.{module_name}")
                original = getattr(module, function, None)
                if original is None:
                    missing.append(f"{module_name}.{function}")
                    continue
                wrapper = self._wrap(original, LAYERS.index(layer), OBSERVERS.get(layer))
                for holder in modules.values():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            replaced.append((holder, name, original))
            self.missing = missing
            yield self
        finally:
            for holder, name, original in reversed(replaced):
                setattr(holder, name, original)

    def spans(self) -> int:
        return len(self.columns["start"])

    def span_counts(self, layer: str) -> Counter:
        """Number of spans of one layer per input index."""
        code = LAYERS.index(layer)
        return Counter(
            item
            for item, lay in zip(self.columns["item"], self.columns["layer"])
            if lay == code
        )

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self time in seconds and call count per layer."""
        return layer_totals(self.columns)

    def write(self, path) -> None:
        """Header line of JSON, then each column's raw bytes in order."""
        header = {
            "layers": list(LAYERS),
            "spans": self.spans(),
            "columns": [[name, code] for name, code in COLUMNS],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for name, _ in COLUMNS:
                self.columns[name].tofile(out)


def layer_totals(columns) -> tuple[dict[str, float], Counter]:
    start, end, parent, layer = (columns[k] for k in ("start", "end", "parent", "layer"))
    child = [0.0] * len(start)
    for span in range(len(start)):
        if parent[span] >= 0:
            child[parent[span]] += end[span] - start[span]
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in range(len(start)):
        name = LAYERS[layer[span]]
        self_s[name] += end[span] - start[span] - child[span]
        calls[name] += 1
    return dict(self_s), calls


def read_spans(path) -> tuple[dict, dict]:
    """Read a file written by ``Tracer.write``: (header, columns)."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(src, header["spans"])
            columns[name] = col
    return header, columns
