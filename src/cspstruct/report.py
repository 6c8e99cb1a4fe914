"""Analysis report records, their JSON schema and the report writer.

The JSON text is byte for byte what ``json.dumps(payload, indent=2)`` writes,
the payload listing each finding's fields in declaration order.  It
round-trips: ``from_json(to_json(report))`` equals the original report
whenever every ``elapsed_ms`` is finite.  A decided finding's head, arrays
and tail are encoded once per distinct value and chunk.
"""

from __future__ import annotations

import hashlib
import json
import time
from itertools import groupby
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from typing import NamedTuple

from .oracle import PropertyQuery


class Finding(NamedTuple):
    """One query's answer, as a tuple, as ``from_json`` reads it."""

    kind: str
    variable: str
    values: tuple[str, ...]
    over: tuple[str, ...]
    verdict: str  # TRUE | FALSE | ESTABLISHED | UNKNOWN
    method: str  # oracle | local | tractable | hierarchy
    evidence: str | None
    elapsed_ms: float

    def line(self) -> str:
        return PropertyQuery.describe(self) + " " + self.verdict


class AnalysisReport(NamedTuple):
    digest: str
    method: str
    findings: tuple[Finding, ...]
    summary: dict[str, int]

    def render(self) -> str:
        return _written(self, False)


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# The indent-2 layout of ``json.dumps(payload, indent=2)``, written directly:
# that call runs json's pure-Python encoder, the largest cost of a big report.
# A finding is its head (kind, variable), its two arrays, its tail (verdict,
# method, evidence) and its time.
_HEAD = '    {\n      "kind": %s,\n      "variable": %s,\n      "values": '
_TAIL = ',\n      "verdict": %s,\n      "method": %s,\n      "evidence": %s,\n      "elapsed_ms": '
_PAD = "      "
# About 1 MB of text per write: a desk-scale report is one write.
_CHUNK = 1 << 20


def _value(value, pad: str) -> str:
    """``value`` exactly as ``json.dumps(..., indent=2)`` writes it at a
    nesting whose indentation is ``pad``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    if type(value) is dict and all(type(k) is str and type(n) is int for k, n in value.items()):
        # A summary: json's pure-Python encoder would leave its closures as
        # the only cyclic garbage of a command.
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + int.__repr__(n) for k, n in value.items()]
        return "{\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _fill(template: str | None, parts) -> str:
    """``template`` holding ``parts`` at a finding's nesting, or with no
    template, the array of ``parts`` (a finding's ``values`` or ``over``)."""
    if template is not None:
        return template % tuple(_value(part, _PAD) for part in parts)
    if not parts:
        return "[]"
    inner = ",\n        ".join([_value(part, "        ") for part in parts])
    return "[\n        " + inner + "\n      ]"


class _Texts(dict):
    """``_fill(template, key)`` per key of strings and None, which no two
    types share, made at the key's first use."""

    def __init__(self, template: str | None):
        self.template = template

    def __missing__(self, key):
        text = self[key] = _fill(self.template, key)
        return text


class _Fresh(_Texts):
    """``_fill(template, key)`` per key of any value, made at each use."""

    def __getitem__(self, key):
        return _fill(self.template, key)


class _Encoded(str):
    """A value's JSON text, which ``repr`` writes as it is."""

    __repr__ = str.__str__


def write_report(write, digest: str, method: str, routes, as_json: bool, summary=None) -> None:
    """Write a report through ``write`` as its findings are decided, in
    chunks of about ``_CHUNK`` characters: as JSON when ``as_json``, else a
    line per finding and a summary line, ending in a newline.  ``routes``
    yields (method, runs, decide, render, shown), ``runs`` the route's
    queries as runs (kind, variable, queries).  ``decide`` answers a query,
    timed on its own, ``render`` turns the answer into the verdict and the
    evidence, and a verdict in ``shown`` is written.  With no ``decide``,
    each query is a whole ``Finding`` of any values, method included.  The
    summary is ``summary``, else the verdict counts in first-seen order."""
    counts: dict[str, int] = {}
    kept = _Texts(_HEAD), _Texts(None), _Texts(_TAIL)
    fresh = _Fresh(_HEAD), _Fresh(None), _Fresh(_TAIL)
    parts = ['{\n  "digest": %s,\n  "method": %s,\n  "findings": [' % (
        _value(digest, "  "), _value(method, "  "))] if as_json else []
    sep, size, clock = "\n", 0, time.perf_counter
    for route, runs, decide, render, shown in routes:
        heads, arrays, tails = fresh if decide is None else kept
        for kind, variable, queries in runs:
            head = heads[kind, variable]
            for query in queries:
                if decide is None:
                    verdict, route, evidence, elapsed = query[4:]
                    elapsed = _Encoded(_value(elapsed, _PAD))
                else:
                    start = clock()
                    answer = decide(query)
                    elapsed = (clock() - start) * 1000.0
                    verdict, evidence = render(answer)
                    if verdict not in shown:
                        continue
                counts[verdict] = counts.get(verdict, 0) + 1
                if as_json:
                    text = (f'{sep}{head}{arrays[query[2]]},\n      "over": {arrays[query[3]]}'
                            f'{tails[verdict, route, evidence]}{elapsed!r}\n    }}')
                    sep = ",\n"
                else:
                    text = f"{PropertyQuery.describe(query)} {verdict}\n"
                parts.append(text)
                size += len(text)
                if size > _CHUNK:
                    write("".join(parts))
                    parts, size = [], 0
                    for memo in kept:
                        memo.clear()
    summary = counts if summary is None else summary
    if as_json:
        closing = "]" if sep == "\n" else "\n  ]"
        parts.append(f'{closing},\n  "summary": {_value(summary, "  ")}\n}}\n')
    else:
        counted = ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        parts.append(f"# instance {digest}: {counted}\n")
    write("".join(parts))


def _written(report: AnalysisReport, as_json: bool) -> str:
    """The report's text as ``write_report`` writes it, less the last newline."""
    parts: list[str] = []
    runs = ((*key, run) for key, run in groupby(report.findings, itemgetter(0, 1)))
    routes = [(None, runs, None, None, None)]
    write_report(parts.append, report.digest, report.method, routes, as_json, report.summary)
    return "".join(parts)[:-1]


def to_json(report: AnalysisReport) -> str:
    """The report as ``json.dumps(payload, indent=2)`` writes it."""
    return _written(report, True)


def from_json(text: str) -> AnalysisReport:
    payload = json.loads(text)
    arrays = ("values", "over")
    findings = tuple(
        Finding._make(tuple(f[name]) if name in arrays else f[name] for name in Finding._fields)
        for f in payload["findings"]
    )
    return AnalysisReport(payload["digest"], payload["method"], findings, payload["summary"])
