"""Analysis report records and their JSON schema.

The JSON text is byte for byte what ``json.dumps(payload, indent=2)`` writes,
and it round-trips: ``from_json(to_json(report))`` equals the original report
whenever every ``elapsed_ms`` is finite.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import NamedTuple

from .oracle import PropertyQuery


class Finding(NamedTuple):
    """One query's answer, as a tuple: ``analyze`` builds one per query."""

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


@dataclass(frozen=True)
class AnalysisReport:
    digest: str
    method: str
    findings: tuple[Finding, ...]
    summary: dict[str, int]

    def render(self) -> str:
        lines = [finding.line() for finding in self.findings]
        counted = ", ".join(f"{k}={v}" for k, v in sorted(self.summary.items()))
        lines.append(f"# instance {self.digest}: {counted}")
        return "\n".join(lines)


def summarize(findings: tuple[Finding, ...]) -> dict[str, int]:
    return dict(Counter(f.verdict for f in findings))


def make_report(digest: str, method: str, findings) -> AnalysisReport:
    findings = tuple(findings)
    return AnalysisReport(digest, method, findings, summarize(findings))


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# The indent-2 layout of ``json.dumps(payload, indent=2)``, written directly:
# that call runs json's pure-Python encoder, the largest cost of a big report.
_FINDING = (
    '    {\n      "kind": %s,\n      "variable": %s,\n      "values": %s,\n'
    '      "over": %s,\n      "verdict": %s,\n      "method": %s,\n'
    '      "evidence": %s,\n      "elapsed_ms": %s\n    }'
)


def _value(value, pad: str) -> str:
    """``value`` exactly as ``json.dumps(..., indent=2)`` writes it at a
    nesting whose indentation is ``pad``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _array(items) -> str:
    """A finding's ``values`` or ``over`` list."""
    if not items:
        return "[]"
    inner = ",\n        ".join([_value(item, "        ") for item in items])
    return "[\n        " + inner + "\n      ]"


class _Strings(dict):
    """Each string a report writes, encoded at its first use; a value of any
    other type raises TypeError (an unhashable one on lookup)."""

    def __missing__(self, value):
        if type(value) is not str:
            raise TypeError(value)
        text = self[value] = encode_basestring_ascii(value)
        return text


class _Arrays(dict):
    """Each ``values`` or ``over`` tuple of strings, as ``_array`` writes it,
    encoded at its first use; any other value raises TypeError."""

    def __missing__(self, items):
        if type(items) is not tuple or not all(type(item) is str for item in items):
            raise TypeError(items)
        text = self[items] = _array(items)
        return text


def to_json(report: AnalysisReport) -> str:
    """The report as ``json.dumps(payload, indent=2)`` writes it, byte for
    byte, where the payload lists each finding's fields in declaration order.
    Each distinct string and ``values``/``over`` array is encoded once; a
    finding holding any other type takes the generic path, ``_value``."""
    pad = "      "
    parts = [
        '{\n  "digest": %s,\n  "method": %s,\n  "findings": '
        % (_value(report.digest, "  "), _value(report.method, "  ")),
        "[\n" if report.findings else "[]",
    ]
    strings, arrays = _Strings({None: "null"}), _Arrays()
    for kind, variable, values, over, verdict, method, evidence, elapsed in report.findings:
        try:
            finding = (
                strings[kind], strings[variable], arrays[values], arrays[over],
                strings[verdict], strings[method], strings[evidence], _value(elapsed, pad),
            )
        except TypeError:
            finding = (
                _value(kind, pad), _value(variable, pad), _array(values), _array(over),
                *(_value(field, pad) for field in (verdict, method, evidence, elapsed)),
            )
        parts += (_FINDING % finding, ",\n")
    if report.findings:
        parts[-1] = "\n  ]"
    parts.append(',\n  "summary": %s\n}' % _value(report.summary, "  "))
    return "".join(parts)


def from_json(text: str) -> AnalysisReport:
    payload = json.loads(text)
    arrays = ("values", "over")
    findings = tuple(
        Finding._make(tuple(f[name]) if name in arrays else f[name] for name in Finding._fields)
        for f in payload["findings"]
    )
    return AnalysisReport(payload["digest"], payload["method"], findings, payload["summary"])
