import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspstruct.report import AnalysisReport, Finding, from_json, to_json

from conftest import make_report


def reference_json(report):
    """The report through ``json.dumps(payload, indent=2)``, the payload
    built field by field: the layout ``to_json`` must reproduce byte for byte."""
    payload = {
        "digest": report.digest,
        "method": report.method,
        "findings": [
            {
                "kind": f.kind,
                "variable": f.variable,
                "values": list(f.values),
                "over": list(f.over),
                "verdict": f.verdict,
                "method": f.method,
                "evidence": f.evidence,
                "elapsed_ms": f.elapsed_ms,
            }
            for f in report.findings
        ],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2)


# Non-ASCII, quotes, backslashes and control characters among plain letters.
texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('ab"\\/\n\t\x00\x1f\x7f é☃😀'),
        st.characters(),
    ),
    max_size=8,
)
elapsed = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, 5e-324, 1e16, 0.1]),
    st.integers(),
    st.booleans(),
)
findings = st.builds(
    Finding,
    kind=texts,
    variable=texts,
    values=st.lists(texts, max_size=3).map(tuple),
    over=st.lists(texts, max_size=3).map(tuple),
    verdict=st.sampled_from(["TRUE", "FALSE", "ESTABLISHED", "UNKNOWN"]),
    method=st.sampled_from(["oracle", "local", "tractable", "hierarchy"]),
    evidence=st.one_of(st.none(), texts),
    elapsed_ms=elapsed,
)
reports = st.builds(
    AnalysisReport,
    digest=texts,
    method=texts,
    findings=st.lists(findings, max_size=4).map(tuple),
    summary=st.dictionaries(texts, st.integers(min_value=0), max_size=3),
)


class TestLayout:
    @settings(max_examples=150, deadline=None)
    @given(reports)
    def test_bytes_equal_json_dumps(self, report):
        assert to_json(report) == reference_json(report)

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 0.1, 3, 0, True, False],
        ids=repr,
    )
    def test_elapsed_ms_edge_values(self, value):
        finding = Finding("fixable", "x", ("0",), (), "TRUE", "oracle", None, value)
        report = make_report("abc", "oracle", [finding])
        assert to_json(report) == reference_json(report)

    @pytest.mark.parametrize("evidence", [None, "", "counterexample {x=1}", 'q"\\\n☃'])
    def test_evidence_none_or_string(self, evidence):
        finding = Finding("fixable", "x", (), (), "FALSE", "oracle", evidence, 1.5)
        report = make_report("abc", "oracle", [finding])
        assert to_json(report) == reference_json(report)

    def test_empty_findings_values_over_and_summary(self):
        empty = AnalysisReport("abc", "oracle", (), {})
        assert to_json(empty) == reference_json(empty)
        assert to_json(empty) == (
            '{\n  "digest": "abc",\n  "method": "oracle",\n'
            '  "findings": [],\n  "summary": {}\n}'
        )
        finding = Finding("fixable", "x", (), (), "TRUE", "oracle", None, 0.0)
        bare = make_report("abc", "oracle", [finding])
        assert to_json(bare) == reference_json(bare)
        assert '"values": [],\n      "over": [],' in to_json(bare)

    def test_non_ascii_names_are_escaped(self):
        values = ('"q"', "back\\slash")
        finding = Finding("fixable", "é☃😀", values, ("\x01",), "TRUE", "oracle", None, 0.5)
        report = make_report("abc", "oracle", [finding])
        text = to_json(report)
        assert text == reference_json(report)
        assert text.isascii()
        assert '"variable": "\\u00e9\\u2603\\ud83d\\ude00"' in text

    def test_values_that_are_not_strings_go_through_json(self):
        finding = Finding(7, "x", (1, None, [2, {"a": 3}]), (), "TRUE", "oracle", 4, 0.5)
        report = AnalysisReport("abc", "oracle", (finding,), {"TRUE": 1, "FALSE": 0})
        assert to_json(report) == reference_json(report)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(reports.filter(lambda r: all(math.isfinite(f.elapsed_ms) for f in r.findings)))
    def test_from_json_inverts_to_json_for_finite_elapsed(self, report):
        assert from_json(to_json(report)) == report
