"""Self-tests of the benchmark: python -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys

import run
from gen import WORKLOADS, make_items
from spans import LAYERS, TARGETS, Tracer, layer_totals, package_modules, read_spans
from verify import check_output

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import cspstruct.cli  # noqa: E402


def _bench_config() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _attributes() -> dict:
    return {
        (module.__name__, name): value
        for module in package_modules()
        for name, value in vars(module).items()
    }


def _small_run(workload: str, count: int, tmp_path):
    items = make_items(workload, 1)[:count]
    paths = []
    for item in items:
        path = tmp_path / item.filename
        path.write_text(item.text)
        paths.append(str(path))
    return items, paths


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        first = [(i.name, i.text, i.argv("f")) for i in make_items(workload, 7)]
        again = [(i.name, i.text, i.argv("f")) for i in make_items(workload, 7)]
        other = [(i.name, i.text, i.argv("f")) for i in make_items(workload, 8)]
        assert first == again
        assert first != other


def test_frozen_factoring_texts_match():
    expected = run.load_expected()["factoring_texts"]
    checker = run.Checker("factoring", 3, {"factoring_texts": expected})
    for item in make_items("factoring", 3):
        checker.check_input(item)
    assert checker.failed == 0


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = _attributes()
    items, paths = _small_run("corpus", 2, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        wrapped = {k for k, v in _attributes().items() if v is not before[k]}
        for index, (item, path) in enumerate(zip(items, paths)):
            tracer.item = index
            assert run.run_item(cspstruct.cli, item.argv(path), run.cache_clearers())[1] == 0
    after = _attributes()
    assert {name for _, name in wrapped} >= {function for _, function, _ in TARGETS}
    assert all(after[k] is v for k, v in before.items())
    assert tracer.span_counts("cli.main") == {0: 1, 1: 1}
    assert not tracer.missing


def test_written_spans_give_the_same_totals(tmp_path):
    items, paths = _small_run("schaefer", 2, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        for index, (item, path) in enumerate(zip(items, paths)):
            tracer.item = index
            run.run_item(cspstruct.cli, item.argv(path), run.cache_clearers())
    tracer.write(tmp_path / "spans.bin")
    header, columns = read_spans(tmp_path / "spans.bin")
    assert header["spans"] == tracer.spans() > 0
    assert layer_totals(columns) == tracer.layer_totals()
    self_s, calls = tracer.layer_totals()
    assert calls["cli.main"] == 2
    assert all(seconds >= 0 for seconds in self_s.values())


def test_printed_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    config = _bench_config()
    monkeypatch.setattr(run, "OUT", tmp_path)
    items, paths = _small_run("corpus", 2, tmp_path)
    clearers = run.cache_clearers()
    checker = run.Checker("corpus", 1, run.load_expected())
    latencies, _ = run.timed_passes(cspstruct.cli, items, paths, clearers, 0, checker)
    e2e = run.end_to_end([0.1], latencies, checker)
    layers = run.traced_pass(cspstruct.cli, items, paths, clearers, checker, "corpus")
    assert checker.failed == 0
    assert list(e2e) == [m["name"] for m in config["end_to_end"]]
    assert list(layers) == [m["name"] for m in config["per_layer"]]
    for metric in config["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == metric["unit"]
    for metric in config["per_layer"]:
        assert run.PER_LAYER[metric["name"]] == metric["unit"]
    assert set(LAYERS) <= {name.rsplit("_", 1)[0] for name in layers}


def test_checks_reject_wrong_outputs():
    items = {i.check: i for w in WORKLOADS for i in make_items(w, 1)}
    factor = next(i for i in make_items("factoring", 1) if i.check == "factor-simplify")
    n = factor.meta["z"].bit_length()
    wrong = "".join(f"FIX x{i}=0 BY oracle-fixable\n" for i in range(1, n + 1))
    assert check_output(factor, 0, wrong + "fixpoint after 9 step(s); space 1 -> 1\n")[0]
    assert check_output(items["check"], 1, "all checks passed\n")[0]
    assert check_output(items["check"], 0, "1 violation(s)\n")[0]
    planted = items["planted-analyze"]
    truth = "true" if planted.meta["planted"][0] else "false"
    finding = {"kind": "inconsistent", "variable": "v1", "values": [truth], "verdict": "TRUE"}
    assert check_output(planted, 0, json.dumps({"findings": [finding]}))[0]
    assert check_output(items["planted-simplify"], 0, "UNSAT proved by x at v1=true\n")[0]
