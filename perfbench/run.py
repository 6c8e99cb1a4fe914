"""Benchmark of the cspstruct command line, standard library only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Each input goes through exactly one command, run in-process through
``cspstruct.cli.main(argv)`` with its output captured.  One closed-loop
client on one thread runs the inputs in a fixed order, with
``CSPSTRUCT_WORKERS`` pinned to 1.  The program's caches are cleared
before every command, because each command line call is a fresh process
that never reuses a cache.

``--trace 0`` makes whole passes over the inputs until ``--seconds`` have
gone by and prints the end-to-end metrics.  ``--trace 1`` makes one pass
in which every input runs untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
The exit code is 2, with no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from gen import WORKLOADS, Item, make_items
from spans import LAYERS, Tracer, package_modules
from verify import check_output, digest, input_properties, text_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 5

# The host's speed drifts by up to 2.5 times over seconds to minutes, and
# the program slows down with it.  So every timing is divided by the time of
# a fixed arithmetic loop measured right before and right after it, then
# multiplied by REF_SECONDS, the loop's fastest time on a 2-vCPU, 2.0 GHz
# VM under Python 3.11.7.  A timing then reads as seconds on an unloaded
# host of that kind: a change in the program moves it, a change in the
# host's load mostly does not.  The unadjusted figures are printed too.
REF_LOOP = 35_000
REF_SECONDS = 0.0028

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

RAW_SHOWN = ("setup_s", "wall_s", "item_p50_ms", "item_p90_ms")

PER_LAYER = {
    "oracle.table_s": "s",
    "oracle.table_calls": "count",
    "oracle.evaluate_s": "s",
    "oracle.evaluate_calls": "count",
    "oracle.satisfiable_s": "s",
    "local.check_s": "s",
    "local.check_calls": "count",
    "local.established_ratio": "ratio",
    "boolean.tract_s": "s",
    "boolean.tract_calls": "count",
    "boolean.classify_s": "s",
    "boolean.assume_s": "s",
    "boolean.to_extensional_s": "s",
    "hierarchy.validate_s": "s",
    "simplify.fixpoint_s": "s",
    "simplify.runs": "count",
    "simplify.steps": "count",
    "instances.parse_s": "s",
    "report.to_json_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
}


class MissingProgram(Exception):
    pass


def import_program():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "cspstruct" or n.startswith("cspstruct.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("cspstruct.cli")
    except ImportError as exc:
        raise MissingProgram(f"cannot import cspstruct from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"cspstruct was imported from {cli.__file__}, outside {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and write them out."""
    start = perf_counter()
    cli = import_program()
    items = make_items(workload, seed)
    paths = []
    for item in items:
        path = workdir / item.filename
        path.write_text(item.text)
        paths.append(str(path))
    return perf_counter() - start, cli, items, paths


def reference() -> float:
    """Seconds for a fixed loop that does not touch the program."""
    start = perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return perf_counter() - start


def adjusted(seconds: float, before: float, after: float) -> float:
    return seconds * REF_SECONDS * 2.0 / (before + after)


def cache_clearers() -> list:
    found = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value.cache_clear
    return list(found.values())


def run_item(cli, argv: list[str], clearers) -> tuple[float, int, str, str]:
    """Run one command as a fresh process would: (seconds, exit code,
    stdout, stderr).  An exception out of ``main`` is exit code -1."""
    for clear in clearers:
        clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Checker:
    """Counts failed inputs: nonzero exit, exception, or wrong output."""

    def __init__(self, workload: str, seed: int, expected: dict):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}
        self.recorded = {}
        if seed == expected.get("default_seed"):
            self.recorded = expected.get("outputs", {}).get(workload, {})
        self.texts = expected.get("factoring_texts", {})

    def check_input(self, item: Item) -> None:
        """The factoring texts are frozen; a changed text is a failure."""
        if "z" in item.meta and self.texts.get(str(item.meta["z"])) != text_digest(item.text):
            self.fail(item, "input text differs from the frozen factoring text")

    def __call__(self, item: Item, code: int, out: str, err: str) -> int:
        self.attempted += 1
        problem, findings = check_output(item, code, out)
        if problem is None:
            seen = digest(out)
            expect = self.recorded.get(item.name) or self.first.setdefault(item.name, seen)
            if seen != expect:
                problem = "output digest differs from the recorded one"
        if problem is not None:
            self.fail(item, problem + (f"; stderr: {err.strip()[-300:]}" if err.strip() else ""))
        return findings

    def fail(self, item: Item, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{item.name}: {problem}")


def timed_passes(cli, items, paths, clearers, seconds, checker):
    """Whole passes until ``seconds`` have gone by, at least one.  Returns
    each input's adjusted and raw latencies in seconds, one per pass."""
    adjusted_times = [[] for _ in items]
    raw_times = [[] for _ in items]
    start = perf_counter()
    before = reference()
    while True:
        for index, (item, path) in enumerate(zip(items, paths)):
            elapsed, code, out, err = run_item(cli, item.argv(path), clearers)
            after = reference()
            checker(item, code, out, err)
            adjusted_times[index].append(adjusted(elapsed, before, after))
            raw_times[index].append(elapsed)
            before = after
        if perf_counter() - start >= seconds:
            return adjusted_times, raw_times


# A pass is the sum of each input's median latency over the passes, which a
# minority of passes caught in a change of host speed does not move.  The
# percentiles are over every command run.
def end_to_end(setups, latencies, checker) -> dict:
    samples = [t for times in latencies for t in times]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(times) for times in latencies),
        "item_p50_ms": statistics.median(samples) * 1000.0,
        "item_p90_ms": statistics.quantiles(samples, n=10, method="inclusive")[8] * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (checker.attempted - checker.failed) / checker.attempted,
    }


# Which span count must match which output, per command: a wrapper that
# misses a call site shows as a mismatch.
def cross_check(tracer: Tracer, items, findings, checker) -> None:
    counts = {layer: tracer.span_counts(layer) for layer in LAYERS}
    for index, item in enumerate(items):
        wanted = {"cli.main": 1}
        if item.command == "check":
            wanted.update({"hierarchy.validate": 1, "instances.parse": 1})
        elif item.command == "simplify":
            wanted["simplify.fixpoint"] = 1
        elif "oracle" in item.options:
            wanted["oracle.evaluate"] = findings[index]
        else:
            wanted["boolean.tract"] = findings[index]
        for layer, count in wanted.items():
            seen = counts[layer][index]
            if seen != count:
                checker.fail(item, f"trace counted {seen} {layer} spans, expected {count}")


def traced_pass(cli, items, paths, clearers, checker, workload: str):
    """Each input untraced, then traced; returns the per-layer metrics."""
    tracer = Tracer()
    untraced = traced = 0.0
    findings = []
    for index, (item, path) in enumerate(zip(items, paths)):
        elapsed, code, out, err = run_item(cli, item.argv(path), clearers)
        checker(item, code, out, err)
        untraced += elapsed
        tracer.item = index
        with tracer.installed():
            elapsed, code, out, err = run_item(cli, item.argv(path), clearers)
        findings.append(checker(item, code, out, err))
        traced += elapsed
    for name in tracer.missing:
        print(f"warning: no function {name} to trace", file=sys.stderr)
    cross_check(tracer, items, findings, checker)
    tracer.write(OUT / f"spans-{workload}.bin")
    self_s, calls = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}_calls"] = calls[layer]
    metrics["local.established_ratio"] = (
        counts["local.established"] / calls["local.check"] if calls["local.check"] else 0.0
    )
    metrics["simplify.runs"] = calls["simplify.fixpoint"]
    metrics["simplify.steps"] = counts["simplify.steps"]
    metrics["trace.overhead_ratio"] = traced / untraced
    return {name: metrics[name] for name in PER_LAYER}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_expected() -> dict:
    try:
        return json.loads(EXPECTED.read_text())
    except (OSError, ValueError):
        return {}


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = reference()
            seconds, cli, items, paths = setup(args.workload, args.seed, workdir)
            setups.append(adjusted(seconds, before, reference()))
            raw_setups.append(seconds)
        print("# env " + json.dumps(environment(args)))
        print("# inputs " + json.dumps(input_properties(args.workload, items)))
        checker = Checker(args.workload, args.seed, load_expected())
        for item in items:
            checker.check_input(item)
        clearers = cache_clearers()
        gc.collect()
        if args.trace:
            metrics = traced_pass(cli, items, paths, clearers, checker, args.workload)
            units = PER_LAYER
        else:
            latencies, raw = timed_passes(cli, items, paths, clearers, args.seconds, checker)
            print(f"# {len(latencies[0])} passes over {len(items)} inputs")
            unadjusted = end_to_end(raw_setups, raw, checker)
            print("# unadjusted " + " ".join(f"{k}={unadjusted[k]:.6g}" for k in RAW_SHOWN))
            metrics = end_to_end(setups, latencies, checker)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["CSPSTRUCT_WORKERS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
