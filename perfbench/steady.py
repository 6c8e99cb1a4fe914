"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steady.py --workloads corpus factoring schaefer \\
        --seeds 1-10 --out perfbench/steadiness.json

Runs are made one after another, each as its own process, with the
``--seconds`` value from ``BENCHMARK.json``.  For every end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(n=4)`` and
their distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(config: dict, workload: str, seed: int) -> dict:
    command = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    parser.add_argument("--out", help="write every run and the summary here as JSON")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"run_seconds": config["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(config, workload, seed)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "run_s": result["run_s"], **values})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        summary = {name: summarize([r[name] for r in runs]) for name in bounds}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"  {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                f"spread {s['spread']:.4f}  bound {bounds[name]}{flag}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
