"""Run every workload of the benchmark and print every metric with its unit.

    python3 perfbench/report.py [--seeds 1,2,3] [--out FILE]

Workloads and run length come from BENCHMARK.json. For each workload this
runs perfbench/run.py untraced once per seed and prints, per end-to-end
metric, the median and the quartile spread as a share of the median (from
statistics.quantiles(values, n=4)); then it runs it traced on the first
seed and prints every per-layer metric. --out writes the same numbers and
the machine facts as JSON. Exits 1 when any run reports a wrong output.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def machine() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             capture_output=True, text=True).stdout.strip()
    except FileNotFoundError:
        rev = ""
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform(),
            "git_rev": rev or "unknown", "pinned_threads": run.PINNED_THREADS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1",
                        help="comma-separated seeds for the untraced runs")
    parser.add_argument("--out", default=None, help="write the numbers as JSON")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    doc = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    all_correct = True
    for spec in bench["workloads"]:
        name = spec["name"]
        plain = [run_once(name, seed, seconds, 0) for seed in seeds]
        traced = run_once(name, seeds[0], seconds, 1)
        correct = all(r["correct"] for r in plain + [traced])
        all_correct &= correct
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in plain]
            end_to_end[metric["name"]] = dict(summary(values), unit=metric["unit"])
        doc["workloads"][name] = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in plain + [traced]),
            "failed": sum(r["failed"] for r in plain + [traced]),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        print("== %s: %s, %d of %d operations failed"
              % (name, "correct" if correct else "WRONG OUTPUT",
                 doc["workloads"][name]["failed"], doc["workloads"][name]["attempted"]))
        for metric, s in end_to_end.items():
            print("  %-48s %14.6f %-6s spread %.4f" % (metric, s["median"], s["unit"],
                                                        s["spread"]))
        for metric, v in traced["metrics"].items():
            print("  %-48s %14.6f %s" % (metric, v["value"], v["unit"]))
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
