"""Steadiness record: run every workload on seeds 1..10 for
``run_seconds`` of BENCHMARK.json, one fresh process per run, and keep
the median, quartiles and spread of every end-to-end metric (spread =
interquartile distance / median).

    python3 perfbench/steady.py [--out FILE] [--against FILE]

``--against`` compares the medians with those of an earlier record of
the same code, as a second set of runs must agree with the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("check", "stream", "bulk")
RUNS = 10


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result and the details of one run in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    details, result = completed.stdout.splitlines()[-2:]
    return json.loads(result), json.loads(details)["details"]


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record here as JSON")
    parser.add_argument("--against", help="an earlier record to compare the medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    seconds = spec["run_seconds"]
    record = {"runs": RUNS, "seconds": seconds, "nproc": os.cpu_count(),
              "python": platform.python_version(), "workloads": {}}
    for workload in WORKLOADS:
        pairs = [one_run(workload, seed, seconds) for seed in range(1, RUNS + 1)]
        runs = [run for run, _ in pairs]
        metrics = {name: summarize([run["metrics"][name]["value"] for run in runs])
                   for name in runs[0]["metrics"]}
        classes = {cls: summarize([details["classes_best"][cls]["p50_ms"]
                                   for _, details in pairs])
                   for cls in pairs[0][1]["classes_best"]}
        record["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "failures": [details["failures"] for _, details in pairs],
            "rows": pairs[0][1]["environment"]["rows"],
            "metrics": metrics,
            "class_p50_ms": classes,
        }
        for name, summary in metrics.items():
            bound = bounds[name]
            line = (f"{workload:7} {name:16} median {summary['median']:10.4f} "
                    f"spread {summary['spread']:.4f} bound {bound}")
            if summary["spread"] >= bound / 3:
                line += "  <-- spread above bound/3"
            if earlier is not None:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                change = summary["median"] / before - 1.0
                worse = -change if better[name] == "higher" else change
                line += f"  vs earlier {change:+.3f}"
                if worse > bound:
                    line += "  <-- worse than the bound"
            print(line, flush=True)
        for cls, summary in classes.items():
            print(f"{workload:7} {cls + ' p50':16} median {summary['median']:10.4f} "
                  f"spread {summary['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
