"""Wall-clock benchmark of the U-Filter view update checker.

    python3 perfbench/run.py --workload check|stream|bulk --seed N \
        --seconds S --trace 0|1 [--smoke] [--spans FILE]

Runs from the repository root and imports the checker from ``src/``.
With ``--trace 0`` it makes a fixed number of rounds, derived from
``--seconds``, and measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs one round of updates untraced, then the same
round again with a span around each layer's public entry points, and
reports the per-layer split.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it carries the details (environment, row counts, every
class's latencies, each failure with its cause).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
from pathlib import Path

# the engine's defaults, whatever the calling shell exports
for _variable in ("REPRO_IVM", "REPRO_VECTORIZE", "REPRO_PLAN_VERIFY"):
    os.environ.pop(_variable, None)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: seconds one round takes, set-up included, on a 2-vCPU machine; a run
#: makes ceil(--seconds / this) rounds, so the number of repetitions
#: follows the argument and never the machine's speed
ROUND_SECONDS = {"check": 2.0, "stream": 3.5, "bulk": 2.8}
#: the fewest rounds of a full-size run; a smoke run makes two
MIN_ROUNDS = 4

END_TO_END_UNITS = {
    "throughput_ups": "1/s",
    "delete_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def environment(workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    rows = {rel: workload.db.count(rel) for rel in workload.base.counts}
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "rows": rows,
        "total_rows": sum(rows.values()),
        "journal": "stream: in-memory write-ahead journal, barriers counted, "
                   "never fsynced; check/bulk: no journal",
    }


def blank_literals(text: str) -> str:
    """The update's shape: quoted literals and element text blanked."""
    text = re.sub(r'"[^"]*"', '"?"', text)
    return re.sub(r">[^<>]+<", ">?<", text)


def repeat_share(texts: list) -> float:
    seen, repeats = set(), 0
    for text in texts:
        shape = blank_literals(text)
        repeats += shape in seen
        seen.add(shape)
    return repeats / len(texts)


def by_class(latencies: list) -> dict:
    out: dict = {}
    for cls, seconds in latencies:
        out.setdefault(cls, []).append(seconds)
    return out


def class_summary(latencies: list) -> dict:
    return {
        cls: {"n": len(values),
              "p50_ms": statistics.median(values) * 1e3,
              "p95_ms": percentile(values, 0.95) * 1e3}
        for cls, values in sorted(by_class(latencies).items())
    }


def throughput(latencies: list) -> float:
    return len(latencies) / sum(seconds for _, seconds in latencies)


def judge(tally) -> tuple[bool, list]:
    """Correct unless an invariant broke or a failure has an unknown
    cause; every failure is listed with its cause."""
    from workloads import known_defect

    listed, correct = [], not tally.invariant_errors
    for (cls, cause), count in sorted(tally.failures.items()):
        explained = known_defect(cls, cause)
        correct = correct and bool(explained)
        listed.append({"class": cls, "cause": cause, "count": count,
                       "known_defect": explained})
    return correct, listed


def set_up(workload_cls, seed: int, smoke: bool) -> tuple:
    """A fresh workload and the seconds the program took to set it up
    (build, analyze, compile and marking, warm-up)."""
    gc.collect()
    workload = workload_cls(seed, smoke)
    workload.setup()
    workload.warm_up()
    return workload, workload.setup_seconds


def rounds_for(args) -> int:
    if args.smoke:
        return 2
    return max(MIN_ROUNDS, math.ceil(args.seconds / ROUND_SECONDS[args.workload]))


def end_to_end(args, workloads) -> tuple[dict, dict]:
    """A fixed number of rounds, each on a freshly set-up workload: the
    set-ups are spread over the whole run, and every round sends the
    same updates from the same state."""
    from workloads import Tally

    tally, setups, workload = Tally(), [], None
    for _ in range(rounds_for(args)):
        workload = None   # free the previous database before building the next
        workload, seconds = set_up(workloads[args.workload], args.seed, args.smoke)
        setups.append(seconds)
        gc.collect()
        workload.run_round(tally)
    best = tally.best()
    metrics = {
        "throughput_ups": throughput(best),
        "delete_p50_ms": statistics.median(by_class(best)["delete"]) * 1e3,
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    correct, failures = judge(tally)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "smoke": args.smoke, "environment": environment(workload),
        "setup_samples_s": setups, "rounds": len(tally.rounds),
        "round_ups": [throughput(latencies) for latencies in tally.rounds],
        "classes_best": class_summary(best),
        "classes_all_rounds": class_summary([x for r in tally.rounds for x in r]),
        "failures": failures,
        "invariant_errors": sorted(tally.invariant_errors),
    }
    result = {
        "correct": correct, "attempted": tally.attempted,
        "failed": sum(tally.failures.values()),
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }
    return result, details


def counters(workload) -> dict:
    db = workload.db
    out = dict(db.stats)
    out["wal_appends"] = db.wal.appends if db.wal is not None else 0
    out["wal_barriers"] = db.wal.barriers if db.wal is not None else 0
    out["columnar_builds"] = db.columns.builds
    out["columnar_incremental_ops"] = db.columns.incremental_ops
    return out


def traced(args, workloads) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import Tally

    workload, _ = set_up(workloads[args.workload], args.seed, args.smoke)
    # the first round fills plan and statistics caches; the untraced
    # baseline of trace.overhead_frac is the second
    workload.run_round(Tally())
    plain = Tally()
    workload.run_round(plain)
    marking = sum(checker.marking_seconds for checker in workload.checkers())
    gc.collect()

    tally = Tally()
    tracer = Tracer()
    before = counters(workload)
    tracer.install()
    try:
        workload.run_round(tally, tracer)
    finally:
        tracer.uninstall()
    after = counters(workload)
    if args.spans:
        tracer.write(args.spans)

    n = tally.attempted
    delta = {key: after[key] - before[key] for key in before}
    # the stream opens a fresh session per round, so its cache totals
    # belong to the traced round alone; check and bulk keep no cache
    caches = workload.probe_caches()
    self_s, covered = tracer.self_seconds()

    def per_update(value):
        return value / n

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {f"{layer}.self_ms": (per_update(seconds * 1e3), "ms/update")
               for layer, seconds in self_s.items()}
    metrics.update({
        "other.self_ms": (per_update((tally.busy - covered) * 1e3), "ms/update"),
        "xquery.shape_repeat_share": (repeat_share([u.text for u in workload.round]), "ratio"),
        "star.marking_s": (marking, "s"),
        "plan.selects": (per_update(delta["selects"]), "count/update"),
        "plan.rows_scanned": (per_update(delta["rows_scanned"]), "count/update"),
        "plan.cache_hit_ratio": (ratio(delta["plan_cache_hits"], delta["plans_compiled"]), "ratio"),
        "plan.vectorized_plans": (per_update(delta["vectorized_plans"]), "count/update"),
        "plan.vector_fallbacks": (per_update(delta["vector_fallbacks"]), "count/update"),
        "database.rows_written": (per_update(delta["inserts"] + delta["deletes"] + delta["updates"]), "count/update"),
        "database.rowid_cache_hit_ratio": (ratio(delta["rowid_cache_hits"], delta["rowid_plans_compiled"]), "ratio"),
        "ivm.maintained": (per_update(delta["ivm_maintained"]), "count/update"),
        "ivm.fallbacks": (per_update(delta["ivm_fallbacks"]), "count/update"),
        "ivm.delta_rows": (per_update(delta["ivm_delta_rows"]), "count/update"),
        "translation.probe_hit_ratio": (ratio(sum(c.hits for c in caches), sum(c.misses for c in caches)), "ratio"),
        "translation.probe_cache_entries": (float(sum(len(c) for c in caches)), "count"),
        "translation.invalidations": (per_update(sum(c.invalidations for c in caches)), "count/update"),
        "wal.appends": (per_update(delta["wal_appends"]), "count/update"),
        "wal.barriers": (per_update(delta["wal_barriers"]), "count/update"),
        "statistics.rebuilds": (per_update(delta["stats_rebuilds"]), "count/update"),
        "columnar.builds": (per_update(delta["columnar_builds"]), "count/update"),
        "columnar.incremental_ops": (per_update(delta["columnar_incremental_ops"]), "count/update"),
        "trace.overhead_frac": (throughput(plain.rounds[0]) / throughput(tally.rounds[0]) - 1.0, "ratio"),
    })
    correct, failures = judge(tally)
    plain_correct, _ = judge(plain)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "smoke": args.smoke, "environment": environment(workload),
        "updates_per_round": n, "spans": len(tracer.start),
        "untraced_classes": class_summary(plain.rounds[0]), "failures": failures,
        "invariant_errors": sorted(tally.invariant_errors | plain.invariant_errors),
        "counter_deltas": delta,
    }
    result = {
        "correct": correct and plain_correct,
        "attempted": n,
        "failed": sum(tally.failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("check", "stream", "bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the number of rounds (see ROUND_SECONDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="398 rows and short rounds, every output check kept")
    parser.add_argument("--spans", help="with --trace 1: write every span to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no checker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    result, details = (traced if args.trace else end_to_end)(args, WORKLOADS)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
