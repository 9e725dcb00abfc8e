"""Smoke tests of the benchmark: every workload at 398 rows, in both
modes, with every output check the full runs make."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    completed = run("--workload", workload, "--seed", str(seed),
                    "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["check", "stream", "bulk"])
def test_smoke_run_reports_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_known_defect_shows_as_failed_updates():
    # bush_delete over-deletes under expand_cascades: counted, not hidden
    assert smoke("bulk", 0)["failed"] > 0


def test_traced_counts_repeat_exactly():
    def counts(result):
        return {name: metric["value"] for name, metric in result["metrics"].items()
                if metric["unit"] in ("count/update", "count")}

    for workload in ("check", "stream", "bulk"):
        assert counts(smoke(workload, 1, seed=5)) == counts(smoke(workload, 1, seed=5))


def test_refuses_to_run_without_the_checker_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("--workload", "check", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_spans_are_written_with_their_layers(tmp_path):
    spans = tmp_path / "spans.jsonl"
    completed = run("--workload", "stream", "--seed", "2", "--seconds", "0.5",
                    "--trace", "1", "--smoke", "--spans", str(spans))
    assert completed.returncode == 0, completed.stderr
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    layers = {record["layer"] for record in records}
    assert {"xquery", "datacheck", "plan", "ivm", "session", "transactions"} <= layers
    assert all(record["end"] >= record["start"] for record in records)
    assert all(record["parent"] < index for index, record in enumerate(records))
