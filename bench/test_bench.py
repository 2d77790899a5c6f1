"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest -q bench``.  The
reproduction test simulates about two million steps and takes a while.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, context, result = proc.stdout.splitlines()
    return json.loads(context)["context"], json.loads(result)


def test_count_pass_reproduces_the_roadmap_table():
    table = [
        ("add", (200, 7), 5_021, 9_636),
        ("mul", (30, 30), 327_524, 629_250),
        ("monus", (40, 60), 33_821, 69_740),
        ("mu_monus", (40,), 472_780, 976_749),
    ]
    ops = [workloads.Op(label=fn, calls=[], source=workloads.SOURCES[fn], cases=[args])
           for fn, args, _, _ in table]
    counts = workloads.Workload(seed=0, size="full").count(ops)
    assert counts.problems == []
    assert [(op.clocks, op.spikes) for op in ops] == [([clock], spikes) for _, _, clock, spikes in table]
    assert sum(counts.spikes_by_kind.values()) == counts.spikes


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_runs_clean_at_smoke_size(workload, trace):
    context, result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                      "--trace", trace, "--smoke"))
    assert result["correct"], context
    assert result["failed"] == 0 and context["fail_rate"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(key in context for key in ("python", "nproc", "platform", "commit", "seed"))


def test_deterministic_counts_repeat_across_runs():
    runs = [result_of(bench("--workload", "run_loops", "--seed", "5", "--seconds", "0.5", "--smoke"))
            for _ in range(2)]
    (first_context, first), (second_context, second) = runs
    assert first_context["counts_digest"] == second_context["counts_digest"]
    for name in ("sim_steps", "sim_spikes", "circuit_nodes", "circuit_bytes"):
        assert first["metrics"][name] == second["metrics"][name]


def test_a_failed_check_is_counted_and_the_run_goes_on(monkeypatch):
    monkeypatch.setitem(workloads.CLOSED_FORMS, "add", lambda i, x: i + x + 1)
    args = run.parse_args(["--workload", "run_loops", "--seed", "1", "--seconds", "0.5", "--smoke"])
    context, result = run.run(args)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert any(failure.startswith("add(") for failure in context["failures"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "run_loops", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
