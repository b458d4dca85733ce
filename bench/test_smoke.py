"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs bench/run.py in subprocesses with ``--smoke`` (tiny inputs and
optimizer budgets) and checks the output contract against BENCHMARK.json:
every end-to-end metric printed with its unit, a trace that parses and
covers the main layers, and counts that repeat exactly between two traced
runs of the same seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import aggregate, read_jsonl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5

REQUIRED_SPANS = ("ree", "discord", "evolve_lindblad", "propagate", "lyapunov")
EXACT_COUNTS = (
    "core.density_checks",
    "dynamics.evolve_lindblad_steps",
    "measures.ree_calls",
    "measures.ree.fw_iters",
    "measures.ree.eig_per_call",
    "measures.discord_calls",
    "measures.discord.eig_per_call",
    "gaussian.propagate_steps",
    "gaussian.lyapunov_calls",
)


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_trace(workload):
    return read_jsonl(BENCH / "out" / f"trace-{workload}-seed{SEED}.jsonl")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    res = result_of(run_bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] > 0


def test_trace_covers_layers_and_counts_repeat():
    names = set()
    for workload in WORKLOADS:
        first = result_of(run_bench(workload, 1))
        spans = read_trace(workload)
        second = result_of(run_bench(workload, 1))
        assert first["correct"] and second["correct"]
        assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
        recomputed = aggregate(spans)
        for name in EXACT_COUNTS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
            assert recomputed[name] == first["metrics"][name]["value"], name

        ids = {s["id"] for s in spans}
        for s in spans:
            assert {"name", "start", "end", "parent", "op", "thread"} <= set(s)
            assert s["end"] >= s["start"]
            assert s["parent"] is None or s["parent"] in ids
        names |= {s["name"] for s in spans}

    for layer in REQUIRED_SPANS:
        assert any(n.split(".")[-1] == layer for n in names), (layer, sorted(names))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
