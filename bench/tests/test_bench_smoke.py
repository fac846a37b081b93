"""Smoke test of the benchmark at tiny dimensions.

It checks the shape of what the benchmark reports: every metric that
BENCHMARK.json names, for every workload and both trace modes, plus the
per-workload record.  It checks no timings.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from spans import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYERS = {"numerics", "vision", "question", "fusion", "heads", "model", "bundle",
          "data", "train", "trace"}
WORKLOAD_METRICS = {
    "vqa-desk": {"step_ms_p50", "step_ms_p95", "eval_ms_per_sample", "final_loss"},
    "pretrain-desk": {"step_ms_p50", "step_ms_p95", "final_loss"},
    "cmsa-paper": {"fuse_fwd_ms", "fuse_bwd_ms"},
    "gradcheck-tiny": {"gradcheck_s", "objective_calls"},
}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_follows_the_limits():
    spec = _benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
        assert m["name"].split(".")[0] in LAYERS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_schema(workload, trace):
    spec = _benchmark()
    record, line = run.run(workload, seed=0, seconds=0.01, trace=trace, tiny=True)

    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0 and line["correct"] is True, record["failures"]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])

    if not trace:
        assert WORKLOAD_METRICS[workload] <= set(record["workload_metrics"])
    assert record["failed_share"] == line["failed"] / line["attempted"]
    assert {"git_sha", "git_dirty", "python", "numpy", "blas", "thread_env", "nproc",
            "loadavg_1m_at_start", "src_lines"} <= set(record["environment"])
    if trace:
        per_layer = record["per_layer"]
        assert set(per_layer["spans"]) == set(SPAN_NAMES)
        for name, entry in per_layer["spans"].items():
            assert NAME.match(name) and name.split(".")[0] in LAYERS
            assert entry == "missing" or entry["calls"] >= 1
        assert per_layer["nesting_ok"]
        assert 0 <= per_layer["unattributed_ms"] < per_layer["wall_ms"]
        assert 0 < per_layer["overhead_ms"] < per_layer["wall_ms"]


def test_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "vqa-desk",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
