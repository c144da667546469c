"""Smoke-size tests of the benchmark itself.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import bench  # noqa: E402

SMOKE = dataclasses.replace(
    bench.WORKLOADS["offload-checkpoint"],
    name="smoke",
    n=12,
    duration=2.0,
    checkpoints=(1.0,),
    overrides={"task_rate_per_s": 10.0, "fast_math": True},
)


@pytest.fixture(scope="module", autouse=True)
def small_slices():
    # The smoke window fires a few thousand events; slice it finely so
    # the checkpoint falls between slices.
    saved, bench.SLICE_EVENTS = bench.SLICE_EVENTS, 200
    yield
    bench.SLICE_EVENTS = saved


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("work"))
    return bench.run_workload(SMOKE, 3, 0.0, False, workdir)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("work"))
    return bench.run_workload(SMOKE, 3, 0.0, True, workdir)


def printed(result):
    return json.loads(result.line())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in spec()["workloads"]] == list(bench.WORKLOADS)


def test_end_to_end_names_and_units_match_benchmark_json(untraced):
    line = printed(untraced)
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_per_layer_names_and_units_match_benchmark_json(traced):
    line = printed(traced)
    expected = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected


def test_traced_reports_equal_untraced(untraced, traced):
    # Repetition 0 of a traced run is untraced; every traced repetition
    # is checked against it, so a correct traced run proves the wrappers
    # change no report byte.
    assert traced.correct and traced.failed == 0 and traced.attempted >= 3
    assert set(traced.digests) == set(untraced.digests)
    assert len(set(traced.digests)) == 1
    assert traced.metrics["traced.attributed_share"] >= 0.8


def test_wrong_digest_is_a_counted_failure(tmp_path):
    result = bench.run_workload(SMOKE, 3, 0.0, False, str(tmp_path), reference="0" * 64)
    assert not result.correct
    assert result.failed == result.attempted
    assert printed(result)["failed"] == result.attempted


def test_broken_invariant_is_a_counted_failure(untraced):
    reps = [
        bench.Rep(0, "a", {}, 0.0, []),
        bench.Rep(1, "a", {}, 0.0, [], invariant_errors=["no radio frames delivered"]),
        bench.Rep(2, "b", {}, 0.0, []),
    ]
    assert [index for index, _ in bench.failed_reps(reps)] == [1, 2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "urban-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
