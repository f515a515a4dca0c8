"""The benchmark's own tests, at tiny scale.

    python3 -m pytest perfbench/tests -q

Each workload runs as the driver runs it (a subprocess of run.py), on a
200-page corpus for one second.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench.common import Checker, ranking_ok  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
# update is left out of BENCHMARK.json (its run budget) but stays runnable
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["update"]
SEED = 3
_results: dict[tuple, dict] = {}


def _run(cwd: str, workload: str, trace: int, seed: int = SEED) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--pages", "200"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(workload: str, trace: int, rep: int = 0) -> dict:
    """The parsed last stdout line of one tiny run (cached per test session)."""
    key = (workload, trace, rep)
    if key not in _results:
        p = _run(ROOT, workload, trace)
        assert p.returncode == 0, p.stderr[-4000:]
        _results[key] = json.loads(p.stdout.strip().splitlines()[-1])
    return _results[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = BENCH["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, v in res["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload, trace, name", [
    ("ingest", 0, "index_bytes_per_posting"),
    ("update", 1, "maintenance.bytes_written_per_byte"),
    ("query", 1, "scoring.postings_per_query"),
    ("query", 1, "impact.postings_per_query"),
])
def test_one_seed_repeats_count_metrics(workload, trace, name):
    a = result(workload, trace, rep=0)["metrics"][name]["value"]
    b = result(workload, trace, rep=1)["metrics"][name]["value"]
    assert a == b


def test_perturbed_results_are_failed_checks(tmp_path):
    from search_engine_ray.engine.search import RUN_SCHEMA, write_trec_run
    from perfbench.workloads import check_run_file

    ids = np.arange(10)
    scores = np.linspace(10, 1, 10).astype(np.float32)
    swapped = scores.copy()
    swapped[[2, 5]] = swapped[[5, 2]]
    run = pa.table({
        "topic": pa.array([401] * 3 + [402] * 2, pa.int32()), "q0": ["Q0"] * 5,
        "doc": ["a", "b", "c", "a", "d"], "rank": pa.array([1, 2, 3, 1, 2], pa.int32()),
        "score": pa.array([3.0, 2.0, 1.0, 5.0, 4.0], pa.float32()), "run_name": ["r"] * 5,
    }, schema=RUN_SCHEMA)
    bad_rank = run.set_column(3, "rank", pa.array([1, 2, 2, 1, 2], pa.int32()))
    good_path, bad_path = str(tmp_path / "good.txt"), str(tmp_path / "bad.txt")
    write_trec_run(run, good_path)
    write_trec_run(bad_rank, bad_path)

    chk = Checker()
    chk.check("ranking", ranking_ok(ids, scores, 10))
    chk.check("ranking", ranking_ok(ids, swapped, 10))
    chk.check("ranking", ranking_ok(ids, scores, 9))
    chk.check("run file", check_run_file(good_path, run))
    chk.check("run file", check_run_file(bad_path, bad_rank))
    assert (chk.attempted, chk.failed) == (5, 3)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), "query", 0)
    assert p.returncode != 0
    assert not p.stdout.strip()


def test_layer_self_time():
    t = Tracer(True)
    t.record("op.x", 0.0, 10.0)
    t._stack.append(0)
    t.record("build.b", 0.0, 6.0)
    t._stack.append(1)
    t.record("segments.s", 0.0, 4.0)
    t._stack.pop()
    t.record("impact.i", 6.0, 9.0)
    t._stack.pop()
    t.record("request.y", 20.0, 21.0)
    total, layers = t.breakdown(("op.",))
    assert total == 10.0
    assert layers == {"op": 1.0, "build": 2.0, "segments": 4.0, "impact": 3.0}
    assert Tracer(False).span("a.b") is Tracer(False).span("c.d")  # one shared no-op


def test_impact_tier_verifies(tmp_path):
    """``verify_impact_index`` on a tiny tier built from the benchmark's
    inputs (too slow for a timed run)."""
    import ray

    from perfbench import inputs
    from search_engine_ray.engine.build import build_index
    from search_engine_ray.engine.impact import build_impact_index, verify_impact_index

    inputs.write_corpus(str(tmp_path / "corpus"), SEED, 60, 1, 64)
    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    try:
        build_index(str(tmp_path / "corpus"), str(tmp_path / "idx"))
        build_impact_index(str(tmp_path / "idx"), str(tmp_path / "imp"))
        assert verify_impact_index(str(tmp_path / "idx"), str(tmp_path / "imp"))["violations"] == 0
    finally:
        ray.shutdown()
