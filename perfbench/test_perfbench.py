"""The benchmark's own tests, at a tiny size (a fraction of a second per run)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

import run
from tracing import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = 0.02
SECONDS = 0.05

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

run.use_source_tree()
from workloads import PER_LAYER, WORKLOADS  # noqa: E402


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == dict(PER_LAYER, **{"trace.overhead_frac": "fraction"})


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    """Untraced runs on seeds 1, 1 and 2, and a traced run on seed 1."""
    name = request.param
    spans_path = str(tmp_path_factory.mktemp(name) / "spans.jsonl")
    return {
        "plain": run.run_benchmark(name, 1, SECONDS, False, scale=TINY),
        "again": run.run_benchmark(name, 1, SECONDS, False, scale=TINY),
        "other": run.run_benchmark(name, 2, SECONDS, False, scale=TINY),
        "traced": run.run_benchmark(
            name, 1, SECONDS, True, scale=TINY, spans_path=spans_path
        ),
    }


def test_every_metric_printed_with_its_unit(runs):
    for key, expected in (("plain", run.END_TO_END), ("traced", runs["traced"]["units"])):
        out = runs[key]
        lines = run.render(out, cpus=1)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(
                line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines
            ), name
    assert set(runs["traced"]["metrics"]) == set(PER_LAYER) | {"trace.overhead_frac"}
    assert all(value > 0 for value in runs["plain"]["metrics"].values())


def test_no_check_fails(runs):
    for out in runs.values():
        failed = [name for name, ok in out["checks"].items() if not ok]
        assert not failed
        assert json.loads(run.render(out, cpus=1)[-1])["correct"]
        assert any(line.startswith("errors 0 fraction") for line in run.render(out, cpus=1))


def test_digest_is_stable_and_seeded(runs):
    assert runs["plain"]["digest"] == runs["again"]["digest"]
    assert runs["plain"]["digest"] == runs["traced"]["digest"]
    assert runs["plain"]["digest"] != runs["other"]["digest"]


def test_spans_nest_and_self_time_fits_in_wall_time(runs):
    out = runs["traced"]
    spans = out["spans"]
    by_id = {span[0]: span for span in spans}
    assert len(by_id) == len(spans)
    for span_id, parent, _, start, end, _ in spans:
        assert start <= end
        if parent:
            _, _, _, parent_start, parent_end, _ = by_id[parent]
            assert parent_start <= start and end <= parent_end
    own = self_times(spans)
    per_pid = defaultdict(list)
    for span in spans:
        per_pid[span[5]].append(span)
    for pid_spans in per_pid.values():
        wall = max(s[4] for s in pid_spans) - min(s[3] for s in pid_spans)
        assert sum(own[s[0]] for s in pid_spans) <= wall * (1 + 1e-9)
    with open(out["spans_path"]) as handle:
        written = [json.loads(line) for line in handle]
    assert len(written) == len(spans)
    assert {record["workload"] for record in written} == {out["workload"]}


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/ present: exit non-zero, print no result."""
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
