"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py

The last test runs every workload's invocations under the trace shim
twice, which takes a few minutes and about 2.6 GB for the tile workload;
select the quick tests with `-k "not repeat"`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import shim
from workloads import GROUPS, WORKLOADS, Group, Workload

HERE = Path(__file__).resolve().parent


def _invocation(group, name):
    return next(inv for inv in GROUPS[group].invocations if inv.name == name)


def test_tampered_census_is_counted_as_failed(tmp_path, monkeypatch):
    census = _invocation("carry-census", "c2_census")
    artifact = {"rows": "rho,count\n5,14164\n"}

    def fake_spawn(argv, env, err_path):
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).write_text(artifact["rows"])
        return run.Child(0, 0.1, 0.1, 1.0)

    monkeypatch.setattr(run, "spawn", fake_spawn)
    workload = Workload("census", (Group("carry-census", (census,), (), ()),))
    _, attempted, failed, problems, _ = run.run_timed(workload, 0, 0, tmp_path)
    assert (attempted, failed, problems) == (1, 0, [])
    artifact["rows"] = "rho,count\n5,14165\n"  # one off
    _, attempted, failed, _, _ = run.run_timed(workload, 0, 0, tmp_path)
    assert (attempted, failed) == (1, 1)


def test_exit_code_and_unreadable_artifact_fail(tmp_path):
    census = _invocation("carry-census", "c2_census")
    assert run.evaluate(census, 3, tmp_path / "missing") == (["exit code 3"], {})
    failures, _ = run.evaluate(census, 0, tmp_path / "missing")
    assert failures and failures[0].startswith("unreadable artifact")


def test_by_design_clauses_are_values_only(tmp_path):
    path = tmp_path / "c7_sod"
    path.write_text("lambda,h,filter,count,re_sum,im_sum,normalized\n"
                    "14,1,primes,10,0,0,0.205\n22,1,primes,10,0,0,0.239\n")
    failures, values = run.evaluate(_invocation("prime-sums", "c7_sod"), 0, path)
    assert failures == [] and values["normalized"] == {14: 0.205, 22: 0.239}


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "cli.main", "id": 0, "parent": None, "start": 0.0, "end": 10.0,
         "counters": {}},
        {"name": "bulk.digit_table", "id": 1, "parent": 0, "start": 1.0, "end": 5.0,
         "counters": {"rows": 8}},
    ]
    entry = {"doc": {"spans": spans, "counts": {"algebra.divide_exact_by_q": 3}},
             "plain": {"wall_s": 11.0}, "traced": {"wall_s": 11.5, "artifact_bytes": 100}}
    values = run.layer_values([entry])
    assert values["cli.main.s"] == 6.0 and values["bulk.digit_table.s"] == 4.0
    assert values["bulk.digit_table.rows"] == 8 and values["bulk.digit_table.calls"] == 1
    assert values["algebra.divide_exact_by_q.calls"] == 3
    assert values["trace.coverage"] == pytest.approx(0.4)
    assert values["trace.overhead_s"] == 0.5 and values["cli.artifact_bytes"] == 100


def test_every_named_layer_exists(tmp_path):
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "shim.py"), str(spans), "probe", "--",
         "carry", "--poly", "2,2,1", "--digits", "0,0;1,0", "--threads", "1",
         "--out", str(tmp_path / "carry.json")],
        env=run.child_env({}), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(spans.read_text())["installed"] == [*shim.LAYERS, *shim.COUNTED]


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compute", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counters_repeat(name, tmp_path):
    """Per-layer counts of two traced runs (seeds 0 and 1) are identical."""
    counts = []
    for seed in (0, 1):
        _, _, failed, problems, result = run.run_traced(WORKLOADS[name], seed, 0, tmp_path)
        assert (failed, problems) == (0, [])
        counts.append({k: m["value"] for k, m in result.items()
                       if m["unit"] not in run.TIMED_UNITS})
    assert counts[0] == counts[1]
    for group in WORKLOADS[name].groups:
        for focus in group.focus:
            assert result[focus + ".s"]["value"] > 0
