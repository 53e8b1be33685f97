"""The benchmark's own tests: names, the correctness gate and seeding.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
The in-process runs use one or two tiny specs and sub-second windows, so
the whole file takes well under a minute.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import common, run, servebench, simbench, specs
from repro.grid.spec import RunSpec

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY = [RunSpec("fir", model="str", cores=1, preset="tiny"),
        RunSpec("bitonic", model="cc", cores=2, preset="tiny",
                overrides={"seed": 5})]
KEYSPACE = [RunSpec(app, model=model, cores=1, preset="tiny")
            for app in ("fir", "merge") for model in ("cc", "str")]


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "WORK", tmp_path)


def _names(section):
    return sorted(m["name"] for m in BENCHMARK[section])


def test_benchmark_json_lists_workloads_run_accepts():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert "setup_s" in _names("end_to_end")
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_sim_prints_exactly_the_declared_metrics(trace):
    report = simbench.run("sim-unicore", 1, 0.05, trace, spec_list=TINY)
    if trace:
        report.pop("tracer")
    line = run.result_line(report, BENCHMARK, trace)
    assert sorted(line["metrics"]) == _names(
        "per_layer" if trace else "end_to_end")
    assert line["correct"] and line["attempted"] > 0


def _tiny_schedule():
    return specs.serve_schedule(3, 1.0, KEYSPACE, rate=20.0)


@pytest.mark.parametrize("trace", [False, True])
def test_serve_prints_exactly_the_declared_metrics(trace):
    report = servebench.run(3, 1.0, trace, keyspace=KEYSPACE,
                            schedule=_tiny_schedule())
    if trace:
        report.pop("tracer")
    line = run.result_line(report, BENCHMARK, trace)
    assert sorted(line["metrics"]) == _names(
        "per_layer" if trace else "end_to_end")
    assert line["correct"], line


def _corrupt(result):
    return dataclasses.replace(result, exec_time_fs=result.exec_time_fs + 1)


def test_sim_gate_fires_on_a_corrupted_reference():
    reference = simbench.reference_results(TINY)
    reference[1] = _corrupt(reference[1])
    report = simbench.run("sim-unicore", 1, 0.05, True, spec_list=TINY,
                          reference=reference)
    report.pop("tracer")
    line = run.result_line(report, BENCHMARK, True)
    assert line["metrics"]["error_rate"]["value"] > 0
    assert not line["correct"]


def test_serve_gate_fires_on_a_corrupted_reference():
    report = servebench.run(3, 1.0, False, keyspace=KEYSPACE,
                            schedule=_tiny_schedule(), corrupt=_corrupt)
    assert report["failed"] == report["attempted"]


def test_engine_counters_are_the_only_permitted_difference():
    result = TINY[0].execute()
    fewer_events = dataclasses.replace(
        result, stats={**result.stats, "sim.events": 0})
    other_stat = dataclasses.replace(
        result, stats={**result.stats, "l2.reads": -1})
    assert common.same_result(result, fewer_events)
    assert not common.same_result(result, other_stat)


@pytest.mark.parametrize("workload", ["sim-multicore", "sim-unicore"])
def test_same_seed_same_sweep(workload):
    first = specs.sim_specs(workload, 7)
    assert first == specs.sim_specs(workload, 7)
    assert first != specs.sim_specs(workload, 8)
    assert len(set(s.memo_key() for s in first)) == len(first)


def test_same_seed_same_schedule():
    first = specs.serve_schedule(7, 5.0)
    assert first == specs.serve_schedule(7, 5.0)
    assert first != specs.serve_schedule(8, 5.0)
    warm = {s.content_key() for s in specs.serve_keyspace()}
    novel = [r for r in first if r.novel]
    assert novel and all(r.spec.content_key() not in warm for r in novel)
    assert any(a.spec == b.spec and a.conn != b.conn
               for a, b in zip(novel, novel[1:]))


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-unicore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
