"""Tests of the host-time benchmark itself, at tiny sizes."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from hostbench import layers, run
from hostbench.spans import SpanRecorder, instrument
from hostbench.workloads import SIZES, WORKLOADS, run_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("sim_cycles_geomean", "energy_geomean", "p99_cycles",
             "slo_attainment", "refusals_per_100k", "utilization")


def bench(out_dir, *args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny",
           "--seconds", "0", "--out", str(out_dir), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """``--workload all`` twice with the same seed."""
    runs = []
    for k in range(2):
        out = tmp_path_factory.mktemp(f"run{k}")
        proc = bench(out, "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        with open(out / "all-seed7-trace0.json") as fh:
            runs.append((proc.stdout, json.load(fh)))
    return runs


def test_every_declared_metric_printed_with_unit(two_runs):
    stdout, _ = two_runs[0]
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] \
        == layers.per_layer_metrics()
    for workload in run.WORKLOADS:
        for name, unit in run.END_TO_END:
            metric = line["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
    # The human-readable report names every design metric with its unit.
    sections = stdout.split("== ")[1:]
    expected = {
        "zoo_compile": ["compile_ms_p50", "compile_ms_p90",
                        "sim_cycles_geomean", "energy_geomean"],
        "arch_sweep": ["points_per_s", "warm_points_per_s",
                       "sim_cycles_geomean", "energy_geomean"],
        "fleet_diurnal": ["requests_per_s", "p99_cycles", "slo_attainment"],
        "shard_pipeline": ["sim_cycles_geomean"],
    }
    for section in sections:
        workload = section.split(":")[0]
        rows = {row.split()[0]: row.split()[2] for row in section.splitlines()
                if len(row.split()) >= 3 and row.startswith("   ")
                and not row.startswith("    ")}
        for name in ["setup_s", "wall_s", "peak_rss_mb", "error_rate",
                     *expected[workload]]:
            assert name in rows and rows[name], (workload, name)


def test_same_seed_same_simulated_metrics(two_runs):
    (_, first), (_, second) = two_runs
    for a, b in zip(first["outcomes"], second["outcomes"]):
        sim_a = {r[0]: r[1] for r in a["design"] if r[0] in SIMULATED}
        sim_b = {r[0]: r[1] for r in b["design"] if r[0] in SIMULATED}
        assert sim_a and sim_a == sim_b, a["workload"]
        for key in ("sim_cycles_geomean", "sim_energy_geomean"):
            assert a["end_to_end"][key] == b["end_to_end"][key]


@pytest.mark.parametrize("workload", ["zoo_compile", "arch_sweep"])
def test_wrong_simulator_total_is_an_error(workload, monkeypatch, tmp_path):
    from repro.sim.performance import PerformanceSimulator

    honest = PerformanceSimulator.run

    def perturbed(self, schedule, *args, **kwargs):
        report = honest(self, schedule, *args, **kwargs)
        return dataclasses.replace(report,
                                   total_cycles=report.total_cycles * 1.001)

    clean = run_round(workload, 5, 0, size="tiny", work_dir=str(tmp_path))
    assert clean["errors"] == {}
    monkeypatch.setattr(PerformanceSimulator, "run", perturbed)
    broken = run_round(workload, 5, 0, size="tiny", work_dir=str(tmp_path))
    assert len(broken["errors"]) > 0
    assert len(broken["errors"]) / len(broken["op_ms"]) > 0


def test_span_tree_nests_and_self_times_are_non_negative(tmp_path):
    from repro.sched import cg

    original = cg.segment_graph
    rec = SpanRecorder()
    inst = instrument(rec, layers.ENTRY_POINTS,
                      scopes=("repro", "hostbench.workloads"))
    try:
        for name in ("zoo_compile", "fleet_diurnal"):
            wl = WORKLOADS[name](0, 0, SIZES["tiny"][name], str(tmp_path))
            with rec.span("bench.body"):
                wl.setup()
                wl.body()
    finally:
        inst.remove()
    assert cg.segment_graph is original
    rec.finish()
    assert any(rec.folded[s] and rec.calls[s] > 1
               for s in range(len(rec.names)))
    eps = 1e-9
    for sid, parent in enumerate(rec.parents):
        assert rec.starts[sid] <= rec.ends[sid] + eps
        if parent >= 0:
            assert rec.starts[parent] - eps <= rec.starts[sid]
            assert rec.ends[sid] <= rec.ends[parent] + eps
    assert all(t >= 0 for t in rec.self_times())
    entries = rec.per_entry()
    assert entries["sched.compiler.CIMMLC.compile"]["calls"] > 0
    assert entries["serve.engine.EventLoop.push"]["calls"] > 1
    trace = rec.chrome_trace()
    assert {e["ph"] for e in trace["traceEvents"]} == {"M", "X"}


def test_self_time_arithmetic():
    rec = SpanRecorder()
    root = rec.enter("root")
    child = rec.enter("child")
    rec.leave(child, 1.0, 3.0)
    for start in (3.0, 4.0):
        event = rec.enter("event", fold=True)
        rec.leave(event, start, start + 0.5)
    rec.leave(root, 0.0, 10.0)
    rec.finish()
    entries = rec.per_entry()
    assert entries["event"]["calls"] == 2
    assert entries["event"]["total_s"] == 1.0
    assert entries["root"]["self_s"] == 10.0 - 2.0 - 1.0
    assert entries["child"]["self_s"] == 2.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "zoo_compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
