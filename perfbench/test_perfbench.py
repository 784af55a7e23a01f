"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the root."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import quditbv
import run
import workloads as wl
from tracer import Tracer, package_modules

ROOT = Path(__file__).resolve().parent.parent
TINY = {"edge_wide": ((16, 1),), "edge_qubit": ((2, 3),), "small_batch": ((2, 1), (3, 2), (2, 8))}


def snapshot_attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded quditbv module and of its classes."""
    snap = {}
    for module in package_modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("quditbv"):
                for attr, member in vars(value).items():
                    snap[(f"{module.__name__}.{name}", attr)] = member
    return snap


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload, the CLI call count and the repeat counts, and
    keep what ``run.main`` changes in the process out of later tests."""
    for name, shapes in TINY.items():
        monkeypatch.setitem(wl.WORKLOADS, name,
                            dataclasses.replace(wl.WORKLOADS[name], shapes=shapes, warmup=shapes))
    monkeypatch.setattr(wl, "CLI_CALLS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in (*run.THREAD_VARS, "PYTHONPATH"):
        monkeypatch.setenv(var, "1" if var != "PYTHONPATH" else "")
    # One real self-check row instead of the whole battery, which takes seconds.
    monkeypatch.setattr(quditbv, "run_all_checks", lambda: [quditbv.root_of_unity_check(4)])


def result_of(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_each_workload(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = result_of(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 2
    expected = layers.LAYER_METRICS if trace else run.UNITS
    assert list(result["metrics"]) == list(expected)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["oracle.queries_per_solve"] == 1.0
        assert metrics["algorithm.layer_coverage_frac"] > 0.5
        assert metrics["algorithm.solve_peak_mib"] > 0
    else:
        assert all(value > 0 for value in metrics.values())


def test_ad_hoc_shapes(tiny, capsys):
    assert run.main(["--shapes", "3,2", "2,4", "--seed", "0", "--seconds", "0.05",
                     "--trace", "1"]) == 0
    result = result_of(capsys)
    assert result["correct"]
    assert result["metrics"]["d3n2.algorithm.solve_s"]["value"] > 0


def test_tracer_restores_every_attribute():
    before = snapshot_attributes()
    original = quditbv.algorithm.apply_local_gate
    with pytest.raises(RuntimeError):
        with Tracer(layers.TARGETS) as tracer:
            assert quditbv.algorithm.apply_local_gate is not original
            quditbv.run_quantum_bv(quditbv.LinearOracle((1, 2), 3))
            raise RuntimeError("leave the block early")
    after = snapshot_attributes()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert quditbv.algorithm.apply_local_gate is original
    names = {span.name for span in tracer.spans}
    assert {"algorithm.solve", "gates.apply_local_gate", "oracle.apply_quantum",
            "state.statevector_init"} <= names


def test_tracer_self_time_excludes_children():
    with Tracer(layers.TARGETS) as tracer:
        with tracer.request("op"):
            quditbv.run_quantum_bv(quditbv.LinearOracle((1, 0, 2), 3))
    spans = {span.id: span for span in tracer.spans}
    for span in spans.values():
        children = [c for c in spans.values() if c.parent == span.id]
        assert span.self_s == pytest.approx(span.duration - sum(c.duration for c in children))
        assert span.self_s >= 0


def _tiny_run(monkeypatch, solve) -> wl.Gate:
    monkeypatch.setattr(quditbv, "run_quantum_bv", solve)
    workload = dataclasses.replace(wl.WORKLOADS["small_batch"], shapes=((3, 2),))
    gate = wl.Gate()
    wl.measure(workload, wl.make_inputs(workload, 1), 0.01, gate)
    return gate


def test_measure_spreads_the_between_calls_and_keeps_each_shapes_fastest():
    workload = dataclasses.replace(wl.WORKLOADS["small_batch"], shapes=((2, 1), (3, 1)))
    gate = wl.Gate()
    ops_seen = []
    calls = [lambda: ops_seen.append(gate.attempted) for _ in range(3)]
    loop = wl.measure(workload, wl.make_inputs(workload, 1), 0.2, gate, between=calls)
    assert len(ops_seen) == 3 and ops_seen[0] == 0 and ops_seen == sorted(ops_seen)
    assert ops_seen[1] > 0, "the second call waits for a third of the loop's time"
    assert gate.failed == 0 and loop.ops == gate.attempted
    assert set(loop.fastest_solve_s) == set(loop.fastest_op_s) == {(2, 1), (3, 1)}
    assert min(loop.solve_s) == min(loop.fastest_solve_s.values())
    assert all(loop.fastest_solve_s[s] < loop.fastest_op_s[s] for s in loop.fastest_op_s)


def test_gate_counts_an_injected_wrong_answer(monkeypatch):
    real = quditbv.run_quantum_bv

    def wrong(oracle, seed=0):
        report = real(oracle, seed)
        flipped = ((report.recovered[0] + 1) % report.d,) + report.recovered[1:]
        return dataclasses.replace(report, recovered=flipped)

    gate = _tiny_run(monkeypatch, wrong)
    assert gate.attempted >= 1 and gate.failed == gate.attempted
    assert "quantum recovered" in gate.problems[0]


def test_gate_counts_an_exception(monkeypatch):
    def broken(oracle, seed=0):
        raise quditbv.ConsistencyError("injected")

    gate = _tiny_run(monkeypatch, broken)
    assert gate.failed == gate.attempted >= 1
    assert "injected" in gate.problems[0]


def test_gate_counts_a_cli_mismatch(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    gate = wl.Gate()
    argv = ["run", "--mode", "both", "--d", "3", "--n", "2", "--secret", "1,2"]
    assert wl.cli_call(argv, gate, ROOT) > 0 and gate.failed == 0
    monkeypatch.setattr(quditbv.cli, "main", lambda argv: print("something else") or 0)
    wl.cli_call(argv, gate, ROOT)
    assert gate.failed == 1 and "differs" in gate.problems[0]


def test_inputs_depend_only_on_the_seed():
    workload = wl.WORKLOADS["small_batch"]
    a, b, c = (wl.make_inputs(workload, seed) for seed in (4, 4, 5))
    assert a.instances == b.instances and a.cli_argvs == b.cli_argvs
    assert a.instances != c.instances
    assert {(i.d, i.n) for i in a.instances} == set(wl.small_shapes())
    assert len(wl.small_shapes()) == 37


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in layers.LAYER_METRICS.items()}


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
