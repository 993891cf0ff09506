"""Reduced-size self-test of the benchmark.

Runs every workload once on shrunken grids, checks that each metric
``BENCHMARK.json`` names is emitted with its unit, and shows that the
correctness gates catch a flipped histogram count and a perturbed
voltage.  Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gates  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, MegaSweep  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_METRICS = {
    "paper_flow": (
        ("dl_predict_ms.p50", "ms"),
        ("dl_predict_ms.p90", "ms"),
        ("conv_plan_ms.p50", "ms"),
        ("conv_plan_ms.p90", "ms"),
        ("width_mse_pct", "%"),
        ("ir_drop_err_pct", "%"),
    ),
    "mega_sweep": (
        ("sweep_dense_scen_per_s", "scenarios/s"),
        ("sweep_serial_scen_per_s", "scenarios/s"),
        ("sweep_parallel_scen_per_s", "scenarios/s"),
    ),
    "plan_converge": (
        ("plan_onemove_s.p50", "s"),
        ("plan_search_s.p50", "s"),
        ("plan_onemove_drop_mv", "mV"),
        ("plan_search_drop_mv", "mV"),
    ),
}
"""Workload metrics printed by name, with unit and sample count."""

TIMING_DEPENDENT_COUNTS = {"analysis.executors.tasks", "analysis.executors.rebalances"}
"""Counts the hybrid executor derives from measured shard times."""


def _run(capsys, workload: str, trace: int) -> tuple[int, list[str], dict]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--smoke"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_lists_every_workload():
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload, capsys):
    code, lines, result = _run(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    rows = {line.split()[0]: line.split()[1:] for line in lines if not line.startswith(("#", "{"))}
    for name, unit in WORKLOAD_METRICS[workload]:
        assert rows[name][1] == unit and rows[name][2].startswith("n="), name
    assert rows["ops_attempted"] == [str(result["attempted"]), "count"]
    assert rows["ops_failed"] == ["0", "count"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_with_repeatable_counts(workload, capsys):
    runs = [_run(capsys, workload, trace=1) for _ in range(2)]
    for code, _, result in runs:
        assert code == 0 and result["correct"]
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == _declared("per_layer")
    first, second = (result["metrics"] for _, _, result in runs)
    for name, metric in first.items():
        if metric["unit"] == "count" and name not in TIMING_DEPENDENT_COUNTS:
            assert metric["value"] == second[name]["value"], name


@pytest.fixture(scope="module")
def sweeps():
    """A serial and a hybrid smoke sweep of the same inputs, with their sinks."""
    from repro.analysis import BatchedAnalysisEngine, HybridExecutor, SerialExecutor
    from repro.grid import mega_sweep_matrices

    workload = MegaSweep(smoke=True)
    state = workload.setup(0)
    loads, pads = mega_sweep_matrices(
        state.compiled, state.bench.floorplan, workload.GAMMA, *workload.shape, seed=7
    )
    swept = []
    for executor in (SerialExecutor(), HybridExecutor()):
        sinks = workload.sinks(state)
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            state.compiled, loads, pads, sinks=tuple(sinks.values()), executor=executor
        )
        swept.append((result, sinks))
    return state, loads, pads, swept


def test_flipped_histogram_count_fails_bitwise_gate(sweeps):
    _, _, _, ((serial, serial_sinks), (parallel, parallel_sinks)) = sweeps
    assert gates.sweep_mismatches(serial, serial_sinks, parallel, parallel_sinks) == []
    parallel_sinks["histogram"].result().counts[0, 0] += 1
    assert gates.sweep_mismatches(serial, serial_sinks, parallel, parallel_sinks) == [
        "histogram sink differs bitwise from the serial sweep"
    ]


def test_perturbed_voltage_fails_residual_gate(sweeps):
    from repro.analysis import BatchedAnalysisEngine

    state, loads, pads, ((serial, _), _) = sweeps
    compiled = state.compiled
    load_matrix = np.repeat(loads, pads.shape[0], axis=0)
    pad_matrix = np.tile(pads, (loads.shape[0], 1))
    voltages = BatchedAnalysisEngine().analyze_pad_batch(
        compiled, pad_matrix, load_matrix=load_matrix
    ).voltages
    assert gates.residual_failures(compiled, voltages, load_matrix, pad_matrix) == []
    assert gates.reference_failures(serial, voltages) == []
    perturbed = voltages.copy()
    perturbed[np.flatnonzero(compiled.unknown_sel)[0], 1] += 1e-6
    failures = gates.residual_failures(compiled, perturbed, load_matrix, pad_matrix)
    assert len(failures) == 1 and failures[0].startswith("relative residual")


def test_refuses_code_path_overrides(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TEST_EXECUTOR", "serial")
    code = run.main(["--workload", "mega_sweep", "--seed", "1", "--seconds", "1", "--smoke"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *BENCHMARK["command"][1:]]
    completed = subprocess.run(
        command + ["--workload", "mega_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _session_members(session: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == session:
                    members.append(int(entry.name))
            except ProcessLookupError:
                pass
    return members


@pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs /proc")
def test_leaves_no_process_running():
    """The hybrid sweep's helper processes are stopped before the run exits."""
    command = [sys.executable, *BENCHMARK["command"][1:]]
    process = subprocess.Popen(
        command + ["--workload", "mega_sweep", "--seed", "1", "--seconds", "0.5", "--smoke"],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert process.wait(timeout=180) == 0
    assert _session_members(process.pid) == []
