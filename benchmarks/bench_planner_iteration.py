"""Planner-iteration micro-benchmark: rebuild loop vs compiled fast path.

Each iteration of the conventional analyse-and-resize flow used to rebuild
the :class:`PowerGridNetwork` object graph (per-element dict inserts) and
re-derive a :class:`CompiledGrid` from scratch.  The rebuild-free loop
builds the compiled arrays once (``GridBuilder.build_compiled``) and then
only rewrites the stripe conductances per resize iteration
(``GridBuilder.resize_compiled``), reusing the frozen topology, index maps
and COO→CSR sparsity pattern.

This bench runs both planner paths on the largest shipped benchmark grid,
verifies bit-identical convergence (iterations, final widths, worst IR
drop), times the per-iteration (build + compile) step of each path and
emits a JSON speedup record mirroring ``bench_engine_batched_solve.py``.
The acceptance bar is a ≥ 3x per-iteration construction speedup at full
grid scale.

A second section (``test_planner_search_batched``) benchmarks the
batched candidate search against the one-move-per-iteration loop: time
to a converged plan and final worst drop for the baseline, the exact
search and the NN-ranker-pruned search, with every committed candidate
verified to 1e-9 against an independent fresh engine.  Its record lands
in ``bench_planner_search.json``.  Reduced-scale records carry
``"smoke": true`` so ``check_results.py`` skips the performance bars.

Environment variables:
    REPRO_BENCH_PLANNER_GRID: Benchmark to plan (default: the largest grid).
    REPRO_BENCH_SCALE: Global grid scale (tiny-grid CI smoke gate).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from conftest import bench_scale, full_scale

from repro.analysis import BatchedAnalysisEngine
from repro.core import format_key_values
from repro.design import CandidateRanker, ConventionalPowerPlanner, SearchConfig
from repro.grid import GridBuilder, SyntheticIBMSuite

MIN_SPEEDUP = 3.0
VOLTAGE_TOLERANCE = 1e-9
REPEATS = 3
SEARCH_ITERATIONS = 40
"""Iteration cap of the search section, high enough that every mode converges."""
MAX_RANKER_LOSS = 0.01


def target_benchmark_name(suite: SyntheticIBMSuite) -> str:
    """Benchmark to plan: REPRO_BENCH_PLANNER_GRID or the largest grid."""
    override = os.environ.get("REPRO_BENCH_PLANNER_GRID", "").strip()
    if override:
        return override
    return max(suite.names(), key=lambda name: suite.config(name).approx_nodes)


def _iteration_history(plan) -> list[dict]:
    return [
        {
            "index": iteration.index,
            "worst_ir_drop": iteration.worst_ir_drop,
            "em_violations": iteration.em_violations,
            "lines_resized": iteration.lines_resized,
            "build_time": iteration.build_time,
            "analysis_time": iteration.analysis_time,
        }
        for iteration in plan.iterations
    ]


def test_planner_iteration_speedup(benchmark, results_dir):
    """Legacy rebuild vs compiled construction, identical convergence."""
    suite = SyntheticIBMSuite(scale=bench_scale())
    name = target_benchmark_name(suite)
    bench = suite.load(name)
    technology = bench.technology
    floorplan, topology = bench.floorplan, bench.topology

    legacy_planner = ConventionalPowerPlanner(technology, use_compiled_loop=False)
    fast_planner = ConventionalPowerPlanner(technology, use_compiled_loop=True)
    legacy_plan = legacy_planner.plan(floorplan, topology)
    fast_plan = benchmark.pedantic(
        lambda: fast_planner.plan(floorplan, topology), rounds=1, iterations=1
    )

    # Convergence must be identical between the two loops.
    assert fast_plan.num_iterations == legacy_plan.num_iterations
    assert fast_plan.converged == legacy_plan.converged
    assert np.array_equal(fast_plan.widths, legacy_plan.widths)
    assert abs(
        fast_plan.ir_result.worst_ir_drop - legacy_plan.ir_result.worst_ir_drop
    ) <= 1e-9
    for legacy_it, fast_it in zip(legacy_plan.iterations, fast_plan.iterations):
        assert fast_it.lines_resized == legacy_it.lines_resized
        assert abs(fast_it.worst_ir_drop - legacy_it.worst_ir_drop) <= 1e-9

    # Per-iteration construction cost: what one resize round pays before the
    # solve.  Legacy: object-graph build + compile + matrix assembly.
    # Compiled: conductance rewrite + pattern-based matrix refresh.
    builder = GridBuilder(technology)
    initial_widths = legacy_planner.sizer.size(floorplan, topology)
    resized_widths = legacy_planner.rules.legalize_widths(initial_widths * 1.25)

    legacy_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        network = builder.build(floorplan, topology, resized_widths)
        network.compile().reduced_matrix
        legacy_times.append(time.perf_counter() - start)

    start = time.perf_counter()
    base = builder.build_compiled(floorplan, topology, initial_widths)
    base.reduced_matrix
    first_build_time = time.perf_counter() - start

    compiled_times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        builder.resize_compiled(base, topology, resized_widths).reduced_matrix
        compiled_times.append(time.perf_counter() - start)

    legacy_seconds = float(np.mean(legacy_times))
    compiled_seconds = float(np.mean(compiled_times))
    speedup = legacy_seconds / compiled_seconds

    record = {
        "benchmark": name,
        "scale": bench_scale(),
        "smoke": not full_scale(),
        "grid_statistics": dict(
            zip(
                ("num_nodes", "num_resistors", "num_sources", "num_loads"),
                legacy_plan.network.statistics().as_row(),
            )
        ),
        "num_iterations": legacy_plan.num_iterations,
        "converged": legacy_plan.converged,
        "legacy_iteration_build_seconds": legacy_seconds,
        "compiled_iteration_build_seconds": compiled_seconds,
        "compiled_first_build_seconds": first_build_time,
        "iteration_build_speedup": speedup,
        "solver_backend": fast_planner.analyzer.cache_info().backend,
        "legacy_history": _iteration_history(legacy_plan),
        "compiled_history": _iteration_history(fast_plan),
        "legacy_plan_total_seconds": legacy_plan.total_time,
        "compiled_plan_total_seconds": fast_plan.total_time,
    }
    print()
    print(
        format_key_values(
            {
                "benchmark": name,
                "iterations": legacy_plan.num_iterations,
                "legacy build+compile (s)": round(legacy_seconds, 5),
                "compiled resize (s)": round(compiled_seconds, 5),
                "compiled first build (s)": round(first_build_time, 5),
                "per-iteration speedup": round(speedup, 2),
                "plan total legacy (s)": round(legacy_plan.total_time, 4),
                "plan total compiled (s)": round(fast_plan.total_time, 4),
            },
            title=f"rebuild loop vs compiled planner iteration ({name})",
        )
    )
    with open(results_dir / "bench_planner_iteration.json", "w") as handle:
        json.dump(record, handle, indent=2)

    if full_scale():
        assert speedup >= MIN_SPEEDUP, (
            f"compiled planner iteration speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP}x bar"
        )


def _oracle_verify(technology, floorplan, topology, moves) -> float:
    """Max voltage error of every committed candidate vs an independent solve.

    Each committed move is rebuilt from its absolute widths with
    ``build_compiled`` and re-solved by a new engine against the move's
    recorded loads.
    """
    builder = GridBuilder(technology)
    oracle = BatchedAnalysisEngine()
    worst = 0.0
    for move in moves:
        fresh = builder.build_compiled(floorplan, topology, move.widths)
        voltages = oracle.solve_voltages(fresh, move.loads)
        worst = max(worst, float(np.max(np.abs(voltages - move.voltages))))
    return worst


def _time_to_converged(plan) -> float | None:
    """Wall-clock of a plan that converged, ``None`` when it hit the cap."""
    return plan.total_time if plan.converged else None


def _mode_record(plan, planner) -> dict:
    return {
        "final_worst_ir_drop": plan.ir_result.worst_ir_drop,
        "converged": plan.converged,
        "iterations": plan.num_iterations,
        "factorizations": planner.analyzer.cache_info().factorizations,
        "seconds_per_iteration": plan.total_time / plan.num_iterations,
        "total_seconds": plan.total_time,
        "time_to_converged_s": _time_to_converged(plan),
    }


def test_planner_search_batched(results_dir):
    """Batched candidate search vs the one-move-per-iteration loop.

    All three modes start from a deliberately undersized grid (every
    stripe at the legal minimum) and run to convergence under one
    iteration cap, so each pays a full analyse–resize trajectory:

    * **one-move baseline** — the conventional loop, one fresh
      factorization per iteration (the paper's flow);
    * **exact search** — every candidate of every batch solved, one
      fresh factorization per distinct candidate;
    * **ranker search** — the batch pruned by the NN ranker (trained on
      the exact run's observed improvements) before any solve.

    Every committed candidate must match an independent engine to 1e-9.
    Gates at full scale: every mode converges (so its time to a
    converged plan is defined), the exact search's final worst drop is
    no worse than the baseline's, and the ranker-pruned search loses
    <= 1% final drop vs exact.
    """
    suite = SyntheticIBMSuite(scale=bench_scale())
    name = target_benchmark_name(suite)
    bench = suite.load(name)
    technology = bench.technology
    floorplan, topology = bench.floorplan, bench.topology

    baseline_planner = ConventionalPowerPlanner(technology, max_iterations=SEARCH_ITERATIONS)
    tiny = np.full(topology.num_lines, baseline_planner.rules.min_width)
    baseline_plan = baseline_planner.plan(floorplan, topology, initial_widths=tiny)

    exact_planner = ConventionalPowerPlanner(
        technology, max_iterations=SEARCH_ITERATIONS, search=True
    )
    exact_plan = exact_planner.plan(floorplan, topology, initial_widths=tiny.copy())
    exact_stats = exact_plan.search

    oracle_max_error = _oracle_verify(
        technology, floorplan, topology, exact_stats.committed
    )
    assert oracle_max_error <= VOLTAGE_TOLERANCE, (
        f"committed candidate diverged from the independent solve "
        f"by {oracle_max_error}"
    )
    assert exact_stats.candidates_generated == (
        exact_stats.candidates_pruned + exact_stats.candidates_solved
    )
    assert exact_stats.candidates_pruned == 0  # exact mode solves everything

    features, improvements = exact_stats.training_data()
    ranker = CandidateRanker()
    ranker.fit(features, improvements)
    ranker_planner = ConventionalPowerPlanner(
        technology,
        max_iterations=SEARCH_ITERATIONS,
        search=SearchConfig(ranker=ranker),
    )
    ranker_plan = ranker_planner.plan(floorplan, topology, initial_widths=tiny.copy())
    ranker_stats = ranker_plan.search
    assert ranker_stats.candidates_pruned > 0
    assert ranker_stats.candidates_generated == (
        ranker_stats.candidates_pruned + ranker_stats.candidates_solved
    )
    ranker_loss = (
        ranker_plan.ir_result.worst_ir_drop - exact_plan.ir_result.worst_ir_drop
    ) / exact_plan.ir_result.worst_ir_drop
    baseline_converged_s = _time_to_converged(baseline_plan)
    exact_converged_s = _time_to_converged(exact_plan)
    time_ratio = (
        exact_converged_s / baseline_converged_s
        if exact_converged_s is not None and baseline_converged_s is not None
        else None
    )

    record = {
        "benchmark": name,
        "scale": bench_scale(),
        "smoke": not full_scale(),
        "iteration_budget": SEARCH_ITERATIONS,
        "baseline": _mode_record(baseline_plan, baseline_planner),
        "exact_search": {
            **_mode_record(exact_plan, exact_planner),
            "oracle_max_voltage_error": oracle_max_error,
            **exact_stats.as_record(),
        },
        "ranker_search": {
            **_mode_record(ranker_plan, ranker_planner),
            "relative_loss_vs_exact": ranker_loss,
            **ranker_stats.as_record(),
        },
        "search_to_baseline_time_to_converged": time_ratio,
    }
    print()
    print(
        format_key_values(
            {
                "benchmark": name,
                "baseline final drop (V)": round(
                    baseline_plan.ir_result.worst_ir_drop, 6
                ),
                "exact search final drop (V)": round(
                    exact_plan.ir_result.worst_ir_drop, 6
                ),
                "ranker final drop (V)": round(
                    ranker_plan.ir_result.worst_ir_drop, 6
                ),
                "ranker loss vs exact": f"{ranker_loss:+.3%}",
                "baseline time to converged (s)": baseline_converged_s,
                "exact search time to converged (s)": exact_converged_s,
                "ranker time to converged (s)": _time_to_converged(ranker_plan),
                "search / baseline time": time_ratio,
                "candidates solved (exact)": exact_stats.candidates_solved,
                "candidates pruned (ranker)": ranker_stats.candidates_pruned,
                "oracle max voltage error": oracle_max_error,
            },
            title=f"batched planner search vs one-move loop ({name})",
        )
    )
    with open(results_dir / "bench_planner_search.json", "w") as handle:
        json.dump(record, handle, indent=2)

    if full_scale():
        for label, plan in (
            ("baseline", baseline_plan),
            ("exact search", exact_plan),
            ("ranker search", ranker_plan),
        ):
            assert plan.converged, (
                f"{label} did not converge within {SEARCH_ITERATIONS} iterations"
            )
        assert exact_plan.ir_result.worst_ir_drop <= (
            baseline_plan.ir_result.worst_ir_drop + 1e-12
        ), "exact search finished worse than the one-move baseline"
        assert ranker_loss <= MAX_RANKER_LOSS, (
            f"ranker-pruned search lost {ranker_loss:.3%} final drop vs exact "
            f"(bar: {MAX_RANKER_LOSS:.0%})"
        )
