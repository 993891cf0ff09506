"""Mega-sweep benchmark: 1e5+ pad x load scenarios through streamed sinks.

The paper's value proposition is evaluating huge numbers of PDN scenarios
cheaply.  This bench drives the combined pad-voltage x load-perturbation
cross product (:meth:`BatchedAnalysisEngine.analyze_mega_sweep`) at
``>= 1e5`` scenarios on ``ibmpg1``, with the full sink stack attached —
the quantile sketch, per-node histograms, exceedance counts, joint
exceedance and a top-k shortlist — all in chunk-bounded memory: neither
the dense ``(num_nodes, k)`` voltage matrix nor the ``(k, num_nodes)``
scenario matrix is ever allocated (the cross product is generated per
chunk).

Before the timed run, the exact-reduction sinks (histogram, exceedance,
top-k) and the streamed worst/mean reductions are verified **bitwise**
against a dense single-shot reference on a cross-product subset small
enough to materialise, and the quantile sketch is gated against its
documented relative error at the dense rank quantiles.

After the timed sequential sweep, the same mega-sweep is re-run on both
axes of ``HybridExecutor`` and on the remote executor:

* ``HybridExecutor(1, n)`` — one shard, ``n >= 2`` solver threads: the
  in-process chunk pipeline must produce **bitwise-identical** reductions
  and sink results (asserted), and the sequential-vs-threaded speedup is
  recorded (``>= 1.5x`` bar, multi-core full-scale runners only);
* ``HybridExecutor(n, 1)`` at every tested shard count — the scenario
  range splits across worker processes, each with its own factorization,
  and the merged reductions plus every mergeable sink must again be
  bitwise-identical (asserted).  The sequential-vs-process speedup is
  recorded and gated ``>= 2x`` by ``check_results.py`` on multi-core
  (``cpu_count >= 4``) full-scale runners;
* both axes at once at several ``shard_workers × threads_per_shard``
  combinations, with the grid shipped through one zero-copy
  shared-memory payload — the merged reductions and every mergeable sink
  must again be bitwise-identical to the sequential sweep (asserted at
  every scale).  The sequential-vs-hybrid speedup and
  ``payload_bytes_shared`` are recorded; ``check_results.py`` gates
  ``hybrid_speedup >= max(parallel_speedup, process_speedup)`` on ``>=
  4``-core full-scale runners and ``payload_bytes_shared > 0``
  everywhere, so the zero-copy claim is measured rather than asserted;
* the **remote fleet executor** against a localhost coordinator and
  worker processes the bench starts and stops itself, at 1 / 2 /
  non-divisor shard counts — the merged reductions and every mergeable
  sink, the quantile sketch included, must be bitwise-identical to the
  sequential sweep at every count (asserted), and the sequential-vs-remote
  speedup is recorded and gated ``>= 1.5x`` on multi-core full-scale
  runners.  The sketch's maximum relative error against the dense rank
  quantiles is recorded and gated against its documented ``1%`` bound at
  every scale.

A JSON throughput record is written to ``benchmarks/results/`` for the CI
artifact upload and the regression checker (``check_results.py``).

Environment variables:
    REPRO_BENCH_SCALE: Global grid scale; scales the scenario counts down
        too (tiny-grid CI smoke gate).  Full-scale acceptance asserts
        >= 1e5 scenarios.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import threading
from contextlib import contextmanager

import numpy as np
from conftest import bench_scale, full_scale

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCountSink,
    HybridExecutor,
    JointExceedanceSink,
    NodeHistogramSink,
    QuantileSketchSink,
    RemoteExecutor,
    TopKScenarioSink,
    make_coordinator,
    run_worker,
)
from repro.core import format_key_values
from repro.grid import SyntheticIBMSuite, mega_sweep_matrices

BENCHMARK = "ibmpg1"
GAMMA = 0.2
SEED = 2020
FULL_NUM_LOADS = 400
FULL_NUM_PADS = 256
CHUNK_SIZE = 512
QUANTILES = (0.5, 0.9, 0.99)
TOP_K = 10
NUM_BINS = 32
REFERENCE_SCENARIO_BUDGET = 2048
MIN_FULL_SCALE_SCENARIOS = 100_000
PARALLEL_WORKERS = max(2, min(4, os.cpu_count() or 1))
PROCESS_SHARD_COUNTS = tuple(sorted({2, PARALLEL_WORKERS}))
HYBRID_CONFIGS = tuple(
    sorted({(2, 2), (max(2, (os.cpu_count() or 1) // 2), 2)})
)
"""(shard_workers, threads_per_shard) combinations; the last one is timed."""
REMOTE_WORKER_COUNTS = (1, 2, 3)
"""Single shard, even split and a non-divisor of the full scenario count."""
SKETCH_RELATIVE_ERROR = 0.01
"""Documented bound of the quantile sketch (checked against dense ranks)."""


def scenario_counts(scale: float) -> tuple[int, int]:
    """Load / pad row counts, scaled with the grid for the CI smoke run."""
    return max(6, round(FULL_NUM_LOADS * scale)), max(4, round(FULL_NUM_PADS * scale))


def build_sinks(nominal_worst: float) -> dict:
    """One fresh instance of every sink the bench exercises (all mergeable)."""
    return {
        "sketch": QuantileSketchSink(QUANTILES, relative_error=SKETCH_RELATIVE_ERROR),
        "histogram": NodeHistogramSink.uniform(0.0, max(2.0 * nominal_worst, 1e-6), NUM_BINS),
        "exceedance": ExceedanceCountSink(nominal_worst),
        "joint": JointExceedanceSink(nominal_worst),
        "topk": TopKScenarioSink(TOP_K),
    }


def dense_reference(engine, grid, load_rows, pad_matrix, edges, threshold):
    """Single-shot dense solve of a small cross product + numpy reductions."""
    num_pads = pad_matrix.shape[0]
    dense = engine.analyze_pad_batch(
        grid,
        np.tile(pad_matrix, (load_rows.shape[0], 1)),
        load_matrix=np.repeat(load_rows, num_pads, axis=0),
    )
    drops = dense.compiled.vdd - dense.voltages
    counts = np.empty((drops.shape[0], len(edges) - 1), dtype=np.int64)
    for node in range(drops.shape[0]):
        counts[node] = np.histogram(drops[node], bins=edges)[0]
    # Per-scenario reductions over contiguous rows, matching the engine's
    # fixed floating-point summation order.
    rows = np.ascontiguousarray(drops.T)
    worst = rows.max(axis=1)
    order = np.lexsort((np.arange(worst.size), -worst))[:TOP_K]
    return {
        "worst": worst,
        "average": rows.mean(axis=1),
        "histogram_counts": counts,
        "underflow": (drops < edges[0]).sum(axis=1),
        "overflow": (drops > edges[-1]).sum(axis=1),
        "exceedance": (drops > threshold).sum(axis=1),
        "joint_counts": np.bincount((drops > threshold).sum(axis=0)),
        "topk_index": order,
        "topk_value": worst[order],
        "topk_node": rows.argmax(axis=1)[order],
        # The sketch targets the dense rank quantile (floor(q * (n - 1))),
        # i.e. numpy's "lower" method, within its relative-error bound.
        "quantiles_lower": np.quantile(worst, QUANTILES, method="lower"),
    }


@contextmanager
def remote_fleet(workers: int):
    """A localhost coordinator thread plus ``workers`` worker processes.

    Yields the coordinator URL; the workers are terminated and the
    coordinator shut down when the block exits, on success or error.
    """
    server = make_coordinator("127.0.0.1", 0)
    serve = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    serve.start()
    # Spawned, not forked: the coordinator thread is already running.
    context = mp.get_context("spawn")
    processes = [
        context.Process(
            target=run_worker,
            args=(server.url,),
            kwargs={"poll_interval": 0.01, "unreachable_timeout": 10.0},
            daemon=True,
        )
        for _ in range(workers)
    ]
    try:
        for process in processes:
            process.start()
        yield server.url
    finally:
        for process in processes:
            if process.pid is not None:
                process.terminate()
        for process in processes:
            if process.pid is not None:
                process.join(timeout=5.0)
        server.shutdown()
        serve.join(timeout=5.0)
        server.server_close()


def test_mega_sweep_sinks(benchmark, results_dir):
    """>= 1e5 streamed scenarios; exact sinks bitwise-equal to dense."""
    scale = bench_scale()
    suite = SyntheticIBMSuite(scale=scale)
    bench = suite.load(BENCHMARK)
    grid = bench.build_uniform_grid(5.0)
    num_loads, num_pads = scenario_counts(scale)
    load_matrix, pad_matrix = mega_sweep_matrices(
        grid, bench.floorplan, GAMMA, num_loads, num_pads, seed=SEED
    )

    engine = BatchedAnalysisEngine()
    nominal = engine.analyze(grid)

    # --- Exactness gate: streamed sinks vs a dense single-shot reference
    # on a materialisable cross-product subset (loads-outer ordering).
    ref_loads = max(1, min(num_loads, REFERENCE_SCENARIO_BUDGET // num_pads))
    ref_scenarios = ref_loads * num_pads
    ref_sinks = build_sinks(nominal.worst_ir_drop)
    streamed_ref = engine.analyze_mega_sweep(
        grid,
        load_matrix[:ref_loads],
        pad_matrix,
        chunk_size=max(1, ref_scenarios // 7),  # deliberately not a divisor
        sinks=tuple(ref_sinks.values()),
    )
    edges = ref_sinks["histogram"].edges
    reference = dense_reference(
        engine, grid, load_matrix[:ref_loads], pad_matrix, edges, nominal.worst_ir_drop
    )

    assert np.array_equal(streamed_ref.worst_ir_drop, reference["worst"])
    assert np.array_equal(streamed_ref.average_ir_drop, reference["average"])
    histogram = ref_sinks["histogram"].result()
    assert np.array_equal(histogram.counts, reference["histogram_counts"])
    assert np.array_equal(histogram.underflow, reference["underflow"])
    assert np.array_equal(histogram.overflow, reference["overflow"])
    exceedance = ref_sinks["exceedance"].result()
    assert np.array_equal(exceedance.counts, reference["exceedance"])
    joint = ref_sinks["joint"].result()
    assert np.array_equal(joint.violating_node_counts, reference["joint_counts"])
    topk = ref_sinks["topk"].result()
    assert np.array_equal(topk.scenario_index, reference["topk_index"])
    assert np.array_equal(topk.worst_ir_drop, reference["topk_value"])
    assert np.array_equal(topk.worst_node_index, reference["topk_node"])
    # The sketch is approximate by design; gate it against its documented
    # relative-error bound at the dense rank quantiles.
    ref_sketch = ref_sinks["sketch"].result()
    ref_sketch_error = float(
        np.max(
            np.abs(ref_sketch.values - reference["quantiles_lower"])
            / reference["quantiles_lower"]
        )
    )
    assert ref_sketch_error <= SKETCH_RELATIVE_ERROR
    exact_sinks_match = True

    # --- Timed full mega-sweep, chunk-bounded memory, one factorization.
    sweep_engine = BatchedAnalysisEngine()
    sinks = build_sinks(nominal.worst_ir_drop)
    result = benchmark.pedantic(
        # workers=1 pinned: the baseline must stay sequential even when
        # REPRO_TEST_WORKERS is exported, or the speedup record lies.
        lambda: sweep_engine.analyze_mega_sweep(
            grid,
            load_matrix,
            pad_matrix,
            chunk_size=CHUNK_SIZE,
            sinks=tuple(sinks.values()),
            workers=1,
        ),
        rounds=1,
        iterations=1,
    )
    assert result.num_scenarios == num_loads * num_pads
    assert sweep_engine.cache_info().factorizations == 1
    if full_scale():
        assert result.num_scenarios >= MIN_FULL_SCALE_SCENARIOS

    sketch_estimate = sinks["sketch"].result()
    sketch_reference = np.quantile(result.worst_ir_drop, QUANTILES, method="lower")
    sketch_rel_error = float(
        np.max(np.abs(sketch_estimate.values - sketch_reference) / sketch_reference)
    )
    assert sketch_rel_error <= SKETCH_RELATIVE_ERROR
    exceedance = sinks["exceedance"].result()
    joint = sinks["joint"].result()
    topk = sinks["topk"].result()
    dense_voltage_bytes = 8 * result.compiled.num_nodes * result.num_scenarios
    chunk_bytes = 8 * result.compiled.num_nodes * CHUNK_SIZE

    # --- Thread axis: one shard, the same sweep on a thread pool.
    # Ordered sink folding makes every reduction and sink result
    # bitwise-identical; the speedup is recorded and gated (multi-core
    # runners only) by check_results.py.
    parallel_engine = BatchedAnalysisEngine()
    parallel_sinks = build_sinks(nominal.worst_ir_drop)
    parallel = parallel_engine.analyze_mega_sweep(
        grid,
        load_matrix,
        pad_matrix,
        chunk_size=CHUNK_SIZE,
        sinks=tuple(parallel_sinks.values()),
        executor=HybridExecutor(1, PARALLEL_WORKERS),
    )
    parallel_histogram = parallel_sinks["histogram"].result()
    sequential_histogram = sinks["histogram"].result()
    parallel_topk = parallel_sinks["topk"].result()
    parallel_matches = all(
        (
            np.array_equal(parallel.worst_ir_drop, result.worst_ir_drop),
            np.array_equal(parallel.average_ir_drop, result.average_ir_drop),
            np.array_equal(parallel.worst_node_index, result.worst_node_index),
            np.array_equal(parallel_histogram.counts, sequential_histogram.counts),
            np.array_equal(
                parallel_sinks["exceedance"].result().counts, exceedance.counts
            ),
            np.array_equal(
                parallel_sinks["joint"].result().violating_node_counts,
                joint.violating_node_counts,
            ),
            np.array_equal(parallel_topk.scenario_index, topk.scenario_index),
            np.array_equal(parallel_topk.worst_ir_drop, topk.worst_ir_drop),
            np.array_equal(parallel_sinks["sketch"].result().values, sketch_estimate.values),
        )
    )
    assert parallel_matches
    assert parallel_engine.cache_info().factorizations == 1
    parallel_speedup = (
        result.analysis_time / parallel.analysis_time if parallel.analysis_time > 0 else 0.0
    )

    # --- Process axis: one thread per shard, the scenario range split
    # across worker processes (one factorization and one fold each); the
    # merged reductions and every mergeable sink must be bitwise-identical
    # to the sequential sweep at every tested shard count.  The largest
    # shard count is timed for the recorded speedup (gated >= 2x by
    # check_results.py on multi-core full-scale runners).
    process_matches = True
    process_elapsed = 0.0
    process_factorizations = 0
    for shards in PROCESS_SHARD_COUNTS:
        process_engine = BatchedAnalysisEngine()
        process_sinks = build_sinks(nominal.worst_ir_drop)
        process = process_engine.analyze_mega_sweep(
            grid,
            load_matrix,
            pad_matrix,
            chunk_size=CHUNK_SIZE,
            sinks=tuple(process_sinks.values()),
            executor=HybridExecutor(shards, 1),
        )
        process_topk = process_sinks["topk"].result()
        process_matches = process_matches and all(
            (
                np.array_equal(process.worst_ir_drop, result.worst_ir_drop),
                np.array_equal(process.average_ir_drop, result.average_ir_drop),
                np.array_equal(process.worst_node_index, result.worst_node_index),
                np.array_equal(
                    process_sinks["histogram"].result().counts, sequential_histogram.counts
                ),
                np.array_equal(
                    process_sinks["exceedance"].result().counts, exceedance.counts
                ),
                np.array_equal(
                    process_sinks["joint"].result().violating_node_counts,
                    joint.violating_node_counts,
                ),
                np.array_equal(process_topk.scenario_index, topk.scenario_index),
                np.array_equal(process_topk.worst_ir_drop, topk.worst_ir_drop),
                # The sketch merge is aligned counter addition: bitwise
                # identical at every shard count.
                np.array_equal(
                    process_sinks["sketch"].result().values, sketch_estimate.values
                ),
            )
        )
        assert process_matches, f"process-sharded sweep diverged at {shards} shards"
        process_elapsed = process.analysis_time
        process_factorizations = process_engine.cache_info().factorizations
    process_shards = PROCESS_SHARD_COUNTS[-1]
    process_speedup = result.analysis_time / process_elapsed if process_elapsed > 0 else 0.0

    # --- Both axes: process shards each running the threaded chunk
    # pipeline, the grid shipped once through a shared-memory payload.
    # Bitwise identity to the sequential sweep is asserted at every
    # (shard_workers, threads_per_shard) combination and every scale; the
    # last combination is timed.  check_results.py gates hybrid_speedup >=
    # max(parallel_speedup, process_speedup) on >= 4-core full-scale
    # runners, and payload_bytes_shared > 0 everywhere the shared-memory
    # path is available.
    hybrid_matches = True
    hybrid_elapsed = 0.0
    hybrid_stats: dict = {}
    for shard_workers, threads_per_shard in HYBRID_CONFIGS:
        hybrid_engine = BatchedAnalysisEngine()
        hybrid_sinks = build_sinks(nominal.worst_ir_drop)
        hybrid_executor = HybridExecutor(
            shard_workers=shard_workers, threads_per_shard=threads_per_shard
        )
        hybrid = hybrid_engine.analyze_mega_sweep(
            grid,
            load_matrix,
            pad_matrix,
            chunk_size=CHUNK_SIZE,
            sinks=tuple(hybrid_sinks.values()),
            executor=hybrid_executor,
        )
        hybrid_topk = hybrid_sinks["topk"].result()
        hybrid_matches = hybrid_matches and all(
            (
                np.array_equal(hybrid.worst_ir_drop, result.worst_ir_drop),
                np.array_equal(hybrid.average_ir_drop, result.average_ir_drop),
                np.array_equal(hybrid.worst_node_index, result.worst_node_index),
                np.array_equal(
                    hybrid_sinks["histogram"].result().counts, sequential_histogram.counts
                ),
                np.array_equal(
                    hybrid_sinks["exceedance"].result().counts, exceedance.counts
                ),
                np.array_equal(
                    hybrid_sinks["joint"].result().violating_node_counts,
                    joint.violating_node_counts,
                ),
                np.array_equal(hybrid_topk.scenario_index, topk.scenario_index),
                np.array_equal(hybrid_topk.worst_ir_drop, topk.worst_ir_drop),
                np.array_equal(
                    hybrid_sinks["sketch"].result().values, sketch_estimate.values
                ),
            )
        )
        assert hybrid_matches, (
            f"hybrid sweep diverged at {shard_workers} shards x "
            f"{threads_per_shard} threads"
        )
        hybrid_elapsed = hybrid.analysis_time
        hybrid_stats = dict(hybrid_executor.last_stats)
    hybrid_shard_workers, hybrid_threads = HYBRID_CONFIGS[-1]
    hybrid_speedup = result.analysis_time / hybrid_elapsed if hybrid_elapsed > 0 else 0.0

    # --- Remote fleet executor: the same sweep through the coordinator /
    # worker protocol (a localhost coordinator and worker processes this
    # bench starts and stops), at 1 / 2 / non-divisor shard counts
    # (oversubscribe=1 pins shards == workers).  The merged reductions and
    # every mergeable sink must again be bitwise-identical to the
    # sequential sweep, and the sketch must merge bitwise at every count.
    # The largest fleet is timed for the recorded speedup (gated >= 1.5x
    # by check_results.py on multi-core full-scale runners).
    remote_matches = True
    remote_elapsed = 0.0
    remote_factorizations = 0
    with remote_fleet(max(REMOTE_WORKER_COUNTS)) as coordinator:
        for workers in REMOTE_WORKER_COUNTS:
            remote_engine = BatchedAnalysisEngine()
            remote_sinks = build_sinks(nominal.worst_ir_drop)
            remote = remote_engine.analyze_mega_sweep(
                grid,
                load_matrix,
                pad_matrix,
                chunk_size=CHUNK_SIZE,
                sinks=tuple(remote_sinks.values()),
                executor=RemoteExecutor(
                    workers=workers, coordinator=coordinator, oversubscribe=1
                ),
            )
            remote_topk = remote_sinks["topk"].result()
            remote_matches = remote_matches and all(
                (
                    np.array_equal(remote.worst_ir_drop, result.worst_ir_drop),
                    np.array_equal(remote.average_ir_drop, result.average_ir_drop),
                    np.array_equal(remote.worst_node_index, result.worst_node_index),
                    np.array_equal(
                        remote_sinks["histogram"].result().counts, sequential_histogram.counts
                    ),
                    np.array_equal(
                        remote_sinks["exceedance"].result().counts, exceedance.counts
                    ),
                    np.array_equal(
                        remote_sinks["joint"].result().violating_node_counts,
                        joint.violating_node_counts,
                    ),
                    np.array_equal(remote_topk.scenario_index, topk.scenario_index),
                    np.array_equal(remote_topk.worst_ir_drop, topk.worst_ir_drop),
                    np.array_equal(
                        remote_sinks["sketch"].result().values, sketch_estimate.values
                    ),
                )
            )
            assert remote_matches, f"remote sweep diverged at {workers} workers"
            remote_elapsed = remote.analysis_time
            remote_factorizations = remote_engine.cache_info().factorizations
    remote_workers = REMOTE_WORKER_COUNTS[-1]
    remote_speedup = result.analysis_time / remote_elapsed if remote_elapsed > 0 else 0.0

    record = {
        "benchmark": BENCHMARK,
        "scale": scale,
        "smoke": not full_scale(),
        "num_nodes": result.compiled.num_nodes,
        "num_load_scenarios": num_loads,
        "num_pad_scenarios": num_pads,
        "num_scenarios": result.num_scenarios,
        "chunk_size": CHUNK_SIZE,
        "factorizations": sweep_engine.cache_info().factorizations,
        "elapsed_seconds": result.analysis_time,
        "scenarios_per_second": result.scenarios_per_second,
        "cpu_count": os.cpu_count() or 1,
        "parallel_workers": PARALLEL_WORKERS,
        "parallel_elapsed_seconds": parallel.analysis_time,
        "parallel_scenarios_per_second": parallel.scenarios_per_second,
        "parallel_speedup": parallel_speedup,
        "parallel_factorizations": parallel_engine.cache_info().factorizations,
        "parallel_matches": parallel_matches,
        "process_shard_counts": list(PROCESS_SHARD_COUNTS),
        "process_shards": process_shards,
        "process_elapsed_seconds": process_elapsed,
        "process_scenarios_per_second": (
            result.num_scenarios / process_elapsed if process_elapsed > 0 else 0.0
        ),
        "process_speedup": process_speedup,
        "process_matches": process_matches,
        "process_factorizations": process_factorizations,
        "hybrid_configs": [list(config) for config in HYBRID_CONFIGS],
        "hybrid_shard_workers": hybrid_shard_workers,
        "hybrid_threads_per_shard": hybrid_threads,
        "hybrid_elapsed_seconds": hybrid_elapsed,
        "hybrid_scenarios_per_second": (
            result.num_scenarios / hybrid_elapsed if hybrid_elapsed > 0 else 0.0
        ),
        "hybrid_speedup": hybrid_speedup,
        "hybrid_matches": hybrid_matches,
        "hybrid_payload_bytes_shared": hybrid_stats.get("payload_bytes_shared", 0),
        "hybrid_rebalances": hybrid_stats.get("rebalances", 0),
        "hybrid_tasks": hybrid_stats.get("tasks", 0),
        "remote_worker_counts": list(REMOTE_WORKER_COUNTS),
        "remote_workers": remote_workers,
        "remote_elapsed_seconds": remote_elapsed,
        "remote_scenarios_per_second": (
            result.num_scenarios / remote_elapsed if remote_elapsed > 0 else 0.0
        ),
        "remote_speedup": remote_speedup,
        "remote_matches": remote_matches,
        "remote_factorizations": remote_factorizations,
        "sketch_relative_error_bound": SKETCH_RELATIVE_ERROR,
        "sketch_rel_error": sketch_rel_error,
        "sketch_reference_rel_error": ref_sketch_error,
        "sketch_quantiles": dict(
            zip(map(str, QUANTILES), sketch_estimate.values.tolist())
        ),
        "exact_sinks_match": exact_sinks_match,
        "reference_scenarios": ref_scenarios,
        "dense_voltage_bytes_avoided": dense_voltage_bytes,
        "chunk_working_set_bytes": chunk_bytes,
        "nominal_worst_ir_drop": nominal.worst_ir_drop,
        "sweep_worst_ir_drop": float(result.worst_ir_drop.max()),
        "max_node_exceedance_rate": float(exceedance.rates.max()),
        "scenarios_with_violation": joint.scenarios_with_violation,
        "any_exceedance_rate": joint.any_exceedance_rate,
        "top_scenario": int(topk.scenario_index[0]),
        "top_worst_ir_drop": float(topk.worst_ir_drop[0]),
    }
    print()
    print(
        format_key_values(
            {
                "benchmark": BENCHMARK,
                "grid nodes": result.compiled.num_nodes,
                "scenarios": f"{num_loads} x {num_pads} = {result.num_scenarios}",
                "chunk size": CHUNK_SIZE,
                "elapsed (s)": round(result.analysis_time, 3),
                "scenarios / s": round(result.scenarios_per_second),
                f"parallel x{PARALLEL_WORKERS} (s)": round(parallel.analysis_time, 3),
                "parallel speedup": round(parallel_speedup, 2),
                "parallel matches": parallel_matches,
                f"process x{process_shards} (s)": round(process_elapsed, 3),
                "process speedup": round(process_speedup, 2),
                "process matches": process_matches,
                f"hybrid {hybrid_shard_workers}x{hybrid_threads} (s)": round(
                    hybrid_elapsed, 3
                ),
                "hybrid speedup": round(hybrid_speedup, 2),
                "hybrid matches": hybrid_matches,
                "hybrid shared MB": round(
                    hybrid_stats.get("payload_bytes_shared", 0) / 1e6, 3
                ),
                f"remote x{remote_workers} (s)": round(remote_elapsed, 3),
                "remote speedup": round(remote_speedup, 2),
                "remote matches": remote_matches,
                "sketch rel error": round(sketch_rel_error, 5),
                "dense GB avoided": round(dense_voltage_bytes / 1e9, 3),
                "chunk MB working set": round(chunk_bytes / 1e6, 3),
                "P99 worst drop (mV)": round(sketch_estimate.values[-1] * 1000.0, 3),
                "exact sinks match": exact_sinks_match,
            },
            title=f"streamed mega-sweep with sinks ({BENCHMARK})",
        )
    )
    with open(results_dir / "bench_mega_sweep_sinks.json", "w") as handle:
        json.dump(record, handle, indent=2)
