"""Tests for the pluggable sweep-execution layer.

The core guarantee: a process-sharded sweep — scenario range split across
worker processes, each with its own factorization and its own fold — is
**bitwise-identical** to the sequential sweep for the streamed reductions
and every mergeable sink, at every shard count (1, an even split, and a
non-divisor).  Order-dependent sinks are rejected up front.  Also
covered: executor resolution precedence (explicit executor > workers= >
environment default), the lenient fallback of :data:`EXECUTOR_ENV`, the
adaptive chunk-width heuristic, top-k rematerialisation and a shard
worker killed mid-sweep.
"""

import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    CrossProductScenarioSource,
    ExceedanceCountSink,
    ExecutorIncompatibility,
    HybridExecutor,
    JointExceedanceSink,
    MatrixScenarioSource,
    NodeHistogramSink,
    QuantileSketchSink,
    SerialExecutor,
    SharedGridPayload,
    SweepPlan,
    TopKScenarioSink,
    VectorlessAnalyzer,
    make_executor,
    resolve_chunk_size,
    uniform_budget,
)
from repro.analysis.engine import (
    CHUNK_MEMORY_BUDGET_BYTES,
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
)
from repro.analysis.executors import (
    EXECUTOR_ENV,
    EXECUTOR_NAMES,
    HYBRID_SHARD_WORKERS_ENV,
    HYBRID_THREADS_ENV,
    attach_shard_state,
)
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    perturbed_load_matrix,
)
from tests.analysis.order_sink import OrderRecordingSink

SHARD_COUNTS = [1, 2, 3]
"""Degenerate single shard, even split, and a non-divisor of 37."""


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def ibmpg1_grid(ibmpg1_bench):
    return ibmpg1_bench.build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def load_sweep(ibmpg1_grid):
    spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=11)
    return perturbed_load_matrix(ibmpg1_grid, spec, 37)


@pytest.fixture(scope="module")
def nominal_worst(ibmpg1_grid):
    return BatchedAnalysisEngine().analyze(ibmpg1_grid).worst_ir_drop


def mergeable_sinks(threshold: float) -> dict:
    """Fresh instances of every mergeable sink family."""
    return {
        "sketch": QuantileSketchSink((0.5, 0.9)),
        "histogram": NodeHistogramSink.uniform(0.0, 2.0 * threshold + 1e-6, 8),
        "exceedance": ExceedanceCountSink(threshold),
        "joint": JointExceedanceSink(threshold),
        "topk": TopKScenarioSink(4),
    }


def assert_exact_sinks_identical(sequential: dict, sharded: dict) -> None:
    """Every mergeable sink must be bitwise-equal between sweeps."""
    assert np.array_equal(
        sequential["sketch"].result().values, sharded["sketch"].result().values
    )
    seq_hist, shard_hist = sequential["histogram"].result(), sharded["histogram"].result()
    assert np.array_equal(seq_hist.counts, shard_hist.counts)
    assert np.array_equal(seq_hist.underflow, shard_hist.underflow)
    assert np.array_equal(seq_hist.overflow, shard_hist.overflow)
    assert np.array_equal(
        sequential["exceedance"].result().counts, sharded["exceedance"].result().counts
    )
    seq_joint, shard_joint = sequential["joint"].result(), sharded["joint"].result()
    assert np.array_equal(
        seq_joint.violating_node_counts, shard_joint.violating_node_counts
    )
    assert seq_joint.scenarios_with_violation == shard_joint.scenarios_with_violation
    seq_topk, shard_topk = sequential["topk"].result(), sharded["topk"].result()
    assert np.array_equal(seq_topk.scenario_index, shard_topk.scenario_index)
    assert np.array_equal(seq_topk.worst_ir_drop, shard_topk.worst_ir_drop)
    assert np.array_equal(seq_topk.worst_node_index, shard_topk.worst_node_index)


def assert_reductions_identical(sequential, sharded) -> None:
    assert np.array_equal(sequential.worst_ir_drop, sharded.worst_ir_drop)
    assert np.array_equal(sequential.average_ir_drop, sharded.average_ir_drop)
    assert np.array_equal(sequential.worst_node_index, sharded.worst_node_index)


class ExitingSource:
    """Picklable scenario source that kills any shard worker calling it."""

    def __init__(self, load_matrix: np.ndarray) -> None:
        self.load_matrix = load_matrix
        self.parent = os.getpid()

    def __call__(self, begin: int, end: int):
        if os.getpid() != self.parent:
            os._exit(3)
        return self.load_matrix[begin:end], None


class TestProcessShardedEquivalence:
    """Merge-equivalence suite: process shards (``HybridExecutor(n, 1)``)
    == sequential, bitwise."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_bitwise_matches_sequential(
        self, ibmpg1_grid, load_sweep, nominal_worst, shards
    ):
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(seq_sinks.values()),
            workers=1,
        )
        shard_sinks = mergeable_sinks(nominal_worst)
        sharded = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(shard_sinks.values()),
            executor=HybridExecutor(shards, 1),
        )
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)
        assert np.array_equal(sequential.solver_iterations, sharded.solver_iterations)
        assert sharded.solver_method == sequential.solver_method
        # Every shard observed the whole of its range exactly once.
        assert shard_sinks["topk"].num_consumed == load_sweep.shape[0]

    @pytest.mark.parametrize("shards", [2, 3])
    def test_mega_sweep_bitwise_matches_sequential(
        self, ibmpg1_grid, ibmpg1_bench, nominal_worst, shards
    ):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 12, 8, seed=7
        )
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(seq_sinks.values()),
            workers=1,
        )
        shard_sinks = mergeable_sinks(nominal_worst)
        sharded = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(shard_sinks.values()),
            executor=HybridExecutor(shards, 1),
        )
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)
        assert sharded.executor == "hybrid"
        assert sharded.workers == shards

    def test_pad_batch_bitwise_matches_sequential(self, ibmpg1_grid, ibmpg1_bench):
        from repro.grid import perturbed_pad_voltage_matrix

        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        pad_matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 9)
        engine = BatchedAnalysisEngine()
        sequential = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix, chunk_size=2, workers=1)
        sharded = engine.analyze_pad_batch(
            ibmpg1_grid, pad_matrix, chunk_size=2, executor=HybridExecutor(2, 1)
        )
        assert_reductions_identical(sequential, sharded)

    def test_scenario_stream_with_picklable_source(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        sequential = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], chunk_size=5, workers=1
        )
        sharded = engine.analyze_scenario_stream(
            ibmpg1_grid,
            source,
            load_sweep.shape[0],
            chunk_size=5,
            executor=HybridExecutor(3, 1),
        )
        assert_reductions_identical(sequential, sharded)
        assert sharded.executor == "hybrid"

    def test_statistical_vectorless_bitwise_matches_sequential(self, ibmpg1_grid):
        budget = uniform_budget(ibmpg1_grid, headroom=1.3, utilisation=0.9)
        sequential = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid, budget, 30, chunk_size=7, seed=5, workers=1
        )
        sharded = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze_statistical(
            ibmpg1_grid,
            budget,
            30,
            chunk_size=7,
            seed=5,
            executor=HybridExecutor(2, 1),
        )
        assert_reductions_identical(sequential.sweep, sharded.sweep)
        assert sequential.worst_observed == sharded.worst_observed

    def test_parent_cache_warm_after_process_sweep(self, ibmpg1_grid, load_sweep):
        """One factorization lands in the parent for follow-up solves."""
        engine = BatchedAnalysisEngine()
        engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor=HybridExecutor(2, 1)
        )
        assert engine.cache_info().factorizations == 1
        follow_up = engine.analyze(ibmpg1_grid)
        assert follow_up.worst_ir_drop > 0
        assert engine.cache_info().factorizations == 1  # served from cache


class TestProcessShardedRejections:
    def test_unpicklable_source_rejected(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ExecutorIncompatibility, match="picklable"):
            engine.analyze_scenario_stream(
                ibmpg1_grid,
                # The closure is the point of the test: the runtime rejection
                # this asserts is what the lint rule catches statically.
                lambda begin, end: (load_sweep[begin:end], None),  # reprolint: disable=RPR002
                load_sweep.shape[0],
                chunk_size=5,
                executor=HybridExecutor(2, 1),
            )

    def test_p2_rejected_with_pointer_to_sketch(self, ibmpg1_grid, load_sweep):
        """An order-dependent sink (as a P² quantile estimator is) is
        rejected with a pointer to the mergeable quantile sketch."""
        engine = BatchedAnalysisEngine()
        with pytest.raises(ExecutorIncompatibility, match="QuantileSketchSink"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[OrderRecordingSink()],
                executor=HybridExecutor(2, 1),
            )

    def test_incompatibility_raised_before_sinks_bind(self, ibmpg1_grid, load_sweep):
        """Rejection must leave the sinks reusable (nothing observed)."""
        engine = BatchedAnalysisEngine()
        ordered = OrderRecordingSink()
        exceedance = ExceedanceCountSink(0.1)
        with pytest.raises(ExecutorIncompatibility, match="OrderRecordingSink.*MergeableSink"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[exceedance, ordered],
                executor=HybridExecutor(2, 2),
            )
        # The same sinks still run fine on one shard's threaded pipeline.
        engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, sinks=[exceedance, ordered], workers=2
        )
        assert exceedance.num_consumed == load_sweep.shape[0]
        assert ordered.num_consumed == load_sweep.shape[0]


class TestExecutorResolution:
    def test_make_executor_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert make_executor("hybrid", 3).shard_workers == 3
        for unknown in ("threads", "processes", "fibers"):
            with pytest.raises(ValueError, match="unknown executor"):
                make_executor(unknown)
        with pytest.raises(ValueError, match="serial"):
            make_executor("serial", 4)

    def test_executor_and_workers_conflict(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="not both"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                workers=2,
                executor=SerialExecutor(),
            )
        # A *named* executor combines with workers= as its parallelism.
        result = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, workers=2, executor="hybrid"
        )
        assert result.reductions is not None

    def test_serial_executor_matches_threads(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        serial = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor=SerialExecutor()
        )
        threaded = engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, executor=HybridExecutor(1, 3)
        )
        assert_reductions_identical(serial, threaded)

    def test_stream_reports_executor_name(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        result = engine.analyze_scenario_stream(
            ibmpg1_grid,
            source,
            load_sweep.shape[0],
            chunk_size=5,
            executor=SerialExecutor(),
        )
        assert result.executor == "serial"
        assert result.workers == 1

    def test_env_default_executor(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        engine = BatchedAnalysisEngine()
        reference = BatchedAnalysisEngine(default_executor="serial").analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7
        )
        sharded = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7)
        assert_reductions_identical(reference, sharded)

    def test_env_default_falls_back_for_incompatible_sweeps(
        self, monkeypatch, ibmpg1_grid, load_sweep
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        monkeypatch.setenv(HYBRID_SHARD_WORKERS_ENV, "2")
        engine = BatchedAnalysisEngine()
        # Order-dependent sink: not mergeable -> one-shard fallback, sweep
        # still succeeds.
        sink = OrderRecordingSink()
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7, sinks=[sink])
        assert sink.num_consumed == load_sweep.shape[0]
        # Closure source: not picklable -> one-shard fallback.
        with pytest.warns(RuntimeWarning, match="falling back"):
            stream = engine.analyze_scenario_stream(
                ibmpg1_grid,
                lambda begin, end: (load_sweep[begin:end], None),
                load_sweep.shape[0],
                chunk_size=5,
            )
        assert stream.workers == engine.default_workers

    def test_env_value_validated(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "bogus")
        with pytest.raises(ValueError, match=EXECUTOR_ENV):
            BatchedAnalysisEngine()

    def test_explicit_executor_overrides_env(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        engine = BatchedAnalysisEngine()
        # An explicit executor is strict: a non-mergeable sink on process
        # shards raises even though the environment default would have
        # fallen back.
        with pytest.raises(ExecutorIncompatibility):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[OrderRecordingSink()],
                executor=HybridExecutor(2, 1),
            )

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="shard_workers"):
            HybridExecutor(0, 1)
        with pytest.raises(ValueError, match="shard_workers"):
            make_executor("hybrid", 0)


class TestCompiledGridPickling:
    def test_compiled_grid_round_trips_after_fingerprint(self, ibmpg1_grid):
        compiled = ibmpg1_grid.compile()
        compiled.fingerprint  # caches the (unpicklable) partial digest
        compiled.reduced_matrix
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.fingerprint == compiled.fingerprint
        assert clone.num_unknowns == compiled.num_unknowns
        assert (clone.reduced_matrix != compiled.reduced_matrix).nnz == 0


class TestResolveChunkSize:
    def test_bounds_pinned(self):
        assert resolve_chunk_size(10, workers=1) == MAX_CHUNK_SIZE
        assert resolve_chunk_size(50_000_000, workers=1) == MIN_CHUNK_SIZE
        # Exact interior point: 65536 unknowns x 2 workers x 32 B/scenario
        # = 4 MiB per scenario-slot; 256 MiB budget -> 64 scenarios.
        assert resolve_chunk_size(65536, workers=2) == 64

    def test_monotone_in_grid_size_and_workers(self):
        assert resolve_chunk_size(50_000, workers=1) >= resolve_chunk_size(
            200_000, workers=1
        )
        assert resolve_chunk_size(200_000, workers=1) >= resolve_chunk_size(
            200_000, workers=4
        )

    def test_defaults_and_budget(self):
        assert resolve_chunk_size(65536, workers=None) == resolve_chunk_size(
            65536, workers=os.cpu_count() or 1
        )
        assert resolve_chunk_size(
            65536, workers=2, memory_budget_bytes=2 * CHUNK_MEMORY_BUDGET_BYTES
        ) == 128

    def test_validation(self):
        with pytest.raises(ValueError, match="num_unknowns"):
            resolve_chunk_size(-1)
        with pytest.raises(ValueError, match="workers"):
            resolve_chunk_size(100, workers=0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            resolve_chunk_size(100, memory_budget_bytes=0)

    def test_streamed_default_is_adaptive(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        source = MatrixScenarioSource(load_matrix=load_sweep)
        result = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], workers=1
        )
        compiled = ibmpg1_grid.compile()
        assert result.chunk_size == resolve_chunk_size(compiled.num_unknowns, 1)


class TestRematerialize:
    def test_mega_sweep_topk_round_trip(self, ibmpg1_grid, ibmpg1_bench):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 6, 4, seed=3
        )
        engine = BatchedAnalysisEngine()
        topk_sink = TopKScenarioSink(3)
        result = engine.analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=7, sinks=[topk_sink]
        )
        topk = topk_sink.result()
        replayed = topk_sink.rematerialize(
            engine, ibmpg1_grid, CrossProductScenarioSource(load_matrix, pad_matrix)
        )
        assert len(replayed) == 3
        compiled = result.compiled
        for rank, full in enumerate(replayed):
            assert full.worst_ir_drop == float(topk.worst_ir_drop[rank])
            assert full.worst_node == compiled.node_names[int(topk.worst_node_index[rank])]
            assert full.network_name == f"scenario {int(topk.scenario_index[rank])}"
            assert len(full.node_voltages) == compiled.num_nodes

    def test_rematerialize_after_process_sharded_sweep(
        self, ibmpg1_grid, load_sweep, nominal_worst
    ):
        engine = BatchedAnalysisEngine()
        topk_sink = TopKScenarioSink(2)
        engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=[topk_sink],
            executor=HybridExecutor(3, 1),
        )
        replayed = topk_sink.rematerialize(
            engine, ibmpg1_grid, MatrixScenarioSource(load_matrix=load_sweep)
        )
        topk = topk_sink.result()
        assert [r.worst_ir_drop for r in replayed] == [float(v) for v in topk.worst_ir_drop]
        # The replay reuses the factorization the process sweep warmed.
        assert engine.cache_info().factorizations == 1

    def test_unbound_sink_rejected(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="never bound"):
            TopKScenarioSink(2).rematerialize(
                engine, ibmpg1_grid, MatrixScenarioSource(load_matrix=load_sweep)
            )


class TestHybridEquivalence:
    """Merge-equivalence matrix: hybrid == sequential, bitwise, for every
    (shards, threads, chunk_size) combination — shards covering the
    degenerate single shard, an even split and a non-divisor of 37, and
    chunk sizes including the pathological width of 1."""

    @pytest.mark.parametrize("chunk_size", [1, 7])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_batch_bitwise_matches_sequential(
        self, ibmpg1_grid, load_sweep, nominal_worst, shards, threads, chunk_size
    ):
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(seq_sinks.values()),
            executor=SerialExecutor(),
        )
        hybrid_sinks = mergeable_sinks(nominal_worst)
        executor = HybridExecutor(shard_workers=shards, threads_per_shard=threads)
        hybrid = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=chunk_size,
            sinks=tuple(hybrid_sinks.values()),
            executor=executor,
        )
        assert_reductions_identical(sequential, hybrid)
        assert_exact_sinks_identical(seq_sinks, hybrid_sinks)
        assert np.array_equal(sequential.solver_iterations, hybrid.solver_iterations)
        assert hybrid_sinks["topk"].num_consumed == load_sweep.shape[0]
        stats = executor.last_stats
        assert stats["shards"] == min(shards, load_sweep.shape[0])
        assert stats["threads_per_shard"] == threads
        if stats["shards"] > 1:
            assert stats["payload_bytes_shared"] > 0
            assert stats["tasks"] >= stats["shards"]

    def test_mega_sweep_bitwise_matches_sequential(
        self, ibmpg1_grid, ibmpg1_bench, nominal_worst
    ):
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 12, 8, seed=7
        )
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(seq_sinks.values()),
            workers=1,
        )
        hybrid_sinks = mergeable_sinks(nominal_worst)
        hybrid = engine.analyze_mega_sweep(
            ibmpg1_grid,
            load_matrix,
            pad_matrix,
            chunk_size=13,
            sinks=tuple(hybrid_sinks.values()),
            executor=HybridExecutor(shard_workers=2, threads_per_shard=2),
        )
        assert_reductions_identical(sequential, hybrid)
        assert_exact_sinks_identical(seq_sinks, hybrid_sinks)
        assert hybrid.executor == "hybrid"

    def test_p2_rejected_before_sinks_bind(self, ibmpg1_grid, load_sweep):
        """Multi-shard hybrid sweeps reject an order-dependent sink before
        it binds, so the sink stays reusable on one shard."""
        engine = BatchedAnalysisEngine()
        ordered = OrderRecordingSink()
        with pytest.raises(ExecutorIncompatibility, match="hybrid"):
            engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=[ordered],
                executor=HybridExecutor(shard_workers=2),
            )
        # The rejection left the sink unbound and reusable.
        engine.analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7, sinks=[ordered], workers=1
        )
        assert ordered.result().shape == (load_sweep.shape[0],)

    def test_killed_shard_worker_breaks_the_sweep_without_leaking(
        self, ibmpg1_grid, load_sweep
    ):
        """A shard worker dying mid-sweep fails the sweep fast and the
        parent still unlinks the shared payload segment."""
        shm = Path("/dev/shm")
        if not shm.is_dir():
            pytest.skip("needs /dev/shm")
        before = set(os.listdir(shm))
        with pytest.raises(BrokenProcessPool):
            BatchedAnalysisEngine().analyze_scenario_stream(
                ibmpg1_grid,
                ExitingSource(load_sweep),
                load_sweep.shape[0],
                chunk_size=5,
                executor=HybridExecutor(2, 1),
            )
        assert set(os.listdir(shm)) - before == set()


class TestHybridResolution:
    def test_registered_and_constructible_by_name(self):
        assert "hybrid" in EXECUTOR_NAMES
        executor = make_executor("hybrid", 3)
        assert isinstance(executor, HybridExecutor)
        assert executor.shard_workers == 3

    def test_parallelism_is_the_product(self):
        assert HybridExecutor(shard_workers=4, threads_per_shard=2).parallelism == 8

    def test_chunk_budget_uses_effective_width(self):
        """The 256 MiB in-flight budget is spent across shards x threads:
        16384 unknowns x 32 B = 512 KiB per scenario slot, so 8 in-flight
        chunks get 64 scenarios each — half the width the same grid gets
        when only the 4 process shards were budgeted."""
        width = HybridExecutor(shard_workers=4, threads_per_shard=2).parallelism
        assert resolve_chunk_size(16384, workers=width) == 64
        assert resolve_chunk_size(16384, workers=4) == 128

    def test_adaptive_chunk_uses_parallelism(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        executor = HybridExecutor(shard_workers=2, threads_per_shard=2)
        source = MatrixScenarioSource(load_matrix=load_sweep)
        result = engine.analyze_scenario_stream(
            ibmpg1_grid, source, load_sweep.shape[0], executor=executor
        )
        compiled = ibmpg1_grid.compile()
        assert result.chunk_size == resolve_chunk_size(compiled.num_unknowns, 4)
        assert result.executor == "hybrid"
        assert result.workers == 4

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv(HYBRID_SHARD_WORKERS_ENV, "3")
        monkeypatch.setenv(HYBRID_THREADS_ENV, "2")
        executor = HybridExecutor()
        assert executor.shard_workers == 3
        assert executor.threads_per_shard == 2
        monkeypatch.setenv(HYBRID_SHARD_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=HYBRID_SHARD_WORKERS_ENV):
            HybridExecutor()

    def test_validation(self):
        with pytest.raises(ValueError, match="shard_workers"):
            HybridExecutor(shard_workers=0)
        with pytest.raises(ValueError, match="threads_per_shard"):
            HybridExecutor(shard_workers=2, threads_per_shard=0)

    def test_env_default_falls_back_for_incompatible_sweeps(
        self, monkeypatch, ibmpg1_grid, load_sweep
    ):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        monkeypatch.setenv(HYBRID_SHARD_WORKERS_ENV, "2")
        engine = BatchedAnalysisEngine()
        sink = OrderRecordingSink()
        with pytest.warns(RuntimeWarning, match="hybrid"):
            engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7, sinks=[sink])
        assert sink.num_consumed == load_sweep.shape[0]

    def test_env_default_matches_serial(self, monkeypatch, ibmpg1_grid, load_sweep):
        monkeypatch.setenv(EXECUTOR_ENV, "hybrid")
        reference = BatchedAnalysisEngine(default_executor="serial").analyze_batch(
            ibmpg1_grid, load_sweep, chunk_size=7
        )
        hybrid = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep, chunk_size=7)
        assert_reductions_identical(reference, hybrid)


class TestSharedGridPayload:
    """Lifetime contract: parent owns the segment, the with-block unlinks
    on success and on error alike, children only attach, and the pickle
    fallback is a warned no-op."""

    @staticmethod
    def _plan(grid, load_sweep) -> SweepPlan:
        return SweepPlan(
            engine=BatchedAnalysisEngine(),
            compiled=grid.compile(),
            scenario_source=MatrixScenarioSource(load_matrix=load_sweep),
            num_scenarios=load_sweep.shape[0],
            chunk_size=7,
            sinks=(),
        )

    @staticmethod
    def _segment_gone(name: str) -> bool:
        from multiprocessing import shared_memory

        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return True
        segment.close()
        return False

    def test_attach_rebuilds_identical_state(self, ibmpg1_grid, load_sweep):
        plan = self._plan(ibmpg1_grid, load_sweep)
        with SharedGridPayload.create(plan, "test", threads=2) as shared:
            kind, name, _, spans = shared.descriptor
            assert kind == "shm"
            assert shared.nbytes == sum(length for _, length in spans) > 0
            state = attach_shard_state(shared.descriptor)
            assert state["threads"] == 2
            assert state["chunk_size"] == plan.chunk_size
            assert state["compiled"].fingerprint == plan.compiled.fingerprint
            clone_csr = state["compiled"].reduced_matrix
            assert (clone_csr != plan.compiled.reduced_matrix).nnz == 0
            # Release the attached views, then the child-side mapping,
            # before the parent unlinks (the order workers observe).
            segment = state.pop("segment")
            del state, clone_csr
            segment.close()

    def test_unlinked_on_success(self, ibmpg1_grid, load_sweep):
        plan = self._plan(ibmpg1_grid, load_sweep)
        with SharedGridPayload.create(plan, "test") as shared:
            name = shared.descriptor[1]
            assert not self._segment_gone(name)
        assert self._segment_gone(name)
        shared.close()  # idempotent

    def test_unlinked_on_error(self, ibmpg1_grid, load_sweep):
        plan = self._plan(ibmpg1_grid, load_sweep)
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with SharedGridPayload.create(plan, "test") as shared:
                name = shared.descriptor[1]
                raise RuntimeError("mid-sweep failure")
        assert self._segment_gone(name)

    def test_pickle_fallback_warns_and_matches(
        self, monkeypatch, ibmpg1_grid, load_sweep, nominal_worst
    ):
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise OSError("no shared memory in this sandbox")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        plan = self._plan(ibmpg1_grid, load_sweep)
        with pytest.warns(RuntimeWarning, match="test executor cannot allocate"):
            shared = SharedGridPayload.create(plan, "test")
        assert shared.descriptor[0] == "pickle"
        assert shared.nbytes == 0
        shared.close()  # no segment: a no-op
        # The whole hybrid sweep still runs — and stays bitwise-identical —
        # on the in-band payload path.
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(seq_sinks.values()),
            executor=SerialExecutor(),
        )
        hybrid_sinks = mergeable_sinks(nominal_worst)
        executor = HybridExecutor(shard_workers=2, threads_per_shard=2)
        with pytest.warns(RuntimeWarning, match="hybrid executor cannot allocate"):
            hybrid = engine.analyze_batch(
                ibmpg1_grid,
                load_sweep,
                chunk_size=7,
                sinks=tuple(hybrid_sinks.values()),
                executor=executor,
            )
        assert_reductions_identical(sequential, hybrid)
        assert_exact_sinks_identical(seq_sinks, hybrid_sinks)
        assert executor.last_stats["payload_bytes_shared"] == 0

    def test_unpicklable_plan_rejected(self, ibmpg1_grid, load_sweep):
        plan = SweepPlan(
            engine=BatchedAnalysisEngine(),
            compiled=ibmpg1_grid.compile(),
            # The closure is the point: unpicklable sources must raise the
            # same incompatibility the pickle payload raises, before any
            # segment is allocated.
            scenario_source=(
                lambda begin, end: (load_sweep[begin:end], None)  # reprolint: disable=RPR002
            ),
            num_scenarios=load_sweep.shape[0],
            chunk_size=7,
            sinks=(),
        )
        with pytest.raises(ExecutorIncompatibility, match="picklable"):
            SharedGridPayload.create(plan, "test")

    def test_process_sharded_uses_shared_payload(
        self, ibmpg1_grid, load_sweep, nominal_worst
    ):
        """Plain process sharding (one thread per shard) ships the grid
        through the shared segment too."""
        engine = BatchedAnalysisEngine()
        seq_sinks = mergeable_sinks(nominal_worst)
        sequential = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(seq_sinks.values()),
            workers=1,
        )
        shard_sinks = mergeable_sinks(nominal_worst)
        executor = HybridExecutor(2, 1)
        sharded = engine.analyze_batch(
            ibmpg1_grid,
            load_sweep,
            chunk_size=7,
            sinks=tuple(shard_sinks.values()),
            executor=executor,
        )
        assert_reductions_identical(sequential, sharded)
        assert_exact_sinks_identical(seq_sinks, shard_sinks)
        assert executor.last_stats["payload_bytes_shared"] > 0
