"""Tests for the streamed scenario-sink subsystem and mega-sweeps.

Exact sinks (histogram, exceedance, top-k) must match a dense single-shot
reference **bitwise** for every chunk size — including ``chunk_size=1`` and
chunk sizes larger than the sweep.  The quantile sketch must stay within
its relative-error bound (see also ``test_sketch.py``).  Mega-sweeps must equal
an explicitly materialised cross product, and the statistical vectorless
sweep must stay below the deterministic worst-case bound.
"""

import numpy as np
import pytest

from repro.analysis import (
    BatchedAnalysisEngine,
    ExceedanceCounts,
    ExceedanceCountSink,
    JointExceedanceSink,
    NodeHistogramSink,
    QuantileSketchSink,
    TopKScenarioSink,
    VectorlessAnalyzer,
    uniform_budget,
)
from repro.grid import (
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    perturbed_load_matrix,
    perturbed_pad_voltage_matrix,
)

CHUNK_SIZES = [1, 7, 37, 100]
"""Sharding widths exercised everywhere: single-scenario, non-divisor,
exactly the sweep size, and larger than the sweep."""


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def ibmpg1_grid(ibmpg1_bench):
    return ibmpg1_bench.build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def load_sweep(ibmpg1_grid):
    spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=5)
    return perturbed_load_matrix(ibmpg1_grid, spec, 37)


@pytest.fixture(scope="module")
def dense_drops(ibmpg1_grid, load_sweep):
    """Dense single-shot ``(num_nodes, k)`` IR-drop reference matrix."""
    batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep)
    return batch.ir_drop


@pytest.fixture(scope="module")
def histogram_edges(dense_drops):
    """Edges chosen so the sweep produces under- and overflow counts."""
    lo = dense_drops.min() + 0.2 * np.ptp(dense_drops)
    hi = dense_drops.max() - 0.1 * np.ptp(dense_drops)
    return np.linspace(lo, hi, 14)


def run_sinks(grid, load_sweep, chunk_size, sinks):
    engine = BatchedAnalysisEngine()
    engine.analyze_batch(grid, load_sweep, chunk_size=chunk_size, sinks=sinks)
    return sinks


class TestExactSinksBitwise:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_histogram_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, histogram_edges, chunk_size
    ):
        (sink,) = run_sinks(
            ibmpg1_grid, load_sweep, chunk_size, [NodeHistogramSink(histogram_edges)]
        )
        histogram = sink.result()
        expected = np.empty_like(histogram.counts)
        for node in range(dense_drops.shape[0]):
            expected[node] = np.histogram(dense_drops[node], bins=histogram_edges)[0]
        assert np.array_equal(histogram.counts, expected)
        assert np.array_equal(histogram.underflow, (dense_drops < histogram_edges[0]).sum(axis=1))
        assert np.array_equal(histogram.overflow, (dense_drops > histogram_edges[-1]).sum(axis=1))
        assert histogram.underflow.sum() > 0 and histogram.overflow.sum() > 0
        assert np.array_equal(histogram.total, np.full(dense_drops.shape[0], load_sweep.shape[0]))

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_exceedance_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, chunk_size
    ):
        threshold = float(np.quantile(dense_drops, 0.9))
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, chunk_size, [ExceedanceCountSink(threshold)])
        exceedance = sink.result()
        expected = (dense_drops > threshold).sum(axis=1)
        assert np.array_equal(exceedance.counts, expected)
        assert exceedance.num_scenarios == load_sweep.shape[0]
        assert exceedance.worst_node_index == int(expected.argmax())
        assert np.array_equal(exceedance.rates, expected / load_sweep.shape[0])

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_topk_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, chunk_size
    ):
        rows = np.ascontiguousarray(dense_drops.T)
        worst = rows.max(axis=1)
        order = np.lexsort((np.arange(worst.size), -worst))[:5]
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, chunk_size, [TopKScenarioSink(5)])
        topk = sink.result()
        assert np.array_equal(topk.scenario_index, order)
        assert np.array_equal(topk.worst_ir_drop, worst[order])
        assert np.array_equal(topk.worst_node_index, rows.argmax(axis=1)[order])
        assert topk.k == 5

    def test_topk_larger_than_sweep_keeps_everything(self, ibmpg1_grid, load_sweep, dense_drops):
        k = load_sweep.shape[0]
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, 8, [TopKScenarioSink(k + 50)])
        topk = sink.result()
        assert topk.k == k
        worst = np.ascontiguousarray(dense_drops.T).max(axis=1)
        assert np.array_equal(np.sort(topk.scenario_index), np.arange(k))
        assert topk.worst_ir_drop[0] == worst.max()

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_joint_exceedance_matches_dense_reference(
        self, ibmpg1_grid, load_sweep, dense_drops, chunk_size
    ):
        threshold = float(np.quantile(dense_drops, 0.8))
        (sink,) = run_sinks(ibmpg1_grid, load_sweep, chunk_size, [JointExceedanceSink(threshold)])
        joint = sink.result()
        violating_per_scenario = (dense_drops > threshold).sum(axis=0)
        expected = np.bincount(violating_per_scenario)
        assert np.array_equal(joint.violating_node_counts, expected)
        assert joint.scenarios_with_violation == int((violating_per_scenario > 0).sum())
        assert joint.any_exceedance_rate == joint.scenarios_with_violation / load_sweep.shape[0]
        assert joint.max_violating_nodes == int(violating_per_scenario.max())
        assert joint.num_scenarios == load_sweep.shape[0]

    def test_joint_exceedance_exceeds_per_node_lower_bound(
        self, ibmpg1_grid, load_sweep, dense_drops
    ):
        """The joint count dominates the per-node lower bound it replaces."""
        threshold = float(np.quantile(dense_drops, 0.8))
        per_node = ExceedanceCountSink(threshold)
        joint = JointExceedanceSink(threshold)
        run_sinks(ibmpg1_grid, load_sweep, 8, [per_node, joint])
        assert (
            joint.result().scenarios_with_violation
            >= per_node.result().any_exceedance_scenarios
        )

    def test_unsharded_batch_feeds_sinks_once(self, ibmpg1_grid, load_sweep, dense_drops):
        threshold = float(np.quantile(dense_drops, 0.5))
        sink = ExceedanceCountSink(threshold)
        batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_sweep, sinks=[sink])
        assert batch.sinks == (sink,)
        assert sink.num_consumed == load_sweep.shape[0]
        assert np.array_equal(
            batch.sink_results()[0].counts, (dense_drops > threshold).sum(axis=1)
        )


class TestQuantileSinks:
    @pytest.fixture(scope="class")
    def big_sweep(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=13)
        return perturbed_load_matrix(ibmpg1_grid, spec, 400)

    def test_mean_statistic_tracks_average(self, ibmpg1_grid, big_sweep):
        sink = QuantileSketchSink((0.5,), statistic="mean", relative_error=0.01)
        batch = BatchedAnalysisEngine().analyze_batch(
            ibmpg1_grid, big_sweep, chunk_size=128, sinks=[sink]
        )
        estimate = sink.result()
        reference = np.quantile(batch.average_ir_drop, 0.5, method="lower")
        assert estimate.statistic == "mean"
        assert abs(estimate.value(0.5) - reference) <= 0.01 * reference

    def test_invalid_quantile_specs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            QuantileSketchSink([])
        with pytest.raises(ValueError, match="ascending"):
            QuantileSketchSink([0.9, 0.5])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            QuantileSketchSink([1.5])
        with pytest.raises(ValueError, match="statistic"):
            QuantileSketchSink([0.5], statistic="median")


class TestSinkProtocol:
    def test_sinks_cannot_be_reused_across_sweeps(self, ibmpg1_grid, load_sweep):
        sink = ExceedanceCountSink(0.1)
        engine = BatchedAnalysisEngine()
        engine.analyze_batch(ibmpg1_grid, load_sweep, sinks=[sink])
        with pytest.raises(ValueError, match="fresh sink"):
            engine.analyze_batch(ibmpg1_grid, load_sweep, sinks=[sink])

    def test_out_of_order_chunks_rejected(self, ibmpg1_grid, load_sweep):
        sink = ExceedanceCountSink(0.1)
        sink.bind(ibmpg1_grid.compile(), 10)
        chunk = np.zeros((ibmpg1_grid.compile().num_nodes, 2))
        sink.consume(chunk, 0)
        with pytest.raises(ValueError, match="scenario order"):
            sink.consume(chunk, 5)
        with pytest.raises(ValueError, match="overruns"):
            sink.consume(np.zeros((chunk.shape[0], 100)), 2)

    def test_unbound_and_misshapen_consumption_rejected(self, ibmpg1_grid):
        sink = TopKScenarioSink(3)
        with pytest.raises(ValueError, match="not bound"):
            sink.consume(np.zeros((4, 1)), 0)
        sink.bind(ibmpg1_grid.compile(), 5)
        with pytest.raises(ValueError, match="voltage chunk"):
            sink.consume(np.zeros((3, 2)), 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            NodeHistogramSink([0.0, 0.1, 0.1])
        with pytest.raises(ValueError, match="num_bins"):
            NodeHistogramSink.uniform(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="threshold"):
            ExceedanceCountSink(-0.1)
        with pytest.raises(ValueError, match="k must be"):
            TopKScenarioSink(0)

    @pytest.mark.parametrize(
        "sink_factory",
        [
            lambda: NodeHistogramSink([0.0, 1.0]),
            lambda: ExceedanceCountSink(0.1),
            lambda: TopKScenarioSink(3),
            lambda: QuantileSketchSink([0.5]),
        ],
        ids=["histogram", "exceedance", "topk", "sketch"],
    )
    def test_every_sink_rejects_unbound_result(self, sink_factory):
        """A sink never handed to the engine must not fake an empty result."""
        with pytest.raises(ValueError, match="never bound"):
            sink_factory().result()

    def test_zero_scenario_exceedance_rates_are_nan(self):
        """An undefined probability must not read as 'never exceeds'."""
        empty = ExceedanceCounts(threshold=0.1, counts=np.zeros(4, dtype=np.int64), num_scenarios=0)
        assert np.all(np.isnan(empty.rates))
        observed = ExceedanceCounts(
            threshold=0.1, counts=np.array([1, 0], dtype=np.int64), num_scenarios=4
        )
        assert np.array_equal(observed.rates, np.array([0.25, 0.0]))


class TestSnapshotMerge:
    """Direct unit tests of the MergeableSink snapshot/merge protocol."""

    NODES = 6
    SCENARIOS = 90

    @pytest.fixture(scope="class")
    def synthetic(self):
        from types import SimpleNamespace

        rng = np.random.default_rng(7)
        drops = rng.normal(0.05, 0.015, size=(self.SCENARIOS, self.NODES))
        compiled = SimpleNamespace(vdd=1.8, num_nodes=self.NODES)
        return compiled, drops

    def build(self):
        return {
            "histogram": NodeHistogramSink.uniform(0.0, 0.1, 10),
            "exceedance": ExceedanceCountSink(0.06),
            "joint": JointExceedanceSink(0.06),
            "topk": TopKScenarioSink(5),
        }

    @pytest.mark.parametrize("boundaries", [(90,), (45, 45), (30, 37, 23), (1, 88, 1)])
    def test_merged_shards_equal_one_fold(self, synthetic, boundaries):
        compiled, drops = synthetic
        sequential = self.build()
        for sink in sequential.values():
            sink.bind(compiled, self.SCENARIOS)
            sink.consume_drop_rows(drops, 0)
        merged = self.build()
        for sink in merged.values():
            sink.bind(compiled, self.SCENARIOS)
        begin = 0
        for width in boundaries:
            shard = self.build()
            for key, sink in shard.items():
                sink.bind(compiled, width)
                sink.consume_drop_rows(drops[begin : begin + width], 0)
                merged[key].merge(sink.snapshot())
            begin += width
        for key in sequential:
            assert merged[key].num_consumed == self.SCENARIOS
        assert np.array_equal(
            sequential["histogram"].result().counts, merged["histogram"].result().counts
        )
        assert np.array_equal(
            sequential["exceedance"].result().counts, merged["exceedance"].result().counts
        )
        assert np.array_equal(
            sequential["joint"].result().violating_node_counts,
            merged["joint"].result().violating_node_counts,
        )
        seq_topk, merged_topk = sequential["topk"].result(), merged["topk"].result()
        assert np.array_equal(seq_topk.scenario_index, merged_topk.scenario_index)
        assert np.array_equal(seq_topk.worst_ir_drop, merged_topk.worst_ir_drop)
        assert np.array_equal(seq_topk.worst_node_index, merged_topk.worst_node_index)

    def test_mixed_consume_then_merge(self, synthetic):
        """A sink may consume its own chunks and then merge a tail shard."""
        compiled, drops = synthetic
        sink = ExceedanceCountSink(0.06)
        sink.bind(compiled, self.SCENARIOS)
        sink.consume_drop_rows(drops[:40], 0)
        tail = ExceedanceCountSink(0.06)
        tail.bind(compiled, self.SCENARIOS - 40)
        tail.consume_drop_rows(drops[40:], 0)
        sink.merge(tail.snapshot())
        assert np.array_equal(sink.result().counts, (drops > 0.06).sum(axis=0))

    def test_type_mismatch_rejected(self, synthetic):
        compiled, drops = synthetic
        histogram = NodeHistogramSink.uniform(0.0, 0.1, 4)
        histogram.bind(compiled, self.SCENARIOS)
        exceedance = ExceedanceCountSink(0.06)
        exceedance.bind(compiled, self.SCENARIOS)
        exceedance.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="cannot merge a ExceedanceCountSink"):
            histogram.merge(exceedance.snapshot())

    def test_configuration_mismatch_rejected(self, synthetic):
        compiled, drops = synthetic
        coarse = NodeHistogramSink.uniform(0.0, 0.1, 4)
        fine = NodeHistogramSink.uniform(0.0, 0.1, 8)
        for sink in (coarse, fine):
            sink.bind(compiled, self.SCENARIOS)
        fine.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="bin edges"):
            coarse.merge(fine.snapshot())
        small_k = TopKScenarioSink(2)
        large_k = TopKScenarioSink(3)
        for sink in (small_k, large_k):
            sink.bind(compiled, self.SCENARIOS)
        large_k.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="different k"):
            small_k.merge(large_k.snapshot())
        coarse_sketch = QuantileSketchSink([0.5], relative_error=0.05)
        fine_sketch = QuantileSketchSink([0.5], relative_error=0.01)
        for sink in (coarse_sketch, fine_sketch):
            sink.bind(compiled, self.SCENARIOS)
        fine_sketch.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="relative_error"):
            coarse_sketch.merge(fine_sketch.snapshot())

    def test_overrun_merge_rejected(self, synthetic):
        compiled, drops = synthetic
        sink = ExceedanceCountSink(0.06)
        sink.bind(compiled, 10)
        shard = ExceedanceCountSink(0.06)
        shard.bind(compiled, self.SCENARIOS)
        shard.consume_drop_rows(drops[:20], 0)
        with pytest.raises(ValueError, match="overruns"):
            sink.merge(shard.snapshot())

    def test_unbound_snapshot_and_merge_rejected(self, synthetic):
        compiled, drops = synthetic
        with pytest.raises(ValueError, match="never bound"):
            ExceedanceCountSink(0.06).snapshot()
        bound = ExceedanceCountSink(0.06)
        bound.bind(compiled, 10)
        bound.consume_drop_rows(drops[:10], 0)
        with pytest.raises(ValueError, match="never bound"):
            ExceedanceCountSink(0.06).merge(bound.snapshot())

    def test_snapshot_is_frozen_copy(self, synthetic):
        """Mutating the source sink after snapshot() must not leak."""
        compiled, drops = synthetic
        sink = ExceedanceCountSink(0.06)
        sink.bind(compiled, self.SCENARIOS)
        sink.consume_drop_rows(drops[:30], 0)
        snapshot = sink.snapshot()
        frozen = snapshot.state["counts"].copy()
        sink.consume_drop_rows(drops[30:60], 30)
        assert np.array_equal(snapshot.state["counts"], frozen)


class TestMegaSweep:
    @pytest.fixture(scope="class")
    def sweep_matrices(self, ibmpg1_grid, ibmpg1_bench):
        return mega_sweep_matrices(ibmpg1_grid, ibmpg1_bench.floorplan, 0.2, 6, 4, seed=3)

    @pytest.fixture(scope="class")
    def dense_cross(self, ibmpg1_grid, sweep_matrices):
        """The cross product materialised explicitly (loads outer)."""
        load_matrix, pad_matrix = sweep_matrices
        return BatchedAnalysisEngine().analyze_pad_batch(
            ibmpg1_grid,
            np.tile(pad_matrix, (load_matrix.shape[0], 1)),
            load_matrix=np.repeat(load_matrix, pad_matrix.shape[0], axis=0),
        )

    @pytest.mark.parametrize("chunk_size", [1, 5, 24, 100])
    def test_mega_sweep_matches_materialised_cross_product(
        self, ibmpg1_grid, sweep_matrices, dense_cross, chunk_size
    ):
        load_matrix, pad_matrix = sweep_matrices
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=chunk_size
        )
        assert result.num_scenarios == 24
        assert np.array_equal(result.worst_ir_drop, dense_cross.worst_ir_drop)
        assert np.array_equal(result.average_ir_drop, dense_cross.average_ir_drop)
        assert np.array_equal(result.worst_node_index, dense_cross.worst_node_index)

    def test_mega_sweep_shares_one_factorization(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        engine = BatchedAnalysisEngine()
        result = engine.analyze_mega_sweep(ibmpg1_grid, load_matrix, pad_matrix, chunk_size=5)
        assert engine.cache_info().factorizations == 1
        assert result.scenarios_per_second > 0
        assert result.worst_node(0) in ibmpg1_grid.compile().node_names

    def test_scenario_pair_round_trip(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=10
        )
        pairs = [result.scenario_pair(s) for s in range(result.num_scenarios)]
        assert pairs[0] == (0, 0)
        assert pairs[-1] == (load_matrix.shape[0] - 1, pad_matrix.shape[0] - 1)
        assert len(set(pairs)) == result.num_scenarios
        with pytest.raises(IndexError):
            result.scenario_pair(result.num_scenarios)

    def test_mega_sweep_with_sinks_matches_dense(
        self, ibmpg1_grid, sweep_matrices, dense_cross
    ):
        load_matrix, pad_matrix = sweep_matrices
        drops = dense_cross.ir_drop
        threshold = float(np.quantile(drops, 0.8))
        sink = ExceedanceCountSink(threshold)
        BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_grid, load_matrix, pad_matrix, chunk_size=7, sinks=[sink]
        )
        assert np.array_equal(sink.result().counts, (drops > threshold).sum(axis=1))

    def test_input_validation(self, ibmpg1_grid, sweep_matrices):
        load_matrix, pad_matrix = sweep_matrices
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="load_matrix"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix[:, :-1], pad_matrix)
        with pytest.raises(ValueError, match="pad_voltage_matrix"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix, pad_matrix[:, :-1])
        with pytest.raises(ValueError, match="at least one scenario row"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix[:0], pad_matrix)
        with pytest.raises(ValueError, match="chunk_size"):
            engine.analyze_mega_sweep(ibmpg1_grid, load_matrix, pad_matrix, chunk_size=0)


class TestScenarioStream:
    def test_stream_matches_batch(self, ibmpg1_grid, load_sweep):
        engine = BatchedAnalysisEngine()
        reference = engine.analyze_batch(ibmpg1_grid, load_sweep, chunk_size=8)
        stream = engine.analyze_scenario_stream(
            ibmpg1_grid,
            lambda begin, end: (load_sweep[begin:end], None),
            load_sweep.shape[0],
            chunk_size=8,
        )
        assert np.array_equal(stream.worst_ir_drop, reference.worst_ir_drop)
        assert np.array_equal(stream.average_ir_drop, reference.average_ir_drop)
        assert stream.factorization_reused  # second sweep on the same engine

    def test_stream_validates_source(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError, match="neither loads nor pad voltages"):
            engine.analyze_scenario_stream(
                ibmpg1_grid, lambda begin, end: (None, None), 4, chunk_size=2
            )
        compiled = ibmpg1_grid.compile()
        with pytest.raises(ValueError, match="rows for"):
            engine.analyze_scenario_stream(
                ibmpg1_grid,
                lambda begin, end: (np.zeros((1, compiled.num_nodes)), None),
                4,
                chunk_size=2,
            )
        with pytest.raises(ValueError, match="num_scenarios"):
            engine.analyze_scenario_stream(
                ibmpg1_grid, lambda begin, end: (None, None), 0, chunk_size=2
            )


class TestStatisticalVectorless:
    @pytest.fixture(scope="class")
    def budget(self, ibmpg1_grid):
        return uniform_budget(ibmpg1_grid, headroom=1.4, utilisation=0.9)

    def test_observed_below_deterministic_bound(self, ibmpg1_grid, budget):
        analyzer = VectorlessAnalyzer(BatchedAnalysisEngine())
        result = analyzer.analyze_statistical(
            ibmpg1_grid, budget, 60, chunk_size=16, sinks=[QuantileSketchSink([0.9])]
        )
        assert result.num_scenarios == 60
        assert result.worst_observed <= result.worst_case_bound + 1e-12
        assert 0 < result.bound_tightness <= 1.0
        assert result.sweep.sinks[0].result().num_scenarios == 60

    def test_sampling_is_chunking_invariant(self, ibmpg1_grid, budget):
        analyzer = VectorlessAnalyzer(BatchedAnalysisEngine())
        small = analyzer.analyze_statistical(ibmpg1_grid, budget, 30, chunk_size=7)
        large = analyzer.analyze_statistical(ibmpg1_grid, budget, 30, chunk_size=1000)
        assert np.array_equal(small.sweep.worst_ir_drop, large.sweep.worst_ir_drop)
        assert np.array_equal(small.sweep.average_ir_drop, large.sweep.average_ir_drop)

    def test_pad_batch_with_sinks(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.NODE_VOLTAGES, seed=9)
        pad_matrix = perturbed_pad_voltage_matrix(ibmpg1_grid, spec, 6)
        engine = BatchedAnalysisEngine()
        dense = engine.analyze_pad_batch(ibmpg1_grid, pad_matrix)
        threshold = float(np.quantile(dense.ir_drop, 0.7))
        sink = ExceedanceCountSink(threshold)
        engine.analyze_pad_batch(ibmpg1_grid, pad_matrix, chunk_size=2, sinks=[sink])
        assert np.array_equal(sink.result().counts, (dense.ir_drop > threshold).sum(axis=1))
