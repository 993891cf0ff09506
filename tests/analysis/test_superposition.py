"""Tests of the superposed mega-sweep and the histogram fold it feeds.

A mega-sweep solves ``L + P`` basis columns and streams scenario ``s`` as
``load_drops[s // P] + pad_drops[s % P]``.  The contract under test:

* bitwise-identical reductions and sinks for every chunk size, executor,
  shard split and thread count (one elementwise add per value);
* within 1e-12 V of a direct solve of every scenario, pad nodes included,
  with the same worst nodes wherever the worst node is not a near-tie;
* a relative residual of at most 1e-10 on every basis column (direct path);
* a top-k replay that returns exactly the bits the sweep ranked.

:class:`NodeHistogramSink` bins every value into one slot table; its
counts must equal the mask-by-mask fold in :mod:`tests.oracle` bitwise,
for any strictly ascending edges and any values, NaN and ±inf included.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    BatchedAnalysisEngine,
    CrossProductScenarioSource,
    ExceedanceCountSink,
    HybridExecutor,
    IRDropResult,
    JointExceedanceSink,
    LinearSolverError,
    NodeHistogramSink,
    QuantileSketchSink,
    SerialExecutor,
    TopKScenarioSink,
)
from repro.analysis import engine as engine_module
from repro.analysis.solvers import SpluFactorization
from repro.grid import SyntheticIBMSuite, mega_sweep_matrices
from tests.analysis.test_properties import _build, _random_floorplan
from tests.oracle import reference_histogram_fold

FULL_SHAPE = (25, 64)
"""Load × pad rows of the full-scale ibmpg1 sweep (1,600 scenarios)."""

SUPERPOSITION_TOLERANCE_V = 1e-12
"""Documented bound of the superposed sweep against a direct solve."""


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def ibmpg1_compiled(ibmpg1_bench):
    return ibmpg1_bench.build_uniform_grid(5.0).compile()


@pytest.fixture(scope="module")
def full_matrices(ibmpg1_compiled, ibmpg1_bench):
    return mega_sweep_matrices(ibmpg1_compiled, ibmpg1_bench.floorplan, 0.2, *FULL_SHAPE, seed=21)


@pytest.fixture(scope="module")
def nominal_worst(ibmpg1_compiled):
    return BatchedAnalysisEngine().analyze(ibmpg1_compiled).worst_ir_drop


def full_sinks(threshold: float) -> dict:
    return {
        "sketch": QuantileSketchSink((0.5, 0.9, 0.99)),
        "histogram": NodeHistogramSink.uniform(0.0, 2.0 * threshold, 32),
        "exceedance": ExceedanceCountSink(threshold),
        "joint": JointExceedanceSink(threshold),
        "topk": TopKScenarioSink(10),
    }


def sweep_bits(result, sinks: dict) -> list[bytes]:
    """Every reduction and sink result of a sweep, as raw bytes."""
    parts = [
        result.worst_ir_drop,
        result.average_ir_drop,
        result.worst_node_index,
        result.solver_iterations,
        sinks["sketch"].result().values,
    ]
    histogram = sinks["histogram"].result()
    parts += [histogram.counts, histogram.underflow, histogram.overflow]
    parts.append(sinks["exceedance"].result().counts)
    parts.append(sinks["joint"].result().violating_node_counts)
    topk = sinks["topk"].result()
    parts += [topk.scenario_index, topk.worst_ir_drop, topk.worst_node_index]
    return [np.ascontiguousarray(part).tobytes() for part in parts]


EXECUTORS = {
    "serial": SerialExecutor,
    "hybrid-1x2": lambda: HybridExecutor(1, 2),
    "hybrid-2x1": lambda: HybridExecutor(2, 1),
    "hybrid-2x2": lambda: HybridExecutor(2, 2),
}


class TestBitwiseByConstruction:
    """The width-sensitive case of direct-solve sweeps (ibmpg1, 25 × 64)
    is bitwise-stable once the sweep superposes."""

    @pytest.fixture(scope="class")
    def reference(self, ibmpg1_compiled, full_matrices, nominal_worst):
        sinks = full_sinks(nominal_worst)
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_compiled, *full_matrices, sinks=tuple(sinks.values()),
            executor=SerialExecutor(),
        )
        return sweep_bits(result, sinks)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_identical_for_every_chunk_size_and_executor(
        self, ibmpg1_compiled, full_matrices, nominal_worst, reference, executor
    ):
        for _ in range(5):
            for chunk_size in (1, 7, 256, None):
                sinks = full_sinks(nominal_worst)
                result = BatchedAnalysisEngine().analyze_mega_sweep(
                    ibmpg1_compiled, *full_matrices, chunk_size=chunk_size,
                    sinks=tuple(sinks.values()), executor=EXECUTORS[executor](),
                )
                assert sweep_bits(result, sinks) == reference, (executor, chunk_size)


class TestSuperpositionContract:
    def test_full_scale_matches_direct_solve(self, ibmpg1_compiled, full_matrices):
        load_matrix, pad_matrix = full_matrices
        num_pads = pad_matrix.shape[0]
        engine = BatchedAnalysisEngine()
        sweep = engine.analyze_mega_sweep(ibmpg1_compiled, load_matrix, pad_matrix)
        dense = engine.analyze_pad_batch(
            ibmpg1_compiled,
            np.tile(pad_matrix, (load_matrix.shape[0], 1)),
            load_matrix=np.repeat(load_matrix, num_pads, axis=0),
        )
        assert np.max(np.abs(sweep.worst_ir_drop - dense.worst_ir_drop)) <= 1e-12
        assert np.max(np.abs(sweep.average_ir_drop - dense.average_ir_drop)) <= 1e-12
        assert np.array_equal(sweep.worst_node_index, dense.worst_node_index)

    def test_solves_load_plus_pad_columns(self, ibmpg1_compiled, full_matrices, monkeypatch):
        columns = []
        original = SpluFactorization.solve

        def counting_solve(self, rhs):
            columns.append(rhs.shape[1] if rhs.ndim == 2 else 1)
            return original(self, rhs)

        monkeypatch.setattr(SpluFactorization, "solve", counting_solve)
        engine = BatchedAnalysisEngine()
        result = engine.analyze_mega_sweep(
            ibmpg1_compiled, *full_matrices, chunk_size=7, executor=SerialExecutor()
        )
        assert columns == [sum(FULL_SHAPE)]
        assert result.basis_columns == sum(FULL_SHAPE)
        assert result.num_scenarios == FULL_SHAPE[0] * FULL_SHAPE[1]
        assert engine.cache_info().factorizations == 1

    def test_basis_residual_is_reported(self, ibmpg1_compiled, full_matrices):
        result = BatchedAnalysisEngine().analyze_mega_sweep(ibmpg1_compiled, *full_matrices)
        assert 0.0 <= result.basis_residual <= engine_module.BASIS_RESIDUAL_TOLERANCE

    def test_direct_residual_above_tolerance_raises(
        self, ibmpg1_compiled, full_matrices, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "BASIS_RESIDUAL_TOLERANCE", 0.0)
        with pytest.raises(LinearSolverError, match="relative residual"):
            BatchedAnalysisEngine().analyze_mega_sweep(ibmpg1_compiled, *full_matrices)

    def test_cg_basis_keeps_its_own_tolerance(self, ibmpg1_compiled, ibmpg1_bench, monkeypatch):
        monkeypatch.setattr(engine_module, "BASIS_RESIDUAL_TOLERANCE", 0.0)
        load_matrix, pad_matrix = mega_sweep_matrices(
            ibmpg1_compiled, ibmpg1_bench.floorplan, 0.2, 3, 2, seed=4
        )
        engine = BatchedAnalysisEngine(direct_size_limit=1)
        result = engine.analyze_mega_sweep(ibmpg1_compiled, load_matrix, pad_matrix)
        basis = engine.mega_sweep_basis(ibmpg1_compiled, load_matrix, pad_matrix)
        assert result.solver_method == "cg"
        assert 0.0 < result.basis_residual <= 1e-10
        # Scenario (l, p) costs its load column's plus its pad column's iterations.
        expected = (
            basis.load_iterations[:, None] + basis.pad_iterations[None, :]
        ).ravel()
        assert np.array_equal(result.solver_iterations, expected)
        assert basis.load_iterations.min() > 0 and basis.pad_iterations.min() > 0

    def test_protocol_sinks_get_voltages_of_the_drop_rows(self, ibmpg1_compiled, full_matrices):
        class VoltageRecorder:
            def __init__(self):
                self.chunks = []

            def bind(self, compiled, num_scenarios):
                self.vdd = compiled.vdd

            def consume(self, chunk_voltages, scenario_offset):
                self.chunks.append(np.array(chunk_voltages))

            def result(self):
                return np.hstack(self.chunks)

        engine = BatchedAnalysisEngine()
        recorder = VoltageRecorder()
        engine.analyze_mega_sweep(
            ibmpg1_compiled, *full_matrices, chunk_size=300, sinks=[recorder],
            executor=SerialExecutor(),
        )
        basis = engine.mega_sweep_basis(ibmpg1_compiled, *full_matrices)
        rows = basis.drop_rows(0, basis.num_scenarios)
        assert np.array_equal(recorder.result(), ibmpg1_compiled.vdd - rows.T)

    def test_topk_replay_returns_the_ranked_bits(
        self, ibmpg1_compiled, full_matrices, nominal_worst
    ):
        load_matrix, pad_matrix = full_matrices
        engine = BatchedAnalysisEngine()
        topk_sink = TopKScenarioSink(10)
        result = engine.analyze_mega_sweep(
            ibmpg1_compiled, load_matrix, pad_matrix, chunk_size=7, sinks=[topk_sink],
            executor=HybridExecutor(2, 1),
        )
        topk = topk_sink.result()
        replayed = topk_sink.rematerialize(
            BatchedAnalysisEngine(), ibmpg1_compiled,
            CrossProductScenarioSource(load_matrix, pad_matrix),
        )
        assert len(replayed) == 10
        names = ibmpg1_compiled.node_names
        for rank, full in enumerate(replayed):
            scenario = int(topk.scenario_index[rank])
            assert full.worst_ir_drop == float(topk.worst_ir_drop[rank])
            assert full.worst_ir_drop == float(result.worst_ir_drop[scenario])
            assert full.average_ir_drop == float(result.average_ir_drop[scenario])
            assert full.worst_node == names[int(topk.worst_node_index[rank])]
            assert full.network_name == f"scenario {scenario}"
            assert len(full.node_voltages) == ibmpg1_compiled.num_nodes


class TestLinearScenarioBasis:
    """The basis tables on a small (5 × 4) ibmpg1 cross product."""

    @pytest.fixture(scope="class")
    def small_matrices(self, ibmpg1_compiled, ibmpg1_bench):
        return mega_sweep_matrices(ibmpg1_compiled, ibmpg1_bench.floorplan, 0.2, 5, 4, seed=3)

    @pytest.fixture(scope="class")
    def basis(self, ibmpg1_compiled, small_matrices):
        return BatchedAnalysisEngine().mega_sweep_basis(ibmpg1_compiled, *small_matrices)

    def test_sizes(self, ibmpg1_compiled, basis):
        assert basis.num_scenarios == 20
        assert basis.num_columns == 9
        assert basis.load_drops.shape == (5, ibmpg1_compiled.num_nodes)
        assert basis.pad_drops.shape == (4, ibmpg1_compiled.num_nodes)
        assert basis.drop_rows(0, 20).shape == (20, ibmpg1_compiled.num_nodes)

    def test_scenario_row_is_its_load_row_plus_its_pad_row(self, basis):
        rows = basis.drop_rows(0, basis.num_scenarios)
        for scenario in range(basis.num_scenarios):
            load_row, pad_row = divmod(scenario, 4)
            expected = basis.load_drops[load_row] + basis.pad_drops[pad_row]
            assert np.array_equal(rows[scenario], expected), scenario

    @pytest.mark.parametrize("cut", [1, 3, 4, 5, 19])
    def test_rows_split_anywhere_are_bitwise(self, basis, cut):
        """A range cut inside a load row's run, on its boundary or next to
        it joins back to the same bits: the combine is row-local."""
        whole = basis.drop_rows(0, basis.num_scenarios)
        split = np.vstack((basis.drop_rows(0, cut), basis.drop_rows(cut, basis.num_scenarios)))
        assert np.array_equal(split, whole)
        assert np.array_equal(
            np.concatenate((basis.iterations(0, cut), basis.iterations(cut, 20))),
            basis.iterations(0, 20),
        )

    def test_empty_range(self, ibmpg1_compiled, basis):
        assert basis.drop_rows(7, 7).shape == (0, ibmpg1_compiled.num_nodes)
        assert basis.iterations(7, 7).size == 0

    def test_direct_path_reports_no_iterations(self, basis):
        assert not basis.load_iterations.any()
        assert not basis.pad_iterations.any()
        assert not basis.iterations(0, basis.num_scenarios).any()

    def test_load_drops_vanish_on_pad_nodes(self, ibmpg1_compiled, basis):
        assert not basis.load_drops[:, ibmpg1_compiled.is_pad].any()
        # Loads draw current, so every unknown node sees a drop.
        assert (basis.load_drops[:, ~ibmpg1_compiled.is_pad] > 0).all()

    def test_pad_drops_on_pad_nodes_are_vdd_minus_pad_voltage(
        self, ibmpg1_compiled, small_matrices, basis
    ):
        pad_matrix = small_matrices[1]
        pad_vectors = ibmpg1_compiled.pad_voltage_vectors(pad_matrix)
        pad_nodes = ibmpg1_compiled.pad_node
        assert np.array_equal(
            basis.pad_drops[:, pad_nodes], ibmpg1_compiled.vdd - pad_vectors[:, pad_nodes]
        )

    def test_zero_loads_and_nominal_pads_drop_nothing(self, ibmpg1_compiled):
        num_pads = len(ibmpg1_compiled.pad_node)
        nominal = ibmpg1_compiled.pad_voltage[ibmpg1_compiled.pad_node]
        basis = BatchedAnalysisEngine().mega_sweep_basis(
            ibmpg1_compiled,
            np.zeros((2, ibmpg1_compiled.num_nodes)),
            np.tile(nominal, (3, 1)).reshape(3, num_pads),
        )
        assert not basis.load_drops.any()
        assert np.max(np.abs(basis.pad_drops)) <= SUPERPOSITION_TOLERANCE_V
        assert basis.residual <= engine_module.BASIS_RESIDUAL_TOLERANCE

    def test_load_drops_scale_exactly_with_the_loads(
        self, ibmpg1_compiled, small_matrices, basis
    ):
        """Doubling is exact in binary floating point, and so is every
        step of the triangular solves of a doubled right-hand side."""
        load_matrix, pad_matrix = small_matrices
        doubled = BatchedAnalysisEngine().mega_sweep_basis(
            ibmpg1_compiled, 2.0 * load_matrix, pad_matrix
        )
        assert np.array_equal(doubled.load_drops, 2.0 * basis.load_drops)
        assert np.array_equal(doubled.pad_drops, basis.pad_drops)

    def test_pickle_round_trip_is_bitwise(self, basis):
        restored = pickle.loads(pickle.dumps(basis, protocol=5))
        assert np.array_equal(
            restored.drop_rows(0, basis.num_scenarios), basis.drop_rows(0, basis.num_scenarios)
        )
        assert restored.residual == basis.residual

    def test_sweep_reduces_the_basis_rows(self, ibmpg1_compiled, small_matrices, basis):
        result = BatchedAnalysisEngine().analyze_mega_sweep(
            ibmpg1_compiled, *small_matrices, chunk_size=3
        )
        rows = basis.drop_rows(0, basis.num_scenarios)
        assert np.array_equal(result.worst_ir_drop, rows.max(axis=1))
        assert np.array_equal(result.average_ir_drop, rows.mean(axis=1))
        assert np.array_equal(result.worst_node_index, rows.argmax(axis=1))
        assert result.basis_residual == basis.residual

    @pytest.mark.parametrize(
        "case, match",
        [
            ("load-columns", "load_matrix"),
            ("load-1d", "load_matrix"),
            ("pad-columns", "pad_voltage_matrix"),
            ("no-load-rows", "at least one scenario row"),
            ("no-pad-rows", "at least one scenario row"),
        ],
    )
    def test_rejects_malformed_inputs(self, ibmpg1_compiled, small_matrices, case, match):
        load_matrix, pad_matrix = small_matrices
        inputs = {
            "load-columns": (load_matrix[:, :-1], pad_matrix),
            "load-1d": (load_matrix[0], pad_matrix),
            "pad-columns": (load_matrix, pad_matrix[:, 1:]),
            "no-load-rows": (load_matrix[:0], pad_matrix),
            "no-pad-rows": (load_matrix, pad_matrix[:0]),
        }[case]
        with pytest.raises(ValueError, match=match):
            BatchedAnalysisEngine().mega_sweep_basis(ibmpg1_compiled, *inputs)

    def test_non_finite_basis_raises(self, ibmpg1_compiled, small_matrices, monkeypatch):
        def nan_solve(self, rhs):
            return np.full(rhs.shape, np.nan)

        monkeypatch.setattr(SpluFactorization, "solve", nan_solve)
        with pytest.raises(LinearSolverError, match="non-finite"):
            BatchedAnalysisEngine().analyze_mega_sweep(ibmpg1_compiled, *small_matrices)


class TestReplayFromDrops:
    @pytest.fixture(scope="class")
    def small_matrices(self, ibmpg1_compiled, ibmpg1_bench):
        return mega_sweep_matrices(ibmpg1_compiled, ibmpg1_bench.floorplan, 0.2, 3, 2, seed=8)

    def test_from_drops_keeps_the_drops_as_given(self, ibmpg1_compiled, small_matrices):
        basis = BatchedAnalysisEngine().mega_sweep_basis(ibmpg1_compiled, *small_matrices)
        drops = basis.drop_rows(4, 5)[0]
        result = IRDropResult.from_drops(
            ibmpg1_compiled, drops, analysis_time=0.0, solver_method="direct", name="s4"
        )
        names = ibmpg1_compiled.node_names
        assert np.array_equal([result.node_ir_drop[name] for name in names], drops)
        assert np.array_equal(
            [result.node_voltages[name] for name in names], ibmpg1_compiled.vdd - drops
        )
        assert result.worst_ir_drop == drops.max()
        assert result.worst_node == names[int(drops.argmax())]
        assert result.average_ir_drop == drops.mean()
        assert result.network_name == "s4"

    def test_replay_keeps_the_given_names(self, ibmpg1_compiled, small_matrices):
        engine = BatchedAnalysisEngine()
        sink = TopKScenarioSink(2)
        engine.analyze_mega_sweep(ibmpg1_compiled, *small_matrices, sinks=[sink])
        replayed = sink.rematerialize(
            engine, ibmpg1_compiled, CrossProductScenarioSource(*small_matrices),
            names=("first", "second"),
        )
        assert [result.network_name for result in replayed] == ["first", "second"]

    def test_replay_rejects_a_wrong_number_of_names(self, ibmpg1_compiled, small_matrices):
        engine = BatchedAnalysisEngine()
        sink = TopKScenarioSink(2)
        engine.analyze_mega_sweep(ibmpg1_compiled, *small_matrices, sinks=[sink])
        with pytest.raises(ValueError, match="expected 2 scenario names"):
            sink.rematerialize(
                engine, ibmpg1_compiled, CrossProductScenarioSource(*small_matrices),
                names=("only one",),
            )

    def test_cg_replay_reports_the_basis_iterations(self, ibmpg1_compiled, small_matrices):
        engine = BatchedAnalysisEngine(direct_size_limit=1)
        sink = TopKScenarioSink(3)
        result = engine.analyze_mega_sweep(ibmpg1_compiled, *small_matrices, sinks=[sink])
        replayed = sink.rematerialize(
            engine, ibmpg1_compiled, CrossProductScenarioSource(*small_matrices)
        )
        for full, scenario in zip(replayed, sink.result().scenario_index):
            assert full.solver_method == "cg"
            assert full.solver_iterations == result.solver_iterations[scenario] > 0
            assert full.worst_ir_drop == result.worst_ir_drop[scenario]


def _random_sweep_inputs(data: st.DataObject, compiled) -> tuple[np.ndarray, np.ndarray]:
    """Random load rows (node loads rescaled) and pad rows around each pad's voltage."""
    num_loads = data.draw(st.integers(min_value=1, max_value=4), label="num_loads")
    num_pad_rows = data.draw(st.integers(min_value=1, max_value=4), label="num_pad_rows")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    loads = compiled.base_loads[None, :] * rng.uniform(0.5, 1.5, (num_loads, compiled.num_nodes))
    pads = compiled.pad_voltage[compiled.pad_node][None, :] * rng.uniform(
        0.95, 1.05, (num_pad_rows, len(compiled.pad_node))
    )
    return loads, pads


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_superposition_within_tolerance_of_direct_solve(data):
    """On random grids, every superposed drop — pad nodes included — is
    within 1e-12 V of a direct solve of the same scenario; pad nodes are
    exact, and the worst node agrees unless the top two drops tie."""
    compiled = _build(_random_floorplan(data)).compile()
    loads, pads = _random_sweep_inputs(data, compiled)
    num_pad_rows = pads.shape[0]
    engine = BatchedAnalysisEngine()
    sweep = engine.analyze_mega_sweep(compiled, loads, pads, executor=SerialExecutor())
    dense = engine.analyze_pad_batch(
        compiled, np.tile(pads, (loads.shape[0], 1)),
        load_matrix=np.repeat(loads, num_pad_rows, axis=0),
    )
    dense_rows = np.ascontiguousarray(dense.ir_drop.T)
    rows = engine.mega_sweep_basis(compiled, loads, pads).drop_rows(0, sweep.num_scenarios)
    pad_nodes = np.flatnonzero(compiled.is_pad)
    assert np.max(np.abs(rows - dense_rows)) <= SUPERPOSITION_TOLERANCE_V
    assert np.array_equal(rows[:, pad_nodes], dense_rows[:, pad_nodes])
    assert np.max(np.abs(sweep.worst_ir_drop - dense.worst_ir_drop)) <= SUPERPOSITION_TOLERANCE_V
    assert (
        np.max(np.abs(sweep.average_ir_drop - dense.average_ir_drop))
        <= SUPERPOSITION_TOLERANCE_V
    )
    for scenario, node in enumerate(sweep.worst_node_index):
        dense_row = dense_rows[scenario]
        top_two = np.sort(dense_row)[-2:] if dense_row.size > 1 else dense_row
        if top_two[-1] - top_two[0] > 2 * SUPERPOSITION_TOLERANCE_V:
            assert node == dense.worst_node_index[scenario]
        else:
            assert dense_row[node] >= dense_row.max() - 2 * SUPERPOSITION_TOLERANCE_V


# ----------------------------------------------------------------------
# Histogram fold vs the mask-by-mask oracle
# ----------------------------------------------------------------------
_finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, width=64)


@st.composite
def _edges(draw) -> np.ndarray:
    """Strictly ascending edges, non-uniform, sometimes with infinite ends."""
    inner = draw(st.lists(_finite, min_size=1, max_size=9, unique=True))
    edges = sorted(inner)
    if draw(st.booleans()):
        edges = [-np.inf] + edges
    if draw(st.booleans()):
        edges = edges + [np.inf]
    if len(edges) < 2:
        edges = edges + [edges[-1] + draw(st.floats(min_value=1e-9, max_value=5.0))]
    return np.asarray(edges, dtype=float)


@st.composite
def _drops_for(draw, edges: np.ndarray) -> np.ndarray:
    """A drop block mixing edge values, their neighbours, ±inf, NaN and noise."""
    rows = draw(st.integers(min_value=1, max_value=12))
    nodes = draw(st.integers(min_value=1, max_value=9))
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    for edge in edges:
        specials += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
    value = st.one_of(st.sampled_from(specials), _finite)
    flat = draw(st.lists(value, min_size=rows * nodes, max_size=rows * nodes))
    return np.asarray(flat, dtype=float).reshape(rows, nodes)


class _Compiled:
    """The two attributes :meth:`IRDropSink.bind` reads."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.vdd = 1.0


def _fold(edges: np.ndarray, drops: np.ndarray, cuts: list[int]) -> NodeHistogramSink:
    sink = NodeHistogramSink(edges)
    sink.bind(_Compiled(drops.shape[1]), drops.shape[0])
    bounds = [0] + sorted(set(cuts)) + [drops.shape[0]]
    for begin, end in zip(bounds, bounds[1:]):
        if end > begin:
            sink.consume_drop_rows(drops[begin:end], begin)
    return sink


def _assert_matches_oracle(sink: NodeHistogramSink, edges: np.ndarray, drops: np.ndarray):
    counts, underflow, overflow = reference_histogram_fold(edges, drops)
    histogram = sink.result()
    assert np.array_equal(histogram.counts, counts)
    assert np.array_equal(histogram.underflow, underflow)
    assert np.array_equal(histogram.overflow, overflow)
    assert histogram.counts.dtype == counts.dtype


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_histogram_fold_matches_oracle(data):
    """Edge values, the right-closed last bin, ±inf and NaN, over any
    chunking, count exactly as the oracle counts them."""
    edges = data.draw(_edges(), label="edges")
    drops = data.draw(_drops_for(edges), label="drops")
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=drops.shape[0]), max_size=4), label="cuts"
    )
    _assert_matches_oracle(_fold(edges, drops, cuts), edges, drops)


def test_histogram_fold_matches_oracle_on_sweep_rows(ibmpg1_compiled, full_matrices):
    """Real drop rows spanning many row blocks, uniform and non-uniform edges."""
    basis = BatchedAnalysisEngine().mega_sweep_basis(ibmpg1_compiled, *full_matrices)
    drops = basis.drop_rows(0, basis.num_scenarios)
    lo, hi = np.quantile(drops, [0.05, 0.95])
    uniform = np.linspace(lo, hi, 33)
    non_uniform = np.unique(np.concatenate((np.quantile(drops, np.linspace(0, 1, 17)), [hi])))
    # An edge placed exactly on sampled drop values exercises the boundaries.
    on_values = np.unique(drops[::97, ::13].ravel())[::50]
    for edges in (uniform, non_uniform, on_values):
        _assert_matches_oracle(_fold(edges, drops, [1, 700, 701]), edges, drops)


@pytest.mark.parametrize(
    "edges, value, slot",
    [
        ([0.0, 1.0, 2.0], 0.0, "bin 0"),
        ([0.0, 1.0, 2.0], 1.0, "bin 1"),
        ([0.0, 1.0, 2.0], 2.0, "bin 1"),
        ([0.0, 1.0, 2.0], np.nextafter(2.0, np.inf), "overflow"),
        ([0.0, 1.0, 2.0], np.nextafter(0.0, -np.inf), "underflow"),
        ([0.0, 1.0, 2.0], np.nan, "nowhere"),
        ([0.0, 1.0, 2.0], np.inf, "overflow"),
        ([0.0, 1.0, np.inf], np.inf, "bin 1"),
        ([-np.inf, 1.0, 2.0], -np.inf, "bin 0"),
    ],
    ids=[
        "first-edge", "interior-edge", "last-edge-closed", "above-last-edge",
        "below-first-edge", "nan", "inf-finite-edges", "inf-infinite-last-edge",
        "minus-inf-infinite-first-edge",
    ],
)
def test_histogram_slot_of_a_single_value(edges, value, slot):
    """Hand-counted slots, numpy.histogram semantics per node."""
    edges = np.asarray(edges)
    sink = _fold(edges, np.array([[value]]), [])
    histogram = sink.result()
    expected_counts = np.zeros((1, edges.size - 1), dtype=np.int64)
    if slot.startswith("bin"):
        expected_counts[0, int(slot.split()[1])] = 1
    assert np.array_equal(histogram.counts, expected_counts)
    assert histogram.underflow.tolist() == [int(slot == "underflow")]
    assert histogram.overflow.tolist() == [int(slot == "overflow")]


def test_histogram_rejects_nan_edges():
    with pytest.raises(ValueError, match="strictly ascending"):
        NodeHistogramSink([0.0, np.nan, 1.0])
