"""Tests for the Kirchhoff IR-drop estimator (paper Algorithm 2)."""

import numpy as np
import pytest

from repro.core import KirchhoffIRDropEstimator, pg_line_count
from repro.grid import Floorplan, FunctionalBlock, GridBuilder, GridTopology, PowerPad
from tests.oracle import reference_analyze, reference_kirchhoff_map, reference_kirchhoff_predict


@pytest.fixture(scope="module")
def estimator(technology):
    return KirchhoffIRDropEstimator(technology)


@pytest.fixture(scope="module")
def uniform_widths(tiny_topology):
    return np.full(tiny_topology.num_lines, 5.0)


class TestCurrentAllocation:
    def test_total_current_conserved(self, estimator, tiny_floorplan, tiny_topology):
        currents = estimator.allocate_line_currents(tiny_floorplan, tiny_topology)
        assert currents.sum() == pytest.approx(tiny_floorplan.total_switching_current, rel=1e-9)

    def test_hot_block_lines_get_more_current(self, estimator, tiny_floorplan, tiny_topology):
        currents = estimator.allocate_line_currents(tiny_floorplan, tiny_topology)
        hot = max(tiny_floorplan.iter_blocks(), key=lambda b: b.switching_current)
        positions = np.asarray(tiny_topology.vertical_positions)
        nearest = int(np.argmin(np.abs(positions - hot.center[0])))
        farthest = int(np.argmax(np.abs(positions - hot.center[0])))
        assert currents[nearest] > currents[farthest]


class TestPrediction:
    def test_prediction_structure(self, estimator, tiny_floorplan, tiny_topology, uniform_widths):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        assert prediction.line_ir_drop.shape == (tiny_topology.num_lines,)
        assert len(prediction.segment_ir_drop) == tiny_topology.num_lines
        assert prediction.worst_ir_drop == pytest.approx(prediction.line_ir_drop.max())
        assert 0 <= prediction.worst_line < tiny_topology.num_lines
        assert prediction.prediction_time > 0

    def test_drops_non_negative(self, estimator, tiny_floorplan, tiny_topology, uniform_widths):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        for drops in prediction.segment_ir_drop:
            assert np.all(drops >= -1e-12)

    def test_wider_lines_reduce_predicted_drop(self, estimator, tiny_floorplan, tiny_topology):
        narrow = estimator.predict(
            tiny_floorplan, tiny_topology, np.full(tiny_topology.num_lines, 2.0)
        )
        wide = estimator.predict(
            tiny_floorplan, tiny_topology, np.full(tiny_topology.num_lines, 10.0)
        )
        assert wide.worst_ir_drop < narrow.worst_ir_drop

    def test_more_current_increases_predicted_drop(
        self, estimator, tiny_floorplan, tiny_topology, uniform_widths
    ):
        nominal = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        heavy = estimator.predict(
            tiny_floorplan.with_scaled_currents(2.0), tiny_topology, uniform_widths
        )
        assert heavy.worst_ir_drop > nominal.worst_ir_drop

    def test_prediction_same_order_as_full_analysis(
        self, estimator, technology, tiny_floorplan, tiny_topology, uniform_widths
    ):
        """The Algorithm 2 estimate should land within ~3x of the MNA solve."""
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        network = GridBuilder(technology).build(tiny_floorplan, tiny_topology, uniform_widths)
        golden = reference_analyze(network)
        ratio = prediction.worst_ir_drop / golden.worst_ir_drop
        assert 1 / 3 <= ratio <= 3.0

    def test_input_validation(self, estimator, tiny_floorplan, tiny_topology):
        with pytest.raises(ValueError):
            estimator.predict(tiny_floorplan, tiny_topology, np.asarray([1.0, 2.0]))
        bad_widths = np.full(tiny_topology.num_lines, 5.0)
        bad_widths[0] = 0.0
        with pytest.raises(ValueError):
            estimator.predict(tiny_floorplan, tiny_topology, bad_widths)

    def test_constructor_validation(self, technology):
        with pytest.raises(ValueError):
            KirchhoffIRDropEstimator(technology, distance_decay=0.0)
        with pytest.raises(ValueError):
            KirchhoffIRDropEstimator(technology, sharing_factor=0.0)
        with pytest.raises(ValueError):
            KirchhoffIRDropEstimator(technology, approach_factor=2.0)


class TestMap:
    def test_map_shape_and_worst_value(
        self, estimator, tiny_floorplan, tiny_topology, uniform_widths
    ):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        ir_map = estimator.ir_drop_map(tiny_floorplan, tiny_topology, prediction, resolution=40)
        assert ir_map.shape == (40, 40)
        assert ir_map.max() == pytest.approx(prediction.worst_ir_drop)
        assert np.all(np.isfinite(ir_map))

    def test_map_resolution_validation(
        self, estimator, tiny_floorplan, tiny_topology, uniform_widths
    ):
        prediction = estimator.predict(tiny_floorplan, tiny_topology, uniform_widths)
        with pytest.raises(ValueError):
            estimator.ir_drop_map(tiny_floorplan, tiny_topology, prediction, resolution=0)


def _assert_matches_oracle(estimator, floorplan, topology, widths):
    """Algorithm 2 and its Fig. 8 map equal the per-line loop bitwise."""
    prediction = estimator.predict(floorplan, topology, widths)
    reference = reference_kirchhoff_predict(estimator, floorplan, topology, widths)
    assert np.array_equal(prediction.line_ir_drop, reference.line_ir_drop)
    assert len(prediction.segment_ir_drop) == len(reference.segment_ir_drop)
    for drops, expected in zip(prediction.segment_ir_drop, reference.segment_ir_drop):
        assert drops.shape == expected.shape
        assert np.array_equal(drops, expected)
    assert prediction.worst_ir_drop == reference.worst_ir_drop
    assert prediction.worst_line == reference.worst_line
    assert np.array_equal(prediction.line_currents, reference.line_currents)
    for resolution in (1, 7, 40):
        assert np.array_equal(
            estimator.ir_drop_map(floorplan, topology, prediction, resolution=resolution),
            reference_kirchhoff_map(floorplan, topology, reference, resolution=resolution),
        )
    return prediction


def _topology(vertical, horizontal):
    return GridTopology(
        num_vertical=len(vertical),
        num_horizontal=len(horizontal),
        vertical_positions=tuple(float(x) for x in vertical),
        horizontal_positions=tuple(float(y) for y in horizontal),
    )


def _floorplan(pads, blocks=(), core=(1000.0, 1000.0)):
    return Floorplan(
        name="edge",
        core_width=core[0],
        core_height=core[1],
        blocks=[
            FunctionalBlock(name=f"b{i}", x=x, y=y, width=w, height=h, switching_current=current)
            for i, (x, y, w, h, current) in enumerate(blocks)
        ],
        pads=[PowerPad(name=f"p{i}", x=x, y=y, voltage=1.0) for i, (x, y) in enumerate(pads)],
    )


def _random_case(seed):
    rng = np.random.default_rng(seed)
    core = tuple(rng.uniform(200.0, 2000.0, 2))

    def positions(extent):
        count = int(rng.integers(2, 13))
        gaps = rng.uniform(0.2, 1.0, count + 1)
        return np.cumsum(gaps)[:-1] / gaps.sum() * extent

    vertical, horizontal = positions(core[0]), positions(core[1])
    blocks = []
    for _ in range(int(rng.integers(0, 6))):
        x, y = rng.uniform(0, 0.5) * core[0], rng.uniform(0, 0.5) * core[1]
        w, h = rng.uniform(0.05, 0.5) * core[0], rng.uniform(0.05, 0.5) * core[1]
        current = float(rng.choice([0.0, rng.uniform(0.01, 0.3)]))
        blocks.append((x, y, w, h, current))
    pads = []
    for _ in range(int(rng.integers(1, 13))):
        # Some pads sit exactly on a crossing, so projections and reach
        # comparisons meet exact ties.
        if rng.random() < 0.3:
            pads.append((float(rng.choice(vertical)), float(rng.choice(horizontal))))
        else:
            pads.append((rng.uniform(0, core[0]), rng.uniform(0, core[1])))
    topology = _topology(vertical, horizontal)
    widths = rng.uniform(0.5, 20.0, topology.num_lines)
    return _floorplan(pads, blocks, core), topology, widths


class TestOracleEquivalence:
    """The per-direction arrays reproduce the per-line loop bitwise."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_floorplans(self, technology, seed):
        floorplan, topology, widths = _random_case(seed)
        rng = np.random.default_rng(1000 + seed)
        estimator = KirchhoffIRDropEstimator(
            technology,
            sharing_factor=float(rng.uniform(0.1, 1.0)),
            approach_factor=float(rng.uniform(0.0, 1.0)),
        )
        _assert_matches_oracle(estimator, floorplan, topology, widths)

    def test_suite_benchmark(self, estimator, small_benchmark):
        widths = np.random.default_rng(7).uniform(1.0, 12.0, small_benchmark.topology.num_lines)
        _assert_matches_oracle(estimator, small_benchmark.floorplan, small_benchmark.topology, widths)

    def test_no_pad_within_reach_falls_back_to_nearest(self, estimator):
        # Four pads give a reach of 500 um; the vertical lines at x=700 and
        # x=900 are farther than that from every pad (two pads tie there).
        pads = [(50.0, 100.0), (80.0, 400.0), (80.0, 800.0), (60.0, 600.0)]
        floorplan = _floorplan(pads, [(0.0, 0.0, 1000.0, 1000.0, 0.2)])
        topology = _topology([100.0, 700.0, 900.0], [100.0, 300.0, 500.0, 700.0, 900.0])
        reach = floorplan.core_width / np.sqrt(len(pads))
        assert min(abs(900.0 - x) for x, _ in pads) > reach
        assert min(abs(700.0 - x) for x, _ in pads) > reach
        _assert_matches_oracle(estimator, floorplan, topology, np.full(8, 4.0))

    def test_zero_local_current_gives_uniform_taps(self, estimator):
        # The only block sits between lines, so no segment midpoint is under
        # it: every line's local current is zero and its taps are uniform.
        floorplan = _floorplan(
            [(500.0, 500.0)], [(410.0, 410.0, 50.0, 50.0, 0.3)]
        )
        topology = _topology([200.0, 400.0, 600.0, 800.0], [200.0, 400.0, 600.0, 800.0])
        prediction = _assert_matches_oracle(estimator, floorplan, topology, np.full(8, 3.0))
        assert prediction.worst_ir_drop > 0
        # No current at all: every drop is zero.
        idle = _floorplan([(500.0, 500.0)], [(0.0, 0.0, 1000.0, 1000.0, 0.0)])
        prediction = _assert_matches_oracle(estimator, idle, topology, np.full(8, 3.0))
        assert prediction.worst_ir_drop == 0.0

    def test_two_pads_project_onto_one_crossing(self, estimator):
        # Both pads project onto the crossing at y=500 of every vertical
        # line; the nearer one sets the approach distance.
        floorplan = _floorplan([(480.0, 490.0), (530.0, 510.0)], [(0.0, 0.0, 1000.0, 1000.0, 0.2)])
        topology = _topology([100.0, 500.0, 900.0], [100.0, 300.0, 500.0, 700.0, 900.0])
        _assert_matches_oracle(estimator, floorplan, topology, np.linspace(1.0, 8.0, 8))

    def test_midpoint_on_feed_boundary_with_feeds_at_both_ends(self, estimator):
        # Feeds at the first (y=0) and last (y=300) crossings put their
        # boundary at y=150, exactly the midpoint of the middle segment.
        floorplan = _floorplan(
            [(100.0, 0.0), (100.0, 300.0)], [(0.0, 0.0, 400.0, 400.0, 0.1)], core=(400.0, 400.0)
        )
        topology = _topology([100.0, 300.0], [0.0, 100.0, 200.0, 300.0])
        spans = np.asarray(topology.horizontal_positions)
        assert (spans[0] + spans[-1]) / 2.0 == (spans[1] + spans[2]) / 2.0
        _assert_matches_oracle(estimator, floorplan, topology, np.array([2.0, 5.0, 1.0, 3.0, 4.0, 6.0]))

    def test_single_feed(self, estimator, tiny_floorplan, tiny_topology):
        floorplan = _floorplan([(130.0, 870.0)], [(0.0, 0.0, 600.0, 600.0, 0.25)])
        _assert_matches_oracle(estimator, floorplan, tiny_topology, np.linspace(2.0, 9.0, 16))

    def test_direction_with_two_crossings(self, estimator):
        # Two horizontal lines: every vertical line is a single segment.
        floorplan = _floorplan([(250.0, 250.0), (750.0, 750.0)], [(0.0, 0.0, 1000.0, 1000.0, 0.2)])
        topology = _topology([100.0, 300.0, 500.0, 700.0, 900.0], [250.0, 750.0])
        prediction = _assert_matches_oracle(estimator, floorplan, topology, np.full(7, 5.0))
        assert all(drops.size == 1 for drops in prediction.segment_ir_drop[:5])


class TestPGLineCount:
    def test_equation_six(self):
        assert pg_line_count(1000.0, 10.0) == 100

    def test_minimum_one_line(self):
        assert pg_line_count(5.0, 10.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pg_line_count(0.0, 1.0)
        with pytest.raises(ValueError):
            pg_line_count(10.0, 0.0)
