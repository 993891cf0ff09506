"""Tests for static IR-drop analysis and map rasterisation."""

import numpy as np
import pytest

from repro.analysis import BatchedAnalysisEngine, current_conservation_error, ir_drop_map
from repro.grid import CurrentSource, GridNode, PowerGridNetwork, Resistor, VoltageSource


@pytest.fixture(scope="module")
def tiny_result(tiny_grid):
    return BatchedAnalysisEngine().analyze(tiny_grid)


class TestIRDropAnalysis:
    def test_worst_drop_is_maximum_over_nodes(self, tiny_grid, tiny_result):
        values = np.asarray(list(tiny_result.node_ir_drop.values()))
        assert tiny_result.worst_ir_drop == pytest.approx(values.max())
        assert tiny_result.node_ir_drop[tiny_result.worst_node] == pytest.approx(
            tiny_result.worst_ir_drop
        )

    def test_ir_drop_non_negative_and_below_vdd(self, tiny_grid, tiny_result):
        drops = np.asarray(list(tiny_result.node_ir_drop.values()))
        assert np.all(drops >= -1e-9)
        assert np.all(drops <= tiny_grid.vdd)

    def test_pad_nodes_have_zero_drop(self, tiny_grid, tiny_result):
        for pad in tiny_grid.iter_pads():
            assert tiny_result.node_ir_drop[pad.node] == pytest.approx(
                tiny_grid.vdd - pad.voltage, abs=1e-12
            )

    def test_average_below_worst(self, tiny_result):
        assert tiny_result.average_ir_drop <= tiny_result.worst_ir_drop

    def test_worst_drop_mv_conversion(self, tiny_result):
        assert tiny_result.worst_ir_drop_mv == pytest.approx(tiny_result.worst_ir_drop * 1000.0)

    def test_kirchhoff_current_law_satisfied(self, tiny_grid, tiny_result):
        assert current_conservation_error(tiny_grid, tiny_result) < 1e-8

    def test_more_current_more_drop(self, tiny_grid):
        engine = BatchedAnalysisEngine()
        nominal = engine.analyze(tiny_grid)
        heavy = engine.analyze(tiny_grid.with_scaled_loads(2.0))
        assert heavy.worst_ir_drop == pytest.approx(2.0 * nominal.worst_ir_drop, rel=1e-6)

    def test_single_resistor_analytic_case(self):
        network = PowerGridNetwork(name="single", vdd=1.0)
        network.add_node(GridNode(name="pad", x=0.0, y=0.0))
        network.add_node(GridNode(name="load", x=10.0, y=0.0))
        network.add_resistor(Resistor(name="R1", node_a="pad", node_b="load", resistance=5.0))
        network.add_voltage_source(VoltageSource(name="V1", node="pad", voltage=1.0))
        network.add_current_source(CurrentSource(name="I1", node="load", current=0.01))
        result = BatchedAnalysisEngine().analyze(network)
        assert result.worst_ir_drop == pytest.approx(0.05)
        assert result.worst_node == "load"

    def test_analysis_time_positive(self, tiny_result):
        assert tiny_result.analysis_time > 0.0


class TestIRDropMap:
    def test_map_shape_and_range(self, tiny_grid, tiny_result):
        grid_map = ir_drop_map(tiny_grid, tiny_result, resolution=50)
        assert grid_map.shape == (50, 50)
        assert grid_map.max() == pytest.approx(tiny_result.worst_ir_drop)
        assert grid_map.min() >= 0.0

    def test_map_has_no_nans(self, tiny_grid, tiny_result):
        grid_map = ir_drop_map(tiny_grid, tiny_result, resolution=25)
        assert np.all(np.isfinite(grid_map))

    def test_map_rejects_bad_resolution(self, tiny_grid, tiny_result):
        with pytest.raises(ValueError):
            ir_drop_map(tiny_grid, tiny_result, resolution=0)

    def test_hot_region_follows_heaviest_block(self, tiny_grid, tiny_result, tiny_floorplan):
        """The worst IR drop should occur near the block drawing the most current."""
        grid_map = ir_drop_map(tiny_grid, tiny_result, resolution=20)
        hot_y, hot_x = np.unravel_index(np.argmax(grid_map), grid_map.shape)
        heaviest = max(tiny_floorplan.iter_blocks(), key=lambda b: b.switching_current)
        cx, cy = heaviest.center
        assert abs(hot_x / 20.0 - cx / tiny_floorplan.core_width) < 0.5
        assert abs(hot_y / 20.0 - cy / tiny_floorplan.core_height) < 0.5
