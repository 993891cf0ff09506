"""Property-based tests of the analysis engine's physical invariants.

These tests generate random small power grids with hypothesis and check the
properties any correct static IR-drop engine must satisfy: linearity in the
loads (superposition), monotonicity in wire width, voltage bounds, and
conservation of current at the pads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import BatchedAnalysisEngine, current_conservation_error, pad_currents
from repro.grid import (
    Floorplan,
    FunctionalBlock,
    GridBuilder,
    PowerPad,
    generic_45nm,
    uniform_topology,
)
from tests.oracle import max_voltage_difference, reference_analyze

_TECH = generic_45nm()


def _random_floorplan(data: st.DataObject) -> Floorplan:
    """Draw a small random floorplan with 1-4 blocks and 1-4 pads."""
    core = data.draw(st.floats(min_value=500.0, max_value=2000.0), label="core")
    num_blocks = data.draw(st.integers(min_value=1, max_value=4), label="num_blocks")
    blocks = []
    for index in range(num_blocks):
        width = data.draw(st.floats(min_value=core * 0.1, max_value=core * 0.4), label=f"bw{index}")
        height = data.draw(
            st.floats(min_value=core * 0.1, max_value=core * 0.4), label=f"bh{index}"
        )
        x = data.draw(st.floats(min_value=0.0, max_value=core - width), label=f"bx{index}")
        y = data.draw(st.floats(min_value=0.0, max_value=core - height), label=f"by{index}")
        current = data.draw(st.floats(min_value=0.01, max_value=0.5), label=f"bi{index}")
        blocks.append(FunctionalBlock(f"b{index}", x, y, width, height, current))
    num_pads = data.draw(st.integers(min_value=1, max_value=4), label="num_pads")
    pads = []
    for index in range(num_pads):
        px = data.draw(st.floats(min_value=0.0, max_value=core), label=f"px{index}")
        py = data.draw(st.floats(min_value=0.0, max_value=core), label=f"py{index}")
        pads.append(PowerPad(f"p{index}", px, py, _TECH.vdd))
    return Floorplan("prop", core, core, blocks=blocks, pads=pads)


def _build(floorplan: Floorplan, width: float = 5.0, lines: int = 6):
    topology = uniform_topology(floorplan, lines, lines)
    return GridBuilder(_TECH).build(floorplan, topology, width)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_voltages_bounded_by_vdd_and_kcl_holds(data):
    """Node voltages never exceed Vdd, never go negative for sane loads, and
    Kirchhoff's current law holds at every non-pad node — and the engine
    agrees with the independent reference solve."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan)
    result = BatchedAnalysisEngine().analyze(network)
    assert max_voltage_difference(reference_analyze(network), result) <= 1e-9
    voltages = np.asarray(list(result.node_voltages.values()))
    assert np.all(voltages <= _TECH.vdd + 1e-9)
    assert result.worst_ir_drop >= -1e-12
    assert current_conservation_error(network, result) < 1e-7


@settings(max_examples=10, deadline=None)
@given(data=st.data(), scale=st.floats(min_value=0.1, max_value=3.0))
def test_superposition_in_load_currents(data, scale):
    """IR drop is linear in the load currents (the grid is a linear circuit)."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan)
    engine = BatchedAnalysisEngine()
    base = engine.analyze(network)
    scaled = engine.analyze(network.with_scaled_loads(scale))
    assert scaled.worst_ir_drop == pytest.approx(scale * base.worst_ir_drop, rel=1e-6, abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_wider_wires_never_increase_worst_drop(data):
    """Uniformly widening every wire can only reduce the worst-case IR drop."""
    floorplan = _random_floorplan(data)
    engine = BatchedAnalysisEngine()
    narrow = engine.analyze(_build(floorplan, width=2.0))
    wide = engine.analyze(_build(floorplan, width=8.0))
    assert wide.worst_ir_drop <= narrow.worst_ir_drop + 1e-12


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pad_currents_sum_to_load(data):
    """The pads together deliver exactly the total load current."""
    floorplan = _random_floorplan(data)
    network = _build(floorplan)
    result = BatchedAnalysisEngine().analyze(network)
    delivered = sum(pad_currents(network, result).values())
    assert delivered == pytest.approx(network.total_load_current(), rel=1e-6)
