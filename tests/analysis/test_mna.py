"""Tests for nodal (MNA) assembly and solution on hand-solvable circuits.

Assembly lives in :class:`~repro.grid.compiled.CompiledGrid`; solutions
come from :class:`~repro.analysis.BatchedAnalysisEngine`.
"""

import numpy as np
import pytest

from repro.analysis import BatchedAnalysisEngine
from repro.grid import CurrentSource, GridNode, PowerGridNetwork, Resistor, VoltageSource


def voltage_divider(load_current=0.1, r1=1.0, r2=2.0, vdd=1.0):
    """Pad -- R1 -- middle -- R2 -- sink, load at sink."""
    network = PowerGridNetwork(name="divider", vdd=vdd)
    for name in ("pad", "middle", "sink"):
        network.add_node(GridNode(name=name, x=0.0, y=0.0))
    network.add_resistor(Resistor(name="R1", node_a="pad", node_b="middle", resistance=r1))
    network.add_resistor(Resistor(name="R2", node_a="middle", node_b="sink", resistance=r2))
    network.add_voltage_source(VoltageSource(name="V1", node="pad", voltage=vdd))
    network.add_current_source(CurrentSource(name="I1", node="sink", current=load_current))
    return network


def unknown_index(compiled):
    return {name: i for i, name in enumerate(compiled.unknown_nodes)}


class TestAssembly:
    def test_unknowns_exclude_pad_nodes(self):
        compiled = voltage_divider().compile()
        assert set(compiled.unknown_nodes) == {"middle", "sink"}
        pads = {compiled.node_names[i]: compiled.pad_voltage[i] for i in compiled.pad_node}
        assert pads == {"pad": 1.0}

    def test_matrix_is_symmetric(self, tiny_grid):
        matrix = tiny_grid.compile().reduced_matrix
        difference = (matrix - matrix.T).toarray()
        np.testing.assert_allclose(difference, 0.0, atol=1e-12)

    def test_matrix_diagonal_positive(self, tiny_grid):
        assert np.all(tiny_grid.compile().reduced_matrix.diagonal() > 0)

    def test_rhs_contains_loads_and_pad_contributions(self):
        compiled = voltage_divider(load_current=0.1, r1=1.0, vdd=1.0).compile()
        index = unknown_index(compiled)
        rhs = compiled.rhs()
        # middle node: pad contribution = G1 * vdd = 1.0; sink: -load
        assert rhs[index["middle"]] == pytest.approx(1.0)
        assert rhs[index["sink"]] == pytest.approx(-0.1)

    def test_network_without_pads_raises(self):
        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        with pytest.raises(ValueError):
            BatchedAnalysisEngine().analyze(network)

    def test_full_solution_merges_fixed_and_unknown(self):
        compiled = voltage_divider().compile()
        solution = compiled.voltages_dict(compiled.full_voltages(np.asarray([0.9, 0.7])))
        assert solution["pad"] == pytest.approx(1.0)
        assert set(solution) == {"pad", "middle", "sink"}

    def test_full_solution_shape_check(self):
        compiled = voltage_divider().compile()
        with pytest.raises(ValueError):
            compiled.full_voltages(np.zeros(5))

    def test_ground_resistor_stamped_on_diagonal(self):
        network = voltage_divider()
        network.add_resistor(Resistor(name="Rg", node_a="sink", node_b="0", resistance=10.0))
        compiled = network.compile()
        assert compiled.ground_connected
        sink = unknown_index(compiled)["sink"]
        # diagonal gains 1/10
        plain = voltage_divider().compile()
        assert compiled.reduced_matrix[sink, sink] == pytest.approx(
            plain.reduced_matrix[sink, sink] + 0.1
        )


class TestAnalyticSolutions:
    def test_voltage_divider_solution(self):
        """Series chain: middle = vdd - I*R1, sink = vdd - I*(R1+R2)."""
        network = voltage_divider(load_current=0.1, r1=1.0, r2=2.0, vdd=1.0)
        solution = BatchedAnalysisEngine().analyze(network).node_voltages
        assert solution["middle"] == pytest.approx(1.0 - 0.1 * 1.0)
        assert solution["sink"] == pytest.approx(1.0 - 0.1 * 3.0)

    def test_two_pads_share_load_symmetrically(self):
        """A load fed by two equal resistors from two pads sits at vdd - I*R/2."""
        network = PowerGridNetwork(name="two_pads", vdd=1.0)
        for name in ("p1", "p2", "mid"):
            network.add_node(GridNode(name=name, x=0.0, y=0.0))
        network.add_resistor(Resistor(name="R1", node_a="p1", node_b="mid", resistance=2.0))
        network.add_resistor(Resistor(name="R2", node_a="p2", node_b="mid", resistance=2.0))
        network.add_voltage_source(VoltageSource(name="V1", node="p1", voltage=1.0))
        network.add_voltage_source(VoltageSource(name="V2", node="p2", voltage=1.0))
        network.add_current_source(CurrentSource(name="I1", node="mid", current=0.2))
        solution = BatchedAnalysisEngine().analyze(network).node_voltages
        assert solution["mid"] == pytest.approx(1.0 - 0.2 * 1.0)

    def test_superposition_of_loads(self):
        """Node voltages are linear in the load currents."""
        engine = BatchedAnalysisEngine()
        v_base = engine.analyze(voltage_divider(load_current=0.05)).node_voltages
        v_double = engine.analyze(voltage_divider(load_current=0.10)).node_voltages
        drop_base = 1.0 - v_base["sink"]
        drop_double = 1.0 - v_double["sink"]
        assert drop_double == pytest.approx(2.0 * drop_base)
