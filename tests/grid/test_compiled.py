"""Tests for the array-backed CompiledGrid layer."""

import numpy as np
import pytest

from repro.grid import (
    GROUND_NODE,
    CompiledGrid,
    CurrentSource,
    GridNode,
    NetworkPerturbator,
    PerturbationKind,
    PerturbationSpec,
    PowerGridNetwork,
    Resistor,
    VoltageSource,
    compile_grid,
)
from tests.oracle import reference_assemble


def awkward_network():
    """A small grid exercising every stamping corner case at once."""
    network = PowerGridNetwork(name="awkward", vdd=1.2)
    for name in ("p1", "p2", "a", "b", "c"):
        network.add_node(GridNode(name=name, x=0.0, y=0.0))
    network.add_voltage_source(VoltageSource(name="V1", node="p1", voltage=1.2))
    network.add_voltage_source(VoltageSource(name="V2", node="p2", voltage=1.1))
    network.add_resistor(Resistor(name="Rpp", node_a="p1", node_b="p2", resistance=1.0))
    network.add_resistor(Resistor(name="Rpa", node_a="p1", node_b="a", resistance=2.0))
    network.add_resistor(Resistor(name="Rab", node_a="a", node_b="b", resistance=3.0))
    network.add_resistor(Resistor(name="Rbc", node_a="b", node_b="c", resistance=4.0))
    network.add_resistor(Resistor(name="Rcp", node_a="c", node_b="p2", resistance=5.0))
    network.add_resistor(Resistor(name="Rg", node_a="b", node_b=GROUND_NODE, resistance=50.0))
    network.add_resistor(Resistor(name="Rgp", node_a="p1", node_b=GROUND_NODE, resistance=60.0))
    network.add_current_source(CurrentSource(name="I1", node="c", current=0.02))
    network.add_current_source(CurrentSource(name="I2", node="c", current=0.01))
    network.add_current_source(CurrentSource(name="Ipad", node="p1", current=0.5))
    return network


class TestCompilation:
    def test_sizes_match_network(self, tiny_grid):
        compiled = compile_grid(tiny_grid)
        stats = tiny_grid.statistics()
        assert compiled.num_nodes == stats.num_nodes
        assert compiled.num_resistors == stats.num_resistors
        assert len(compiled.load_names) == stats.num_loads
        assert compiled.num_unknowns == stats.num_nodes - len(tiny_grid.pad_nodes())

    def test_matrix_matches_reference_assembler(self, tiny_grid):
        compiled = compile_grid(tiny_grid)
        matrix, rhs, unknown = reference_assemble(tiny_grid)
        assert list(compiled.unknown_nodes) == unknown
        np.testing.assert_allclose(
            compiled.reduced_matrix.toarray(), matrix.toarray(), atol=1e-15
        )
        np.testing.assert_allclose(compiled.rhs(), rhs, atol=1e-15)

    def test_corner_cases_match_reference_assembler(self):
        network = awkward_network()
        compiled = compile_grid(network)
        matrix, rhs, unknown = reference_assemble(network)
        assert list(compiled.unknown_nodes) == unknown
        assert compiled.ground_connected
        np.testing.assert_allclose(
            compiled.reduced_matrix.toarray(), matrix.toarray(), atol=1e-15
        )
        np.testing.assert_allclose(compiled.rhs(), rhs, atol=1e-15)

    def test_base_loads_aggregate_per_node(self):
        network = awkward_network()
        compiled = compile_grid(network)
        c = compiled.node_index["c"]
        assert compiled.base_loads[c] == pytest.approx(0.03)
        assert compiled.base_loads[compiled.node_index["p1"]] == pytest.approx(0.5)


class TestCompileCache:
    def test_compile_is_cached(self, tiny_grid):
        assert tiny_grid.compile() is tiny_grid.compile()

    def test_cache_invalidated_by_mutation(self):
        network = awkward_network()
        first = network.compile()
        network.add_node(GridNode(name="extra", x=1.0, y=1.0))
        network.add_resistor(Resistor(name="Rx", node_a="a", node_b="extra", resistance=1.0))
        second = network.compile()
        assert first is not second
        assert second.num_nodes == first.num_nodes + 1

    def test_copy_does_not_share_compiled_form(self):
        network = awkward_network()
        compiled = network.compile()
        clone = network.with_scaled_loads(2.0)
        assert clone.compile() is not compiled
        np.testing.assert_allclose(clone.compile().base_loads, 2.0 * compiled.base_loads)


class TestFingerprint:
    def test_load_change_keeps_fingerprint(self):
        network = awkward_network()
        scaled = network.with_scaled_loads(3.0)
        assert network.compile().fingerprint == scaled.compile().fingerprint

    def test_pad_voltage_change_keeps_fingerprint(self):
        network = awkward_network()
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.NODE_VOLTAGES, seed=7)
        perturbed = NetworkPerturbator(spec).perturb(network)
        assert network.compile().fingerprint == perturbed.compile().fingerprint

    def test_resistance_change_changes_fingerprint(self):
        network = awkward_network()
        other = awkward_network()
        other._resistors = dict(other._resistors)
        other._resistors["Rab"] = Resistor(name="Rab", node_a="a", node_b="b", resistance=3.5)
        other._compiled = None
        assert network.compile().fingerprint != other.compile().fingerprint

    def test_pad_set_change_changes_fingerprint(self):
        network = awkward_network()
        other = awkward_network()
        other.add_voltage_source(VoltageSource(name="V3", node="a", voltage=1.2))
        assert network.compile().fingerprint != other.compile().fingerprint


class TestSolutionHelpers:
    def test_full_voltages_scatters_pads_and_unknowns(self):
        compiled = compile_grid(awkward_network())
        unknown = np.linspace(0.5, 0.7, compiled.num_unknowns)
        full = compiled.full_voltages(unknown)
        assert full.shape == (compiled.num_nodes,)
        assert full[compiled.node_index["p1"]] == pytest.approx(1.2)
        assert full[compiled.node_index["p2"]] == pytest.approx(1.1)
        np.testing.assert_allclose(full[compiled.unknown_sel], unknown)

    def test_full_voltages_batched(self):
        compiled = compile_grid(awkward_network())
        unknown = np.random.default_rng(0).random((compiled.num_unknowns, 4))
        full = compiled.full_voltages(unknown)
        assert full.shape == (compiled.num_nodes, 4)
        for k in range(4):
            np.testing.assert_allclose(full[:, k], compiled.full_voltages(unknown[:, k]))

    def test_rhs_matrix_matches_single_rhs(self):
        compiled = compile_grid(awkward_network())
        rng = np.random.default_rng(3)
        loads = rng.random((5, compiled.num_nodes))
        stacked = compiled.rhs_matrix(loads)
        for k in range(5):
            np.testing.assert_allclose(stacked[:, k], compiled.rhs(loads[k]))

    def test_branch_current_array_obeys_ohms_law(self, tiny_grid):
        compiled = tiny_grid.compile()
        rng = np.random.default_rng(5)
        voltages = rng.random(compiled.num_nodes)
        currents = compiled.branch_current_array(voltages)
        lookup = dict(zip(compiled.node_names, voltages))
        for resistor, current in zip(compiled.resistors, currents):
            va = lookup.get(resistor.node_a, 0.0)
            vb = lookup.get(resistor.node_b, 0.0)
            assert current == pytest.approx((va - vb) / resistor.resistance)

    def test_rhs_rejects_bad_shapes(self):
        compiled = compile_grid(awkward_network())
        with pytest.raises(ValueError):
            compiled.rhs(np.zeros(compiled.num_nodes + 1))
        with pytest.raises(ValueError):
            compiled.rhs_matrix(np.zeros((2, compiled.num_nodes + 1)))

    def test_isinstance_of_compiled_grid(self, tiny_grid):
        assert isinstance(tiny_grid.compile(), CompiledGrid)
