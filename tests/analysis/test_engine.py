"""Tests for the cached-factorization, multi-RHS analysis engine.

The acceptance bar for the engine is strict numerical equivalence with the
independent reference solve of :mod:`tests.oracle` — the legacy
per-resistor stamping plus ``spsolve`` (≤ 1e-9 per node voltage) — plus the
guarantee that a current-only perturbation sweep is served by exactly one
sparse factorization.
"""

import numpy as np
import pytest

from repro.analysis import BatchedAnalysisEngine, VectorlessAnalyzer, uniform_budget
from repro.core import batched_solve_study
from repro.grid import (
    NetworkPerturbator,
    PerturbationKind,
    PerturbationSpec,
    SyntheticIBMSuite,
    perturbed_load_matrix,
)
from tests.oracle import (
    max_voltage_difference,
    reference_analyze,
    reference_vectorless_bound,
    reference_voltages,
)

VOLTAGE_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def ibmpg1_grid():
    """The smallest suite benchmark, built with uniform 5 um stripes."""
    return SyntheticIBMSuite().load("ibmpg1").build_uniform_grid(5.0)


@pytest.fixture(scope="module")
def ibmpg2_grid():
    """A second, larger benchmark grid (half-scale ibmpg2)."""
    return SyntheticIBMSuite(scale=0.5).load("ibmpg2").build_uniform_grid(5.0)


class TestSingleSolveEquivalence:
    @pytest.mark.parametrize("grid_fixture", ["ibmpg1_grid", "ibmpg2_grid"])
    def test_engine_matches_legacy_analyzer(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        reference = reference_analyze(grid)
        engine = BatchedAnalysisEngine().analyze(grid)
        assert max_voltage_difference(reference, engine) <= VOLTAGE_TOLERANCE
        assert engine.worst_ir_drop == pytest.approx(reference.worst_ir_drop, abs=1e-9)
        assert engine.worst_node == reference.worst_node
        assert engine.average_ir_drop == pytest.approx(reference.average_ir_drop, abs=1e-9)

    @pytest.mark.parametrize("grid_fixture", ["ibmpg1_grid", "ibmpg2_grid"])
    def test_load_perturbed_equivalence(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        spec = PerturbationSpec(gamma=0.25, kind=PerturbationKind.CURRENT_WORKLOADS, seed=42)
        perturbed = NetworkPerturbator(spec).perturb(grid)
        reference = reference_analyze(perturbed)
        engine = BatchedAnalysisEngine().analyze(perturbed)
        assert max_voltage_difference(reference, engine) <= VOLTAGE_TOLERANCE

    @pytest.mark.parametrize("grid_fixture", ["ibmpg1_grid", "ibmpg2_grid"])
    def test_pad_perturbed_equivalence(self, grid_fixture, request):
        grid = request.getfixturevalue(grid_fixture)
        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        perturbed = NetworkPerturbator(spec).perturb(grid)
        reference = reference_analyze(perturbed)
        engine = BatchedAnalysisEngine().analyze(perturbed)
        assert max_voltage_difference(reference, engine) <= VOLTAGE_TOLERANCE

    def test_pad_perturbation_reuses_factorization(self, ibmpg1_grid):
        """Pad voltages only enter the RHS, so the factorization is shared."""
        engine = BatchedAnalysisEngine()
        engine.analyze(ibmpg1_grid)
        spec = PerturbationSpec(gamma=0.15, kind=PerturbationKind.NODE_VOLTAGES, seed=17)
        engine.analyze(NetworkPerturbator(spec).perturb(ibmpg1_grid))
        info = engine.cache_info()
        assert info.factorizations == 1
        assert info.hits == 1


class TestBatchedSolve:
    def test_batch_matches_legacy_per_scenario(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=5)
        num_scenarios = 12
        load_matrix = perturbed_load_matrix(ibmpg1_grid, spec, num_scenarios)
        batch = BatchedAnalysisEngine().analyze_batch(ibmpg1_grid, load_matrix)
        compiled = ibmpg1_grid.compile()
        for scenario in range(num_scenarios):
            per_scenario_spec = PerturbationSpec(
                gamma=spec.gamma, kind=spec.kind, seed=spec.seed + scenario
            )
            perturbed = NetworkPerturbator(per_scenario_spec).perturb(ibmpg1_grid)
            expected = compiled.voltage_array(reference_voltages(perturbed))
            difference = np.abs(expected - batch.scenario_voltages(scenario)).max()
            assert difference <= VOLTAGE_TOLERANCE

    def test_sweep_of_50_scenarios_uses_one_factorization(self, ibmpg1_grid):
        """Acceptance criterion: ≥50 current-only scenarios, one factorization."""
        spec = PerturbationSpec(gamma=0.3, kind=PerturbationKind.CURRENT_WORKLOADS, seed=9)
        engine = BatchedAnalysisEngine()
        load_matrix = perturbed_load_matrix(ibmpg1_grid, spec, 50)
        batch = engine.analyze_batch(ibmpg1_grid, load_matrix)
        assert batch.num_scenarios == 50
        assert engine.cache_info().factorizations == 1

        # Solving the scenarios one by one against the same engine must not
        # trigger any further factorization either.
        for scenario in range(0, 50, 10):
            engine.analyze(ibmpg1_grid, loads=load_matrix[scenario])
        info = engine.cache_info()
        assert info.factorizations == 1
        assert info.hits >= 5

    def test_batch_results_materialise_consistently(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.1, kind=PerturbationKind.CURRENT_WORKLOADS, seed=3)
        load_matrix = perturbed_load_matrix(ibmpg1_grid, spec, 4)
        batch = BatchedAnalysisEngine().analyze_batch(
            ibmpg1_grid, load_matrix, names=[f"s{i}" for i in range(4)]
        )
        result = batch.result(2)
        assert result.network_name == "s2"
        assert result.worst_ir_drop == pytest.approx(float(batch.worst_ir_drop[2]))
        assert result.node_ir_drop[result.worst_node] == pytest.approx(result.worst_ir_drop)
        assert result.vdd == ibmpg1_grid.vdd
        drops = np.asarray(list(result.node_ir_drop.values()))
        assert result.average_ir_drop == pytest.approx(drops.mean())

    def test_batch_rejects_bad_inputs(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        with pytest.raises(ValueError):
            engine.analyze_batch(ibmpg1_grid, np.zeros(ibmpg1_grid.compile().num_nodes))
        with pytest.raises(ValueError):
            engine.analyze_batch(
                ibmpg1_grid,
                np.zeros((2, ibmpg1_grid.compile().num_nodes)),
                names=["only-one"],
            )
        with pytest.raises(ValueError, match="at least one scenario"):
            engine.analyze_batch(
                ibmpg1_grid, np.zeros((0, ibmpg1_grid.compile().num_nodes))
            )

    def test_factorization_reused_flag(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        loads = np.tile(ibmpg1_grid.compile().base_loads, (2, 1))
        first = engine.analyze_batch(ibmpg1_grid, loads)
        second = engine.analyze_batch(ibmpg1_grid, loads)
        assert not first.factorization_reused
        assert second.factorization_reused


class TestCGFallback:
    """Above direct_size_limit the engine solves by memory-lean
    preconditioned CG instead of a cached LU factorization."""

    def test_large_system_falls_back_to_cg(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine(direct_size_limit=10)
        reference = reference_analyze(ibmpg1_grid)
        result = engine.analyze(ibmpg1_grid)
        assert result.solver_method == "cg"
        assert result.solver_iterations > 0
        assert engine.cache_info().factorizations == 0
        assert max_voltage_difference(reference, result) <= 1e-6

    def test_cg_fallback_batch(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine(direct_size_limit=10)
        loads = np.tile(ibmpg1_grid.compile().base_loads, (3, 1))
        batch = engine.analyze_batch(ibmpg1_grid, loads)
        assert batch.num_scenarios == 3
        assert not batch.factorization_reused
        assert engine.cache_info().factorizations == 0
        expected = ibmpg1_grid.compile().voltage_array(reference_voltages(ibmpg1_grid))
        for scenario in range(3):
            assert np.abs(batch.scenario_voltages(scenario) - expected).max() <= 1e-6

    def test_invalid_direct_size_limit_rejected(self):
        with pytest.raises(ValueError):
            BatchedAnalysisEngine(direct_size_limit=0)


class TestCacheManagement:
    def test_lru_eviction(self, ibmpg1_grid, ibmpg2_grid):
        engine = BatchedAnalysisEngine(cache_size=1)
        engine.analyze(ibmpg1_grid)
        engine.analyze(ibmpg2_grid)
        engine.analyze(ibmpg1_grid)
        info = engine.cache_info()
        assert info.factorizations == 3
        assert info.entries == 1

    def test_clear_cache(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        engine.analyze(ibmpg1_grid)
        engine.clear_cache()
        assert engine.cache_info().entries == 0
        engine.analyze(ibmpg1_grid)
        assert engine.cache_info().factorizations == 2

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError):
            BatchedAnalysisEngine(cache_size=0)

    def test_network_without_pads_rejected(self):
        from repro.grid import GridNode, PowerGridNetwork

        network = PowerGridNetwork()
        network.add_node(GridNode(name="a", x=0.0, y=0.0))
        with pytest.raises(ValueError):
            BatchedAnalysisEngine().analyze(network)


class TestVectorlessWithEngine:
    def test_batched_vectorless_matches_legacy(self, ibmpg1_grid):
        budget = uniform_budget(ibmpg1_grid, headroom=1.4, utilisation=0.9)
        nominal = reference_analyze(ibmpg1_grid)
        bound = reference_vectorless_bound(ibmpg1_grid, budget)
        batched = VectorlessAnalyzer(BatchedAnalysisEngine()).analyze(ibmpg1_grid, budget)
        assert max_voltage_difference(nominal, batched.nominal_result) <= VOLTAGE_TOLERANCE
        assert max_voltage_difference(bound, batched.bound_result) <= VOLTAGE_TOLERANCE
        pessimism = bound.worst_ir_drop / nominal.worst_ir_drop
        assert batched.pessimism == pytest.approx(pessimism, rel=1e-9)
        assert batched.bound_result.network_name == f"{ibmpg1_grid.name}_vectorless"
        assert batched.bound_result.network_name == bound.network_name

    def test_default_vectorless_uses_one_factorization(self, ibmpg1_grid):
        engine = BatchedAnalysisEngine()
        VectorlessAnalyzer(engine).analyze(ibmpg1_grid, uniform_budget(ibmpg1_grid))
        assert engine.cache_info().factorizations == 1


class TestBatchedSolveStudy:
    def test_study_reports_equivalence_and_single_factorization(self, ibmpg1_grid):
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=1)
        study = batched_solve_study(ibmpg1_grid, spec, num_scenarios=8)
        assert study.num_scenarios == 8
        assert study.batched_factorizations == 1
        assert study.max_voltage_difference <= VOLTAGE_TOLERANCE
        record = study.as_record()
        assert record["benchmark"] == ibmpg1_grid.name
        assert record["speedup"] == pytest.approx(study.speedup)
