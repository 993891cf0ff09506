"""Tests for the conventional iterative power planner (paper Fig. 1)."""

import numpy as np
import pytest

from repro.design import ConventionalPowerPlanner, DesignRules, ReliabilityConstraints


class TestPlanning:
    def test_plan_converges_on_small_benchmark(self, golden_plan):
        assert golden_plan.converged
        assert golden_plan.evaluation.all_satisfied
        assert golden_plan.num_iterations >= 1

    def test_final_design_meets_ir_margin(self, golden_plan, small_benchmark):
        limit = small_benchmark.technology.ir_drop_limit
        assert golden_plan.ir_result.worst_ir_drop <= limit

    def test_final_design_meets_em(self, golden_plan):
        assert golden_plan.em_report.passed

    def test_widths_are_legal(self, golden_plan, small_benchmark):
        rules = DesignRules.from_technology(small_benchmark.technology)
        assert np.all(golden_plan.widths >= rules.min_width - 1e-9)
        assert np.all(golden_plan.widths <= rules.max_width + 1e-9)
        assert golden_plan.widths.shape == (small_benchmark.topology.num_lines,)

    def test_iteration_history_recorded(self, golden_plan):
        assert len(golden_plan.iterations) == golden_plan.num_iterations
        first = golden_plan.iterations[0]
        assert first.analysis_time > 0
        assert first.build_time > 0
        assert first.step_time == pytest.approx(first.analysis_time + first.build_time)

    def test_times_recorded(self, golden_plan):
        assert golden_plan.total_time > 0
        assert golden_plan.analysis_time > 0
        assert golden_plan.analysis_time <= golden_plan.total_time


class TestResizing:
    def test_undersized_start_triggers_resizing(self, small_benchmark):
        planner = ConventionalPowerPlanner(small_benchmark.technology, max_iterations=6)
        rules = DesignRules.from_technology(small_benchmark.technology)
        tiny_widths = np.full(small_benchmark.topology.num_lines, rules.min_width)
        plan = planner.plan(
            small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths
        )
        assert plan.num_iterations > 1
        assert np.any(plan.widths > rules.min_width)
        resized_total = sum(iteration.lines_resized for iteration in plan.iterations)
        assert resized_total > 0

    def test_initial_widths_wrong_length_rejected(self, small_benchmark):
        planner = ConventionalPowerPlanner(small_benchmark.technology)
        with pytest.raises(ValueError):
            planner.plan(
                small_benchmark.floorplan,
                small_benchmark.topology,
                initial_widths=np.asarray([1.0, 2.0]),
            )

    def test_relaxed_constraints_converge_immediately(self, small_benchmark):
        planner = ConventionalPowerPlanner(small_benchmark.technology)
        relaxed = ReliabilityConstraints(
            ir_drop_limit=small_benchmark.technology.vdd,
            jmax=1e3,
            core_width=small_benchmark.floorplan.core_width,
            core_height=small_benchmark.floorplan.core_height,
        )
        plan = planner.plan(
            small_benchmark.floorplan, small_benchmark.topology, constraints=relaxed
        )
        assert plan.converged
        assert plan.num_iterations == 1


class TestCompiledLoopEquivalence:
    """The rebuild-free compiled loop must reproduce the legacy loop exactly."""

    @pytest.fixture(scope="class")
    def plan_pair(self, small_benchmark):
        """Legacy and compiled plans from an undersized start (forces resizes)."""
        rules = DesignRules.from_technology(small_benchmark.technology)
        tiny_widths = np.full(small_benchmark.topology.num_lines, rules.min_width)
        legacy = ConventionalPowerPlanner(
            small_benchmark.technology, max_iterations=6, use_compiled_loop=False
        ).plan(small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths)
        compiled = ConventionalPowerPlanner(
            small_benchmark.technology, max_iterations=6, use_compiled_loop=True
        ).plan(small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths)
        return legacy, compiled

    def test_identical_convergence_history(self, plan_pair):
        legacy, compiled = plan_pair
        assert compiled.num_iterations == legacy.num_iterations
        assert compiled.converged == legacy.converged
        assert compiled.num_iterations > 1  # the undersized start forced resizes
        for legacy_it, compiled_it in zip(legacy.iterations, compiled.iterations):
            assert compiled_it.index == legacy_it.index
            assert compiled_it.lines_resized == legacy_it.lines_resized
            assert compiled_it.em_violations == legacy_it.em_violations
            assert compiled_it.worst_ir_drop == pytest.approx(
                legacy_it.worst_ir_drop, abs=1e-9
            )

    def test_identical_final_widths(self, plan_pair):
        legacy, compiled = plan_pair
        assert np.array_equal(compiled.widths, legacy.widths)

    def test_identical_final_analysis(self, plan_pair):
        legacy, compiled = plan_pair
        assert compiled.ir_result.worst_ir_drop == pytest.approx(
            legacy.ir_result.worst_ir_drop, abs=1e-9
        )
        assert compiled.ir_result.worst_node == legacy.ir_result.worst_node
        assert compiled.em_report.passed == legacy.em_report.passed
        assert compiled.network.statistics() == legacy.network.statistics()

    def test_compiled_loop_records_times(self, plan_pair):
        _, compiled = plan_pair
        assert compiled.total_time > 0
        assert compiled.analysis_time > 0
        for iteration in compiled.iterations:
            assert iteration.analysis_time > 0
            assert iteration.build_time > 0


class TestParameters:
    def test_invalid_parameters_rejected(self, small_benchmark):
        with pytest.raises(ValueError):
            ConventionalPowerPlanner(small_benchmark.technology, max_iterations=0)
        with pytest.raises(ValueError):
            ConventionalPowerPlanner(small_benchmark.technology, upsize_factor=1.0)


class TestIncrementalSolverParity:
    """The compiled loop from an undersized start against the legacy
    rebuild loop, which rebuilds and recompiles the network every
    iteration: identical convergence trajectory, voltages within 1e-9."""

    @pytest.fixture(scope="class")
    def parity_plans(self, small_benchmark):
        rules = DesignRules.from_technology(small_benchmark.technology)
        tiny_widths = np.full(small_benchmark.topology.num_lines, rules.min_width)
        incremental = ConventionalPowerPlanner(small_benchmark.technology, max_iterations=8)
        oracle = ConventionalPowerPlanner(
            small_benchmark.technology, max_iterations=8, use_compiled_loop=False
        )
        plan_inc = incremental.plan(
            small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths
        )
        plan_ora = oracle.plan(
            small_benchmark.floorplan, small_benchmark.topology, initial_widths=tiny_widths
        )
        return incremental, plan_inc, oracle, plan_ora

    def test_one_factorization_per_resize(self, parity_plans):
        incremental, plan_inc, oracle, _ = parity_plans
        assert plan_inc.num_iterations > 1  # the undersized start forces resizes
        resizes = sum(1 for step in plan_inc.iterations if step.lines_resized)
        info = incremental.analyzer.cache_info()
        assert info.updates == 0
        assert info.factorizations == 1 + resizes
        assert info.entries == 1
        assert oracle.analyzer.cache_info().factorizations >= plan_inc.num_iterations

    def test_same_convergence_trajectory(self, parity_plans):
        _, plan_inc, _, plan_ora = parity_plans
        assert plan_inc.converged == plan_ora.converged
        assert plan_inc.num_iterations == plan_ora.num_iterations
        for step_inc, step_ora in zip(plan_inc.iterations, plan_ora.iterations):
            assert step_inc.lines_resized == step_ora.lines_resized
            assert step_inc.worst_ir_drop == pytest.approx(
                step_ora.worst_ir_drop, abs=1e-9
            )

    def test_same_final_design(self, parity_plans):
        _, plan_inc, _, plan_ora = parity_plans
        np.testing.assert_allclose(plan_inc.widths, plan_ora.widths, rtol=0, atol=1e-9)
        assert plan_inc.ir_result.worst_ir_drop == pytest.approx(
            plan_ora.ir_result.worst_ir_drop, abs=1e-9
        )
        assert plan_inc.ir_result.worst_node == plan_ora.ir_result.worst_node
