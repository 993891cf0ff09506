"""Tests for the end-to-end PowerPlanningDL framework (Fig. 2 / Fig. 6)."""

import numpy as np
import pytest

from repro.core import PowerPlanningDL
from repro.core.features import FeatureExtractor
from repro.grid import FloorplanPerturbator, PerturbationKind
from tests.oracle import reference_aggregate, reference_kirchhoff_predict


class TestTraining:
    def test_training_produces_history_and_dataset(self, trained_framework):
        trained = trained_framework.trained
        assert trained.training_history.epochs_run > 0
        assert trained.training_time > 0
        assert trained.benchmark_dataset.golden_plan.converged
        assert trained_framework.is_trained

    def test_trained_property_before_training_raises(self, small_benchmark, fast_regressor_config):
        framework = PowerPlanningDL(small_benchmark.technology, fast_regressor_config)
        assert not framework.is_trained
        with pytest.raises(RuntimeError):
            _ = framework.trained

    def test_training_accuracy_matches_paper_shape(self, trained_framework):
        """Table V reports r2 > 0.93 on the training benchmarks."""
        metrics = trained_framework.evaluate(
            trained_framework.trained.benchmark_dataset.training
        )
        assert metrics.r2 > 0.85
        assert metrics.correlation > 0.9


class TestPrediction:
    def test_predict_design_structure(self, trained_framework, small_benchmark):
        predicted = trained_framework.predict_design(
            small_benchmark.floorplan, small_benchmark.topology
        )
        assert predicted.line_widths.shape == (small_benchmark.topology.num_lines,)
        assert predicted.convergence_time > 0
        assert predicted.ir_drop.worst_ir_drop > 0
        assert predicted.name == small_benchmark.floorplan.name

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_predict_design_matches_oracles(self, trained_framework, small_benchmark, seed):
        """Widths and Algorithm 2 equal the per-line loops bitwise, on the
        nominal floorplan and on perturbed ones."""
        floorplan = small_benchmark.floorplan
        if seed is not None:
            spec = trained_framework.default_perturbation(gamma=0.2)
            spec = type(spec)(gamma=spec.gamma, kind=spec.kind, seed=seed)
            floorplan = FloorplanPerturbator(spec).perturb(floorplan)
        topology = small_benchmark.topology
        predicted = trained_framework.predict_design(floorplan, topology)

        width_predictor = trained_framework.width_predictor
        _, _, line_ids = FeatureExtractor(floorplan, topology).feature_matrix()
        expected_widths = reference_aggregate(
            predicted.width_result.sample_widths,
            line_ids,
            topology.num_lines,
            width_predictor.aggregation,
            width_predictor.rules,
        )
        assert np.array_equal(predicted.line_widths, expected_widths)

        expected = reference_kirchhoff_predict(
            trained_framework.ir_estimator, floorplan, topology, expected_widths
        )
        assert np.array_equal(predicted.ir_drop.line_ir_drop, expected.line_ir_drop)
        for drops, reference in zip(predicted.ir_drop.segment_ir_drop, expected.segment_ir_drop):
            assert np.array_equal(drops, reference)
        assert predicted.ir_drop.worst_ir_drop == expected.worst_ir_drop
        assert predicted.ir_drop.worst_line == expected.worst_line

    def test_prediction_faster_than_conventional_flow(self, trained_framework, small_benchmark):
        """The DL path must beat the conventional flow (Table IV's claim).

        Compared against the full flow rather than a single analyse step:
        since the planner's rebuild-free compiled loop, one conventional
        step on a toy grid is down to a couple of milliseconds and no
        longer a meaningful bar.
        """
        golden = trained_framework.trained.benchmark_dataset.golden_plan
        predicted = trained_framework.predict_design(
            small_benchmark.floorplan, small_benchmark.topology
        )
        assert predicted.convergence_time < golden.total_time

    def test_predicted_widths_track_golden(self, trained_framework):
        golden_plan = trained_framework.trained.benchmark_dataset.golden_plan
        predicted = trained_framework.predict_design(
            trained_framework.trained.benchmark_dataset.benchmark.floorplan,
            trained_framework.trained.benchmark_dataset.benchmark.topology,
        )
        correlation = np.corrcoef(predicted.line_widths, golden_plan.widths)[0, 1]
        assert correlation > 0.7

    def test_predicted_worst_drop_same_order_as_golden(self, trained_framework):
        golden_plan = trained_framework.trained.benchmark_dataset.golden_plan
        benchmark = trained_framework.trained.benchmark_dataset.benchmark
        predicted = trained_framework.predict_design(benchmark.floorplan, benchmark.topology)
        ratio = predicted.ir_drop.worst_ir_drop / golden_plan.ir_result.worst_ir_drop
        assert 1 / 3 <= ratio <= 3.0


class TestPerturbationFlow:
    def test_predict_for_perturbation(self, trained_framework, small_benchmark):
        spec = trained_framework.default_perturbation(gamma=0.10)
        predicted, test_dataset, perturbed_plan = trained_framework.predict_for_perturbation(
            small_benchmark, spec
        )
        assert test_dataset.num_samples > 0
        assert perturbed_plan.converged
        metrics = trained_framework.evaluate(test_dataset)
        assert metrics.r2 > 0.6
        assert metrics.num_interconnects == test_dataset.num_interconnects

    def test_mse_grows_with_perturbation_size(self, trained_framework, small_benchmark):
        """Fig. 9: prediction MSE increases with gamma."""
        mses = []
        for gamma in (0.10, 0.30):
            spec = trained_framework.default_perturbation(gamma=gamma)
            _, test_dataset, _ = trained_framework.predict_for_perturbation(small_benchmark, spec)
            mses.append(trained_framework.evaluate(test_dataset).mse)
        assert mses[1] > mses[0]

    def test_default_perturbation_spec(self, trained_framework):
        spec = trained_framework.default_perturbation()
        assert spec.gamma == pytest.approx(0.10)
        assert spec.kind is PerturbationKind.BOTH


class TestEvaluation:
    def test_metrics_fields_consistent(self, trained_framework):
        dataset = trained_framework.trained.benchmark_dataset.training
        metrics = trained_framework.evaluate(dataset)
        assert metrics.dataset_name == dataset.name
        assert 0 <= metrics.mse_percent
        assert -1.0 <= metrics.correlation <= 1.0
