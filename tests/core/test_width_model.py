"""Tests for the width predictor (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core import WidthPredictor
from repro.design import DesignRules
from repro.nn import RegressorConfig, TrainingConfig
from tests.oracle import reference_aggregate


@pytest.fixture(scope="module")
def fitted_predictor(small_dataset, small_benchmark):
    config = RegressorConfig(
        hidden_layers=3,
        hidden_width=24,
        training=TrainingConfig(epochs=80, batch_size=64, early_stopping_patience=0, seed=0),
        seed=0,
    )
    rules = DesignRules.from_technology(small_benchmark.technology)
    predictor = WidthPredictor(config=config, rules=rules)
    predictor.fit(small_dataset.training)
    return predictor


class TestTraining:
    def test_fit_records_time_and_history(self, fitted_predictor):
        assert fitted_predictor.is_fitted
        assert fitted_predictor.training_time > 0

    def test_training_accuracy_is_high(self, fitted_predictor, small_dataset):
        metrics = fitted_predictor.evaluate(small_dataset.training)
        assert metrics["r2_score"] > 0.8
        assert metrics["mse"] < 5.0

    def test_fit_rejects_unlabeled_dataset(self, small_dataset):
        predictor = WidthPredictor(config=RegressorConfig.fast(epochs=1))
        unlabeled = small_dataset.training
        broken = type(unlabeled)(
            name="broken",
            features=unlabeled.features,
            widths=np.full_like(unlabeled.widths, np.nan),
            line_ids=unlabeled.line_ids,
            num_lines=unlabeled.num_lines,
        )
        with pytest.raises(ValueError):
            predictor.fit(broken)

    def test_invalid_aggregation_rejected(self):
        with pytest.raises(ValueError):
            WidthPredictor(aggregation="geometric")


class TestPrediction:
    def test_sample_predictions_are_positive_and_legal(
        self, fitted_predictor, small_dataset, small_benchmark
    ):
        predictions = fitted_predictor.predict_samples(small_dataset.training.features)
        rules = DesignRules.from_technology(small_benchmark.technology)
        assert predictions.shape == small_dataset.training.widths.shape
        assert np.all(predictions >= rules.min_width - 1e-9)

    def test_predict_dataset_aggregates_per_line(
        self, fitted_predictor, small_dataset, small_benchmark
    ):
        result = fitted_predictor.predict_dataset(small_dataset.training)
        assert result.line_widths.shape == (small_benchmark.topology.num_lines,)
        assert result.prediction_time > 0
        rules = DesignRules.from_technology(small_benchmark.technology)
        assert np.all(result.line_widths >= rules.min_width - 1e-9)
        assert np.all(result.line_widths <= rules.max_width + 1e-9)

    def test_predicted_line_widths_close_to_golden(self, fitted_predictor, small_dataset):
        result = fitted_predictor.predict_dataset(small_dataset.training)
        golden = small_dataset.golden_plan.widths
        correlation = np.corrcoef(result.line_widths, golden)[0, 1]
        assert correlation > 0.7

    def test_predict_design_from_floorplan(self, fitted_predictor, small_benchmark):
        result = fitted_predictor.predict_design(
            small_benchmark.floorplan, small_benchmark.topology
        )
        assert result.line_widths.shape == (small_benchmark.topology.num_lines,)
        assert result.sample_widths.shape[1] == 2

    def test_aggregation_modes(self, small_dataset, small_benchmark):
        config = RegressorConfig.fast(epochs=5)
        results = {}
        for mode in ("median", "mean", "max"):
            predictor = WidthPredictor(config=config, aggregation=mode)
            predictor.fit(small_dataset.training)
            results[mode] = predictor.predict_dataset(small_dataset.training).line_widths
        # max aggregation can never be below the median aggregation
        assert np.all(results["max"] >= results["median"] - 1e-9)


def _random_samples(seed, num_lines=12, num_samples=60):
    """Predictions keyed by random line ids: some lines get none, values
    repeat so runs hold ties."""
    rng = np.random.default_rng(seed)
    num_vertical = num_lines // 2
    line_ids = np.column_stack(
        [
            rng.integers(0, num_vertical - 1, num_samples),
            rng.integers(num_vertical, num_lines - 1, num_samples),
        ]
    )
    sample_widths = np.round(rng.uniform(0.5, 9.0, (num_samples, 2)), 1)
    return sample_widths, line_ids, num_lines


class TestAggregationOracle:
    """The one-layout aggregation reproduces the per-line mask scan."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("with_rules", [False, True])
    @pytest.mark.parametrize("aggregation", ["median", "max"])
    def test_median_and_max_bitwise(self, small_benchmark, seed, with_rules, aggregation):
        sample_widths, line_ids, num_lines = _random_samples(seed)
        rules = DesignRules.from_technology(small_benchmark.technology) if with_rules else None
        predictor = WidthPredictor(RegressorConfig.fast(epochs=1), rules, aggregation)
        expected = reference_aggregate(sample_widths, line_ids, num_lines, aggregation, rules)
        assert np.array_equal(predictor._aggregate(sample_widths, line_ids, num_lines), expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_mean_within_rounding(self, seed):
        sample_widths, line_ids, num_lines = _random_samples(seed, num_samples=400)
        predictor = WidthPredictor(RegressorConfig.fast(epochs=1), aggregation="mean")
        expected = reference_aggregate(sample_widths, line_ids, num_lines, "mean")
        actual = predictor._aggregate(sample_widths, line_ids, num_lines)
        np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("aggregation", ["median", "mean", "max"])
    def test_nan_prediction_poisons_only_its_line(self, aggregation):
        sample_widths, line_ids, num_lines = _random_samples(3)
        sample_widths[5, 0] = np.nan
        predictor = WidthPredictor(RegressorConfig.fast(epochs=1), aggregation=aggregation)
        expected = reference_aggregate(sample_widths, line_ids, num_lines, aggregation)
        actual = predictor._aggregate(sample_widths, line_ids, num_lines)
        assert np.isnan(actual[line_ids[5, 0]])
        np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=0.0, equal_nan=True)
