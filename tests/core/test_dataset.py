"""Tests for dataset preparation (training + perturbed test sets)."""

import numpy as np
import pytest

from repro.core import DatasetBuilder, RegressionDataset
from repro.design import ConventionalPowerPlanner
from repro.grid import PerturbationKind, PerturbationSpec


class TestRegressionDataset:
    def make(self, samples=20, num_lines=8):
        rng = np.random.default_rng(0)
        return RegressionDataset(
            name="unit",
            features=rng.normal(size=(samples, 3)),
            widths=rng.uniform(1, 5, size=(samples, 2)),
            line_ids=np.column_stack(
                [rng.integers(0, 4, samples), rng.integers(4, num_lines, samples)]
            ),
            num_lines=num_lines,
        )

    def test_counts(self):
        dataset = self.make(samples=20)
        assert dataset.num_samples == 20
        assert dataset.num_interconnects == 40

    def test_split_partitions_samples(self):
        dataset = self.make(samples=50)
        train, test = dataset.split(test_fraction=0.2, seed=1)
        assert train.num_samples + test.num_samples == 50
        assert test.num_samples == 10

    def test_split_invalid_fraction(self):
        dataset = self.make()
        with pytest.raises(ValueError):
            dataset.split(test_fraction=0.0)
        with pytest.raises(ValueError):
            dataset.split(test_fraction=1.0)

    def test_subset_by_vertical_lines(self):
        dataset = self.make(samples=40)
        subset = dataset.subset_by_vertical_lines([0, 1])
        assert set(np.unique(subset.line_ids[:, 0])) <= {0, 1}

    def test_line_ids_must_address_lines(self):
        for bad in (-1, 4):
            line_ids = np.zeros((5, 2), dtype=int)
            line_ids[2, 1] = bad
            with pytest.raises(ValueError, match="line_ids"):
                RegressionDataset(
                    name="bad",
                    features=np.zeros((5, 3)),
                    widths=np.zeros((5, 2)),
                    line_ids=line_ids,
                    num_lines=4,
                )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RegressionDataset(
                name="bad",
                features=np.zeros((5, 3)),
                widths=np.zeros((4, 2)),
                line_ids=np.zeros((5, 2), dtype=int),
                num_lines=4,
            )
        with pytest.raises(ValueError):
            RegressionDataset(
                name="bad",
                features=np.zeros((5, 3)),
                widths=np.zeros((5, 3)),
                line_ids=np.zeros((5, 2), dtype=int),
                num_lines=4,
            )


class TestDatasetBuilder:
    def test_training_dataset_matches_benchmark(self, small_dataset, small_benchmark):
        training = small_dataset.training
        crossings = (
            small_benchmark.topology.num_vertical * small_benchmark.topology.num_horizontal
        )
        assert training.num_samples == crossings
        assert training.num_lines == small_benchmark.topology.num_lines
        assert not np.any(np.isnan(training.widths))

    def test_training_widths_come_from_golden_plan(self, small_dataset):
        golden_widths = small_dataset.golden_plan.widths
        training = small_dataset.training
        np.testing.assert_allclose(
            training.widths[:, 0], golden_widths[training.line_ids[:, 0]]
        )
        np.testing.assert_allclose(
            training.widths[:, 1], golden_widths[training.line_ids[:, 1]]
        )

    def test_perturbed_test_current_kind_changes_features(self, small_benchmark):
        builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
        nominal = builder.build_training(small_benchmark).training
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.CURRENT_WORKLOADS, seed=3)
        test, perturbed_floorplan, plan = builder.build_perturbed_test(small_benchmark, spec)
        assert test.num_samples == nominal.num_samples
        # Switching-current features must have changed, coordinates must not.
        assert not np.allclose(test.features[:, 2], nominal.features[:, 2])
        np.testing.assert_allclose(test.features[:, :2], nominal.features[:, :2])
        assert plan.converged

    def test_perturbed_test_voltage_kind_scales_labels(self, small_benchmark):
        builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
        nominal = builder.build_training(small_benchmark).training
        spec = PerturbationSpec(gamma=0.2, kind=PerturbationKind.NODE_VOLTAGES, seed=3)
        test, _, _ = builder.build_perturbed_test(small_benchmark, spec)
        # Features unchanged, labels jittered within the 1/(1 +/- gamma) band.
        np.testing.assert_allclose(test.features, nominal.features)
        ratio = nominal.widths / test.widths
        assert np.all(ratio >= 1.0 - spec.gamma - 1e-9)
        assert np.all(ratio <= 1.0 + spec.gamma + 1e-9)
        assert not np.allclose(test.widths, nominal.widths)

    def test_larger_gamma_moves_labels_further(self, small_benchmark):
        builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
        nominal = builder.build_training(small_benchmark).training
        deviations = []
        for gamma in (0.1, 0.3):
            spec = PerturbationSpec(gamma=gamma, kind=PerturbationKind.BOTH, seed=3)
            test, _, _ = builder.build_perturbed_test(small_benchmark, spec)
            deviations.append(float(np.mean(np.abs(test.widths - nominal.widths))))
        assert deviations[1] > deviations[0]

    def test_default_planner_created_when_omitted(self, small_benchmark):
        builder = DatasetBuilder()
        planner = builder.planner_for(small_benchmark)
        assert planner.technology is small_benchmark.technology


class TestPerturbedSweep:
    """build_perturbed_sweep must reproduce build_perturbed_test with fewer plans."""

    SPECS = [
        PerturbationSpec(gamma=gamma, kind=kind, seed=int(gamma * 1000))
        for gamma in (0.10, 0.20)
        for kind in PerturbationKind
    ]

    def test_sweep_matches_per_spec_path(self, small_benchmark):
        per_spec_builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
        swept_builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
        swept = swept_builder.build_perturbed_sweep(small_benchmark, self.SPECS)
        assert len(swept) == len(self.SPECS)
        for spec, (dataset, floorplan, plan) in zip(self.SPECS, swept):
            reference, ref_floorplan, ref_plan = per_spec_builder.build_perturbed_test(
                small_benchmark, spec
            )
            assert dataset.name == reference.name
            assert floorplan.name == ref_floorplan.name
            assert np.array_equal(dataset.features, reference.features)
            assert np.array_equal(dataset.widths, reference.widths)
            assert np.array_equal(plan.widths, ref_plan.widths)

    def test_sweep_dedupes_golden_plans(self, small_benchmark):
        builder = DatasetBuilder(ConventionalPowerPlanner(small_benchmark.technology))
        swept = builder.build_perturbed_sweep(small_benchmark, self.SPECS)
        plans = [plan for _, _, plan in swept]
        # 6 specs collapse onto 3 golden plans: one nominal (NODE_VOLTAGES)
        # plus one per gamma (shared by CURRENT_WORKLOADS and BOTH).
        assert len({id(plan) for plan in plans}) == 3
