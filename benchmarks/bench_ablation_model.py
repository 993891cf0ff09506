"""Ablation benches for the design choices called out in DESIGN.md.

Three ablations beyond the paper's own tables:

* **hidden-layer depth** — the paper fixes 10 hidden layers "obtained by
  hyperparameter optimization"; this bench sweeps the depth and reports the
  validation MSE of each, reproducing that selection process;
* **Kirchhoff estimator vs. full solve** — the accuracy/time trade-off that
  produces the Table IV speedup;
* **feature scaling** — the width model trains on features spanning five
  orders of magnitude, so disabling standardisation should hurt.
"""

from __future__ import annotations

import time

from repro.analysis import BatchedAnalysisEngine
from repro.core import format_table
from repro.grid import GridBuilder
from repro.io import write_csv
from repro.nn import (
    HyperparameterSearch,
    MultiTargetRegressor,
    RegressorConfig,
    SearchSpace,
    TrainingConfig,
)

_QUICK_TRAINING = TrainingConfig(epochs=30, batch_size=128, early_stopping_patience=0, seed=0)


def test_ablation_hidden_layer_depth(benchmark, benchmark_cache, results_dir):
    """Sweep the hidden-layer count (the paper's hyper-parameter search)."""
    prepared = benchmark_cache.get("ibmpg1")
    dataset = prepared.framework.trained.benchmark_dataset.training

    base = RegressorConfig(hidden_layers=2, hidden_width=32, training=_QUICK_TRAINING, seed=0)
    space = SearchSpace(
        hidden_layers=(2, 4, 6, 10), hidden_width=(32,), learning_rate=(1e-3,), batch_size=(128,)
    )
    search = HyperparameterSearch(base, space, validation_fraction=0.25, seed=0)

    result = benchmark.pedantic(
        search.grid_search, args=(dataset.features, dataset.widths), rounds=1, iterations=1
    )

    rows = [
        {
            "hidden_layers": trial.parameters["hidden_layers"],
            "validation_mse": round(trial.validation_mse, 4),
            "validation_r2": round(trial.validation_r2, 3),
            "train_time_s": round(trial.train_time, 2),
        }
        for trial in result.trials
    ]
    print()
    print(format_table(rows, title="Ablation: hidden-layer depth (ibmpg1)"))
    print(f"selected depth: {result.best.parameters['hidden_layers']} (paper uses 10)")
    write_csv(rows, results_dir / "ablation_hidden_layers.csv")

    assert len(result.trials) == 4
    assert all(trial.validation_r2 > 0.5 for trial in result.trials)


def test_ablation_kirchhoff_vs_full_solve(benchmark, benchmark_cache, results_dir):
    """Accuracy/time trade-off of Algorithm 2 against the full MNA solve."""
    rows = []
    for name in ("ibmpg2", "ibmpg6"):
        prepared = benchmark_cache.get(name)
        widths = prepared.nominal_prediction.line_widths

        start = time.perf_counter()
        network = GridBuilder(prepared.benchmark.technology).build(
            prepared.benchmark.floorplan, prepared.benchmark.topology, widths
        )
        full = BatchedAnalysisEngine().analyze(network)
        full_time = time.perf_counter() - start

        estimator = prepared.framework.ir_estimator
        start = time.perf_counter()
        estimate = estimator.predict(
            prepared.benchmark.floorplan, prepared.benchmark.topology, widths
        )
        estimate_time = time.perf_counter() - start

        rows.append(
            {
                "benchmark": name,
                "full_solve_mV": round(full.worst_ir_drop_mv, 1),
                "kirchhoff_mV": round(estimate.worst_ir_drop_mv, 1),
                "full_solve_s": round(full_time, 4),
                "kirchhoff_s": round(estimate_time, 4),
                "time_ratio": round(full_time / max(estimate_time, 1e-9), 1),
            }
        )

    prepared2 = benchmark_cache.get("ibmpg2")
    benchmark(
        prepared2.framework.ir_estimator.predict,
        prepared2.benchmark.floorplan,
        prepared2.benchmark.topology,
        prepared2.nominal_prediction.line_widths,
    )

    print()
    print(format_table(rows, title="Ablation: Kirchhoff estimator vs. full MNA solve"))
    write_csv(rows, results_dir / "ablation_kirchhoff_vs_solve.csv")

    # The estimator must be much faster and land in the same order of magnitude.
    for row in rows:
        assert row["time_ratio"] > 1.0
        assert 1 / 3 <= row["kirchhoff_mV"] / row["full_solve_mV"] <= 3.0


def test_ablation_feature_scaling(benchmark, benchmark_cache, results_dir):
    """Disabling feature/target standardisation degrades the width model."""
    prepared = benchmark_cache.get("ibmpg1")
    dataset = prepared.framework.trained.benchmark_dataset.training
    train, test = dataset.split(test_fraction=0.25, seed=0)

    def fit_and_score(scale):
        config = RegressorConfig(
            hidden_layers=4,
            hidden_width=32,
            training=_QUICK_TRAINING,
            scale_features=scale,
            scale_targets=scale,
            seed=0,
        )
        model = MultiTargetRegressor(config)
        model.fit(train.features, train.widths)
        return model.score(test.features, test.widths)

    scaled_r2 = benchmark.pedantic(fit_and_score, args=(True,), rounds=1, iterations=1)
    unscaled_r2 = fit_and_score(False)

    rows = [
        {"configuration": "with standardisation", "test_r2": round(scaled_r2, 3)},
        {"configuration": "without standardisation", "test_r2": round(unscaled_r2, 3)},
    ]
    print()
    print(format_table(rows, title="Ablation: feature/target standardisation (ibmpg1)"))
    write_csv(rows, results_dir / "ablation_feature_scaling.csv")

    assert scaled_r2 > unscaled_r2
