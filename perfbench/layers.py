"""Layer boundaries the traced run wraps, and the per-layer metrics.

Every span is installed from here around a public call of one program
module; the metric names carry the module's name.  Self time is a
span's duration minus that of its child spans, so a layer that calls
into another (the planner into the engine, the engine into the solver)
only reports its own work.
"""

from __future__ import annotations

from collections import Counter

from spans import Tracer

SINK_NAMES = {
    "QuantileSketchSink": "sketch",
    "NodeHistogramSink": "histogram",
    "ExceedanceCountSink": "exceedance",
    "JointExceedanceSink": "joint",
    "TopKScenarioSink": "topk",
}
"""Metric name of each sink class the mega-sweep attaches."""

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("analysis.solvers.solve.self_ms", "ms", "lower"),
    ("analysis.solvers.solve.columns", "count", "lower"),
    ("analysis.solvers.factor.calls", "count", "lower"),
    ("analysis.solvers.factor.self_ms", "ms", "lower"),
    ("analysis.solvers.update_solve.self_ms", "ms", "lower"),
    ("analysis.engine.cache.hits", "count", "higher"),
    ("analysis.engine.cache.updates", "count", "higher"),
    ("analysis.engine.cache.update_fallbacks", "count", "lower"),
    ("analysis.engine.cache.update_ratio", "ratio", "higher"),
    ("analysis.engine.sweep.self_ms", "ms", "lower"),
    ("analysis.engine.source.self_ms", "ms", "lower"),
    ("analysis.engine.solve_voltages.calls", "count", "lower"),
    ("analysis.engine.solve_voltages.self_ms", "ms", "lower"),
    ("grid.rhs_matrix.self_ms", "ms", "lower"),
    ("grid.full_voltages.self_ms", "ms", "lower"),
    ("grid.build_compiled.self_ms", "ms", "lower"),
    ("grid.resize_compiled.calls", "count", "lower"),
    ("grid.resize_compiled.self_ms", "ms", "lower"),
    *((f"analysis.sinks.{name}.consume_ms", "ms", "lower") for name in SINK_NAMES.values()),
    ("analysis.sinks.merge_ms", "ms", "lower"),
    ("analysis.executors.execute.wall_ms", "ms", "lower"),
    ("analysis.executors.shards", "count", "higher"),
    ("analysis.executors.threads_per_shard", "count", "higher"),
    ("analysis.executors.tasks", "count", "lower"),
    ("analysis.executors.rebalances", "count", "lower"),
    ("analysis.executors.payload_bytes_shared", "bytes", "lower"),
    ("analysis.executors.efficiency", "ratio", "higher"),
    ("analysis.executors.child_peak_rss_mb", "MB", "lower"),
    ("analysis.em.check_voltages.self_ms", "ms", "lower"),
    ("design.planner.iterations", "count", "lower"),
    ("design.planner.self_ms", "ms", "lower"),
    ("design.search.candidates_generated", "count", "lower"),
    ("design.search.candidates_solved", "count", "lower"),
    ("design.search.moves_committed", "count", "lower"),
    ("design.search.commit_ratio", "ratio", "higher"),
    ("design.sizing.size.self_ms", "ms", "lower"),
    ("core.features.self_ms", "ms", "lower"),
    ("nn.predict.self_ms", "ms", "lower"),
    ("core.width_model.self_ms", "ms", "lower"),
    ("core.kirchhoff.self_ms", "ms", "lower"),
    ("nn.fit.self_s", "s", "lower"),
    ("core.dataset.build_training.self_s", "s", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)
"""(name, unit, better) of every per-layer metric, in report order."""


def _count_columns(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    rhs = args[1]
    counts["analysis.solvers.solve.columns"] += rhs.shape[1] if rhs.ndim == 2 else 1


def _count_executor(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    stats = args[0].last_stats
    for key in ("tasks", "rebalances", "payload_bytes_shared"):
        counts[f"analysis.executors.{key}"] += stats.get(key, 0)
    for key in ("shards", "threads_per_shard"):
        name = f"analysis.executors.{key}"
        counts[name] = max(counts[name], stats.get(key, 0))


def _count_plan(counts: Counter, args: tuple, kwargs: dict, plan) -> None:
    counts["design.planner.iterations"] += plan.num_iterations
    if plan.search is not None:
        for key in ("candidates_generated", "candidates_solved", "moves_committed"):
            counts[f"design.search.{key}"] += getattr(plan.search, key)


def register(tracer: Tracer) -> None:
    """Register a wrapper at every layer boundary the benchmark measures."""
    from repro.analysis import em, engine, executors, sinks, solvers
    from repro.core import dataset, features, irdrop_model, width_model
    from repro.design import planner, sizing
    from repro.grid import builder, compiled
    from repro.nn import regression

    wrap = tracer.wrap
    wrap(solvers.SpluBackend, "factor", "analysis.solvers.factor")
    wrap(solvers.SpluFactorization, "solve", "analysis.solvers.solve", _count_columns)
    for update in (solvers.WoodburyFactorization, solvers.PreconditionedUpdateFactorization):
        wrap(update, "solve", "analysis.solvers.update_solve")
    engine_cls = engine.BatchedAnalysisEngine
    wrap(engine_cls, "analyze_mega_sweep", "analysis.engine.sweep")
    wrap(engine_cls, "solve_voltages", "analysis.engine.solve_voltages")
    wrap(engine.CrossProductScenarioSource, "__call__", "analysis.engine.source")
    grid_cls = compiled.CompiledGrid
    wrap(grid_cls, "rhs_matrix", "grid.rhs_matrix")
    wrap(grid_cls, "full_voltages", "grid.full_voltages")
    # Pad vectors built inside rhs_matrix are RHS assembly; the ones the
    # chunk pipeline builds for the voltage expansion are not.
    wrap(
        grid_cls,
        "pad_voltage_vectors",
        lambda args: None if tracer.current() == "grid.rhs_matrix" else "grid.full_voltages",
    )
    wrap(builder.GridBuilder, "build_compiled", "grid.build_compiled")
    wrap(builder.GridBuilder, "resize_compiled", "grid.resize_compiled")
    wrap(
        sinks.IRDropSink,
        "consume_drop_rows",
        lambda args: f"analysis.sinks.{SINK_NAMES.get(type(args[0]).__name__, 'other')}.consume",
    )
    for name in SINK_NAMES:
        wrap(getattr(sinks, name), "merge", "analysis.sinks.merge")
    wrap(executors.HybridExecutor, "execute", "analysis.executors.execute", _count_executor)
    wrap(em.EMChecker, "check_voltages", "analysis.em.check_voltages")
    wrap(planner.ConventionalPowerPlanner, "plan", "design.planner", _count_plan)
    wrap(sizing.AnalyticalSizer, "size", "design.sizing.size")
    wrap(features.FeatureExtractor, "feature_matrix", "core.features")
    wrap(regression.MultiTargetRegressor, "predict", "nn.predict")
    wrap(width_model.WidthPredictor, "predict_design", "core.width_model")
    wrap(width_model.WidthPredictor, "fit", "nn.fit")
    wrap(irdrop_model.KirchhoffIRDropEstimator, "predict", "core.kirchhoff")
    wrap(dataset.DatasetBuilder, "build_training", "core.dataset.build_training")


def count_engine(counts: Counter, engine) -> None:
    """Fold one engine's cache counters in at the end of an op."""
    info = engine.cache_info()
    counts["analysis.engine.cache.hits"] += info.hits
    counts["analysis.engine.cache.updates"] += info.updates
    counts["analysis.engine.cache.update_fallbacks"] += info.update_fallbacks
    counts["analysis.engine.cache.factorizations"] += info.factorizations


def metrics(
    tracer: Tracer,
    setup_tracer: Tracer,
    efficiency: float,
    child_peak_rss_mb: float,
    overhead_ms: float,
    overhead_pct: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced run.

    ``tracer`` saw the traced ops; ``setup_tracer`` the traced set-up,
    which only the two set-up metrics are taken from.
    """
    totals = tracer.totals()
    setup_totals = setup_tracer.totals()
    counts = tracer.counts

    def self_ms(name: str, source: dict = totals) -> float:
        return source.get(name, {}).get("self_ns", 0) / 1e6

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = {
        "analysis.solvers.factor.calls": calls("analysis.solvers.factor"),
        "analysis.engine.solve_voltages.calls": calls("analysis.engine.solve_voltages"),
        "grid.resize_compiled.calls": calls("grid.resize_compiled"),
        "analysis.sinks.merge_ms": self_ms("analysis.sinks.merge"),
        "analysis.executors.execute.wall_ms": (
            totals.get("analysis.executors.execute", {}).get("wall_ns", 0) / 1e6
        ),
        "analysis.executors.efficiency": efficiency,
        "analysis.executors.child_peak_rss_mb": child_peak_rss_mb,
        "analysis.engine.cache.update_ratio": ratio(
            counts["analysis.engine.cache.updates"],
            counts["analysis.engine.cache.updates"]
            + counts["analysis.engine.cache.factorizations"],
        ),
        "design.search.commit_ratio": ratio(
            counts["design.search.moves_committed"], counts["design.search.candidates_solved"]
        ),
        "nn.fit.self_s": self_ms("nn.fit", setup_totals) / 1e3,
        "core.dataset.build_training.self_s": (
            self_ms("core.dataset.build_training", setup_totals) / 1e3
        ),
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": overhead_pct,
    }
    for name in SINK_NAMES.values():
        values[f"analysis.sinks.{name}.consume_ms"] = self_ms(f"analysis.sinks.{name}.consume")
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".self_ms"):
            values[name] = self_ms(name[: -len(".self_ms")])
        else:
            values[name] = counts[name]
    return values
