"""Command-line interface for the PowerPlanningDL reproduction.

Installed as the ``powerplanningdl`` console script, the CLI exposes the
library's main flows to users who do not want to write Python:

* ``generate``  — write a synthetic IBM-style benchmark as a SPICE netlist;
* ``analyze``   — run the conventional static IR-drop analysis on a netlist;
* ``plan``      — run the conventional iterative planner on a benchmark;
* ``train``     — train the PowerPlanningDL width model on a benchmark and
  save it to disk;
* ``predict``   — load a trained model and predict the design (widths +
  IR drop) for a benchmark specification, optionally perturbed by gamma;
* ``sweep``     — stream a pad-voltage × load-perturbation mega-sweep
  through scenario sinks (quantiles, exceedance, top-k) in chunk-bounded
  memory.

All subcommands print human-readable tables and exit non-zero on error, so
they compose with shell scripts and CI jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    EXECUTOR_NAMES,
    SOLVER_NAMES,
    BatchedAnalysisEngine,
    HybridExecutor,
    EMChecker,
    ExceedanceCountSink,
    JointExceedanceSink,
    NodeHistogramSink,
    QuantileSketchSink,
    RemoteExecutor,
    TopKScenarioSink,
)
from .core import PowerPlanningDL, format_key_values, format_table
from .design import CandidateRanker, ConventionalPowerPlanner, DesignRules, SearchConfig
from .grid import (
    PerturbationKind,
    PerturbationSpec,
    SUITE_NAMES,
    SyntheticIBMSuite,
    mega_sweep_matrices,
    read_netlist,
    write_netlist,
)
from .nn import RegressorConfig, TrainingConfig, load_regressor, save_regressor


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="powerplanningdl",
        description=(
            "Reliability-aware power-grid design with deep learning (DATE 2020 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="write a synthetic benchmark netlist")
    generate.add_argument("benchmark", choices=SUITE_NAMES, help="benchmark name")
    generate.add_argument("output", type=Path, help="output SPICE netlist path")
    generate.add_argument(
        "--width", type=float, default=None,
        help="uniform stripe width in um (default: run the conventional sizer)",
    )

    analyze = subparsers.add_parser("analyze", help="static IR-drop analysis of a SPICE netlist")
    analyze.add_argument("netlist", type=Path, help="input SPICE netlist")
    analyze.add_argument("--top", type=int, default=5, help="number of worst nodes to list")

    plan = subparsers.add_parser("plan", help="conventional iterative power planning")
    plan.add_argument("benchmark", choices=SUITE_NAMES, help="benchmark name")
    plan.add_argument("--netlist-out", type=Path, default=None, help="write the sized grid here")
    plan.add_argument(
        "--solver", choices=SOLVER_NAMES, default=None,
        help=(
            "solver backend policy: splu (SuperLU, the default), cholmod "
            "(SPD Cholesky via scikit-sparse; degrades to splu with a "
            "warning when not installed) or auto (cholmod when available). "
            "Unset reads the REPRO_TEST_SOLVER environment"
        ),
    )
    plan.add_argument(
        "--search", action="store_true",
        help=(
            "batched candidate search: each iteration evaluates a batch of "
            "moves (stripe upsizes, pitch-style reinforcement, decap relief) "
            "against the single cached factorization and commits the best"
        ),
    )
    plan.add_argument(
        "--batch-width", type=int, default=12,
        help="candidates generated per search iteration (implies --search)",
    )
    plan.add_argument(
        "--ranker", action="store_true",
        help=(
            "model-guided pruning: run an exact search first, train the NN "
            "candidate ranker on its observed improvements, then re-plan "
            "with the ranker pruning each batch before any solve"
        ),
    )
    plan.add_argument(
        "--min-width-start", action="store_true",
        help=(
            "start every stripe at the legal minimum width instead of the "
            "analytical sizer's estimate, forcing a full resize trajectory "
            "(the search benchmark's protocol)"
        ),
    )
    plan.add_argument(
        "--json-out", type=Path, default=None,
        help="write the plan record (counters included) as JSON here",
    )

    train = subparsers.add_parser("train", help="train the width model on a benchmark")
    train.add_argument("benchmark", choices=SUITE_NAMES, help="benchmark name")
    train.add_argument("model", type=Path, help="output model file (.npz)")
    train.add_argument("--epochs", type=int, default=80, help="training epochs")
    train.add_argument("--hidden-layers", type=int, default=10, help="hidden layers")
    train.add_argument("--hidden-width", type=int, default=32, help="units per hidden layer")

    predict = subparsers.add_parser("predict", help="predict a design with a trained model")
    predict.add_argument("benchmark", choices=SUITE_NAMES, help="benchmark specification")
    predict.add_argument("model", type=Path, help="trained model file (.npz)")
    predict.add_argument("--gamma", type=float, default=0.0, help="perturbation size (0-0.5)")
    predict.add_argument(
        "--verify", action="store_true",
        help="also run the conventional analysis on the predicted design",
    )

    sweep = subparsers.add_parser(
        "sweep", help="streamed pad-voltage x load mega-sweep with scenario sinks"
    )
    sweep.add_argument("benchmark", choices=SUITE_NAMES, help="benchmark name")
    sweep.add_argument("--width", type=float, default=5.0, help="uniform stripe width in um")
    sweep.add_argument(
        "--num-loads", type=int, default=64, help="workload (load-perturbation) scenario rows"
    )
    sweep.add_argument(
        "--num-pads", type=int, default=16, help="supply (pad-voltage) scenario rows"
    )
    sweep.add_argument("--gamma", type=float, default=0.2, help="perturbation size (0-1)")
    sweep.add_argument(
        "--chunk-size", type=int, default=None,
        help="scenarios solved per RHS chunk (default: adaptive from grid size and workers)",
    )
    sweep.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help=(
            "sweep-execution strategy: serial, hybrid (process shards "
            "each running the threaded chunk pipeline, zero-copy "
            "shared-memory payload, cost-based rebalancing) or remote "
            "(range sharded across fleet workers behind a standing "
            "coordinator, see --coordinator). Without it the sweep runs "
            "in-process on --workers solver threads"
        ),
    )
    sweep.add_argument(
        "--shard-workers", type=int, default=None,
        help=(
            "hybrid executor: process shards to fan the scenario range "
            "across (default: auto from the host CPU count, or the "
            "REPRO_HYBRID_SHARD_WORKERS environment)"
        ),
    )
    sweep.add_argument(
        "--threads-per-shard", type=int, default=None,
        help=(
            "hybrid executor: solver threads inside each process shard "
            "(default: auto, or the REPRO_HYBRID_THREADS environment)"
        ),
    )
    sweep.add_argument(
        "--coordinator", default=None, metavar="URL",
        help=(
            "base URL of a standing sweep coordinator (see `python -m "
            "repro.analysis.remote coordinator`); implies --executor "
            "remote. Unset reads the REPRO_REMOTE_COORDINATOR "
            "environment; the remote executor needs one of the two"
        ),
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help=(
            "parallelism: solver threads without --executor (default 1, "
            "or the REPRO_TEST_WORKERS / REPRO_TEST_EXECUTOR "
            "environment), or the worker hint of --executor remote "
            "(default: the host CPU count). Exact results are identical "
            "for any value"
        ),
    )
    sweep.add_argument(
        "--quantiles", default="0.5,0.9,0.99",
        help="comma-separated quantile levels of the worst-drop distribution",
    )
    sweep.add_argument(
        "--threshold-mv", type=float, default=None,
        help="exceedance threshold in mV (default: the nominal worst IR drop)",
    )
    sweep.add_argument("--top-k", type=int, default=5, help="worst scenarios to shortlist")
    sweep.add_argument("--bins", type=int, default=32, help="per-node histogram bins")
    sweep.add_argument(
        "--solver", choices=SOLVER_NAMES, default=None,
        help=(
            "solver backend policy: splu (SuperLU, the default), cholmod "
            "(SPD Cholesky via scikit-sparse; degrades to splu with a "
            "warning when not installed) or auto (cholmod when available). "
            "Unset reads the REPRO_TEST_SOLVER environment"
        ),
    )
    sweep.add_argument("--seed", type=int, default=2020, help="scenario-generation seed")
    sweep.add_argument(
        "--json-out", type=Path, default=None, help="write the sweep record as JSON here"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repo invariant linter (alias for `python -m repro.devtools.lint`)",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        metavar="...",
        help="arguments forwarded verbatim (paths, --format, --select, ...)",
    )
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    bench = SyntheticIBMSuite().load(args.benchmark)
    if args.width is not None:
        network = bench.build_uniform_grid(args.width)
    else:
        plan = ConventionalPowerPlanner(bench.technology).plan(bench.floorplan, bench.topology)
        network = plan.network
    path = write_netlist(network, args.output)
    stats = network.statistics()
    print(
        format_key_values(
            {
                "benchmark": bench.name,
                "netlist": str(path),
                "nodes": stats.num_nodes,
                "resistors": stats.num_resistors,
                "voltage sources": stats.num_sources,
                "current loads": stats.num_loads,
            },
            title="generated netlist",
        )
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if not args.netlist.exists():
        print(f"error: netlist {args.netlist} does not exist", file=sys.stderr)
        return 2
    network = read_netlist(args.netlist)
    result = BatchedAnalysisEngine().analyze(network)
    print(
        format_key_values(
            {
                "netlist": str(args.netlist),
                "nodes": len(network.nodes),
                "worst-case IR drop (mV)": result.worst_ir_drop_mv,
                "average IR drop (mV)": result.average_ir_drop * 1000.0,
                "worst node": result.worst_node,
                "solver": result.solver_method,
                "analysis time (s)": result.analysis_time,
            },
            title="static IR-drop analysis",
        )
    )
    worst = sorted(result.node_ir_drop.items(), key=lambda item: item[1], reverse=True)
    rows = [
        {"node": name, "ir_drop_mV": round(value * 1000.0, 3)}
        for name, value in worst[: max(args.top, 0)]
    ]
    if rows:
        print()
        print(format_table(rows, title=f"{len(rows)} worst nodes"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    bench = SyntheticIBMSuite().load(args.benchmark)
    use_search = args.search or args.ranker
    initial_widths = None
    if args.min_width_start:
        rules = DesignRules.from_technology(bench.technology)
        initial_widths = np.full(bench.topology.num_lines, rules.min_width)
    search_config: SearchConfig | bool = False
    if use_search:
        search_config = SearchConfig(batch_width=args.batch_width)
        if args.ranker:
            # Exact warmup plan generates the ranker's training data (one
            # row per solved candidate); the pruned re-plan then pays
            # solves only for the model's top picks.
            warm_planner = ConventionalPowerPlanner(
                bench.technology,
                solver=args.solver,
                search=SearchConfig(batch_width=args.batch_width),
            )
            warm = warm_planner.plan(
                bench.floorplan,
                bench.topology,
                initial_widths=None if initial_widths is None else initial_widths.copy(),
            )
            features, improvements = warm.search.training_data()
            if features.shape[0] == 0:
                print(
                    "warmup plan converged without solving any candidate; "
                    "running the exact search instead"
                )
            else:
                ranker = CandidateRanker()
                ranker.fit(features, improvements)
                search_config = SearchConfig(
                    batch_width=args.batch_width, ranker=ranker
                )
    planner = ConventionalPowerPlanner(
        bench.technology,
        solver=args.solver,
        search=search_config,
    )
    plan = planner.plan(bench.floorplan, bench.topology, initial_widths=initial_widths)
    cache = planner.analyzer.cache_info()
    values = {
        "benchmark": bench.name,
        "converged": plan.converged,
        "iterations": plan.num_iterations,
        "worst-case IR drop (mV)": plan.ir_result.worst_ir_drop_mv,
        "EM violations": len(plan.em_report.violations),
        "median width (um)": float(np.median(plan.widths)),
        "solver backend": cache.backend,
        "factorizations": cache.factorizations,
        "total time (s)": plan.total_time,
    }
    if plan.search is not None:
        values.update(
            {
                "candidates generated": plan.search.candidates_generated,
                "candidates pruned": plan.search.candidates_pruned,
                "candidates solved": plan.search.candidates_solved,
                "moves committed": plan.search.moves_committed,
                "ranker used": plan.search.ranker_used,
            }
        )
    title = "batched planner search" if plan.search is not None else (
        "conventional power planning"
    )
    print(format_key_values(values, title=title))
    if args.json_out is not None:
        record = {
            "benchmark": bench.name,
            "converged": plan.converged,
            "iterations": plan.num_iterations,
            "worst_ir_drop": plan.ir_result.worst_ir_drop,
            "em_violations": len(plan.em_report.violations),
            "total_time": plan.total_time,
            "analysis_time": plan.analysis_time,
            "backend": cache.backend,
            "factorizations": cache.factorizations,
        }
        if plan.search is not None:
            record["search"] = plan.search.as_record()
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_out, "w") as handle:
            json.dump(record, handle, indent=2)
        print(f"plan record written to {args.json_out}")
    if args.netlist_out is not None:
        write_netlist(plan.network, args.netlist_out)
        print(f"sized netlist written to {args.netlist_out}")
    return 0 if plan.converged else 1


def _cmd_train(args: argparse.Namespace) -> int:
    bench = SyntheticIBMSuite().load(args.benchmark)
    config = RegressorConfig(
        hidden_layers=args.hidden_layers,
        hidden_width=args.hidden_width,
        training=TrainingConfig(
            epochs=args.epochs, batch_size=128, early_stopping_patience=0, seed=0
        ),
        seed=0,
    )
    framework = PowerPlanningDL(bench.technology, config)
    trained = framework.train_on_benchmark(bench)
    metrics = framework.evaluate(trained.benchmark_dataset.training)
    path = save_regressor(framework.width_predictor.regressor, args.model)
    print(
        format_key_values(
            {
                "benchmark": bench.name,
                "training samples": trained.benchmark_dataset.training.num_samples,
                "epochs run": trained.training_history.epochs_run,
                "training r2": metrics.r2,
                "training MSE (um^2)": metrics.mse,
                "training time (s)": trained.training_time,
                "model": str(path),
            },
            title="PowerPlanningDL training",
        )
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if not args.model.exists():
        print(f"error: model {args.model} does not exist", file=sys.stderr)
        return 2
    if not 0 <= args.gamma < 0.5:
        print("error: --gamma must be in [0, 0.5)", file=sys.stderr)
        return 2
    bench = SyntheticIBMSuite().load(args.benchmark)
    framework = PowerPlanningDL(bench.technology)
    framework.width_predictor.regressor = load_regressor(args.model)

    floorplan = bench.floorplan
    if args.gamma > 0:
        from .grid import FloorplanPerturbator

        spec = PerturbationSpec(gamma=args.gamma, kind=PerturbationKind.CURRENT_WORKLOADS, seed=1)
        floorplan = FloorplanPerturbator(spec).perturb(floorplan)

    predicted = framework.predict_design(floorplan, bench.topology)
    summary = {
        "benchmark": bench.name,
        "perturbation gamma": args.gamma,
        "power-grid lines": bench.topology.num_lines,
        "median predicted width (um)": float(np.median(predicted.line_widths)),
        "predicted worst IR drop (mV)": predicted.ir_drop.worst_ir_drop_mv,
        "prediction time (s)": predicted.convergence_time,
    }
    if args.verify:
        from .grid import GridBuilder

        network = GridBuilder(bench.technology).build(
            floorplan, bench.topology, predicted.line_widths
        )
        analysis = BatchedAnalysisEngine().analyze(network)
        em = EMChecker(bench.technology).check(network, analysis)
        summary["verified worst IR drop (mV)"] = analysis.worst_ir_drop_mv
        summary["verified EM violations"] = len(em.violations)
    print(format_key_values(summary, title="PowerPlanningDL prediction"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not 0 <= args.gamma < 1:
        print("error: --gamma must be in [0, 1)", file=sys.stderr)
        return 2
    if args.num_loads < 1 or args.num_pads < 1:
        print("error: --num-loads and --num-pads must be at least 1", file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print("error: --chunk-size must be at least 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.executor == "serial" and args.workers not in (None, 1):
        print("error: --executor serial runs single-threaded; drop --workers", file=sys.stderr)
        return 2
    if args.coordinator is not None and args.executor not in (None, "remote"):
        print("error: --coordinator only applies to --executor remote", file=sys.stderr)
        return 2
    for knob, value in (
        ("--shard-workers", args.shard_workers),
        ("--threads-per-shard", args.threads_per_shard),
    ):
        if value is not None and args.executor != "hybrid":
            print(f"error: {knob} only applies to --executor hybrid", file=sys.stderr)
            return 2
        if value is not None and value < 1:
            print(f"error: {knob} must be at least 1", file=sys.stderr)
            return 2
    if args.executor == "hybrid" and args.workers is not None:
        print(
            "error: the hybrid executor takes --shard-workers and "
            "--threads-per-shard, not --workers",
            file=sys.stderr,
        )
        return 2
    if args.top_k < 1:
        print("error: --top-k must be at least 1", file=sys.stderr)
        return 2
    if args.bins < 1:
        print("error: --bins must be at least 1", file=sys.stderr)
        return 2
    if args.threshold_mv is not None and args.threshold_mv < 0:
        print("error: --threshold-mv must be non-negative", file=sys.stderr)
        return 2
    try:
        quantiles = [float(level) for level in args.quantiles.split(",") if level.strip()]
        # Validates the levels (range, ascending, non-empty).
        quantile_sink = QuantileSketchSink(quantiles)
    except ValueError as exc:
        print(f"error: invalid --quantiles {args.quantiles!r}: {exc}", file=sys.stderr)
        return 2

    executor = args.executor
    if args.coordinator is not None or args.executor == "remote":
        try:
            executor = RemoteExecutor(workers=args.workers, coordinator=args.coordinator)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.executor == "hybrid":
        # Built here (instead of resolved by name inside the engine) so the
        # per-sweep observability counters in `last_stats` can be read back
        # into the summary and the JSON record below.
        executor = HybridExecutor(
            shard_workers=args.shard_workers, threads_per_shard=args.threads_per_shard
        )

    bench = SyntheticIBMSuite().load(args.benchmark)
    grid = bench.build_uniform_grid(args.width)
    engine = BatchedAnalysisEngine(solver=args.solver)
    nominal = engine.analyze(grid)
    threshold = (
        args.threshold_mv / 1000.0 if args.threshold_mv is not None else nominal.worst_ir_drop
    )
    load_matrix, pad_matrix = mega_sweep_matrices(
        grid, bench.floorplan, args.gamma, args.num_loads, args.num_pads, seed=args.seed
    )
    histogram_sink = NodeHistogramSink.uniform(
        0.0, max(2.0 * nominal.worst_ir_drop, 1e-6), args.bins
    )
    exceedance_sink = ExceedanceCountSink(threshold)
    joint_sink = JointExceedanceSink(threshold)
    topk_sink = TopKScenarioSink(args.top_k)
    result = engine.analyze_mega_sweep(
        grid,
        load_matrix,
        pad_matrix,
        chunk_size=args.chunk_size,
        sinks=(quantile_sink, histogram_sink, exceedance_sink, joint_sink, topk_sink),
        workers=args.workers if isinstance(executor, (str, type(None))) else None,
        executor=executor,
    )
    # A hybrid executor instance exposes the counters of the sweep it just
    # ran (shards, threads_per_shard, payload_bytes_shared, rebalances,
    # tasks); other executors expose none.
    executor_stats = dict(getattr(executor, "last_stats", None) or {})

    estimate = quantile_sink.result()
    exceedance = exceedance_sink.result()
    joint = joint_sink.result()
    topk = topk_sink.result()
    nodes_exceeding = int((exceedance.counts > 0).sum())
    summary = {
        "benchmark": bench.name,
        "scenarios (loads x pads)": f"{args.num_loads} x {args.num_pads} = {result.num_scenarios}",
        "chunk size": result.chunk_size,
        "executor": result.executor,
        "solver workers": result.workers,
        "nominal worst IR drop (mV)": nominal.worst_ir_drop_mv,
        "sweep worst IR drop (mV)": float(result.worst_ir_drop.max()) * 1000.0,
    }
    for key, value in executor_stats.items():
        summary[key.replace("_", " ")] = value
    for level, value in zip(estimate.quantiles, estimate.values):
        summary[f"P{level * 100:g} worst drop (mV)"] = float(value) * 1000.0
    summary.update(
        {
            "exceedance threshold (mV)": threshold * 1000.0,
            "nodes ever exceeding": nodes_exceeding,
            "max node exceedance rate": float(exceedance.rates.max()),
            "scenarios with any violation": joint.scenarios_with_violation,
            "P(any node exceeds)": joint.any_exceedance_rate,
            "scenarios / second": result.scenarios_per_second,
            "sweep time (s)": result.analysis_time,
            "solver backend": engine.cache_info().backend,
            "factorizations": engine.cache_info().factorizations,
        }
    )
    print(format_key_values(summary, title="streamed mega-sweep"))

    rows = [
        {
            "rank": rank + 1,
            "scenario": int(topk.scenario_index[rank]),
            "load_row": result.scenario_pair(int(topk.scenario_index[rank]))[0],
            "pad_row": result.scenario_pair(int(topk.scenario_index[rank]))[1],
            "worst_drop_mV": round(float(topk.worst_ir_drop[rank]) * 1000.0, 3),
            "worst_node": result.compiled.node_names[int(topk.worst_node_index[rank])],
        }
        for rank in range(topk.k)
    ]
    if rows:
        print()
        print(format_table(rows, title=f"top-{topk.k} worst scenarios"))

    if args.json_out is not None:
        histogram = histogram_sink.result()
        record = {
            "benchmark": bench.name,
            "gamma": args.gamma,
            "seed": args.seed,
            "num_load_scenarios": args.num_loads,
            "num_pad_scenarios": args.num_pads,
            "num_scenarios": result.num_scenarios,
            "chunk_size": result.chunk_size,
            "executor": result.executor,
            "workers": result.workers,
            "executor_stats": executor_stats,
            "nominal_worst_ir_drop": nominal.worst_ir_drop,
            "sweep_worst_ir_drop": float(result.worst_ir_drop.max()),
            "quantiles": dict(zip(map(str, estimate.quantiles), estimate.values.tolist())),
            "exceedance_threshold": threshold,
            "nodes_ever_exceeding": nodes_exceeding,
            "max_node_exceedance_rate": float(exceedance.rates.max()),
            "scenarios_with_violation": joint.scenarios_with_violation,
            "any_exceedance_rate": joint.any_exceedance_rate,
            "max_violating_nodes": joint.max_violating_nodes,
            "histogram_edges": histogram.edges.tolist(),
            "top_scenarios": [
                {
                    "scenario": int(topk.scenario_index[rank]),
                    "worst_ir_drop": float(topk.worst_ir_drop[rank]),
                    "worst_node": result.compiled.node_names[int(topk.worst_node_index[rank])],
                }
                for rank in range(topk.k)
            ],
            "analysis_time_seconds": result.analysis_time,
            "scenarios_per_second": result.scenarios_per_second,
            "solver_backend": engine.cache_info().backend,
            "factorizations": engine.cache_info().factorizations,
        }
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.json_out, "w") as handle:
            json.dump(record, handle, indent=2)
        print(f"sweep record written to {args.json_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is a dev tool, and the hot CLI paths
    # (analyze/sweep) should not pay for it.
    from .devtools.lint.cli import main as lint_main

    return lint_main(args.lint_args)


_COMMANDS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "plan": _cmd_plan,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "sweep": _cmd_sweep,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        # Forward everything after `lint` verbatim: argparse's REMAINDER
        # does not reliably capture leading `--flags` (bpo-17050), and the
        # lint CLI owns its own option surface anyway.
        from .devtools.lint.cli import main as lint_main

        return lint_main(raw[1:])
    parser = build_parser()
    args = parser.parse_args(raw)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
