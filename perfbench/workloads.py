"""The benchmark's workloads: inputs from a seed, timed ops and gates.

Each workload compares a baseline flow against the flow the repository
proposes in its place, on the same generated inputs:

* ``paper_flow``: the conventional planner vs the PowerPlanningDL
  prediction (the paper's Table IV comparison);
* ``mega_sweep``: the unchunked batch solve vs the streamed sweep into
  sinks, with a hybrid-executor sweep of the same inputs gated after;
* ``plan_converge``: the one-move planner loop vs the batched search.

Load model: a closed loop from one process.  A single caller issues each
op after the previous one has returned; the program's own parallelism
(the hybrid executor) stays at its auto-resolved width.

A *unit* is the group of ops run on one generated input (one perturbed
spec, one sweep input; for ``plan_converge`` one of a spec's two plans).
Its inputs depend only on ``(seed, unit)``, so the same seed reproduces
the same inputs however many units a run fits into its time budget.
"""

from __future__ import annotations

import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gates
import layers
from spans import Tracer


def derive_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the run seed and per-input keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


@dataclass
class Op:
    """Outcome of one timed call into the program."""

    index: int
    result: Any = None
    ms: float | None = None

    @property
    def ok(self) -> bool:
        return self.ms is not None


@dataclass
class Recorder:
    """Timings, quality values and failures of the ops one run issues.

    With a tracer, each op runs with the layer wrappers installed and
    inside a root span named after its kind; gates and input generation
    run outside, untraced.
    """

    tracer: Tracer | None = None
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    values: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: dict[int, list[str]] = field(default_factory=dict)
    pending: list = field(default_factory=list)
    """Work a workload's units defer to its :meth:`Workload.finish` phase."""

    def op(self, kind: str, call: Callable[[], Any]) -> Op:
        """Time one op; a raised error counts it as failed."""
        self.attempted += 1
        op = Op(self.attempted)
        try:
            if self.tracer is None:
                start = time.perf_counter_ns()
                op.result = call()
                elapsed = time.perf_counter_ns() - start
            else:
                with self.tracer.installed():
                    start = time.perf_counter_ns()
                    with self.tracer.op(kind):
                        op.result = call()
                    elapsed = time.perf_counter_ns() - start
        except Exception:  # the op boundary: any program error fails the op
            self.fail(op, [f"{kind} raised:\n{traceback.format_exc()}"])
            return op
        op.ms = elapsed / 1e6
        self.samples[kind].append(op.ms)
        return op

    def fail(self, op: Op, reasons: list[str]) -> None:
        if reasons:
            self.failures.setdefault(op.index, []).extend(reasons)

    def count_engine(self, engine) -> None:
        """Record an engine's cache counters at the end of a traced op."""
        if self.tracer is not None:
            layers.count_engine(self.tracer.counts, engine)


class Workload:
    """One benchmark workload: a timed set-up and a sequence of units."""

    name = ""
    trace_units = 1
    """Units a traced run measures (each twice: untraced and traced)."""
    overhead_kinds: tuple[str, ...] = ()
    """Op kinds whose traced minus untraced wall is the tracing overhead."""
    step_share = 1.0
    """Share of an untraced run spent on units; :meth:`finish` gets the rest."""
    min_units = 1
    """Units an untraced run runs even past its deadline."""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def setup(self, seed: int) -> Any:
        """Build the state the ops share; timed as ``setup_s``."""
        raise NotImplementedError

    def step(self, state: Any, seed: int, unit: int, rec: Recorder) -> None:
        """Run the ops of one unit, recording baseline / proposed samples."""
        raise NotImplementedError

    def finish(self, state: Any, rec: Recorder, deadline: float | None) -> None:
        """Run the ops units deferred, until ``deadline`` (``None``: all)."""

    def summary(self, rec: Recorder) -> list[tuple[str, float, str, int]]:
        """Workload-specific metrics as ``(name, value, unit, samples)``."""
        raise NotImplementedError

    def efficiency(self, rec: Recorder, state: Any) -> float:
        """Parallel efficiency of the run's sweeps (0 where none ran)."""
        return 0.0


def _suite(smoke: bool, scale: float = 1.0):
    from repro.grid import SyntheticIBMSuite

    return SyntheticIBMSuite(scale=0.3 if smoke else scale)


# ----------------------------------------------------------------------
# paper_flow
# ----------------------------------------------------------------------
@dataclass
class _Design:
    bench: Any
    framework: Any


class PaperFlow(Workload):
    """The paper's experiment (Fig. 2; Tables III-V).

    Why: it is the only workload in which ``nn`` and ``core`` do most of
    the work.  Each conventional plan converges in one iteration with one
    factorization, so sweep, sink and executor changes should not move it.
    """

    name = "paper_flow"
    trace_units = 6
    overhead_kinds = ("conv_plan", "dl_predict")
    BENCHMARKS = ("ibmpg2", "ibmpg6")
    GAMMA_RANGE = (0.05, 0.20)

    def _regressor(self):
        from repro.nn import RegressorConfig, TrainingConfig

        # The regressor of benchmarks/conftest.py: 10 x 32 hidden, Adam, seed 0.
        return RegressorConfig(
            hidden_layers=10,
            hidden_width=32,
            training=TrainingConfig(
                epochs=3 if self.smoke else 60,
                batch_size=128,
                optimizer="adam",
                loss="mse",
                early_stopping_patience=0,
                seed=0,
            ),
            seed=0,
        )

    def setup(self, seed: int) -> list[_Design]:
        from repro.core import PowerPlanningDL

        suite = _suite(self.smoke)
        designs = []
        for name in self.BENCHMARKS:
            bench = suite.load(name)
            framework = PowerPlanningDL(bench.technology, self._regressor())
            framework.train_on_benchmark(bench)
            designs.append(_Design(bench, framework))
        return designs

    def spec(self, seed: int, unit: int):
        from repro.grid import PerturbationKind, PerturbationSpec

        rng = np.random.default_rng(derive_seed(seed, unit))
        return PerturbationSpec(
            gamma=float(rng.uniform(*self.GAMMA_RANGE)),
            kind=PerturbationKind.BOTH,
            seed=derive_seed(seed, unit, 1),
        )

    def step(self, state: list[_Design], seed: int, unit: int, rec: Recorder) -> None:
        from repro.design import ConventionalPowerPlanner

        spec = self.spec(seed, unit)
        plan_ms = predict_ms = 0.0
        complete = True
        for design in state:
            bench, framework = design.bench, design.framework
            builder = framework.dataset_builder
            # The dataset builder's own perturbation semantics (Table V):
            # BOTH jitters block currents in the floorplan and the line
            # IR-drop budgets in the golden widths.
            floorplan = builder._perturbed_floorplan(bench, spec)
            planner = ConventionalPowerPlanner(bench.technology)
            plan = rec.op("conv_plan", lambda: planner.plan(floorplan, bench.topology))
            rec.count_engine(planner.analyzer)
            predicted = rec.op(
                "dl_predict", lambda: framework.predict_design(floorplan, bench.topology)
            )
            if plan.ok and not plan.result.converged:
                rec.fail(plan, ["conventional plan did not converge"])
            if predicted.ok:
                rec.fail(
                    predicted, gates.width_failures(predicted.result.line_widths, framework.rules)
                )
            if not (plan.ok and predicted.ok):
                complete = False
                continue
            plan_ms += plan.ms
            predict_ms += predicted.ms
            golden = builder._golden_widths(plan.result, spec)
            dataset = builder.dataset_from_design(floorplan, bench, golden)
            rec.values["width_mse_pct"].append(framework.evaluate(dataset).mse_percent)
            golden_mv = plan.result.ir_result.worst_ir_drop_mv
            predicted_mv = predicted.result.ir_drop.worst_ir_drop_mv
            rec.values["ir_drop_err_pct"].append(100.0 * abs(predicted_mv - golden_mv) / golden_mv)
        if complete:
            # One sample per spec covers both designs, so the median
            # reflects ibmpg2 and ibmpg6 instead of the gap between them.
            rec.samples["baseline"].append(plan_ms)
            rec.samples["proposed"].append(predict_ms)

    def summary(self, rec: Recorder) -> list[tuple[str, float, str, int]]:
        predict, plan = rec.samples["dl_predict"], rec.samples["conv_plan"]
        mse, err = rec.values["width_mse_pct"], rec.values["ir_drop_err_pct"]
        return [
            ("dl_predict_ms.p50", median(predict), "ms", len(predict)),
            ("dl_predict_ms.p90", percentile(predict, 90), "ms", len(predict)),
            ("conv_plan_ms.p50", median(plan), "ms", len(plan)),
            ("conv_plan_ms.p90", percentile(plan, 90), "ms", len(plan)),
            ("width_mse_pct", float(np.mean(mse)) if mse else 0.0, "%", len(mse)),
            ("ir_drop_err_pct", float(np.mean(err)) if err else 0.0, "%", len(err)),
        ]


# ----------------------------------------------------------------------
# mega_sweep
# ----------------------------------------------------------------------
@dataclass
class _SweepState:
    bench: Any
    compiled: Any
    nominal_worst: float


class MegaSweep(Workload):
    """An ibmpg1 load x pad cross product, solved as a dense batch and streamed.

    Why: it is the vectorless sign-off envelope and reads the factor cache
    heavily: one factorization, then a solve column per scenario.  Solve,
    RHS assembly, sinks and executors do nearly all the work while the
    planner, search and ``nn`` stay idle.  The baseline is the unchunked
    batch solve that materialises every voltage; the proposed flow
    streams the same scenarios through five mergeable sinks in bounded
    memory.  P-square and reservoir sinks are left out: one does not
    merge, the other is slated for deletion.

    After the units, each input is also swept on the hybrid executor and
    gated bitwise against its serial sweep.  That wall time is reported
    but is not an end-to-end metric: on a 2-core host BLAS oversubscription makes it
    bimodal per process (about 1 s or 3.9 s for these 1,600 scenarios),
    so no run length here gives it a steady median.
    """

    name = "mega_sweep"
    trace_units = 2
    # The hybrid sweep's shards run untraced in child processes, and its
    # wall time swings by seconds under BLAS oversubscription: tracing
    # overhead is measured on the ops that run in this process.
    overhead_kinds = ("sweep_dense", "sweep_serial")
    step_share = 0.7
    GAMMA = 0.2

    @property
    def shape(self) -> tuple[int, int]:
        return (6, 4) if self.smoke else (25, 64)

    def setup(self, seed: int) -> _SweepState:
        from repro.analysis import BatchedAnalysisEngine

        bench = _suite(self.smoke).load("ibmpg1")
        compiled = bench.build_uniform_grid(5.0).compile()
        nominal = BatchedAnalysisEngine().analyze(compiled).worst_ir_drop
        return _SweepState(bench, compiled, nominal)

    def sinks(self, state: _SweepState) -> dict:
        from repro.analysis import (
            ExceedanceCountSink,
            JointExceedanceSink,
            NodeHistogramSink,
            QuantileSketchSink,
            TopKScenarioSink,
        )

        threshold = state.nominal_worst
        return {
            "sketch": QuantileSketchSink((0.5, 0.9, 0.99), relative_error=0.01),
            "histogram": NodeHistogramSink.uniform(0.0, 2.0 * threshold, 32),
            "exceedance": ExceedanceCountSink(threshold),
            "joint": JointExceedanceSink(threshold),
            "topk": TopKScenarioSink(10),
        }

    def step(self, state: _SweepState, seed: int, unit: int, rec: Recorder) -> None:
        from repro.analysis import BatchedAnalysisEngine, SerialExecutor
        from repro.grid import mega_sweep_matrices

        compiled = state.compiled
        num_loads, num_pads = self.shape
        loads, pads = mega_sweep_matrices(
            compiled, state.bench.floorplan, self.GAMMA, num_loads, num_pads,
            seed=derive_seed(seed, unit),
        )
        # The cross product materialised in the sweep's order: loads
        # outer, pads inner.
        load_matrix = np.repeat(loads, num_pads, axis=0)
        pad_matrix = np.tile(pads, (num_loads, 1))

        dense_engine = BatchedAnalysisEngine()
        dense = rec.op(
            "sweep_dense",
            lambda: dense_engine.analyze_pad_batch(compiled, pad_matrix, load_matrix=load_matrix),
        )
        rec.count_engine(dense_engine)

        sinks = self.sinks(state)
        serial_engine = BatchedAnalysisEngine()
        serial = rec.op(
            "sweep_serial",
            lambda: serial_engine.analyze_mega_sweep(
                compiled, loads, pads, sinks=tuple(sinks.values()), executor=SerialExecutor()
            ),
        )
        rec.count_engine(serial_engine)

        if dense.ok:
            rec.fail(dense, gates.residual_failures(
                compiled, dense.result.voltages, load_matrix, pad_matrix
            ))
        if serial.ok:
            factorizations = serial_engine.cache_info().factorizations
            if factorizations != 1:
                rec.fail(serial, [f"serial sweep factored {factorizations} times, expected 1"])
            if dense.ok:
                rec.fail(serial, gates.reference_failures(serial.result, dense.result.voltages))
            else:
                rec.fail(serial, ["no dense batch to compare against"])
            rec.pending.append((loads, pads, serial.result, sinks))
        if dense.ok and serial.ok:
            rec.samples["baseline"].append(dense.ms)
            rec.samples["proposed"].append(serial.ms)

    def finish(self, state: _SweepState, rec: Recorder, deadline: float | None) -> None:
        """Sweep the units' inputs on the hybrid executor, gated against serial.

        The hybrid sweeps run after all units, so their child processes
        and BLAS contention never overlap the timed dense and serial ops.
        """
        from repro.analysis import BatchedAnalysisEngine, HybridExecutor

        for index, (loads, pads, serial, serial_sinks) in enumerate(rec.pending):
            if index and deadline is not None and time.perf_counter() >= deadline:
                break
            sinks = self.sinks(state)
            engine = BatchedAnalysisEngine()
            parallel = rec.op(
                "sweep_parallel",
                lambda: engine.analyze_mega_sweep(
                    state.compiled, loads, pads, sinks=tuple(sinks.values()),
                    executor=HybridExecutor(),
                ),
            )
            rec.count_engine(engine)
            if parallel.ok:
                rec.fail(
                    parallel, gates.sweep_mismatches(serial, serial_sinks, parallel.result, sinks)
                )
        rec.pending.clear()

    def summary(self, rec: Recorder) -> list[tuple[str, float, str, int]]:
        scenarios = self.shape[0] * self.shape[1]
        rows = []
        for kind in ("sweep_dense", "sweep_serial", "sweep_parallel"):
            samples = rec.samples[kind]
            rate = 1000.0 * scenarios / median(samples) if samples else 0.0
            rows.append((f"{kind}_scen_per_s", rate, "scenarios/s", len(samples)))
        return rows

    def efficiency(self, rec: Recorder, state: _SweepState) -> float:
        from repro.analysis import HybridExecutor

        serial, parallel = rec.samples["sweep_serial"], rec.samples["sweep_parallel"]
        if not (serial and parallel):
            return 0.0
        return median(serial) / (median(parallel) * HybridExecutor().parallelism)


# ----------------------------------------------------------------------
# plan_converge
# ----------------------------------------------------------------------
@dataclass
class _PlanState:
    bench: Any
    min_widths: np.ndarray


class PlanConverge(Workload):
    """ibmpgnew1 at half stripe density planned from all-minimum widths.

    Why: the same solver and cache layer used write-heavy, with a new
    factorization or incremental update per iteration and few solves on
    each.  It is the only workload for ``design.search`` and the update
    factorizations; sinks and executors stay idle.  The iteration cap is
    set high enough that every spec converges: the nominal one needs 21
    one-move and 12 search iterations, past the planner's default of 10.

    Half density (3,528 nodes): on the full grid one search plan takes
    about 9 s and varies about 12 % from run to run on the same input,
    so only two or three fit a run and their median never steadied; at
    half density about ten do, with the same many-iteration character.
    """

    name = "plan_converge"
    trace_units = 4
    min_units = 2  # one search and one one-move plan
    overhead_kinds = ("plan_onemove", "plan_search")
    GAMMA = 0.05
    MAX_ITERATIONS = 40
    SCALE = 0.5

    def setup(self, seed: int) -> _PlanState:
        from repro.analysis import BatchedAnalysisEngine
        from repro.design import DesignRules
        from repro.grid import GridBuilder

        bench = _suite(self.smoke, self.SCALE).load("ibmpgnew1")
        rules = DesignRules.from_technology(bench.technology)
        min_widths = np.full(bench.topology.num_lines, rules.min_width)
        # Build and solve the starting design once, so one-time costs of
        # the first assembly and factorization in a process are paid here
        # and not by whichever plan happens to run first.
        start = GridBuilder(bench.technology).build_compiled(
            bench.floorplan, bench.topology, min_widths
        )
        BatchedAnalysisEngine().solve_voltages(start)
        return _PlanState(bench, min_widths)

    def floorplan(self, state: _PlanState, seed: int, spec: int):
        """Spec 0 is the nominal floorplan, later specs seeded perturbations."""
        from repro.grid import FloorplanPerturbator, PerturbationKind, PerturbationSpec

        nominal = state.bench.floorplan
        if spec == 0:
            return nominal
        perturbation = PerturbationSpec(
            gamma=self.GAMMA, kind=PerturbationKind.CURRENT_WORKLOADS, seed=derive_seed(seed, spec)
        )
        return FloorplanPerturbator(perturbation).perturb(nominal)

    def step(self, state: _PlanState, seed: int, unit: int, rec: Recorder) -> None:
        """Even units search spec ``unit // 2``, odd ones plan it one move at a time.

        One plan per unit lets the reference computation bracket each
        plan on its own: a search plan runs for several seconds.  The
        search goes first so that a run's last unit is rarely a search
        cut off by the deadline.
        """
        from repro.design import ConventionalPowerPlanner

        floorplan = self.floorplan(state, seed, unit // 2)
        topology = state.bench.topology
        search = unit % 2 == 0
        kind, role = ("plan_search", "proposed") if search else ("plan_onemove", "baseline")
        planner = ConventionalPowerPlanner(
            state.bench.technology, max_iterations=self.MAX_ITERATIONS, search=search
        )
        plan = rec.op(
            kind, lambda: planner.plan(floorplan, topology, initial_widths=state.min_widths.copy())
        )
        rec.count_engine(planner.analyzer)
        if not plan.ok:
            return
        rec.fail(plan, gates.plan_failures(plan.result, planner, floorplan, topology))
        rec.values[f"{kind}_drop_mv"].append(plan.result.ir_result.worst_ir_drop_mv)
        rec.samples[role].append(plan.ms)

    def summary(self, rec: Recorder) -> list[tuple[str, float, str, int]]:
        rows = []
        for kind in ("plan_onemove", "plan_search"):
            seconds = [ms / 1000.0 for ms in rec.samples[kind]]
            drops = rec.values[f"{kind}_drop_mv"]
            rows.append((f"{kind}_s.p50", median(seconds), "s", len(seconds)))
            rows.append(
                (f"{kind}_drop_mv", float(np.mean(drops)) if drops else 0.0, "mV", len(drops))
            )
        return rows


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperFlow, MegaSweep, PlanConverge)
}
