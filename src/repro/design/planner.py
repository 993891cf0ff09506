"""Conventional iterative power planner (the paper's baseline flow, Fig. 1).

The conventional flow sizes the grid analytically, builds the network, runs
the full IR-drop analysis and the EM check, and — whenever a margin is
violated — upsizes the offending lines and repeats.  The loop is exactly the
"Change Design in Power Grid" iteration of the paper's Fig. 1, and its
convergence time (dominated by the repeated sparse solves) is what Table IV
compares PowerPlanningDL against.

Each distinct set of line widths is analysed with one fresh factorization
of its conductance matrix: the one-move loop pays one per iteration, the
batched search (:mod:`repro.design.search`) one per distinct candidate.
The analysis engine keeps a single cached factorization, because a resized
grid never reuses an older one.

The planner's converged per-line widths are also the *golden* labels used to
train the PowerPlanningDL width predictor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis.currents import line_currents, line_currents_from_voltages
from ..analysis.em import EMChecker, EMReport
from ..analysis.engine import BatchedAnalysisEngine
from ..analysis.irdrop import IRDropResult
from ..grid.builder import GridBuilder, GridTopology
from ..grid.compiled import CompiledGrid
from ..grid.floorplan import Floorplan
from ..grid.network import PowerGridNetwork
from ..grid.technology import Technology
from .constraints import ConstraintEvaluation, ReliabilityConstraints
from .rules import DesignRules
from .search import (
    CommittedMove,
    SearchConfig,
    SearchStats,
    candidate_features,
    decap_load_scale,
    generate_candidates,
)
from .sizing import AnalyticalSizer, SizingParameters


@dataclass(frozen=True)
class _LoopAnalysis:
    """Array-level analysis state of one compiled-loop iteration.

    Carries exactly what the resize decision and the constraint evaluation
    consume — no name-keyed dictionaries are materialised inside the loop.
    """

    voltages: np.ndarray
    worst_index: int
    worst_ir_drop: float
    average_ir_drop: float
    analysis_time: float


@dataclass
class PlanningIteration:
    """Record of one iteration of the conventional design loop.

    Attributes:
        index: Iteration number, starting at 0 for the initial sizing.
        worst_ir_drop: Worst-case IR drop of this iteration's design, volts.
        em_violations: Number of EM-violating segments.
        lines_resized: Number of lines whose width was increased afterwards.
        analysis_time: Wall-clock time of the IR-drop analysis (matrix
            assembly + solve) in this iteration.
        build_time: Wall-clock time spent building the power-grid network
            (netlist construction) for this iteration.
    """

    index: int
    worst_ir_drop: float
    em_violations: int
    lines_resized: int
    analysis_time: float
    build_time: float = 0.0

    @property
    def step_time(self) -> float:
        """Total time of one analyse step: network build plus analysis."""
        return self.analysis_time + self.build_time


@dataclass
class PowerPlanResult:
    """Outcome of the conventional iterative power-planning flow.

    Attributes:
        benchmark: Name of the planned design.
        widths: Final per-line widths (vertical lines first), um.
        network: The final built power-grid network.
        ir_result: IR-drop analysis of the final design.
        em_report: EM report of the final design.
        evaluation: Constraint evaluation of the final design.
        iterations: Per-iteration history of the loop.
        converged: True if all constraints were met within the iteration cap.
        total_time: Total wall-clock time of the flow in seconds.
        analysis_time: Time spent in power-grid analysis only, in seconds —
            the quantity Table IV reports for the conventional approach.
        search: Candidate-search statistics (counters, committed moves,
            ranker training data) when the planner ran in batched-search
            mode; ``None`` for the one-move loops.
    """

    benchmark: str
    widths: np.ndarray
    network: PowerGridNetwork
    ir_result: IRDropResult
    em_report: EMReport
    evaluation: ConstraintEvaluation
    iterations: list[PlanningIteration]
    converged: bool
    total_time: float
    analysis_time: float
    search: SearchStats | None = None

    @property
    def num_iterations(self) -> int:
        """Number of design-loop iterations that were executed."""
        return len(self.iterations)


class ConventionalPowerPlanner:
    """Iterative analyse-and-resize power planner (baseline).

    Args:
        technology: Technology parameters.
        rules: Design rules; derived from the technology when omitted.
        constraints: Reliability targets; derived from the technology and the
            floorplan when omitted at :meth:`plan` time.
        sizing_parameters: Knobs of the analytical initial sizing.
        max_iterations: Cap on the number of resize iterations.
        upsize_factor: Multiplicative width increase applied to violating
            lines in each iteration.
        analyzer: The :class:`~repro.analysis.engine.BatchedAnalysisEngine`
            running every analysis; a default one-entry engine is created
            when omitted.
        use_compiled_loop: When True (the default), the resize loop stays entirely
            in compiled-array land: the grid is built once with
            :meth:`~repro.grid.builder.GridBuilder.build_compiled` and each
            iteration only rewrites the stripe conductances via
            :meth:`~repro.grid.builder.GridBuilder.resize_compiled` —
            no object-graph rebuild, no full recompile.  Set to False to
            force the legacy rebuild loop (kept as the equivalence oracle).
        solver: Solver backend policy for the default engine — a name
            from :data:`~repro.analysis.solvers.SOLVER_NAMES` or ``None``
            for the environment default.  Ignored when ``analyzer`` is
            passed explicitly.
        search: Enable the batched candidate search: each iteration
            generates a batch of alternative moves, solves each one with
            a fresh factorization of its conductances, and commits the
            best.  Pass True for the defaults or a
            :class:`~repro.design.search.SearchConfig` (e.g. with a fitted
            :class:`~repro.design.search.CandidateRanker` for
            model-guided pruning).  Requires the compiled loop.
    """

    def __init__(
        self,
        technology: Technology,
        rules: DesignRules | None = None,
        sizing_parameters: SizingParameters | None = None,
        max_iterations: int = 10,
        upsize_factor: float = 1.25,
        analyzer: BatchedAnalysisEngine | None = None,
        use_compiled_loop: bool = True,
        solver: str | None = None,
        search: bool | SearchConfig = False,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if upsize_factor <= 1.0:
            raise ValueError("upsize_factor must be greater than 1")
        self.technology = technology
        self.rules = rules or DesignRules.from_technology(technology)
        self.sizer = AnalyticalSizer(technology, self.rules, sizing_parameters)
        self.max_iterations = max_iterations
        self.upsize_factor = upsize_factor
        if isinstance(search, SearchConfig):
            self.search_config: SearchConfig | None = search
        else:
            self.search_config = SearchConfig() if search else None
        # Each resize iteration or candidate changes conductances (a new
        # fingerprint), so a deeper factorization cache would only pin
        # dead memory: keep one.
        self.analyzer = (
            analyzer
            if analyzer is not None
            else BatchedAnalysisEngine(cache_size=1, solver=solver)
        )
        self.use_compiled_loop = use_compiled_loop
        self.em_checker = EMChecker(technology)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        constraints: ReliabilityConstraints | None = None,
        initial_widths: np.ndarray | None = None,
    ) -> PowerPlanResult:
        """Run the full conventional flow on one floorplan.

        Args:
            floorplan: The design's floorplan (blocks, pads, core size).
            topology: Power-grid stripe topology.
            constraints: Reliability targets; derived from the technology if
                omitted.
            initial_widths: Optional starting widths (e.g. a DL prediction to
                be refined); the analytical sizer is used when omitted.

        Returns:
            The converged (or iteration-capped) :class:`PowerPlanResult`.
        """
        constraints = constraints or ReliabilityConstraints.from_technology(
            self.technology, floorplan.core_width, floorplan.core_height
        )
        start = time.perf_counter()

        if initial_widths is None:
            widths = self.sizer.size(floorplan, topology)
        else:
            widths = self.rules.legalize_widths(initial_widths)
            if widths.shape != (topology.num_lines,):
                raise ValueError(
                    f"initial_widths must have length {topology.num_lines}"
                )

        if self.search_config is not None:
            if not self.use_compiled_loop:
                raise ValueError("search mode requires the compiled loop")
            return self._plan_search(floorplan, topology, constraints, widths, start)
        if self.use_compiled_loop:
            return self._plan_compiled(floorplan, topology, constraints, widths, start)
        return self._plan_legacy(floorplan, topology, constraints, widths, start)

    # ------------------------------------------------------------------
    # Legacy rebuild loop (equivalence oracle)
    # ------------------------------------------------------------------
    def _plan_legacy(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        constraints: ReliabilityConstraints,
        widths: np.ndarray,
        start: float,
    ) -> PowerPlanResult:
        """Rebuild-per-iteration loop: network rebuild + full recompile."""
        builder = GridBuilder(self.technology)
        analysis_time = 0.0
        iterations: list[PlanningIteration] = []
        build_start = time.perf_counter()
        network = builder.build(floorplan, topology, widths)
        build_time = time.perf_counter() - build_start
        ir_result = self.analyzer.analyze(network)
        em_report = self.em_checker.check(network, ir_result)
        analysis_time += ir_result.analysis_time
        evaluation = self._evaluate(constraints, ir_result, em_report, widths, topology)

        for iteration in range(self.max_iterations):
            resized = 0
            if not evaluation.all_satisfied:
                widths, resized = self._resize(
                    widths, topology, network, ir_result, em_report, constraints
                )
            iterations.append(
                PlanningIteration(
                    index=iteration,
                    worst_ir_drop=ir_result.worst_ir_drop,
                    em_violations=len(em_report.violations),
                    lines_resized=resized,
                    analysis_time=ir_result.analysis_time,
                    build_time=build_time,
                )
            )
            if evaluation.all_satisfied or resized == 0:
                break
            build_start = time.perf_counter()
            network = builder.build(floorplan, topology, widths)
            build_time = time.perf_counter() - build_start
            ir_result = self.analyzer.analyze(network)
            em_report = self.em_checker.check(network, ir_result)
            analysis_time += ir_result.analysis_time
            evaluation = self._evaluate(constraints, ir_result, em_report, widths, topology)

        total_time = time.perf_counter() - start
        return PowerPlanResult(
            benchmark=floorplan.name,
            widths=widths,
            network=network,
            ir_result=ir_result,
            em_report=em_report,
            evaluation=evaluation,
            iterations=iterations,
            converged=evaluation.all_satisfied,
            total_time=total_time,
            analysis_time=analysis_time,
        )

    # ------------------------------------------------------------------
    # Compiled-array loop (rebuild-free fast path)
    # ------------------------------------------------------------------
    def _analyze_compiled(
        self,
        engine: BatchedAnalysisEngine,
        compiled: CompiledGrid,
        loads: np.ndarray | None = None,
    ) -> _LoopAnalysis:
        """One engine solve plus the array-level reductions the loop needs."""
        analysis_start = time.perf_counter()
        voltages = engine.solve_voltages(compiled, loads)
        elapsed = time.perf_counter() - analysis_start
        drops = compiled.vdd - voltages
        worst_index = int(drops.argmax()) if drops.size else 0
        return _LoopAnalysis(
            voltages=voltages,
            worst_index=worst_index,
            worst_ir_drop=float(drops[worst_index]) if drops.size else 0.0,
            average_ir_drop=float(drops.mean()) if drops.size else 0.0,
            analysis_time=elapsed,
        )

    def _plan_compiled(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        constraints: ReliabilityConstraints,
        widths: np.ndarray,
        start: float,
    ) -> PowerPlanResult:
        """Rebuild-free loop: the grid is compiled once, then every resize
        iteration only rewrites the stripe conductances (shared topology,
        index maps and sparsity pattern) and re-solves through the engine.
        The converged design is materialised as an object-level network and
        a full :class:`IRDropResult` only once, at the end.
        """
        builder = GridBuilder(self.technology)
        engine = self.analyzer
        analysis_time = 0.0
        iterations: list[PlanningIteration] = []

        build_start = time.perf_counter()
        compiled = builder.build_compiled(floorplan, topology, widths)
        build_time = time.perf_counter() - build_start
        analysis = self._analyze_compiled(engine, compiled)
        em_report = self.em_checker.check_voltages(compiled, analysis.voltages)
        analysis_time += analysis.analysis_time
        evaluation = self._evaluate(constraints, analysis, em_report, widths, topology)

        for iteration in range(self.max_iterations):
            resized = 0
            if not evaluation.all_satisfied:
                widths, resized = self._resize_compiled(
                    widths, topology, compiled, analysis, em_report, constraints
                )
            iterations.append(
                PlanningIteration(
                    index=iteration,
                    worst_ir_drop=analysis.worst_ir_drop,
                    em_violations=len(em_report.violations),
                    lines_resized=resized,
                    analysis_time=analysis.analysis_time,
                    build_time=build_time,
                )
            )
            if evaluation.all_satisfied or resized == 0:
                break
            build_start = time.perf_counter()
            compiled = builder.resize_compiled(compiled, topology, widths)
            build_time = time.perf_counter() - build_start
            analysis = self._analyze_compiled(engine, compiled)
            em_report = self.em_checker.check_voltages(compiled, analysis.voltages)
            analysis_time += analysis.analysis_time
            evaluation = self._evaluate(constraints, analysis, em_report, widths, topology)

        # Materialise the object-level deliverables once, outside the loop:
        # the final network for downstream consumers and the full IR-drop
        # result, built straight from the already-solved voltages.
        network = builder.build(floorplan, topology, widths, name=floorplan.name)
        ir_result = IRDropResult.from_voltages(
            compiled,
            analysis.voltages,
            analysis_time=analysis.analysis_time,
            solver_method=engine.solver_method(compiled),
        )
        total_time = time.perf_counter() - start
        return PowerPlanResult(
            benchmark=floorplan.name,
            widths=widths,
            network=network,
            ir_result=ir_result,
            em_report=em_report,
            evaluation=evaluation,
            iterations=iterations,
            converged=evaluation.all_satisfied,
            total_time=total_time,
            analysis_time=analysis_time,
        )

    # ------------------------------------------------------------------
    # Batched candidate search (model-guided fast path)
    # ------------------------------------------------------------------
    def _plan_search(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        constraints: ReliabilityConstraints,
        widths: np.ndarray,
        start: float,
    ) -> PowerPlanResult:
        """Batched search loop: each iteration generates a candidate batch,
        solves every kept candidate (one fresh factorization per distinct
        conductance set; the RHS-only decap relief shares the factors of
        the move it rides on), and commits the best move.  A fitted ranker in
        the search config prunes the batch before any solve; without one
        the whole batch is solved (exact mode, the ranker's oracle).
        """
        builder = GridBuilder(self.technology)
        engine = self.analyzer
        config = self.search_config
        assert config is not None
        stats = SearchStats(ranker_used=config.ranker is not None)
        analysis_time = 0.0
        iterations: list[PlanningIteration] = []

        build_start = time.perf_counter()
        compiled = builder.build_compiled(floorplan, topology, widths)
        build_time = time.perf_counter() - build_start
        loads = compiled.base_loads.copy()

        relief = None
        if config.use_decap:
            relief = decap_load_scale(floorplan, self.technology, compiled)
            if relief is not None:
                stats.decap_plan = relief[1]
        decap_available = relief is not None

        analysis = self._analyze_compiled(engine, compiled, loads)
        em_report = self.em_checker.check_voltages(compiled, analysis.voltages)
        analysis_time += analysis.analysis_time
        evaluation = self._evaluate(constraints, analysis, em_report, widths, topology)

        for iteration in range(self.max_iterations):
            committed: CommittedMove | None = None
            best_clone: CompiledGrid | None = None
            best_build_time = 0.0
            batch_time = 0.0
            if not evaluation.all_satisfied:
                violating = em_report.violating_lines
                per_line = (
                    line_currents_from_voltages(compiled, analysis.voltages)
                    if violating
                    else {}
                )
                worst_x = float(compiled.node_x[analysis.worst_index])
                worst_y = float(compiled.node_y[analysis.worst_index])
                baseline_widths, _ = self._resize_core(
                    widths,
                    topology,
                    constraints,
                    violating_lines=violating,
                    per_line_current=per_line,
                    worst_ir_drop=analysis.worst_ir_drop,
                    worst_x=worst_x,
                    worst_y=worst_y,
                )
                candidates = generate_candidates(
                    widths=widths,
                    baseline_widths=baseline_widths,
                    topology=topology,
                    compiled=compiled,
                    drops=compiled.vdd - analysis.voltages,
                    rules=self.rules,
                    upsize_factor=self.upsize_factor,
                    config=config,
                    load_scale=relief[0] if decap_available else None,
                )
                stats.candidates_generated += len(candidates)
                features = candidate_features(
                    candidates,
                    widths=widths,
                    topology=topology,
                    compiled=compiled,
                    worst_x=worst_x,
                    worst_y=worst_y,
                    worst_ir_drop=analysis.worst_ir_drop,
                    loads=loads,
                )
                if config.ranker is not None:
                    kept = config.ranker.select(
                        candidates, features, config.resolved_prune_to
                    )
                else:
                    kept = list(range(len(candidates)))
                stats.candidates_pruned += len(candidates) - len(kept)

                # Candidates sharing one width vector (the decap relief
                # rides on the heuristic move's widths) are solved back to
                # back, so the one-entry cache factors each set once.  Ties
                # go to the lowest batch index, as in batch order.
                groups: dict[bytes, list[int]] = {}
                for index in kept:
                    groups.setdefault(candidates[index].widths.tobytes(), []).append(index)
                best = None
                worst_by_index: dict[int, float] = {}
                batch_start = time.perf_counter()
                for group in groups.values():
                    clone_start = time.perf_counter()
                    group_widths = candidates[group[0]].widths
                    if np.array_equal(group_widths, widths):
                        clone = compiled
                    else:
                        clone = builder.resize_compiled(compiled, topology, group_widths)
                    clone_time = time.perf_counter() - clone_start
                    for index in group:
                        cand = candidates[index]
                        cand_loads = (
                            loads * cand.load_scale
                            if cand.load_scale is not None
                            else loads
                        )
                        voltages = engine.solve_voltages(clone, cand_loads)
                        cand_drops = clone.vdd - voltages
                        cand_worst = float(cand_drops.max()) if cand_drops.size else 0.0
                        worst_by_index[index] = cand_worst
                        if best is None or (cand_worst, index) < best[:2]:
                            best = (cand_worst, index, clone, cand_loads, voltages, clone_time)
                for index in kept:
                    stats.candidates_solved += 1
                    stats.training_features.append(features[index])
                    stats.training_improvements.append(
                        analysis.worst_ir_drop - worst_by_index[index]
                    )
                batch_time = time.perf_counter() - batch_start

                if best is not None:
                    cand = candidates[best[1]]
                    committed = CommittedMove(
                        iteration=iteration,
                        kind=cand.kind,
                        label=cand.label,
                        widths=cand.widths.copy(),
                        loads=best[3].copy(),
                        voltages=best[4],
                        worst_ir_drop=best[0],
                        lines_changed=cand.lines_changed,
                    )
                    stats.committed.append(committed)
                    stats.moves_committed += 1
                    best_clone = best[2]
                    best_build_time = best[5]

            iterations.append(
                PlanningIteration(
                    index=iteration,
                    worst_ir_drop=analysis.worst_ir_drop,
                    em_violations=len(em_report.violations),
                    lines_resized=committed.lines_changed if committed else 0,
                    analysis_time=analysis.analysis_time,
                    build_time=build_time,
                )
            )
            if evaluation.all_satisfied or committed is None:
                break

            if committed.kind == "decap":
                decap_available = False
            widths = committed.widths
            loads = committed.loads
            compiled = best_clone
            build_time = best_build_time
            drops = compiled.vdd - committed.voltages
            analysis = _LoopAnalysis(
                voltages=committed.voltages,
                worst_index=int(drops.argmax()) if drops.size else 0,
                worst_ir_drop=committed.worst_ir_drop,
                average_ir_drop=float(drops.mean()) if drops.size else 0.0,
                analysis_time=batch_time,
            )
            analysis_time += batch_time
            em_report = self.em_checker.check_voltages(compiled, analysis.voltages)
            evaluation = self._evaluate(
                constraints, analysis, em_report, widths, topology
            )

        network = builder.build(floorplan, topology, widths, name=floorplan.name)
        ir_result = IRDropResult.from_voltages(
            compiled,
            analysis.voltages,
            analysis_time=analysis.analysis_time,
            solver_method=engine.solver_method(compiled),
        )
        total_time = time.perf_counter() - start
        return PowerPlanResult(
            benchmark=floorplan.name,
            widths=widths,
            network=network,
            ir_result=ir_result,
            em_report=em_report,
            evaluation=evaluation,
            iterations=iterations,
            converged=evaluation.all_satisfied,
            total_time=total_time,
            analysis_time=analysis_time,
            search=stats,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evaluate(
        self,
        constraints: ReliabilityConstraints,
        ir_result: IRDropResult | _LoopAnalysis,
        em_report: EMReport,
        widths: np.ndarray,
        topology: GridTopology,
    ) -> ConstraintEvaluation:
        vertical = widths[: topology.num_vertical]
        horizontal = widths[topology.num_vertical :]
        return constraints.evaluate(ir_result, em_report, vertical, horizontal, self.rules)

    def _resize(
        self,
        widths: np.ndarray,
        topology: GridTopology,
        network: PowerGridNetwork,
        ir_result: IRDropResult,
        em_report: EMReport,
        constraints: ReliabilityConstraints,
    ) -> tuple[np.ndarray, int]:
        """Legacy-loop resize: worst-node lookup through the object network."""
        violating = em_report.violating_lines
        per_line = line_currents(network, ir_result) if violating else {}
        worst = network.nodes[ir_result.worst_node]
        return self._resize_core(
            widths,
            topology,
            constraints,
            violating_lines=violating,
            per_line_current=per_line,
            worst_ir_drop=ir_result.worst_ir_drop,
            worst_x=worst.x,
            worst_y=worst.y,
        )

    def _resize_compiled(
        self,
        widths: np.ndarray,
        topology: GridTopology,
        compiled: CompiledGrid,
        analysis: _LoopAnalysis,
        em_report: EMReport,
        constraints: ReliabilityConstraints,
    ) -> tuple[np.ndarray, int]:
        """Compiled-loop resize: everything comes from the arrays."""
        violating = em_report.violating_lines
        per_line = (
            line_currents_from_voltages(compiled, analysis.voltages) if violating else {}
        )
        return self._resize_core(
            widths,
            topology,
            constraints,
            violating_lines=violating,
            per_line_current=per_line,
            worst_ir_drop=analysis.worst_ir_drop,
            worst_x=float(compiled.node_x[analysis.worst_index]),
            worst_y=float(compiled.node_y[analysis.worst_index]),
        )

    def _resize_core(
        self,
        widths: np.ndarray,
        topology: GridTopology,
        constraints: ReliabilityConstraints,
        *,
        violating_lines: set[int],
        per_line_current: dict[int, float],
        worst_ir_drop: float,
        worst_x: float,
        worst_y: float,
    ) -> tuple[np.ndarray, int]:
        """Upsize lines that violate the IR-drop or EM constraints.

        EM-violating lines are resized to at least the width the EM limit
        requires; when the worst-case IR drop exceeds the margin, the lines
        nearest the worst node (and their neighbours) are upsized by the
        planner's upsize factor.
        """
        new_widths, resized = self._em_fix_widths(
            widths, constraints, violating_lines, per_line_current
        )

        if worst_ir_drop > constraints.ir_drop_limit:
            v_positions = np.asarray(topology.vertical_positions)
            h_positions = np.asarray(topology.horizontal_positions)
            # Upsize the few lines closest to the worst-drop location in both
            # directions; this is the local fix a designer would apply.
            num_local = max(1, topology.num_vertical // 8)
            v_order = np.argsort(np.abs(v_positions - worst_x))[:num_local]
            h_order = np.argsort(np.abs(h_positions - worst_y))[:num_local]
            for index in v_order:
                line_id = int(index)
                legal = self.rules.legalize_width(new_widths[line_id] * self.upsize_factor)
                if legal > new_widths[line_id]:
                    new_widths[line_id] = legal
                    resized.add(line_id)
            for index in h_order:
                line_id = topology.num_vertical + int(index)
                legal = self.rules.legalize_width(new_widths[line_id] * self.upsize_factor)
                if legal > new_widths[line_id]:
                    new_widths[line_id] = legal
                    resized.add(line_id)

        return new_widths, len(resized)

    def _em_fix_widths(
        self,
        widths: np.ndarray,
        constraints: ReliabilityConstraints,
        violating_lines: set[int],
        per_line_current: dict[int, float],
    ) -> tuple[np.ndarray, set[int]]:
        """Widths after the EM-mandated upsizes only (no IR move).

        EM fixes are legality requirements, not search decisions: every
        search candidate builds on top of them.
        """
        new_widths = widths.copy()
        resized: set[int] = set()
        for line_id in violating_lines:
            required = per_line_current.get(line_id, 0.0) / constraints.jmax
            target = max(new_widths[line_id] * self.upsize_factor, required)
            legal = self.rules.legalize_width(target)
            if legal > new_widths[line_id]:
                new_widths[line_id] = legal
                resized.add(line_id)
        return new_widths, resized
