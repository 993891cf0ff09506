"""Cached-factorization, multi-RHS power-grid analysis engine.

The conventional analysis path re-assembles and re-factorizes the nodal
system for every solve.  For the workloads this repository actually runs —
perturbation sweeps, vectorless budget bounds, planner iterations over many
load scenarios — the expensive part (the sparse LU factorization of the
reduced conductance matrix) depends only on the grid *topology* and branch
conductances, not on the loads or pad voltages.

:class:`BatchedAnalysisEngine` exploits that: it compiles the network once
(:class:`~repro.grid.compiled.CompiledGrid`), caches the sparse
factorization — produced by a pluggable solver backend
(:mod:`repro.analysis.solvers`): SuperLU by default, CHOLMOD when
``scikit-sparse`` is installed — keyed on the compiled grid's topology
fingerprint, and solves arbitrarily many right-hand sides against one
factorization — either one at a time (:meth:`analyze`) or as a single
multi-RHS triangular solve (:meth:`analyze_batch`).  Every cache miss —
including a :meth:`~repro.grid.compiled.CompiledGrid.with_conductances`
clone from the planner's resize step — is one fresh factorization of the
new matrix.

Chunked and streamed sweeps run on a pluggable execution layer
(:mod:`repro.analysis.executors`).  ``workers=n`` is
``HybridExecutor(shard_workers=1, threads_per_shard=n)``: RHS chunks solve
concurrently on a thread pool (SuperLU's triangular solve and the large
NumPy reductions release the GIL) while the calling thread folds finished
chunks into the reductions and sinks strictly in ascending scenario order,
bitwise-identical to the sequential path with memory bounded at
``O(num_nodes * chunk_size * workers)``.  ``executor=`` selects the
strategy explicitly: ``SerialExecutor``, or a ``HybridExecutor`` with more
than one shard, which splits the *scenario range* across worker processes
— each with its own factorization and its own fold — and merges the shard
results through the :class:`~repro.analysis.sinks.MergeableSink`
protocol, scaling sweeps past the GIL-bound fold.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..grid.compiled import CompiledGrid
from ..grid.network import PowerGridNetwork
from .executors import (
    EXECUTOR_ENV,
    ExecutorIncompatibility,
    HybridExecutor,
    SweepExecutor,
    SweepPlan,
    make_executor,
)
from .irdrop import IRDropResult
from .sinks import IRDropSink, ScenarioSink
from .solvers import (
    Factorization,
    LinearSolverError,
    cg_solve,
    resolve_solver_backend,
)

ENGINE_METHOD = "cached_lu"
"""Solver-method tag recorded in results produced by the engine."""

CG_METHOD = "cg"
"""Solver-method tag of results solved by the CG fallback
(:func:`~repro.analysis.solvers.cg_solve`)."""

WORKERS_ENV = "REPRO_TEST_WORKERS"
"""Environment variable supplying the engine's default ``workers`` count.

Lets CI (and local runs) exercise the parallel chunk pipeline across the
whole test suite without touching any call site: every chunked / streamed
sweep that does not pass ``workers=`` explicitly uses this value.  Unset or
empty means ``1`` (sequential), which is also the hard default.
"""


def _default_workers() -> int:
    """Resolve the engine's default worker count from :data:`WORKERS_ENV`."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers

ScenarioSource = Callable[[int, int], tuple[np.ndarray | None, np.ndarray | None]]
"""Chunk generator for streamed sweeps.

Called with a half-open scenario range ``(begin, end)``; returns the
``(end - begin, num_nodes)`` load chunk and the ``(end - begin, num_pads)``
pad-voltage chunk for those scenarios (either may be ``None`` to use the
grid's own loads / pad voltages).  Sources must be pure functions of the
range so that resuming, re-chunking or *sharding* a sweep reproduces it
exactly — a process-sharded sweep calls pickled copies of the source from
its worker processes, each over a sub-range.
"""


MIN_CHUNK_SIZE = 32
"""Smallest RHS chunk width :func:`resolve_chunk_size` will pick."""

MAX_CHUNK_SIZE = 4096
"""Largest RHS chunk width :func:`resolve_chunk_size` will pick."""

CHUNK_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024
"""Default RHS working-set target shared by all in-flight chunks."""


def resolve_chunk_size(
    num_unknowns: int,
    workers: int | None = None,
    memory_budget_bytes: int = CHUNK_MEMORY_BUDGET_BYTES,
) -> int:
    """Adaptive RHS chunk width for streamed sweeps.

    Wide chunks amortise the per-chunk Python and triangular-solve setup
    cost; narrow chunks bound memory — and with ``workers`` chunks in
    flight the working set scales with the worker count too.  This
    heuristic spends a fixed byte budget across all in-flight chunks:
    roughly four dense double arrays of ``num_unknowns × chunk`` live per
    chunk (the RHS block, the unknown solution, the full voltages and the
    transposed drop rows), so

    ``chunk = budget // (workers * 4 * 8 * num_unknowns)``

    clamped to ``[MIN_CHUNK_SIZE, MAX_CHUNK_SIZE]``.  Streamed entry
    points use it whenever ``chunk_size`` is omitted.

    Args:
        num_unknowns: Unknown count of the reduced system
            (:attr:`~repro.grid.compiled.CompiledGrid.num_unknowns`).
        workers: In-flight chunk count — the executor's **effective
            parallel width**.  For the hybrid executor that is
            ``shard_workers × threads_per_shard`` (its ``parallelism``
            property), since every shard process runs ``threads``
            chunks in flight at once.  ``None`` uses
            ``os.cpu_count()``.
        memory_budget_bytes: Total bytes the in-flight chunk state may
            occupy.

    Returns:
        A chunk width in ``[MIN_CHUNK_SIZE, MAX_CHUNK_SIZE]``,
        non-increasing in both ``num_unknowns`` and ``workers``.
    """
    if num_unknowns < 0:
        raise ValueError("num_unknowns must be non-negative")
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if memory_budget_bytes < 1:
        raise ValueError("memory_budget_bytes must be positive")
    per_scenario_bytes = 4 * 8 * max(1, num_unknowns)
    chunk = memory_budget_bytes // (workers * per_scenario_bytes)
    return int(min(MAX_CHUNK_SIZE, max(MIN_CHUNK_SIZE, chunk)))


@dataclass(frozen=True)
class MatrixScenarioSource:
    """Picklable :data:`ScenarioSource` slicing preassembled matrices.

    The batched entry points wrap their scenario matrices in this source
    so that sharded solves — including process-sharded ones, which pickle
    the source into worker processes — read rows straight out of the
    shared arrays.

    Attributes:
        load_matrix: Optional ``(num_scenarios, num_nodes)`` loads.
        pad_voltage_matrix: Optional ``(num_scenarios, num_pads)`` pad
            voltages; at least one of the two must be given.
    """

    load_matrix: np.ndarray | None = None
    pad_voltage_matrix: np.ndarray | None = None

    def __call__(self, begin: int, end: int) -> tuple[np.ndarray | None, np.ndarray | None]:
        return (
            None if self.load_matrix is None else self.load_matrix[begin:end],
            None if self.pad_voltage_matrix is None else self.pad_voltage_matrix[begin:end],
        )


@dataclass(frozen=True)
class CrossProductScenarioSource:
    """Picklable :data:`ScenarioSource` over a load × pad cross product.

    Scenario ``s`` combines load row ``s // num_pad_scenarios`` with pad
    row ``s % num_pad_scenarios`` (loads outer, pads inner) — the
    mega-sweep ordering.  Chunks gather their rows by index, so the
    combined scenario set is never materialised.

    Attributes:
        load_matrix: ``(num_load_scenarios, num_nodes)`` load rows.
        pad_voltage_matrix: ``(num_pad_scenarios, num_pads)`` pad rows.
    """

    load_matrix: np.ndarray
    pad_voltage_matrix: np.ndarray

    def __call__(self, begin: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        indices = np.arange(begin, end)
        num_pad_rows = self.pad_voltage_matrix.shape[0]
        return (
            self.load_matrix[indices // num_pad_rows],
            self.pad_voltage_matrix[indices % num_pad_rows],
        )


BASIS_RESIDUAL_TOLERANCE = 1e-10
"""Largest relative residual ``||A x - b|| / ||b||`` a direct solve of the
mega-sweep basis may leave on any of its columns."""


@dataclass(frozen=True)
class LinearScenarioBasis:
    """IR-drop tables of a load × pad cross product, built by superposition.

    The reduced right-hand side is linear in (loads, pad voltages), so the
    voltages of the scenario pairing load row ``l`` with pad row ``p`` are
    ``X[:, l] + Y[:, p]``: ``X`` solves the load columns alone and ``Y``
    the pad columns alone.  The basis keeps both halves as per-node
    IR-drop rows, so scenario ``s`` (loads outer, pads inner) is
    ``load_drops[s // P] + pad_drops[s % P]`` — one elementwise add per
    value.  Every drop row, and everything reduced from it, therefore
    holds the same bits whatever chunk or shard the scenario lands in.

    It is the picklable source a sharded mega-sweep ships to its workers:
    they combine rows and never solve.

    Attributes:
        load_drops: ``(L, num_nodes)`` IR drop each load row causes on its
            own (zero on pad nodes).
        pad_drops: ``(P, num_nodes)`` IR drop of each pad row with no
            load: ``vdd - Y`` on the unknowns and ``vdd - pad voltage`` on
            the pad nodes.
        load_iterations: ``(L,)`` solver iterations of each load column
            (all zero on the direct path).
        pad_iterations: ``(P,)`` solver iterations of each pad column.
        residual: Largest relative residual ``||A x - b|| / ||b||`` over
            the ``L + P`` solved columns.
    """

    load_drops: np.ndarray
    pad_drops: np.ndarray
    load_iterations: np.ndarray
    pad_iterations: np.ndarray
    residual: float = 0.0

    @property
    def num_scenarios(self) -> int:
        """Number of (load row, pad row) pairs the basis spans."""
        return self.load_drops.shape[0] * self.pad_drops.shape[0]

    @property
    def num_columns(self) -> int:
        """Number of solved basis columns, ``L + P``."""
        return self.load_drops.shape[0] + self.pad_drops.shape[0]

    def drop_rows(self, begin: int, end: int) -> np.ndarray:
        """Contiguous ``(end - begin, num_nodes)`` IR-drop rows of ``[begin, end)``."""
        num_pad_rows = self.pad_drops.shape[0]
        rows = np.empty((end - begin, self.pad_drops.shape[1]), dtype=float)
        scenario = begin
        while scenario < end:
            # One load row pairs with a run of consecutive pad rows.
            load_row, pad_row = divmod(scenario, num_pad_rows)
            stop = min(end, (load_row + 1) * num_pad_rows)
            np.add(
                self.load_drops[load_row],
                self.pad_drops[pad_row : pad_row + stop - scenario],
                out=rows[scenario - begin : stop - begin],
            )
            scenario = stop
        return rows

    def iterations(self, begin: int, end: int) -> np.ndarray:
        """Per-scenario solver iterations of ``[begin, end)``: load + pad column."""
        indices = np.arange(begin, end)
        num_pad_rows = self.pad_drops.shape[0]
        return (
            self.load_iterations[indices // num_pad_rows]
            + self.pad_iterations[indices % num_pad_rows]
        )


@dataclass(frozen=True)
class EngineCacheInfo:
    """Counters describing the engine's factorization cache behaviour.

    All counters survive :meth:`BatchedAnalysisEngine.clear_cache` (only
    ``entries`` drops to zero), so long-running consumers can report
    totals.

    Attributes:
        factorizations: Number of fresh sparse factorizations performed.
        hits: Number of solves served by an already cached factorization.
        entries: Number of factorizations currently cached.
        updates: Always 0.  Kept for record consumers from when a
            resized grid could be served by a low-rank update.
        update_fallbacks: Always 0, for the same reason.
        backend: Name of the resolved solver backend (``splu`` /
            ``cholmod``).
    """

    factorizations: int
    hits: int
    entries: int
    updates: int = 0
    update_fallbacks: int = 0
    backend: str = "splu"


def _row_reductions(rows: np.ndarray) -> "BatchReductions":
    """Per-scenario worst / mean / worst-node over contiguous ``(k, n)`` rows."""
    return BatchReductions(
        worst_ir_drop=rows.max(axis=1),
        average_ir_drop=rows.mean(axis=1),
        worst_node_index=rows.argmax(axis=1),
    )


def _column_reductions(ir_drop: np.ndarray) -> "BatchReductions":
    """Per-scenario worst / mean / worst-node over a ``(num_nodes, k)`` block.

    Reduces over contiguous per-scenario rows (the transposed layout) so the
    floating-point summation order per scenario is identical no matter how
    many scenarios share the block — which is what makes sharded reductions
    bitwise-equal to unsharded ones for every chunk size.
    """
    return _row_reductions(np.ascontiguousarray(ir_drop.T))


def _feed_sinks(
    sinks: Sequence[ScenarioSink],
    compiled: CompiledGrid,
    voltages: np.ndarray | None,
    drop_rows: np.ndarray,
    scenario_offset: int,
) -> None:
    """Offer one solved chunk to every sink, sharing the drop rows.

    :class:`~repro.analysis.sinks.IRDropSink` subclasses take the
    precomputed contiguous ``(c, num_nodes)`` IR-drop block the engine
    already derived for its reductions; other protocol implementations get
    the voltage chunk — ``vdd - drop_rows.T`` for superposed chunks, which
    carry no voltages (``voltages`` is ``None``).
    """
    for sink in sinks:
        if isinstance(sink, IRDropSink):
            sink.consume_drop_rows(drop_rows, scenario_offset)
        else:
            if voltages is None:
                voltages = compiled.vdd - drop_rows.T
            sink.consume(voltages, scenario_offset)


@dataclass(frozen=True)
class BatchReductions:
    """Per-scenario IR-drop reductions streamed out of a sharded solve.

    Attributes:
        worst_ir_drop: ``(num_scenarios,)`` worst IR drop per scenario.
        average_ir_drop: ``(num_scenarios,)`` mean IR drop per scenario.
        worst_node_index: ``(num_scenarios,)`` compiled node index of the
            worst-drop node per scenario.
    """

    worst_ir_drop: np.ndarray
    average_ir_drop: np.ndarray
    worst_node_index: np.ndarray


@dataclass
class BatchAnalysisResult:
    """Voltages of many load scenarios solved against one grid topology.

    The batched result intentionally keeps everything in arrays — per-node
    dictionaries are only materialised when a scenario is converted into a
    full :class:`~repro.analysis.irdrop.IRDropResult` via :meth:`result`.

    When the solve was sharded (``chunk_size`` passed to
    :meth:`BatchedAnalysisEngine.analyze_batch`), the dense
    ``(num_nodes, num_scenarios)`` voltage matrix is never materialised:
    :attr:`voltages` is ``None`` and the per-scenario reductions
    (:attr:`worst_ir_drop`, :attr:`average_ir_drop`,
    :attr:`worst_node_index`) were accumulated chunk by chunk.  They are
    bitwise-identical to the unsharded reductions.

    Attributes:
        compiled: The compiled grid all scenarios were solved on.
        voltages: ``(num_nodes, num_scenarios)`` node-voltage matrix in
            compiled node order, or ``None`` for sharded solves.
        scenario_names: One name per scenario (used for materialised
            results).
        analysis_time: Wall-clock time of the whole batched solve in
            seconds.
        factorization_reused: True if the solve was served from the engine's
            factorization cache instead of factorizing anew.
        reductions: Streamed per-scenario reductions (sharded solves only).
        sinks: The scenario sinks that observed this solve, in the order
            they were passed (empty when none were attached).
        solver_method: The solver that actually produced the voltages —
            ``"cached_lu"`` for the factorization path, ``"cg"`` when the
            system exceeded the engine's ``direct_size_limit`` and every
            column fell back to preconditioned CG.
        solver_iterations: ``(num_scenarios,)`` per-scenario iteration
            counts (all zero on the direct path), or ``None`` for results
            predating the solve (never for engine-produced batches).
    """

    compiled: CompiledGrid
    voltages: np.ndarray | None
    scenario_names: tuple[str, ...]
    analysis_time: float
    factorization_reused: bool
    reductions: BatchReductions | None = None
    sinks: tuple[ScenarioSink, ...] = ()
    solver_method: str = ENGINE_METHOD
    solver_iterations: np.ndarray | None = None

    def sink_results(self) -> tuple:
        """Finished results of every attached sink, in sink order."""
        return tuple(sink.result() for sink in self.sinks)

    @property
    def num_scenarios(self) -> int:
        """Number of solved load scenarios."""
        return len(self.scenario_names)

    def _require_voltages(self) -> np.ndarray:
        if self.voltages is None:
            raise ValueError(
                "this batch was solved with RHS sharding; the dense voltage "
                "matrix was never materialised (only the streamed reductions "
                "are available)"
            )
        return self.voltages

    @cached_property
    def ir_drop(self) -> np.ndarray:
        """``(num_nodes, num_scenarios)`` IR-drop matrix ``vdd - v``.

        Raises:
            ValueError: If the batch was solved with RHS sharding.
        """
        return self.compiled.vdd - self._require_voltages()

    @cached_property
    def _reductions(self) -> BatchReductions:
        if self.reductions is not None:
            return self.reductions
        return _column_reductions(self.ir_drop)

    @property
    def worst_ir_drop(self) -> np.ndarray:
        """Worst-case IR drop of each scenario, in volts."""
        return self._reductions.worst_ir_drop

    @property
    def average_ir_drop(self) -> np.ndarray:
        """Mean IR drop of each scenario over all nodes, in volts."""
        return self._reductions.average_ir_drop

    @property
    def worst_node_index(self) -> np.ndarray:
        """Compiled node index of the worst-drop node per scenario."""
        return self._reductions.worst_node_index

    def worst_node(self, scenario: int) -> str:
        """Name of the worst-drop node of one scenario."""
        return self.compiled.node_names[int(self.worst_node_index[scenario])]

    def scenario_voltages(self, scenario: int) -> np.ndarray:
        """Per-node voltage vector of one scenario, in compiled order."""
        return self._require_voltages()[:, scenario]

    def result(self, scenario: int) -> IRDropResult:
        """Materialise one scenario as a full :class:`IRDropResult`."""
        return IRDropResult.from_voltages(
            self.compiled,
            self._require_voltages()[:, scenario],
            name=self.scenario_names[scenario],
            analysis_time=self.analysis_time / max(1, self.num_scenarios),
            solver_method=self.solver_method,
            solver_iterations=(
                int(self.solver_iterations[scenario])
                if self.solver_iterations is not None
                else 0
            ),
        )

    def results(self) -> list[IRDropResult]:
        """Materialise every scenario as a full :class:`IRDropResult`."""
        return [self.result(i) for i in range(self.num_scenarios)]


@dataclass
class StreamedSweepResult:
    """Outcome of a chunk-streamed sweep that never held dense voltages.

    Streamed sweeps (:meth:`BatchedAnalysisEngine.analyze_scenario_stream`,
    :meth:`BatchedAnalysisEngine.analyze_mega_sweep`) produce scenarios in
    chunks and keep only the per-scenario reductions plus whatever the
    attached :class:`~repro.analysis.sinks.ScenarioSink` objects
    accumulated — the chunk working set is ``O(num_nodes * chunk_size)``
    regardless of sweep size (a mega-sweep adds its ``(L + P) ×
    num_nodes`` basis tables).

    Attributes:
        compiled: The compiled grid every scenario was solved on.
        num_scenarios: Number of scenarios streamed.
        chunk_size: Chunk width of the stream (RHS columns per solve for
            a direct-solve sweep, drop rows per chunk for a mega-sweep).
        reductions: Per-scenario worst / mean / worst-node reductions,
            computed over each scenario's contiguous drop row.
        sinks: The scenario sinks that observed the sweep, in order.
        analysis_time: Wall-clock time of the whole sweep in seconds.
        factorization_reused: True if at least one chunk was served from
            a factorization cache (the engine's, or a process shard
            worker's).
        workers: Parallelism the sweep ran with — 1 for the serial
            executor, ``shard_workers × threads_per_shard`` for the hybrid
            one, ``workers × threads_per_shard`` for the remote one.  Does
            not affect any exact result value.
        executor: Name of the executor that drove the sweep (one of
            :data:`~repro.analysis.executors.EXECUTOR_NAMES`).
        solver_method: The solver that produced every chunk
            (``"cached_lu"`` or ``"cg"``).
        solver_iterations: ``(num_scenarios,)`` per-scenario CG iteration
            counts (all zero on the direct path).
    """

    compiled: CompiledGrid
    num_scenarios: int
    chunk_size: int
    reductions: BatchReductions
    sinks: tuple[ScenarioSink, ...]
    analysis_time: float
    factorization_reused: bool
    workers: int = 1
    executor: str = "serial"
    solver_method: str = ENGINE_METHOD
    solver_iterations: np.ndarray | None = None

    @property
    def worst_ir_drop(self) -> np.ndarray:
        """Worst-case IR drop of each scenario, in volts."""
        return self.reductions.worst_ir_drop

    @property
    def average_ir_drop(self) -> np.ndarray:
        """Mean IR drop of each scenario over all nodes, in volts."""
        return self.reductions.average_ir_drop

    @property
    def worst_node_index(self) -> np.ndarray:
        """Compiled node index of the worst-drop node per scenario."""
        return self.reductions.worst_node_index

    @property
    def scenarios_per_second(self) -> float:
        """Solved-scenario throughput of the sweep."""
        return self.num_scenarios / self.analysis_time if self.analysis_time > 0 else 0.0

    def worst_node(self, scenario: int) -> str:
        """Name of the worst-drop node of one scenario."""
        return self.compiled.node_names[int(self.worst_node_index[scenario])]

    def sink_results(self) -> tuple:
        """Finished results of every attached sink, in sink order."""
        return tuple(sink.result() for sink in self.sinks)


@dataclass
class MegaSweepResult(StreamedSweepResult):
    """Streamed result of a pad-voltage × load cross-product mega-sweep.

    Scenario ``s`` combines load row ``s // num_pad_scenarios`` with pad
    row ``s % num_pad_scenarios`` (loads outer, pads inner).

    Attributes:
        num_load_scenarios: Number of rows of the load matrix swept.
        num_pad_scenarios: Number of rows of the pad-voltage matrix swept.
        basis_columns: Columns the sweep solved: ``num_load_scenarios +
            num_pad_scenarios`` (see :class:`LinearScenarioBasis`).
        basis_residual: Largest relative residual ``||A x - b|| / ||b||``
            over those columns.
    """

    num_load_scenarios: int = 0
    num_pad_scenarios: int = 0
    basis_columns: int = 0
    basis_residual: float = 0.0

    def scenario_pair(self, scenario: int) -> tuple[int, int]:
        """Map a global scenario index to its (load row, pad row) pair."""
        if not 0 <= scenario < self.num_scenarios:
            raise IndexError(f"scenario {scenario} out of range [0, {self.num_scenarios})")
        return scenario // self.num_pad_scenarios, scenario % self.num_pad_scenarios


class BatchedAnalysisEngine:
    """IR-drop analysis with a cross-solve sparse-factorization cache.

    The engine is the repository's one nodal solver: :meth:`analyze` runs a
    single IR-drop analysis for the planner, the vectorless analyzer and
    the CLI, and the batched entry points solve many load / pad-voltage
    scenarios against one cached factorization.

    Args:
        cache_size: Maximum number of factorizations kept alive (LRU).
        direct_size_limit: Systems with more unknowns than this fall back to
            the memory-lean preconditioned-CG solver
            (:func:`~repro.analysis.solvers.cg_solve`) instead of a cached
            LU factorization, because SuperLU fill-in can exhaust memory
            on the largest grids.
        default_workers: Worker-thread count used by chunked / streamed
            sweeps whose callers do not pass ``workers=`` explicitly.
            ``None`` (the default) reads :data:`WORKERS_ENV` and falls back
            to 1 (sequential).
        default_executor: Sweep executor used when a caller passes neither
            ``executor=`` nor ``workers=``.  ``None`` (the default) reads
            :data:`~repro.analysis.executors.EXECUTOR_ENV` — in that case
            sweeps the strategy cannot shard (non-mergeable sinks or an
            unpicklable source) fall back to the in-process threaded
            pipeline instead of failing — and otherwise uses the threaded
            pipeline (``HybridExecutor(1, default_workers)``).  A name from
            :data:`~repro.analysis.executors.EXECUTOR_NAMES` or an
            executor instance pins the strategy strictly.
        solver: Solver backend policy — a name from
            :data:`~repro.analysis.solvers.SOLVER_NAMES` (``"splu"``,
            ``"cholmod"``, ``"auto"``), a backend instance, or ``None``
            (the default) to read
            :data:`~repro.analysis.solvers.SOLVER_ENV` and fall back to
            ``splu``.  Requesting ``cholmod`` without ``scikit-sparse``
            installed degrades to ``splu`` with a warning.
        incremental_updates: Accepted only as ``False``.  Low-rank updates
            of a cached factorization were removed because a fresh
            factorization per conductance set is faster end to end;
            ``True`` raises :class:`ValueError`.
    """

    def __init__(
        self,
        cache_size: int = 8,
        direct_size_limit: int = 60000,
        default_workers: int | None = None,
        default_executor: SweepExecutor | str | None = None,
        solver: str | None = None,
        incremental_updates: bool = False,
    ) -> None:
        if incremental_updates:
            raise ValueError(
                "incremental_updates was removed: every cache miss is one "
                "fresh factorization"
            )
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        if direct_size_limit < 1:
            raise ValueError("direct_size_limit must be at least 1")
        if default_workers is None:
            default_workers = _default_workers()
        if default_workers < 1:
            raise ValueError("default_workers must be at least 1")
        self.cache_size = cache_size
        self.direct_size_limit = direct_size_limit
        self.default_workers = default_workers
        self._default_executor_lenient = False
        if default_executor is None:
            env_name = os.environ.get(EXECUTOR_ENV, "").strip()
            if env_name:
                try:
                    default_executor = self._executor_from_name(env_name)
                except ValueError as exc:
                    raise ValueError(f"{EXECUTOR_ENV}: {exc}") from exc
                # Environment-selected strategies downgrade gracefully so a
                # whole test suite can run under them without every
                # closure-source or non-mergeable-sink sweep failing.
                self._default_executor_lenient = True
        elif isinstance(default_executor, str):
            default_executor = self._executor_from_name(default_executor)
        self._default_executor = default_executor
        self.solver_backend = resolve_solver_backend(solver)
        self._cache_lock = threading.Lock()
        self._cache: OrderedDict[str, Factorization] = OrderedDict()  # guarded-by: _cache_lock
        self._factorizations = 0  # guarded-by: _cache_lock
        self._hits = 0  # guarded-by: _cache_lock

    def _executor_from_name(self, name: str) -> SweepExecutor:
        """Default-executor construction honouring ``default_workers``."""
        if name == "serial":
            return make_executor(name)
        workers = self.default_workers if self.default_workers > 1 else None
        return make_executor(name, workers)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> EngineCacheInfo:
        """Return factorization / cache-hit counters.

        Taken under the cache lock so a snapshot read concurrently with
        parallel chunk workers is coherent (counters and entry count from
        one moment, not interleaved with a mid-flight factorization).
        """
        with self._cache_lock:
            return EngineCacheInfo(
                factorizations=self._factorizations,
                hits=self._hits,
                entries=len(self._cache),
                backend=self.solver_backend.name,
            )

    def clear_cache(self) -> None:
        """Drop all cached factorizations (every counter is kept)."""
        with self._cache_lock:
            self._cache.clear()

    def _cache_key(self, fingerprint: str) -> str:
        """Per-backend cache key: factors from different backends never mix."""
        return f"{self.solver_backend.name}:{fingerprint}"

    def _factor(self, compiled: CompiledGrid) -> tuple[Factorization, bool]:
        """Return the (cached) factorization of the reduced matrix.

        Serialised by a lock so that parallel chunk workers racing on a
        cold cache perform exactly one factorization (and keep the LRU
        bookkeeping consistent); cache hits only pay an uncontended
        acquire.  A miss is always one fresh factorization.
        """
        key = self._cache_key(compiled.fingerprint)
        with self._cache_lock:
            factor = self._cache.get(key)
            if factor is not None:
                self._hits += 1
                self._cache.move_to_end(key)
                return factor, True
            factor = self.solver_backend.factor(compiled.reduced_matrix)
            self._factorizations += 1
            self._cache[key] = factor
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            return factor, False

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    @staticmethod
    def _compiled(network: PowerGridNetwork | CompiledGrid) -> CompiledGrid:
        compiled = network if isinstance(network, CompiledGrid) else network.compile()
        if compiled.pad_node.size == 0:
            raise ValueError("network has no voltage sources; the nodal system is singular")
        return compiled

    def _use_cg(self, compiled: CompiledGrid) -> bool:
        return compiled.num_unknowns > self.direct_size_limit

    def solver_method(self, network: PowerGridNetwork | CompiledGrid) -> str:
        """The method every solve on this grid uses: :data:`ENGINE_METHOD`
        (cached factorization) or :data:`CG_METHOD` (past
        ``direct_size_limit``)."""
        return CG_METHOD if self._use_cg(self._compiled(network)) else ENGINE_METHOD

    def _resolve_workers(self, workers: int | None) -> int:
        workers = self.default_workers if workers is None else workers
        if workers < 1:
            raise ValueError("workers must be at least 1")
        return workers

    def _sweep_executor(
        self, workers: int | None, executor: SweepExecutor | str | None
    ) -> tuple[SweepExecutor, bool]:
        """Resolve the ``(executor, lenient)`` pair for one sweep.

        Precedence: an explicit ``executor`` argument (by instance or
        name) wins; an explicit ``workers`` means the in-process threaded
        pipeline at that thread count (one shard); otherwise the engine
        default applies (``lenient`` marks the environment-derived
        default, whose incompatible sweeps downgrade to the threaded
        pipeline).
        """
        if executor is None:
            if workers is not None:
                return HybridExecutor(1, self._resolve_workers(workers)), False
            if self._default_executor is not None:
                return self._default_executor, self._default_executor_lenient
            return HybridExecutor(1, self.default_workers), False
        if isinstance(executor, str):
            return make_executor(executor, workers), False
        if workers is not None:
            raise ValueError(
                "pass parallelism either inside the executor or as workers=, not both"
            )
        return executor, False

    def _solve_unknowns(self, compiled: CompiledGrid, rhs: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve one RHS, returning unknown voltages and solver iterations."""
        if rhs.size == 0:
            return np.empty(0), 0
        if self._use_cg(compiled):
            return cg_solve(compiled.reduced_matrix, rhs)
        return self._factor(compiled)[0].solve(rhs), 0

    def solve_voltages(
        self,
        network: PowerGridNetwork | CompiledGrid,
        loads: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve one scenario and return per-node voltages in compiled order."""
        compiled = self._compiled(network)
        unknown, _ = self._solve_unknowns(compiled, compiled.rhs(loads))
        if not np.all(np.isfinite(unknown)):
            raise LinearSolverError("direct solve produced non-finite voltages")
        return compiled.full_voltages(unknown)

    def analyze(
        self,
        network: PowerGridNetwork | CompiledGrid,
        loads: np.ndarray | None = None,
        name: str | None = None,
    ) -> IRDropResult:
        """Run one IR-drop analysis.

        Args:
            network: The grid (or its compiled form) to analyse.
            loads: Optional per-node load override, in compiled node order.
            name: Optional result name override.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        unknown, iterations = self._solve_unknowns(compiled, compiled.rhs(loads))
        if not np.all(np.isfinite(unknown)):
            raise LinearSolverError("direct solve produced non-finite voltages")
        voltages = compiled.full_voltages(unknown)
        elapsed = time.perf_counter() - start
        return IRDropResult.from_voltages(
            compiled,
            voltages,
            name=name or compiled.name,
            analysis_time=elapsed,
            solver_method=self.solver_method(compiled),
            solver_iterations=iterations,
        )

    def _solve_rhs_block(
        self, compiled: CompiledGrid, rhs: np.ndarray
    ) -> tuple[np.ndarray, bool, np.ndarray]:
        """Solve one ``(num_unknowns, c)`` RHS block.

        Returns the unknown voltages, whether a cached factorization was
        reused, and the ``(c,)`` per-column solver iteration counts (all
        zero on the direct path, the actual CG iterations on the fallback).
        """
        iterations = np.zeros(rhs.shape[1], dtype=np.int64)
        if rhs.shape[0] == 0:
            return np.empty((0, rhs.shape[1])), False, iterations
        if self._use_cg(compiled):
            columns = []
            for k in range(rhs.shape[1]):
                voltages, iterations[k] = cg_solve(compiled.reduced_matrix, rhs[:, k])
                columns.append(voltages)
            unknown = np.column_stack(columns)
            reused = False
        else:
            factor, reused = self._factor(compiled)
            unknown = factor.solve(rhs)
        if not np.all(np.isfinite(unknown)):
            raise LinearSolverError("batched solve produced non-finite voltages")
        return unknown, reused, iterations

    def _validate_source_chunk(
        self,
        compiled: CompiledGrid,
        load_chunk: np.ndarray | None,
        pad_chunk: np.ndarray | None,
        begin: int,
        end: int,
    ) -> None:
        """Reject malformed source chunks before any sink observes them.

        Errors name the offending half-open scenario range, so a bad
        generator in a 1e5-scenario sweep points at the scenarios that
        produced it instead of a shape mismatch deep inside the RHS
        assembly.
        """
        if load_chunk is None and pad_chunk is None:
            raise ValueError(
                f"scenario source returned neither loads nor pad voltages "
                f"for scenarios [{begin}, {end})"
            )
        for label, chunk, width in (
            ("a load chunk", load_chunk, compiled.num_nodes),
            ("a pad-voltage chunk", pad_chunk, len(compiled.pad_node)),
        ):
            if chunk is None:
                continue
            if chunk.ndim != 2:
                raise ValueError(
                    f"scenario source returned {label} of shape {chunk.shape} for "
                    f"scenarios [{begin}, {end}); expected ({end - begin}, {width})"
                )
            if chunk.shape[0] != end - begin:
                raise ValueError(
                    f"scenario source returned {chunk.shape[0]} rows for "
                    f"scenarios [{begin}, {end})"
                )
            if chunk.shape[1] != width:
                raise ValueError(
                    f"scenario source returned {label} of width {chunk.shape[1]} for "
                    f"scenarios [{begin}, {end}); expected {width}"
                )

    def _stream_scenarios(
        self,
        compiled: CompiledGrid,
        scenario_source: ScenarioSource | LinearScenarioBasis,
        num_scenarios: int,
        chunk_size: int,
        sinks: Sequence[ScenarioSink],
        executor: SweepExecutor,
        lenient: bool = False,
        entry_point: str = "sweep",
    ) -> tuple[BatchReductions, bool, np.ndarray, SweepExecutor]:
        """Run one chunked sweep on an executor, with lenient fallback.

        ``lenient`` marks an environment-default executor: if it declares
        the sweep incompatible (:class:`ExecutorIncompatibility`, raised
        before any sink binds), the sweep downgrades to the in-process
        threaded pipeline at the engine's default worker count instead of
        failing —
        with a :class:`RuntimeWarning` naming the entry point and the
        offending sink class / source, so environment-sharded suites show
        which sweeps silently ran threaded.  Returns the reductions,
        reuse flag, iteration counts and the executor that actually ran
        the sweep.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        plan = SweepPlan(
            engine=self,
            compiled=compiled,
            scenario_source=scenario_source,
            num_scenarios=num_scenarios,
            chunk_size=chunk_size,
            sinks=tuple(sinks),
        )
        try:
            reductions, reused, iterations = executor.execute(plan)
        except ExecutorIncompatibility as exc:
            if not lenient:
                raise
            warnings.warn(
                f"{entry_point}: the environment-default {executor.name!r} executor "
                f"cannot run this sweep ({exc}); falling back to the threaded pipeline",
                RuntimeWarning,
                stacklevel=3,
            )
            executor = HybridExecutor(1, self.default_workers)
            reductions, reused, iterations = executor.execute(plan)
        return reductions, reused, iterations, executor

    def _run_chunk_pipeline(
        self,
        compiled: CompiledGrid,
        scenario_source: ScenarioSource | LinearScenarioBasis,
        num_scenarios: int,
        chunk_size: int,
        sinks: Sequence[ScenarioSink],
        workers: int = 1,
        offset: int = 0,
    ) -> tuple[BatchReductions, bool, np.ndarray]:
        """Solve a sweep chunk by chunk, feeding reductions and sinks.

        This is the engine-side pipeline every executor drives — in-process
        for the serial and single-shard sweeps, and once per shard inside
        the worker processes of a sharded sweep.  The dense
        ``(num_nodes, num_scenarios)`` voltage matrix never exists: each
        ``(num_nodes, ≤chunk_size)`` chunk is folded into the per-scenario
        reduction vectors and every attached sink, then dropped.

        The pipeline covers source scenarios ``[offset, offset +
        num_scenarios)``; reductions and sinks see them at local indices
        from 0, which is how a shard runs its sub-range as its own sweep.
        A :class:`LinearScenarioBasis` source is already solved: its
        chunks are combined drop rows, with no RHS and no solve.

        With ``workers > 1`` the chunk solves run on a thread pool while
        this thread keeps three sequential roles: it *produces* chunks (the
        scenario source is always called from the calling thread, in
        ascending order, so sources need not be thread-safe), it *bounds*
        the in-flight window at ``workers`` chunks (memory stays
        ``O(num_nodes * chunk_size * workers)``), and it *folds* finished
        chunks strictly in ascending scenario order (futures are awaited
        FIFO).  Each chunk's solve is deterministic and chunk-local, so the
        reductions, every sink state, and all solver metadata are
        bitwise-identical to the sequential path.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        for sink in sinks:
            sink.bind(compiled, num_scenarios)
        worst = np.empty(num_scenarios, dtype=float)
        average = np.empty(num_scenarios, dtype=float)
        worst_index = np.empty(num_scenarios, dtype=np.int64)
        iterations = np.zeros(num_scenarios, dtype=np.int64)
        reused = False

        # Both solve functions return (voltages or None, drop rows,
        # reductions, iterations, reused).  The chunk-local reductions are
        # deterministic, so computing them there keeps them on the worker
        # pool instead of adding to the fold thread's serial work.
        if isinstance(scenario_source, LinearScenarioBasis):
            basis = scenario_source

            def produce(begin: int, end: int) -> tuple:
                return offset + begin, offset + end

            def solve_chunk(job: tuple) -> tuple:
                drop_rows = basis.drop_rows(*job)
                return None, drop_rows, _row_reductions(drop_rows), basis.iterations(*job), False

        else:
            source = scenario_source

            def produce(begin: int, end: int) -> tuple:
                load_chunk, pad_chunk = source(offset + begin, offset + end)
                self._validate_source_chunk(
                    compiled, load_chunk, pad_chunk, offset + begin, offset + end
                )
                return load_chunk, pad_chunk

            def solve_chunk(job: tuple) -> tuple:
                load_chunk, pad_chunk = job
                pad_vectors = (
                    None if pad_chunk is None else compiled.pad_voltage_vectors(pad_chunk)
                )
                rhs = compiled.rhs_matrix(load_chunk, pad_chunk)
                unknown, chunk_reused, chunk_iterations = self._solve_rhs_block(compiled, rhs)
                voltages = compiled.full_voltages(unknown, pad_voltage_vectors=pad_vectors)
                drop_rows = np.ascontiguousarray((compiled.vdd - voltages).T)
                return (
                    voltages, drop_rows, _row_reductions(drop_rows), chunk_iterations,
                    chunk_reused,
                )

        def fold(begin: int, end: int, solved: tuple) -> None:
            nonlocal reused
            voltages, drop_rows, chunk_reductions, chunk_iterations, chunk_reused = solved
            reused = reused or chunk_reused
            worst[begin:end] = chunk_reductions.worst_ir_drop
            average[begin:end] = chunk_reductions.average_ir_drop
            worst_index[begin:end] = chunk_reductions.worst_node_index
            iterations[begin:end] = chunk_iterations
            _feed_sinks(sinks, compiled, voltages, drop_rows, begin)

        ranges = [
            (begin, min(begin + chunk_size, num_scenarios))
            for begin in range(0, num_scenarios, chunk_size)
        ]
        if workers <= 1 or len(ranges) <= 1:
            for begin, end in ranges:
                fold(begin, end, solve_chunk(produce(begin, end)))
        else:
            # Warm the lazily-built shared state (reduced matrix, pad RHS /
            # incidence) from this thread so workers only ever read it.
            compiled.reduced_matrix
            compiled.pad_rhs
            compiled.pad_incidence
            in_flight: deque = deque()
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-chunk"
            ) as pool:
                for begin, end in ranges:
                    while len(in_flight) >= workers:
                        oldest_begin, oldest_end, future = in_flight.popleft()
                        fold(oldest_begin, oldest_end, future.result())
                    in_flight.append((begin, end, pool.submit(solve_chunk, produce(begin, end))))
                while in_flight:
                    oldest_begin, oldest_end, future = in_flight.popleft()
                    fold(oldest_begin, oldest_end, future.result())
        reductions = BatchReductions(
            worst_ir_drop=worst, average_ir_drop=average, worst_node_index=worst_index
        )
        return reductions, reused, iterations

    def _batch_scenarios(
        self,
        compiled: CompiledGrid,
        load_matrix: np.ndarray | None,
        pad_voltage_matrix: np.ndarray | None,
        chunk_size: int | None,
        sinks: Sequence[ScenarioSink],
        executor: SweepExecutor,
        lenient: bool,
        entry_point: str,
    ) -> tuple[np.ndarray | None, BatchReductions | None, bool, np.ndarray]:
        """Shared core of the batched solvers.

        Without ``chunk_size`` the full ``(num_nodes, k)`` voltage matrix is
        returned (and offered to the sinks as one chunk); with it, scenarios
        are solved in RHS blocks of at most ``chunk_size`` columns and only
        the per-scenario worst / mean / worst-node reductions plus the sink
        states are accumulated, so the dense voltage matrix (and the dense
        RHS matrix) never exist for huge sweeps.  The executor only applies
        to the chunked path (an unsharded batch is a single RHS block).
        """
        k = (load_matrix if pad_voltage_matrix is None else pad_voltage_matrix).shape[0]
        if chunk_size is None:
            for sink in sinks:
                sink.bind(compiled, k)
            pad_vectors = (
                None
                if pad_voltage_matrix is None
                else compiled.pad_voltage_vectors(pad_voltage_matrix)
            )
            rhs = compiled.rhs_matrix(load_matrix, pad_voltage_matrix)
            unknown, reused, iterations = self._solve_rhs_block(compiled, rhs)
            voltages = compiled.full_voltages(unknown, pad_voltage_vectors=pad_vectors)
            if sinks:
                drop_rows = np.ascontiguousarray((compiled.vdd - voltages).T)
                _feed_sinks(sinks, compiled, voltages, drop_rows, 0)
            return voltages, None, reused, iterations

        source = MatrixScenarioSource(load_matrix, pad_voltage_matrix)
        reductions, reused, iterations, _ = self._stream_scenarios(
            compiled, source, k, chunk_size, sinks, executor, lenient, entry_point
        )
        return None, reductions, reused, iterations

    @staticmethod
    def _scenario_names(
        compiled: CompiledGrid, k: int, names: list[str] | tuple[str, ...] | None
    ) -> tuple[str, ...]:
        if names is None:
            return tuple(f"{compiled.name}[{i}]" for i in range(k))
        if len(names) != k:
            raise ValueError(f"expected {k} scenario names, got {len(names)}")
        return tuple(names)

    def analyze_batch(
        self,
        network: PowerGridNetwork | CompiledGrid,
        load_matrix: np.ndarray,
        names: list[str] | tuple[str, ...] | None = None,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        workers: int | None = None,
        executor: SweepExecutor | str | None = None,
    ) -> BatchAnalysisResult:
        """Solve many load scenarios against one factorization.

        Args:
            network: The grid (or its compiled form) all scenarios share.
            load_matrix: ``(num_scenarios, num_nodes)`` per-node currents in
                compiled node order.
            names: Optional per-scenario names.
            chunk_size: Optional RHS shard size.  When given, scenarios are
                solved in blocks of at most this many right-hand sides and
                the worst / mean / worst-node reductions are streamed, so
                the dense ``(num_nodes, num_scenarios)`` voltage matrix is
                never allocated — the memory high-water mark is
                ``O(num_nodes * chunk_size)`` regardless of sweep size.
            sinks: Scenario sinks to stream every solved voltage chunk
                into (see :mod:`repro.analysis.sinks`); composes with
                ``chunk_size``.  Each sink observes every scenario exactly
                once, in order.
            workers: Solver threads for the chunked path (one in-process
                shard); results are bitwise-identical to the sequential
                solve.  ``None`` uses the engine default.
            executor: Sweep-execution strategy for the chunked path — an
                executor instance or a name from
                :data:`~repro.analysis.executors.EXECUTOR_NAMES`
                (a sharded sweep requires every sink to be mergeable).
                Without ``chunk_size`` the batch is a single RHS block, so
                neither ``workers`` nor ``executor`` has any effect.

        Returns:
            A :class:`BatchAnalysisResult` — with the full voltage matrix,
            or (sharded) with streamed reductions only.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        executor_used, lenient = self._sweep_executor(workers, executor)
        load_matrix = np.asarray(load_matrix, dtype=float)
        if load_matrix.ndim != 2 or load_matrix.shape[1] != compiled.num_nodes:
            raise ValueError(
                f"load_matrix must be 2-D (num_scenarios, {compiled.num_nodes}), "
                f"got shape {load_matrix.shape}"
            )
        if load_matrix.shape[0] == 0:
            raise ValueError("load_matrix must contain at least one scenario")
        voltages, reductions, reused, iterations = self._batch_scenarios(
            compiled, load_matrix, None, chunk_size, sinks, executor_used, lenient,
            "analyze_batch",
        )
        elapsed = time.perf_counter() - start
        return BatchAnalysisResult(
            compiled=compiled,
            voltages=voltages,
            scenario_names=self._scenario_names(compiled, load_matrix.shape[0], names),
            analysis_time=elapsed,
            factorization_reused=reused,
            reductions=reductions,
            sinks=tuple(sinks),
            solver_method=self.solver_method(compiled),
            solver_iterations=iterations,
        )

    def analyze_pad_batch(
        self,
        network: PowerGridNetwork | CompiledGrid,
        pad_voltage_matrix: np.ndarray,
        load_matrix: np.ndarray | None = None,
        names: list[str] | tuple[str, ...] | None = None,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        workers: int | None = None,
        executor: SweepExecutor | str | None = None,
    ) -> BatchAnalysisResult:
        """Solve many pad-voltage scenarios against one factorization.

        Pad voltages only enter the right-hand side of the reduced system,
        so a NODE_VOLTAGES sweep (paper Fig. 9) shares a single
        factorization exactly like a current-only sweep: scenario ``i``
        fixes each pad to ``pad_voltage_matrix[i]`` instead of the grid's
        nominal pad voltages.

        Args:
            network: The grid (or its compiled form) all scenarios share.
            pad_voltage_matrix: ``(num_scenarios, num_pads)`` per-pad
                voltages aligned with the compiled grid's ``pad_names``.
            load_matrix: Optional ``(num_scenarios, num_nodes)`` per-node
                currents (the grid's own loads are used when omitted),
                letting one batch sweep currents and pad voltages together.
            names: Optional per-scenario names.
            chunk_size: Optional RHS shard size (see :meth:`analyze_batch`).
            sinks: Scenario sinks to stream every solved voltage chunk
                into (see :meth:`analyze_batch`).
            workers: Solver threads for the chunked path (see
                :meth:`analyze_batch`).
            executor: Sweep-execution strategy for the chunked path (see
                :meth:`analyze_batch`).

        Returns:
            A :class:`BatchAnalysisResult`; scenario voltages report each
            pad node at its per-scenario voltage.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        executor_used, lenient = self._sweep_executor(workers, executor)
        pad_voltage_matrix = np.asarray(pad_voltage_matrix, dtype=float)
        if pad_voltage_matrix.ndim != 2 or pad_voltage_matrix.shape[1] != len(compiled.pad_node):
            raise ValueError(
                "pad_voltage_matrix must be 2-D (num_scenarios, "
                f"{len(compiled.pad_node)})"
            )
        if pad_voltage_matrix.shape[0] == 0:
            raise ValueError("pad_voltage_matrix must contain at least one scenario")
        if load_matrix is not None:
            load_matrix = np.asarray(load_matrix, dtype=float)
            expected = (pad_voltage_matrix.shape[0], compiled.num_nodes)
            if load_matrix.shape != expected:
                raise ValueError(
                    f"load_matrix must have shape {expected} (num_scenarios, "
                    f"num_nodes) matching pad_voltage_matrix, got shape "
                    f"{load_matrix.shape}"
                )
        voltages, reductions, reused, iterations = self._batch_scenarios(
            compiled, load_matrix, pad_voltage_matrix, chunk_size, sinks, executor_used, lenient,
            "analyze_pad_batch",
        )
        elapsed = time.perf_counter() - start
        return BatchAnalysisResult(
            compiled=compiled,
            voltages=voltages,
            scenario_names=self._scenario_names(compiled, pad_voltage_matrix.shape[0], names),
            analysis_time=elapsed,
            factorization_reused=reused,
            reductions=reductions,
            sinks=tuple(sinks),
            solver_method=self.solver_method(compiled),
            solver_iterations=iterations,
        )

    def analyze_scenario_stream(
        self,
        network: PowerGridNetwork | CompiledGrid,
        scenario_source: ScenarioSource,
        num_scenarios: int,
        *,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        workers: int | None = None,
        executor: SweepExecutor | str | None = None,
    ) -> StreamedSweepResult:
        """Stream arbitrarily many generated scenarios through the sinks.

        Scenarios are *produced* chunk by chunk too: ``scenario_source``
        is asked for at most ``chunk_size`` rows at a time, so sweeps
        whose scenario set is generated (cross products, random sampling)
        never materialise the full ``(num_scenarios, num_nodes)`` load
        matrix either — the whole pipeline, inputs included, runs in
        ``O(num_nodes * chunk_size)`` memory (times the executor's
        parallelism when solving in parallel).

        Args:
            network: The grid (or its compiled form) all scenarios share.
            scenario_source: Chunk generator; see :data:`ScenarioSource`.
                Serial and single-shard sweeps always call it from the
                calling thread in ascending order; a process-sharded
                sweep calls pickled copies from its workers, each over a
                contiguous sub-range.
            num_scenarios: Total number of scenarios to stream.
            chunk_size: RHS chunk width (and source request size).
                ``None`` picks an adaptive width via
                :func:`resolve_chunk_size` from the grid size and the
                executor's parallelism.
            sinks: Scenario sinks to stream every solved chunk into.
            workers: Solver threads for the chunk solves; sinks still fold
                in ascending scenario order, so every result is
                bitwise-identical to the sequential sweep.  ``None`` uses
                the engine default.
            executor: Sweep-execution strategy (see :meth:`analyze_batch`).

        Returns:
            A :class:`StreamedSweepResult` with the per-scenario
            reductions and the consumed sinks.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        executor_used, lenient = self._sweep_executor(workers, executor)
        if num_scenarios < 1:
            raise ValueError("num_scenarios must be at least 1")
        if chunk_size is None:
            chunk_size = resolve_chunk_size(compiled.num_unknowns, executor_used.parallelism)
        reductions, reused, iterations, executor_used = self._stream_scenarios(
            compiled, scenario_source, num_scenarios, chunk_size, sinks, executor_used, lenient,
            "analyze_scenario_stream",
        )
        return StreamedSweepResult(
            compiled=compiled,
            num_scenarios=num_scenarios,
            chunk_size=chunk_size,
            reductions=reductions,
            sinks=tuple(sinks),
            analysis_time=time.perf_counter() - start,
            factorization_reused=reused,
            workers=executor_used.parallelism,
            executor=executor_used.name,
            solver_method=self.solver_method(compiled),
            solver_iterations=iterations,
        )

    def _mega_sweep_inputs(
        self,
        compiled: CompiledGrid,
        load_matrix: np.ndarray,
        pad_voltage_matrix: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate the two input matrices of a cross-product sweep."""
        load_matrix = np.asarray(load_matrix, dtype=float)
        if load_matrix.ndim != 2 or load_matrix.shape[1] != compiled.num_nodes:
            raise ValueError(
                f"load_matrix must be 2-D (num_load_scenarios, {compiled.num_nodes}), "
                f"got shape {load_matrix.shape}"
            )
        pad_voltage_matrix = np.asarray(pad_voltage_matrix, dtype=float)
        num_pads = len(compiled.pad_node)
        if pad_voltage_matrix.ndim != 2 or pad_voltage_matrix.shape[1] != num_pads:
            raise ValueError(
                f"pad_voltage_matrix must be 2-D (num_pad_scenarios, {num_pads}), "
                f"got shape {pad_voltage_matrix.shape}"
            )
        if load_matrix.shape[0] == 0 or pad_voltage_matrix.shape[0] == 0:
            raise ValueError("both matrices must contain at least one scenario row")
        return load_matrix, pad_voltage_matrix

    def _solve_basis(
        self,
        compiled: CompiledGrid,
        load_matrix: np.ndarray,
        pad_voltage_matrix: np.ndarray,
    ) -> tuple[LinearScenarioBasis, bool]:
        """Solve the ``L + P`` basis columns as one block; see :meth:`mega_sweep_basis`.

        Returns the basis and whether a cached factorization served it.
        """
        num_loads = load_matrix.shape[0]
        pad_vectors = compiled.pad_voltage_vectors(pad_voltage_matrix)
        # Load columns solve for the drop the loads cause (A d = loads), pad
        # columns for the voltages the pads hold up with no load.
        rhs = np.empty((compiled.num_unknowns, num_loads + pad_vectors.shape[0]))
        rhs[:, :num_loads] = load_matrix[:, compiled.unknown_sel].T
        rhs[:, num_loads:] = compiled.pad_incidence @ pad_vectors.T
        unknown, reused, iterations = self._solve_rhs_block(compiled, rhs)
        rhs_norms = np.linalg.norm(rhs, axis=0)
        residuals = np.linalg.norm(compiled.reduced_matrix @ unknown - rhs, axis=0)
        relative = residuals / np.where(rhs_norms > 0, rhs_norms, 1.0)
        residual = float(relative.max()) if relative.size else 0.0
        if not self._use_cg(compiled) and not residual <= BASIS_RESIDUAL_TOLERANCE:
            # CG enforces its own CG_TOLERANCE column by column.
            raise LinearSolverError(
                f"mega-sweep basis solve left a relative residual of {residual:.3e} "
                f"> {BASIS_RESIDUAL_TOLERANCE:g}"
            )

        vdd = compiled.vdd
        unknown_sel = compiled.unknown_sel
        pad_sel = compiled.pad_node
        load_drops = np.zeros((num_loads, compiled.num_nodes))
        load_drops[:, unknown_sel] = unknown[:, :num_loads].T
        pad_drops = np.empty_like(pad_vectors)
        pad_drops[:, unknown_sel] = vdd - unknown[:, num_loads:].T
        pad_drops[:, pad_sel] = vdd - pad_vectors[:, pad_sel]
        basis = LinearScenarioBasis(
            load_drops=load_drops,
            pad_drops=pad_drops,
            load_iterations=iterations[:num_loads],
            pad_iterations=iterations[num_loads:],
            residual=residual,
        )
        return basis, reused

    def mega_sweep_basis(
        self,
        network: PowerGridNetwork | CompiledGrid,
        load_matrix: np.ndarray,
        pad_voltage_matrix: np.ndarray,
    ) -> LinearScenarioBasis:
        """Solve the superposition basis of a load × pad cross product.

        One multi-RHS block of ``L + P`` columns against the cached
        factorization (per-column CG past ``direct_size_limit``): the
        ``L`` load rows on their own and the ``P`` pad-voltage rows with
        no load.  The block must be finite, and on the direct path every
        column's relative residual must be at most
        :data:`BASIS_RESIDUAL_TOLERANCE`; either failure raises
        :class:`~repro.analysis.solvers.LinearSolverError`.

        :meth:`analyze_mega_sweep` sweeps exactly this basis, so the rows
        it returns hold the bits the sweep folded — the top-k replay
        (:meth:`~repro.analysis.sinks.TopKScenarioSink.rematerialize`)
        relies on that.

        Args:
            network: The grid (or its compiled form).
            load_matrix: ``(L, num_nodes)`` per-node currents.
            pad_voltage_matrix: ``(P, num_pads)`` per-pad voltages.
        """
        compiled = self._compiled(network)
        load_matrix, pad_voltage_matrix = self._mega_sweep_inputs(
            compiled, load_matrix, pad_voltage_matrix
        )
        return self._solve_basis(compiled, load_matrix, pad_voltage_matrix)[0]

    def analyze_mega_sweep(
        self,
        network: PowerGridNetwork | CompiledGrid,
        load_matrix: np.ndarray,
        pad_voltage_matrix: np.ndarray,
        *,
        chunk_size: int | None = None,
        sinks: Sequence[ScenarioSink] = (),
        workers: int | None = None,
        executor: SweepExecutor | str | None = None,
    ) -> MegaSweepResult:
        """Sweep the full load × pad-voltage cross product by superposition.

        Every combination of a load row and a pad-voltage row becomes one
        scenario (``L * P`` in total, loads outer, pads inner).  The
        right-hand side is linear in (loads, pads), so the sweep solves
        only ``L + P`` columns — one block against a single cached
        factorization (:meth:`mega_sweep_basis`) — and streams scenario
        ``s`` as the drop row ``load_drops[s // P] + pad_drops[s % P]``,
        pad nodes included, through the reductions and sinks chunk by
        chunk.  The combined scenario set is never materialised: memory
        is the two ``(L + P) × num_nodes`` basis tables plus one chunk of
        drop rows per chunk in flight.

        Each value is one elementwise add, so the reductions and every
        sink are bitwise-identical for every chunk size, executor, shard
        split and thread count.  Against a direct solve of each scenario
        (:meth:`analyze_pad_batch`) they agree within 1e-12 V — the sums
        round differently.  This is the vectorless-style workload entry
        point: pair it with quantile / histogram / exceedance / top-k
        sinks to characterise the whole operating envelope in one pass.

        Args:
            network: The grid (or its compiled form) all scenarios share.
            load_matrix: ``(num_load_scenarios, num_nodes)`` per-node
                currents in compiled node order (e.g. from
                :func:`~repro.grid.perturbation.floorplan_perturbed_load_matrix`).
            pad_voltage_matrix: ``(num_pad_scenarios, num_pads)`` per-pad
                voltages aligned with the compiled ``pad_names`` (e.g.
                from
                :func:`~repro.grid.perturbation.perturbed_pad_voltage_matrix`).
            chunk_size: Drop-row chunk width bounding the working memory
                (``None`` = adaptive, see :func:`resolve_chunk_size`).
            sinks: Scenario sinks to stream every chunk into.
            workers: Threads combining and reducing chunks (see
                :meth:`analyze_scenario_stream`).
            executor: Sweep-execution strategy (see :meth:`analyze_batch`);
                ``"hybrid"`` shards the cross product across worker
                processes, which receive the basis tables and solve
                nothing, and merges the mergeable sinks.

        Returns:
            A :class:`MegaSweepResult` over all combined scenarios; each
            scenario's ``solver_iterations`` is its load column's count
            plus its pad column's count.
        """
        start = time.perf_counter()
        compiled = self._compiled(network)
        executor_used, lenient = self._sweep_executor(workers, executor)
        load_matrix, pad_voltage_matrix = self._mega_sweep_inputs(
            compiled, load_matrix, pad_voltage_matrix
        )
        if chunk_size is None:
            chunk_size = resolve_chunk_size(compiled.num_unknowns, executor_used.parallelism)
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        basis, reused = self._solve_basis(compiled, load_matrix, pad_voltage_matrix)
        reductions, _, iterations, executor_used = self._stream_scenarios(
            compiled, basis, basis.num_scenarios, chunk_size, sinks, executor_used, lenient,
            "analyze_mega_sweep",
        )
        return MegaSweepResult(
            compiled=compiled,
            num_scenarios=basis.num_scenarios,
            chunk_size=chunk_size,
            reductions=reductions,
            sinks=tuple(sinks),
            analysis_time=time.perf_counter() - start,
            factorization_reused=reused,
            workers=executor_used.parallelism,
            executor=executor_used.name,
            solver_method=self.solver_method(compiled),
            solver_iterations=iterations,
            num_load_scenarios=load_matrix.shape[0],
            num_pad_scenarios=pad_voltage_matrix.shape[0],
            basis_columns=basis.num_columns,
            basis_residual=basis.residual,
        )
