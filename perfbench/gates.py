"""Correctness gates the benchmark applies to the program's outputs.

Each gate returns a list of failure reasons (empty when the output
passes), so the caller can count the op as failed and say why.
Tolerances instead of stored goldens let an optimisation that
reassociates floating-point sums still pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

VOLTAGE_TOLERANCE_V = 1e-12
"""Streamed-sweep reductions vs an independent unchunked batch solve."""

RESIDUAL_TOLERANCE = 1e-10
"""Largest relative residual ``||A x - b|| / ||b||`` accepted per scenario."""

PLAN_TOLERANCE_V = 1e-9
"""Final plan voltages vs a fresh-engine re-analysis."""

WIDTH_TOLERANCE_UM = 1e-9
"""Slack on the design-rule width bounds."""


def bitwise_equal(left: object, right: object) -> bool:
    """True when two results hold the same bits in every field.

    Dataclasses compare field by field; arrays compare by dtype, shape
    and raw bytes, so ``-0.0`` vs ``0.0`` or a NaN payload difference
    counts as a mismatch.
    """
    if dataclasses.is_dataclass(left) and not isinstance(left, type):
        if type(left) is not type(right):
            return False
        return all(
            bitwise_equal(getattr(left, field.name), getattr(right, field.name))
            for field in dataclasses.fields(left)
        )
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        left, right = np.asarray(left), np.asarray(right)
        return (
            left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if isinstance(left, (tuple, list)):
        return (
            isinstance(right, (tuple, list))
            and len(left) == len(right)
            and all(bitwise_equal(a, b) for a, b in zip(left, right))
        )
    return type(left) is type(right) and left == right


def sweep_mismatches(reference, reference_sinks, candidate, candidate_sinks) -> list[str]:
    """Parts of a sweep that differ bitwise from the reference sweep.

    Compares the streamed per-scenario reductions and every sink result.
    """
    failures = [
        field
        for field in ("worst_ir_drop", "average_ir_drop", "worst_node_index")
        if not bitwise_equal(getattr(reference, field), getattr(candidate, field))
    ]
    for name, sink in reference_sinks.items():
        if not bitwise_equal(sink.result(), candidate_sinks[name].result()):
            failures.append(f"{name} sink")
    return [f"{part} differs bitwise from the serial sweep" for part in failures]


def residual_failures(compiled, voltages, load_matrix, pad_matrix) -> list[str]:
    """Fail when any scenario's ``||A x - b|| / ||b||`` exceeds the tolerance.

    ``voltages`` is ``(num_nodes, k)``; ``A`` and ``b`` come straight from
    :attr:`CompiledGrid.reduced_matrix` and :meth:`CompiledGrid.rhs_matrix`.
    """
    unknown = np.asarray(voltages)[compiled.unknown_sel]
    rhs = compiled.rhs_matrix(load_matrix, pad_matrix)
    residual = compiled.reduced_matrix @ unknown - rhs
    worst = float(np.max(np.linalg.norm(residual, axis=0) / np.linalg.norm(rhs, axis=0)))
    if not worst <= RESIDUAL_TOLERANCE:
        return [f"relative residual {worst:.3e} > {RESIDUAL_TOLERANCE:g}"]
    return []


def reference_failures(sweep, voltages) -> list[str]:
    """Streamed per-scenario reductions vs independently solved voltages.

    ``voltages`` holds the ``(num_nodes, num_scenarios)`` node voltages of
    an unchunked batch solve of the same scenarios; worst and mean drop
    must agree within :data:`VOLTAGE_TOLERANCE_V` and the worst node must
    be the same.
    """
    drops = sweep.compiled.vdd - np.asarray(voltages)
    error = max(
        float(np.max(np.abs(sweep.worst_ir_drop - drops.max(axis=0)))),
        float(np.max(np.abs(sweep.average_ir_drop - drops.mean(axis=0)))),
    )
    failures = []
    if not error <= VOLTAGE_TOLERANCE_V:
        failures.append(
            f"streamed reductions differ from the batch solve by {error:.3e} V "
            f"> {VOLTAGE_TOLERANCE_V:g} V"
        )
    if not np.array_equal(sweep.worst_node_index, drops.argmax(axis=0)):
        failures.append("streamed worst nodes differ from the batch solve")
    return failures


def width_failures(widths, rules) -> list[str]:
    """Widths must be finite and inside the design rules' bounds."""
    widths = np.asarray(widths, dtype=float)
    if not np.all(np.isfinite(widths)):
        return ["non-finite width"]
    low = rules.min_width - WIDTH_TOLERANCE_UM
    high = rules.max_width + WIDTH_TOLERANCE_UM
    if np.any(widths < low) or np.any(widths > high):
        return [
            f"width outside [{rules.min_width}, {rules.max_width}] um: "
            f"{float(widths.min())}..{float(widths.max())}"
        ]
    return []


def plan_failures(plan, planner, floorplan, topology) -> list[str]:
    """Re-analyse a final plan on a fresh engine and re-check its constraints.

    The final grid is rebuilt from the plan's widths, solved by a new
    engine without incremental updates, and must reproduce the plan's
    voltages; the re-analysed design must meet the IR-drop, EM and
    core-budget constraints.
    """
    from repro.analysis import BatchedAnalysisEngine, EMChecker
    from repro.design import ReliabilityConstraints
    from repro.grid import GridBuilder

    if not plan.converged:
        return [f"plan did not converge in {plan.num_iterations} iterations"]
    compiled = GridBuilder(planner.technology).build_compiled(floorplan, topology, plan.widths)
    loads = None
    if plan.search is not None and plan.search.committed:
        loads = plan.search.committed[-1].loads
    result = BatchedAnalysisEngine(incremental_updates=False).analyze(compiled, loads)
    fresh = compiled.voltage_array(result.node_voltages)
    planned = compiled.voltage_array(plan.ir_result.node_voltages)
    failures = []
    error = float(np.max(np.abs(fresh - planned)))
    if error > PLAN_TOLERANCE_V:
        failures.append(f"re-analysis differs by {error:.3e} V > {PLAN_TOLERANCE_V:g} V")
    constraints = ReliabilityConstraints.from_technology(
        planner.technology, floorplan.core_width, floorplan.core_height
    )
    em_report = EMChecker(planner.technology).check_voltages(compiled, fresh)
    widths = np.asarray(plan.widths)
    evaluation = constraints.evaluate(
        result,
        em_report,
        widths[: topology.num_vertical],
        widths[topology.num_vertical :],
        planner.rules,
    )
    if not evaluation.all_satisfied:
        failures.append(f"re-analysed plan violates its constraints: {evaluation}")
    return failures + width_failures(widths, planner.rules)
