"""Independent reference analysis for the test-suite.

The analysis engine assembles the reduced nodal system through
:class:`~repro.grid.compiled.CompiledGrid` (vectorised COO stamping) and
factors it through the pluggable solver backends.  The oracle here shares
neither: it stamps the system resistor by resistor from the object-level
network, as the pre-compiled assembler did, and solves it with
``scipy.sparse.linalg.spsolve``.  Tests compare the engine against it, and
tests of downstream consumers (EM checks, constraints, branch currents) feed
on it so that they do not depend on the engine they sit next to.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import IRDropResult
from repro.analysis.vectorless import VectorlessBudget
from repro.grid import GROUND_NODE, CurrentSource, PowerGridNetwork


def reference_assemble(network: PowerGridNetwork):
    """Stamp ``G v = b`` over the non-pad nodes, one resistor at a time.

    Returns:
        ``(matrix, rhs, unknown)``: the sparse CSR conductance matrix, the
        right-hand side (loads plus pad contributions) and the unknown node
        names in row order (network order, pads removed).
    """
    fixed = {source.node: source.voltage for source in network.iter_pads()}
    unknown = [name for name in network.nodes if name not in fixed]
    index = {name: i for i, name in enumerate(unknown)}
    stamps: dict[tuple[int, int], float] = {}
    rhs = np.zeros(len(unknown))

    def stamp(i: int, j: int, value: float) -> None:
        stamps[(i, j)] = stamps.get((i, j), 0.0) + value

    for resistor in network.iter_resistors():
        g = 1.0 / resistor.resistance
        a, b = resistor.node_a, resistor.node_b
        if a == GROUND_NODE and b == GROUND_NODE:
            continue
        if a == GROUND_NODE or b == GROUND_NODE:
            node = b if a == GROUND_NODE else a
            if node in index:
                stamp(index[node], index[node], g)
            continue
        a_fixed, b_fixed = a in fixed, b in fixed
        if a_fixed and b_fixed:
            continue
        if a_fixed or b_fixed:
            fixed_node, free = (a, b) if a_fixed else (b, a)
            stamp(index[free], index[free], g)
            rhs[index[free]] += g * fixed[fixed_node]
            continue
        i, j = index[a], index[b]
        stamp(i, i, g)
        stamp(j, j, g)
        stamp(i, j, -g)
        stamp(j, i, -g)
    for load in network.iter_loads():
        if load.node in index:
            rhs[index[load.node]] -= load.current
    n = len(unknown)
    if stamps:
        rows, cols = zip(*stamps)
        matrix = sp.csr_matrix((list(stamps.values()), (rows, cols)), shape=(n, n))
    else:
        matrix = sp.csr_matrix((n, n))
    return matrix, rhs, unknown


def reference_voltages(network: PowerGridNetwork) -> dict[str, float]:
    """Every node's voltage: pads at their source voltage, the rest solved."""
    matrix, rhs, unknown = reference_assemble(network)
    voltages = {source.node: source.voltage for source in network.iter_pads()}
    solution = np.atleast_1d(spla.spsolve(matrix.tocsc(), rhs))
    voltages.update(zip(unknown, (float(value) for value in solution)))
    return voltages


def reference_analyze(network: PowerGridNetwork) -> IRDropResult:
    """Static IR-drop result of ``network`` from the reference solve."""
    start = time.perf_counter()
    voltages = reference_voltages(network)
    elapsed = time.perf_counter() - start
    ir_drop = {name: network.vdd - voltage for name, voltage in voltages.items()}
    values = np.fromiter(ir_drop.values(), dtype=float)
    return IRDropResult(
        network_name=network.name,
        vdd=network.vdd,
        node_voltages=voltages,
        node_ir_drop=ir_drop,
        worst_ir_drop=float(values.max()),
        worst_node=max(ir_drop, key=ir_drop.get),
        average_ir_drop=float(values.mean()),
        analysis_time=elapsed,
        solver_method="spsolve",
        solver_iterations=0,
    )


def reference_vectorless_bound(
    network: PowerGridNetwork, budget: VectorlessBudget
) -> IRDropResult:
    """IR drop at the budgeted worst case: every load at its maximum, then
    all scaled down uniformly onto the global utilisation cap."""
    loads = [
        CurrentSource(
            name=load.name,
            node=load.node,
            current=budget.per_load_max.get(load.name, load.current),
            block=load.block,
        )
        for load in network.iter_loads()
    ]
    total = sum(load.current for load in loads)
    allowed = total * budget.global_utilisation
    if total > 0 and allowed < total:
        loads = [load.scaled(allowed / total) for load in loads]
    return reference_analyze(network.replace_loads(loads, name=f"{network.name}_vectorless"))


def max_voltage_difference(expected: IRDropResult, actual: IRDropResult) -> float:
    """Worst per-node voltage difference between two results over one node set."""
    assert set(expected.node_voltages) == set(actual.node_voltages)
    return max(
        abs(voltage - actual.node_voltages[name])
        for name, voltage in expected.node_voltages.items()
    )


def reference_histogram_fold(
    edges: np.ndarray, drops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node histogram of ``(c, num_nodes)`` drop rows, counted mask by mask.

    ``numpy.histogram`` semantics per node: bin ``i`` is ``[edges[i],
    edges[i+1])`` with the last bin closed on the right, values below
    ``edges[0]`` underflow, values above ``edges[-1]`` overflow and NaN is
    counted nowhere.  This is the fold :class:`NodeHistogramSink` ran
    before it binned into one slot table; the sink must match it bitwise.

    Returns:
        ``(counts, underflow, overflow)``: ``(num_nodes, num_bins)`` and
        two ``(num_nodes,)`` integer arrays.
    """
    edges = np.asarray(edges, dtype=float)
    num_nodes, num_bins = drops.shape[1], edges.size - 1
    bins = np.searchsorted(edges, drops, side="right") - 1
    bins[drops == edges[-1]] = num_bins - 1
    in_range = (drops >= edges[0]) & (drops <= edges[-1])
    node_of = np.broadcast_to(np.arange(num_nodes), drops.shape)
    flat = node_of[in_range] * num_bins + bins[in_range]
    counts = np.bincount(flat, minlength=num_nodes * num_bins).reshape(num_nodes, num_bins)
    underflow = (drops < edges[0]).sum(axis=0)
    overflow = (drops > edges[-1]).sum(axis=0)
    return counts, underflow, overflow


def update_incidence(base, clone) -> tuple[sp.csc_matrix, np.ndarray]:
    """Reduced-space incidence ``B`` and deltas of the branches two grids differ on.

    ``base`` and ``clone`` are compiled grids on one topology.  Every branch
    whose conductance changed contributes one column: ``e_i`` when one
    endpoint is a free node ``i`` (the other a pad or ground) and
    ``e_i - e_j`` when both are free; branches with no free endpoint do
    not touch the reduced matrix and are dropped.  Then
    ``clone.reduced_matrix - base.reduced_matrix == B @ diag(delta) @ B.T``.
    """
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    delta: list[float] = []
    for branch in np.flatnonzero(clone.conductance != base.conductance):
        free = [
            int(clone.unknown_index[node])
            for node in (clone.res_a[branch], clone.res_b[branch])
            if node >= 0 and not clone.is_pad[node]
        ]
        if not free:
            continue
        for sign, row in zip((1.0, -1.0), free):
            rows.append(row)
            cols.append(len(delta))
            data.append(sign)
        delta.append(float(clone.conductance[branch] - base.conductance[branch]))
    incidence = sp.csc_matrix((data, (rows, cols)), shape=(clone.num_unknowns, len(delta)))
    return incidence, np.asarray(delta)
