"""Independent reference implementations for the test-suite.

The analysis engine assembles the reduced nodal system through
:class:`~repro.grid.compiled.CompiledGrid` (vectorised COO stamping) and
factors it through the pluggable solver backends.  The oracle here shares
neither: it stamps the system resistor by resistor from the object-level
network, as the pre-compiled assembler did, and solves it with
``scipy.sparse.linalg.spsolve``.  Tests compare the engine against it, and
tests of downstream consumers (EM checks, constraints, branch currents) feed
on it so that they do not depend on the engine they sit next to.

The DL prediction path has loop references too: Algorithm 2 evaluated one
line at a time (:func:`reference_kirchhoff_predict`), its Fig. 8
rasterisation one segment at a time (:func:`reference_kirchhoff_map`) and
the per-line width aggregation one mask scan per line
(:func:`reference_aggregate`).  The library evaluates all three as array
operations over every line of a direction at once and must match these
bitwise (the mean aggregation within rounding, since it sums in another
order).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import IRDropResult
from repro.analysis.vectorless import VectorlessBudget
from repro.core.irdrop_model import IRDropPrediction, KirchhoffIRDropEstimator
from repro.design.rules import DesignRules
from repro.grid import GROUND_NODE, CurrentSource, Floorplan, GridTopology, PowerGridNetwork


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


def reference_kirchhoff_predict(
    estimator: KirchhoffIRDropEstimator,
    floorplan: Floorplan,
    topology: GridTopology,
    line_widths: np.ndarray,
) -> IRDropPrediction:
    """Algorithm 2 one line at a time: the loop ``estimator.predict`` replaced.

    Every line is solved as its own multi-feed 1-D ladder by
    :func:`reference_line_ladder_drop`, with the orthogonal-width median
    recomputed per line, exactly as the estimator did before it evaluated a
    whole direction as ``(lines, segments)`` arrays.
    """
    line_widths = np.asarray(line_widths, dtype=float)
    pad_xs = np.asarray([pad.x for pad in floorplan.iter_pads()])
    pad_ys = np.asarray([pad.y for pad in floorplan.iter_pads()])
    start = time.perf_counter()
    line_currents = estimator.allocate_line_currents(floorplan, topology)

    technology = estimator.technology
    v_layer = technology.vertical_layer
    h_layer = technology.horizontal_layer
    num_pads = pad_xs.size
    pad_pitch_x = floorplan.core_width / max(np.sqrt(num_pads), 1.0)
    pad_pitch_y = floorplan.core_height / max(np.sqrt(num_pads), 1.0)

    v_positions = np.asarray(topology.vertical_positions)
    h_positions = np.asarray(topology.horizontal_positions)
    v_midpoints = (h_positions[:-1] + h_positions[1:]) / 2.0
    h_midpoints = (v_positions[:-1] + v_positions[1:]) / 2.0
    v_grid_x, v_grid_y = np.meshgrid(v_positions, v_midpoints, indexing="ij")
    h_grid_x, h_grid_y = np.meshgrid(h_midpoints, h_positions, indexing="xy")
    vertical_local_currents = floorplan.switching_currents_at(v_grid_x, v_grid_y)
    horizontal_local_currents = floorplan.switching_currents_at(h_grid_x, h_grid_y)

    line_ir_drop = np.zeros(topology.num_lines, dtype=float)
    segment_ir_drop: list[np.ndarray] = []
    for line_id in range(topology.num_lines):
        vertical = topology.is_vertical(line_id)
        layer = v_layer if vertical else h_layer
        if vertical:
            coordinate = topology.vertical_positions[line_id]
            span_positions = h_positions
            pad_axis, pad_other = pad_ys, pad_xs
            pad_reach = pad_pitch_x
            local_currents = vertical_local_currents[line_id]
            orthogonal_layer = h_layer
            orthogonal_width = float(np.median(line_widths[topology.num_vertical :]))
        else:
            row = line_id - topology.num_vertical
            coordinate = topology.horizontal_positions[row]
            span_positions = v_positions
            pad_axis, pad_other = pad_xs, pad_ys
            pad_reach = pad_pitch_y
            local_currents = horizontal_local_currents[row]
            orthogonal_layer = v_layer
            orthogonal_width = float(np.median(line_widths[: topology.num_vertical]))

        drops = reference_line_ladder_drop(
            span_positions=span_positions,
            pad_axis_positions=pad_axis,
            pad_other_positions=pad_other,
            pad_reach=pad_reach,
            line_coordinate=coordinate,
            sheet_resistance=layer.sheet_resistance,
            width=line_widths[line_id],
            total_current=line_currents[line_id] * estimator.sharing_factor,
            local_currents=local_currents,
            approach_resistance_per_um=(
                estimator.approach_factor
                * orthogonal_layer.sheet_resistance
                / max(orthogonal_width, 1e-9)
            ),
            via_resistance=technology.via_resistance,
        )
        segment_ir_drop.append(drops)
        line_ir_drop[line_id] = drops.max() if drops.size else 0.0

    worst_line = int(np.argmax(line_ir_drop))
    return IRDropPrediction(
        line_ir_drop=line_ir_drop,
        segment_ir_drop=segment_ir_drop,
        worst_ir_drop=float(line_ir_drop[worst_line]),
        worst_line=worst_line,
        prediction_time=time.perf_counter() - start,
        line_currents=line_currents,
    )


def reference_line_ladder_drop(
    span_positions: np.ndarray,
    pad_axis_positions: np.ndarray,
    pad_other_positions: np.ndarray,
    pad_reach: float,
    line_coordinate: float,
    sheet_resistance: float,
    width: float,
    total_current: float,
    local_currents: np.ndarray,
    approach_resistance_per_um: float = 0.0,
    via_resistance: float = 0.0,
) -> np.ndarray:
    """IR drop along one line modelled as a multi-feed 1-D ladder.

    Taps follow the local switching current (uniform when none); feeds are
    the crossings nearest to the pads within one pad pitch of the line
    (else the single nearest pad); each segment drains to its nearest feed
    and the drop accumulates away from the feed on top of the feed's
    approach drop.
    """
    num_segments = span_positions.size - 1
    if num_segments <= 0:
        return np.zeros(0)

    midpoints = (span_positions[:-1] + span_positions[1:]) / 2.0
    lengths = np.diff(span_positions)
    resistances = sheet_resistance * lengths / width

    local_currents = np.asarray(local_currents, dtype=float)
    if local_currents.sum() <= 0:
        taps = np.full(num_segments, total_current / num_segments)
    else:
        taps = total_current * local_currents / local_currents.sum()

    distance_to_line = np.abs(pad_other_positions - line_coordinate)
    nearby = distance_to_line <= pad_reach
    if not np.any(nearby):
        nearby = distance_to_line == distance_to_line.min()
    feed_positions = pad_axis_positions[nearby]
    feed_distances = distance_to_line[nearby]
    projected = np.argmin(np.abs(span_positions[None, :] - feed_positions[:, None]), axis=1)
    feed_indices, inverse = np.unique(projected, return_inverse=True)
    approach_distance = np.full(feed_indices.shape, np.inf)
    np.minimum.at(approach_distance, inverse, feed_distances)

    feed_span = span_positions[feed_indices]
    boundaries = (feed_span[:-1] + feed_span[1:]) / 2.0
    slots = np.searchsorted(boundaries, midpoints)
    num_slots = feed_indices.size
    region_start = np.searchsorted(slots, np.arange(num_slots), side="left")
    region_end = np.searchsorted(slots, np.arange(num_slots), side="right")

    prefix_taps = np.concatenate(([0.0], np.cumsum(taps)))
    prefix_res = np.concatenate(([0.0], np.cumsum(resistances)))
    prefix_rt = np.concatenate(([0.0], np.cumsum(resistances * prefix_taps[:-1])))
    prefix_rt_next = np.concatenate(([0.0], np.cumsum(resistances * prefix_taps[1:])))

    region_current = prefix_taps[region_end] - prefix_taps[region_start]
    approach_drop = region_current * (
        approach_resistance_per_um * approach_distance + via_resistance
    )

    segment_index = np.arange(num_segments)
    feed_of_segment = feed_indices[slots]
    start_of_segment = region_start[slots]
    end_of_segment = region_end[slots]
    approach_of_segment = approach_drop[slots]

    drops = np.empty(num_segments)
    right = segment_index >= feed_of_segment
    left = ~right
    drops[right] = (
        prefix_taps[end_of_segment[right]]
        * (prefix_res[segment_index[right] + 1] - prefix_res[feed_of_segment[right]])
        - (prefix_rt[segment_index[right] + 1] - prefix_rt[feed_of_segment[right]])
    )
    drops[left] = (
        prefix_rt_next[feed_of_segment[left]]
        - prefix_rt_next[segment_index[left]]
        - prefix_taps[start_of_segment[left]]
        * (prefix_res[feed_of_segment[left]] - prefix_res[segment_index[left]])
    )
    return drops + approach_of_segment


def reference_kirchhoff_map(
    floorplan: Floorplan,
    topology: GridTopology,
    prediction: IRDropPrediction,
    resolution: int = 100,
) -> np.ndarray:
    """Fig. 8 rasterisation one segment at a time, keeping the max per bin;
    empty bins take the minimum observed drop."""
    grid = np.full((resolution, resolution), np.nan)
    width = max(floorplan.core_width, 1e-12)
    height = max(floorplan.core_height, 1e-12)
    for line_id in range(topology.num_lines):
        drops = prediction.segment_ir_drop[line_id]
        if topology.is_vertical(line_id):
            x = topology.vertical_positions[line_id]
            span = np.asarray(topology.horizontal_positions)
            midpoints_x = np.full(drops.shape, x)
            midpoints_y = (span[:-1] + span[1:]) / 2.0
        else:
            y = topology.horizontal_positions[line_id - topology.num_vertical]
            span = np.asarray(topology.vertical_positions)
            midpoints_y = np.full(drops.shape, y)
            midpoints_x = (span[:-1] + span[1:]) / 2.0
        x_bins = np.clip((midpoints_x / width * resolution).astype(int), 0, resolution - 1)
        y_bins = np.clip((midpoints_y / height * resolution).astype(int), 0, resolution - 1)
        for xb, yb, drop in zip(x_bins, y_bins, drops):
            current = grid[yb, xb]
            if np.isnan(current) or drop > current:
                grid[yb, xb] = drop
    observed_min = np.nanmin(grid) if np.any(~np.isnan(grid)) else 0.0
    return np.where(np.isnan(grid), observed_min, grid)


def reference_aggregate(
    sample_widths: np.ndarray,
    line_ids: np.ndarray,
    num_lines: int,
    aggregation: str = "median",
    rules: DesignRules | None = None,
) -> np.ndarray:
    """Per-line width aggregation by one mask scan per line.

    Column 0 of ``sample_widths`` is keyed by ``line_ids[:, 0]`` (vertical
    lines), column 1 by ``line_ids[:, 1]`` (horizontal lines); a line with
    no sample takes the median of every prediction.
    """
    line_widths = np.empty(num_lines, dtype=float)
    fallback = float(np.median(sample_widths))
    for line_id in range(num_lines):
        values_v = sample_widths[line_ids[:, 0] == line_id, 0]
        values_h = sample_widths[line_ids[:, 1] == line_id, 1]
        values = np.concatenate([values_v, values_h])
        if values.size == 0:
            line_widths[line_id] = fallback
            continue
        if aggregation == "median":
            line_widths[line_id] = float(np.median(values))
        elif aggregation == "mean":
            line_widths[line_id] = float(np.mean(values))
        else:
            line_widths[line_id] = float(np.max(values))
    if rules is not None:
        line_widths = rules.legalize_widths(line_widths)
    return line_widths
