"""Fast Kirchhoff-based IR-drop prediction (paper Algorithm 2).

Once the width model has produced per-line widths, PowerPlanningDL predicts
the IR drop *without* running the full power-grid analysis: the switching
currents of the blocks are allocated to the power-grid lines that cross them
(the current-requirement decomposition of eqs. 7-9), and the IR drop along
each line is accumulated segment by segment with Kirchhoff's laws, treating
each line as a one-dimensional resistive ladder fed at the crossings nearest
to the supply pads.  This costs O(#segments) instead of a sparse solve over
the whole grid, which is where the paper's ~6x speedup comes from — at the
cost of some accuracy, exactly as the paper notes.

The ladders are evaluated once per direction, for all lines of that
direction together, as ``(lines, segments)`` arrays: feed points come from
one ``(lines, crossings)`` approach-distance table, each segment is assigned
to its nearest feed by a forward and a backward fill of the feed indices,
and the closed-form drops read row-wise prefix sums.  No Python loop runs
per line.  ``tests/oracle.py`` keeps the one-line-at-a-time loop as the
reference the arrays must match bitwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..grid.builder import GridTopology
from ..grid.floorplan import Floorplan
from ..grid.technology import Technology


@dataclass
class IRDropPrediction:
    """Predicted IR drops for one design.

    Attributes:
        line_ir_drop: Worst IR drop predicted on each power-grid line, volts.
        segment_ir_drop: Per-line array of per-segment IR drops, volts.
        worst_ir_drop: Predicted worst-case IR drop over the design, volts.
        worst_line: Line id where the worst drop occurs.
        prediction_time: Wall-clock prediction time, seconds.
        line_currents: Current allocated to each line (eqs. 7-9), amperes.
    """

    line_ir_drop: np.ndarray
    segment_ir_drop: list[np.ndarray]
    worst_ir_drop: float
    worst_line: int
    prediction_time: float
    line_currents: np.ndarray

    @property
    def worst_ir_drop_mv(self) -> float:
        """Predicted worst-case IR drop in millivolts (Table III units)."""
        return self.worst_ir_drop * 1000.0


class KirchhoffIRDropEstimator:
    """Analytic IR-drop estimator used by PowerPlanningDL (Algorithm 2).

    Args:
        technology: Provides sheet resistances and the supply voltage.
        distance_decay: Exponential decay length (as a fraction of the core
            size) used when allocating block currents to nearby lines; the
            same parameter as the analytical sizer so the two stay
            consistent.
        sharing_factor: Fraction of a line's allocated current assumed to be
            carried by the line itself (the rest is delivered through the
            orthogonal layer and the vias of the mesh).  1.0 is the most
            pessimistic single-layer assumption.
        approach_factor: Damping applied to the pad-to-line approach
            resistance; the approach path is shared by several parallel
            stripes of the orthogonal layer, so its effective resistance is
            a fraction of a single stripe's.
    """

    def __init__(
        self,
        technology: Technology,
        distance_decay: float = 0.15,
        sharing_factor: float = 1.0,
        approach_factor: float = 0.5,
    ) -> None:
        if distance_decay <= 0:
            raise ValueError("distance_decay must be positive")
        if not 0 < sharing_factor <= 1:
            raise ValueError("sharing_factor must be in (0, 1]")
        if not 0 <= approach_factor <= 1:
            raise ValueError("approach_factor must be in [0, 1]")
        self.technology = technology
        self.distance_decay = distance_decay
        self.sharing_factor = sharing_factor
        self.approach_factor = approach_factor

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def allocate_line_currents(self, floorplan: Floorplan, topology: GridTopology) -> np.ndarray:
        """Allocate each block's current to the grid lines (eqs. 7-9).

        Each block's switching current is split over the lines of each
        direction with exponentially decaying weights in the distance from
        the block centre; both directions share the delivery evenly (half
        each), reflecting that a mesh delivers current through both layers.
        """
        currents = np.zeros(topology.num_lines, dtype=float)
        v_positions = np.asarray(topology.vertical_positions)
        h_positions = np.asarray(topology.horizontal_positions)
        v_decay = max(floorplan.core_width * self.distance_decay, 1e-9)
        h_decay = max(floorplan.core_height * self.distance_decay, 1e-9)
        for block in floorplan.iter_blocks():
            if block.switching_current <= 0:
                continue
            cx, cy = block.center
            v_weights = np.exp(-np.abs(v_positions - cx) / v_decay)
            h_weights = np.exp(-np.abs(h_positions - cy) / h_decay)
            v_weights /= v_weights.sum()
            h_weights /= h_weights.sum()
            currents[: topology.num_vertical] += 0.5 * block.switching_current * v_weights
            currents[topology.num_vertical :] += 0.5 * block.switching_current * h_weights
        return currents

    def predict(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        line_widths: np.ndarray,
    ) -> IRDropPrediction:
        """Predict per-line and worst-case IR drops from predicted widths.

        Args:
            floorplan: Floorplan providing blocks, pads and core size.
            topology: Stripe topology.
            line_widths: Per-line widths (vertical lines first), um.

        Raises:
            ValueError: If the width vector has the wrong length or contains
                non-positive values, or the floorplan has no pads.
        """
        line_widths = np.asarray(line_widths, dtype=float)
        if line_widths.shape != (topology.num_lines,):
            raise ValueError(f"expected {topology.num_lines} widths")
        if np.any(line_widths <= 0):
            raise ValueError("line widths must be positive")

        pad_xs = np.asarray([pad.x for pad in floorplan.iter_pads()])
        pad_ys = np.asarray([pad.y for pad in floorplan.iter_pads()])
        if pad_xs.size == 0:
            raise ValueError("floorplan has no power pads")

        start = time.perf_counter()
        line_currents = self.allocate_line_currents(floorplan, topology)

        v_layer = self.technology.vertical_layer
        h_layer = self.technology.horizontal_layer
        num_vertical = topology.num_vertical
        num_pads = pad_xs.size
        pad_pitch_x = floorplan.core_width / max(np.sqrt(num_pads), 1.0)
        pad_pitch_y = floorplan.core_height / max(np.sqrt(num_pads), 1.0)

        # The switching current under every segment midpoint of every line,
        # in two vectorised queries (one per direction).
        v_positions = np.asarray(topology.vertical_positions)
        h_positions = np.asarray(topology.horizontal_positions)
        v_midpoints = (h_positions[:-1] + h_positions[1:]) / 2.0
        h_midpoints = (v_positions[:-1] + v_positions[1:]) / 2.0
        v_grid_x, v_grid_y = np.meshgrid(v_positions, v_midpoints, indexing="ij")
        h_grid_x, h_grid_y = np.meshgrid(h_midpoints, h_positions, indexing="xy")

        v_widths = line_widths[:num_vertical]
        h_widths = line_widths[num_vertical:]
        carried_currents = line_currents * self.sharing_factor
        via_resistance = self.technology.via_resistance
        vertical_drops = self._direction_drops(
            span_positions=h_positions,
            line_coordinates=v_positions,
            pad_axis_positions=pad_ys,
            pad_other_positions=pad_xs,
            pad_reach=pad_pitch_x,
            sheet_resistance=v_layer.sheet_resistance,
            widths=v_widths,
            total_currents=carried_currents[:num_vertical],
            local_currents=floorplan.switching_currents_at(v_grid_x, v_grid_y),
            approach_resistance_per_um=self._approach_resistance_per_um(h_layer, h_widths),
            via_resistance=via_resistance,
        )
        horizontal_drops = self._direction_drops(
            span_positions=v_positions,
            line_coordinates=h_positions,
            pad_axis_positions=pad_xs,
            pad_other_positions=pad_ys,
            pad_reach=pad_pitch_y,
            sheet_resistance=h_layer.sheet_resistance,
            widths=h_widths,
            total_currents=carried_currents[num_vertical:],
            local_currents=floorplan.switching_currents_at(h_grid_x, h_grid_y),
            approach_resistance_per_um=self._approach_resistance_per_um(v_layer, v_widths),
            via_resistance=via_resistance,
        )

        line_ir_drop = np.concatenate([vertical_drops.max(axis=1), horizontal_drops.max(axis=1)])
        worst_line = int(np.argmax(line_ir_drop))
        elapsed = time.perf_counter() - start
        return IRDropPrediction(
            line_ir_drop=line_ir_drop,
            segment_ir_drop=[*vertical_drops, *horizontal_drops],
            worst_ir_drop=float(line_ir_drop[worst_line]),
            worst_line=worst_line,
            prediction_time=elapsed,
            line_currents=line_currents,
        )

    def ir_drop_map(
        self,
        floorplan: Floorplan,
        topology: GridTopology,
        prediction: IRDropPrediction,
        resolution: int = 100,
    ) -> np.ndarray:
        """Rasterise the predicted per-segment IR drops onto a map (Fig. 8).

        Every segment midpoint deposits its predicted drop into its bin
        (keeping the maximum per bin); empty bins are filled with the minimum
        observed drop, mirroring :func:`repro.analysis.irdrop.ir_drop_map`.
        """
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        v_positions = np.asarray(topology.vertical_positions)
        h_positions = np.asarray(topology.horizontal_positions)
        v_midpoints = (h_positions[:-1] + h_positions[1:]) / 2.0
        h_midpoints = (v_positions[:-1] + v_positions[1:]) / 2.0
        # Segment midpoints in prediction order: vertical lines, then
        # horizontal lines, each line's segments along its span.
        xs = np.concatenate(
            [np.repeat(v_positions, v_midpoints.size), np.tile(h_midpoints, h_positions.size)]
        )
        ys = np.concatenate(
            [np.tile(v_midpoints, v_positions.size), np.repeat(h_positions, h_midpoints.size)]
        )
        drops = np.concatenate(prediction.segment_ir_drop)
        width = max(floorplan.core_width, 1e-12)
        height = max(floorplan.core_height, 1e-12)
        x_bins = np.clip((xs / width * resolution).astype(int), 0, resolution - 1)
        y_bins = np.clip((ys / height * resolution).astype(int), 0, resolution - 1)
        # ``fmax`` ignores the NaN of an empty bin, keeps the first of two
        # equal drops and never lets a NaN drop replace a number.
        grid = np.full((resolution, resolution), np.nan)
        np.fmax.at(grid, (y_bins, x_bins), drops)
        observed_min = np.nanmin(grid) if np.any(~np.isnan(grid)) else 0.0
        return np.where(np.isnan(grid), observed_min, grid)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _approach_resistance_per_um(self, orthogonal_layer, orthogonal_widths: np.ndarray) -> float:
        """Pad-to-line approach resistance per um through the orthogonal layer,
        at that layer's median width."""
        orthogonal_width = float(np.median(orthogonal_widths))
        return (
            self.approach_factor
            * orthogonal_layer.sheet_resistance
            / max(orthogonal_width, 1e-9)
        )

    @staticmethod
    def _direction_drops(
        span_positions: np.ndarray,
        line_coordinates: np.ndarray,
        pad_axis_positions: np.ndarray,
        pad_other_positions: np.ndarray,
        pad_reach: float,
        sheet_resistance: float,
        widths: np.ndarray,
        total_currents: np.ndarray,
        local_currents: np.ndarray,
        approach_resistance_per_um: float,
        via_resistance: float,
    ) -> np.ndarray:
        """IR drops of every line of one direction, ``(lines, segments)``.

        Each line is a multi-feed 1-D ladder over the crossings
        ``span_positions``.  Its allocated current is distributed over its
        segments in proportion to the switching current under each segment
        (uniformly when no block covers the line).  Feed points are the
        crossings nearest to the pads whose orthogonal distance from the
        line is within ``pad_reach`` (falling back to the single nearest pad
        when no pad is that close).  Each segment's tap current flows to its
        nearest feed point; the IR drop accumulates away from each feed as
        ``sum(R_segment * I_carried)`` on top of the feed's *approach drop*
        — the drop incurred reaching the line from the pad through the
        orthogonal layer and the via stack.
        """
        num_lines = line_coordinates.size
        num_crossings = span_positions.size
        num_segments = num_crossings - 1
        crossings = np.arange(num_crossings)
        segments = np.arange(num_segments)

        midpoints = (span_positions[:-1] + span_positions[1:]) / 2.0
        resistances = (sheet_resistance * np.diff(span_positions))[None, :] / widths[:, None]

        # Per-segment tap currents proportional to the local switching current.
        local_totals = local_currents.sum(axis=1)
        uniform = local_totals <= 0
        taps = np.where(
            uniform[:, None],
            (total_currents / num_segments)[:, None],
            total_currents[:, None] * local_currents
            / np.where(uniform, 1.0, local_totals)[:, None],
        )

        # Feed points: every pad close enough to a line supplies it at the
        # crossing its position projects onto; the approach distance of a
        # feed is that of the closest pad projecting there.
        distance = np.abs(pad_other_positions[None, :] - line_coordinates[:, None])
        nearby = distance <= pad_reach
        stranded = ~nearby.any(axis=1)
        nearby[stranded] = distance[stranded] == distance[stranded].min(axis=1, keepdims=True)
        projected = np.argmin(np.abs(span_positions[None, :] - pad_axis_positions[:, None]), axis=1)
        line_of, pad_of = np.nonzero(nearby)
        feed_crossing = projected[pad_of]
        is_feed = np.zeros((num_lines, num_crossings), dtype=bool)
        is_feed[line_of, feed_crossing] = True
        approach_distance = np.full((num_lines, num_crossings), np.inf)
        np.minimum.at(approach_distance, (line_of, feed_crossing), distance[line_of, pad_of])

        # Assign every segment to its nearest feed: the last feed at or
        # before its left crossing unless the midpoint lies past the
        # boundary halfway to the first feed at or after its right crossing.
        before = np.maximum.accumulate(np.where(is_feed, crossings, -1), axis=1)[:, :-1]
        after = np.minimum.accumulate(
            np.where(is_feed, crossings, num_crossings)[:, ::-1], axis=1
        )[:, ::-1][:, 1:]
        boundary = (
            span_positions[np.maximum(before, 0)]
            + span_positions[np.minimum(after, num_segments)]
        ) / 2.0
        take_before = (before >= 0) & ((after == num_crossings) | (midpoints <= boundary))
        feed = np.where(take_before, before, after)

        # Each feed drains one contiguous region [start, end) of segments.
        first = np.ones((num_lines, num_segments), dtype=bool)
        first[:, 1:] = feed[:, 1:] != feed[:, :-1]
        last = np.ones((num_lines, num_segments), dtype=bool)
        last[:, :-1] = first[:, 1:]
        region_start = np.maximum.accumulate(np.where(first, segments, 0), axis=1)
        region_end = np.minimum.accumulate(
            np.where(last, segments + 1, num_segments)[:, ::-1], axis=1
        )[:, ::-1]

        # Prefix sums that turn the per-region ladder accumulation into a
        # closed form:  T = prefix taps, CR = prefix resistances,
        # CRT[i] = sum_{m<i} R[m] * T[m],  CRT2[i] = sum_{m<i} R[m] * T[m+1].
        zero = np.zeros((num_lines, 1))
        prefix_taps = np.concatenate((zero, np.cumsum(taps, axis=1)), axis=1)
        prefix_res = np.concatenate((zero, np.cumsum(resistances, axis=1)), axis=1)
        prefix_rt = np.concatenate(
            (zero, np.cumsum(resistances * prefix_taps[:, :-1], axis=1)), axis=1
        )
        prefix_rt_next = np.concatenate(
            (zero, np.cumsum(resistances * prefix_taps[:, 1:], axis=1)), axis=1
        )

        def at(table: np.ndarray, index: np.ndarray) -> np.ndarray:
            return np.take_along_axis(table, index, axis=1)

        taps_to_end = at(prefix_taps, region_end)
        taps_to_start = at(prefix_taps, region_start)
        res_to_feed = at(prefix_res, feed)
        approach_drop = (taps_to_end - taps_to_start) * (
            approach_resistance_per_um * at(approach_distance, feed) + via_resistance
        )
        # Right of the feed: segment j carries the taps of segments j..end-1.
        right = taps_to_end * (prefix_res[:, 1:] - res_to_feed) - (
            prefix_rt[:, 1:] - at(prefix_rt, feed)
        )
        # Left of the feed: segment j carries the taps of segments start..j.
        left = (
            at(prefix_rt_next, feed)
            - prefix_rt_next[:, :-1]
            - taps_to_start * (res_to_feed - prefix_res[:, :-1])
        )
        return np.where(segments >= feed, right, left) + approach_drop


def pg_line_count(core_width: float, width: float) -> int:
    """Implement paper eq. (6): ``#PG lines = Wcore / w_i`` (floored, >= 1).

    Raises:
        ValueError: If either argument is not positive.
    """
    if core_width <= 0:
        raise ValueError("core_width must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    return max(1, int(core_width // width))
