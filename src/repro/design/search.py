"""Batched, model-guided candidate search for the planner loop.

One iteration of the conventional flow used to pay one full analysis per
heuristic move.  The search layer turns that iteration into a *candidate
batch*: a set of alternative moves — width bumps on the worst stripes,
pitch-style reinforcement of a stripe direction, decap insertion — each
expressed on the frozen :class:`~repro.grid.compiled.CompiledGrid`
topology, so building a candidate is a cheap conductance rewrite.  Each
distinct candidate conductance set is solved with one fresh
factorization; the decap candidate only changes the loads, so it shares
the factorization of the heuristic move it rides on.  The search commits
the best candidate of the batch instead of the first heuristic move.

A :class:`CandidateRanker` — wrapping the repo's own
:class:`~repro.nn.regression.MultiTargetRegressor`, the paper's actual
contribution — can be layered in front: it predicts each candidate's
worst-drop improvement from cheap geometric features and prunes the
batch to the top-``m`` before any solve is paid.  Exact mode
(``ranker=None``) solves every candidate and doubles as the oracle that
generates the ranker's training data.

Move vocabulary (all rank-``k`` conductance deltas or RHS-only changes):

* **upsize** — widen the vertical / horizontal stripes nearest a
  hot-spot (singly or as a cross), the local fix a designer would apply;
* **pitch** — widen every ``stride``-th stripe of one direction: the
  frozen-topology equivalent of tightening that direction's pitch (the
  same added metal per unit length, without re-gridding);
* **decap** — place decoupling capacitance via
  :class:`~repro.design.decap.DecapPlanner` and model its static effect
  as per-node load relief (an RHS-only move: the matrix, and therefore
  the factorization, is untouched);
* **heuristic** — the one-move baseline resize itself, always included
  and never pruned, so the search degrades to the baseline in the worst
  case instead of below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..grid.compiled import CompiledGrid
from ..grid.floorplan import Floorplan
from ..grid.technology import Technology
from ..nn.regression import MultiTargetRegressor, NotFittedError, RegressorConfig
from .decap import DecapPlan, DecapPlanner, DecapTechnology
from .rules import DesignRules

DECAP_TRANSIENT_FRACTION = 0.2
"""Modelled transient share of each block's switching current.

Static IR analysis has no time axis, so a committed decap is modelled as
relieving this fraction of the covered blocks' demand, scaled by the
decap plan's per-block coverage — the charge the decap supplies locally
during the transient window instead of drawing it through the grid.
"""

FEATURE_NAMES = (
    "total_width_increase",
    "relative_width_increase",
    "num_lines_changed",
    "distance_to_worst",
    "vertical_fraction",
    "worst_ir_drop",
    "is_decap",
    "load_relief",
)
"""Cheap per-candidate features the :class:`CandidateRanker` consumes."""


@dataclass(frozen=True)
class CandidateMove:
    """One candidate move of a planner search iteration.

    Attributes:
        kind: Move family (``heuristic`` / ``upsize`` / ``pitch`` /
            ``decap``).
        label: Human-readable move description.
        widths: Full legalised per-line width vector after the move.
        load_scale: Per-node multiplicative load relief for RHS-only
            (decap) moves; ``None`` for conductance moves.
        lines_changed: Number of lines whose width differs from the
            pre-move widths (0 for pure decap moves).
        protected: True for moves the ranker must never prune (the
            baseline heuristic move).
    """

    kind: str
    label: str
    widths: np.ndarray
    load_scale: np.ndarray | None = None
    lines_changed: int = 0
    protected: bool = False


@dataclass(frozen=True)
class CommittedMove:
    """Record of one committed search move (enough to replay it exactly).

    ``widths`` and ``loads`` are absolute, so an independent engine can
    rebuild the committed design from scratch and re-solve it, apart
    from the resize chain that produced ``voltages``.
    """

    iteration: int
    kind: str
    label: str
    widths: np.ndarray
    loads: np.ndarray
    voltages: np.ndarray
    worst_ir_drop: float
    lines_changed: int


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the batched candidate search.

    Attributes:
        batch_width: Maximum number of candidates generated per
            iteration (the baseline heuristic move always fits).
        ranker: Fitted :class:`CandidateRanker` for model-guided
            pruning; ``None`` (exact mode) solves the whole batch and is
            the search's own oracle.
        prune_to: Candidates kept per batch in ranker mode; ``None``
            derives ``max(4, 2 * batch_width // 3)``.
        pitch_stride: Every ``stride``-th stripe of a direction is
            widened by a pitch move.
        hotspots: Number of distinct worst-drop locations that seed
            upsize candidates.
        use_decap: Generate the RHS-only decap-relief candidate.
    """

    batch_width: int = 12
    ranker: "CandidateRanker | None" = None
    prune_to: int | None = None
    pitch_stride: int = 4
    hotspots: int = 3
    use_decap: bool = True

    def __post_init__(self) -> None:
        if self.batch_width < 1:
            raise ValueError("batch_width must be at least 1")
        if self.prune_to is not None and self.prune_to < 1:
            raise ValueError("prune_to must be at least 1")
        if self.pitch_stride < 1:
            raise ValueError("pitch_stride must be at least 1")
        if self.hotspots < 1:
            raise ValueError("hotspots must be at least 1")

    @property
    def resolved_prune_to(self) -> int:
        """Batch size after ranker pruning."""
        if self.prune_to is not None:
            return self.prune_to
        return max(4, 2 * self.batch_width // 3)


@dataclass
class SearchStats:
    """Counters and artefacts of one batched-search plan.

    The four counters are the contract the CLI, the planner benchmark
    and ``check_results.py`` report: every generated candidate is either
    pruned (by the ranker, before any solve) or solved; committed moves
    are the solved candidates that won their iteration.
    """

    candidates_generated: int = 0
    candidates_pruned: int = 0
    candidates_solved: int = 0
    moves_committed: int = 0
    ranker_used: bool = False
    committed: list[CommittedMove] = field(default_factory=list)
    decap_plan: DecapPlan | None = None
    training_features: list[np.ndarray] = field(default_factory=list)
    training_improvements: list[float] = field(default_factory=list)

    def training_data(self) -> tuple[np.ndarray, np.ndarray]:
        """(features, improvements) observed by the solved candidates.

        Exact-mode searches generate their own ranker training data: one
        row per solved candidate, labelled with the worst-drop
        improvement its solve actually measured.
        """
        if not self.training_features:
            return np.zeros((0, len(FEATURE_NAMES))), np.zeros(0)
        return (
            np.vstack(self.training_features),
            np.asarray(self.training_improvements, dtype=float),
        )

    def as_record(self) -> dict:
        """JSON-ready counter record (the planner benchmark's contract)."""
        return {
            "candidates_generated": self.candidates_generated,
            "candidates_pruned": self.candidates_pruned,
            "candidates_solved": self.candidates_solved,
            "moves_committed": self.moves_committed,
            "ranker_used": self.ranker_used,
            "committed_kinds": [move.kind for move in self.committed],
        }


class CandidateRanker:
    """NN ranker predicting per-candidate worst-drop improvement.

    Wraps an :class:`~repro.nn.regression.MultiTargetRegressor` behind
    the small contract the search loop needs: ``fit`` on
    ``(features, improvements)`` rows (volts of worst-drop reduction —
    exactly what :meth:`SearchStats.training_data` returns), then
    ``select`` the most promising candidates of a batch before any
    solve is paid.  The object is picklable once fitted, so a ranker
    survives the worker processes of a sharded
    :class:`~repro.analysis.executors.HybridExecutor`.

    Args:
        regressor: Pre-built (possibly pre-trained) regressor; a fresh
            one with ``config`` is created when omitted.
        config: Regressor configuration for the default regressor.
    """

    feature_names = FEATURE_NAMES

    def __init__(
        self,
        regressor: MultiTargetRegressor | None = None,
        config: RegressorConfig | None = None,
    ) -> None:
        self.regressor = regressor or MultiTargetRegressor(
            config or RegressorConfig.fast(epochs=120)
        )

    @property
    def is_fitted(self) -> bool:
        """True once the underlying regressor has been trained."""
        return self.regressor.is_fitted

    def fit(self, features: np.ndarray, improvements: np.ndarray):
        """Train on observed ``(features, improvement)`` rows."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != len(FEATURE_NAMES):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} features per candidate, "
                f"got {features.shape[1]}"
            )
        return self.regressor.fit(features, np.asarray(improvements, dtype=float))

    def predict_improvement(self, features: np.ndarray) -> np.ndarray:
        """Predicted worst-drop improvement (volts) per candidate row."""
        if not self.is_fitted:
            raise NotFittedError("the candidate ranker has not been fitted")
        return self.regressor.predict(np.atleast_2d(features))[:, 0]

    def select(
        self, candidates: list[CandidateMove], features: np.ndarray, keep: int
    ) -> list[int]:
        """Indices of the candidates to solve, best predicted first kept.

        Protected candidates (the baseline heuristic move) are always
        selected and do not count against ``keep``'s exploration budget
        beyond their own slot.
        """
        predicted = self.predict_improvement(features)
        protected = [i for i, cand in enumerate(candidates) if cand.protected]
        ranked = sorted(
            (i for i in range(len(candidates)) if i not in protected),
            key=lambda i: (-predicted[i], i),
        )
        kept = protected + ranked[: max(keep - len(protected), 0)]
        return sorted(kept)


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
def _legalized_scale(
    widths: np.ndarray, lines: np.ndarray, factor: float, rules: DesignRules
) -> tuple[np.ndarray, int]:
    """Scale ``lines`` of ``widths`` by ``factor`` and legalise; count moves."""
    new_widths = widths.copy()
    changed = 0
    for line_id in np.asarray(lines, dtype=int):
        legal = rules.legalize_width(new_widths[line_id] * factor)
        if legal > new_widths[line_id]:
            new_widths[line_id] = legal
            changed += 1
    return new_widths, changed


def decap_load_scale(
    floorplan: Floorplan,
    technology: Technology,
    compiled: CompiledGrid,
    decap_technology: DecapTechnology | None = None,
    transient_fraction: float = DECAP_TRANSIENT_FRACTION,
) -> tuple[np.ndarray, DecapPlan] | None:
    """Per-node load-relief scale of a decap plan, or ``None``.

    Runs the greedy :class:`~repro.design.decap.DecapPlanner` and lowers
    each covered block's node currents by ``transient_fraction`` times
    the block's coverage — the static proxy of the transient charge the
    decap supplies locally.  Returns ``None`` when the floorplan has no
    blocks to protect or no relief is achievable.
    """
    planner = DecapPlanner(technology, decap_technology)
    plan = planner.plan(floorplan)
    if not plan.placements:
        return None
    placed = plan.capacitance_by_block
    nodes_by_block = compiled.load_nodes_by_block()
    scale = np.ones(compiled.num_nodes, dtype=float)
    relieved = False
    for block in floorplan.iter_blocks():
        required = planner.decap_technology.required_capacitance(block.switching_current)
        if required <= 0.0:
            continue
        coverage = min(placed.get(block.name, 0.0) / required, 1.0)
        nodes = nodes_by_block.get(block.name)
        if coverage <= 0.0 or nodes is None or nodes.size == 0:
            continue
        scale[nodes] *= 1.0 - transient_fraction * coverage
        relieved = True
    if not relieved:
        return None
    return scale, plan


def generate_candidates(
    *,
    widths: np.ndarray,
    baseline_widths: np.ndarray,
    topology,
    compiled: CompiledGrid,
    drops: np.ndarray,
    rules: DesignRules,
    upsize_factor: float,
    config: SearchConfig,
    load_scale: np.ndarray | None = None,
) -> list[CandidateMove]:
    """Build one iteration's candidate batch (capped at ``batch_width``).

    Every candidate starts from ``baseline_widths`` — the one-move
    loop's exact heuristic resize (EM fixes included) — and adds its
    own reinforcement on top: an extra hot-spot upsize, a pitch-style
    mesh widening, or decap load relief.  Because each candidate is a
    superset of the baseline move, whichever one the search commits is
    at least as strong as the one-move step from the same state, so the
    batched search never falls behind the heuristic loop.  The plain
    baseline move itself is always first and marked protected (it is
    never pruned, and is the fallback commit).

    Args:
        widths: Current per-line widths (pre-move).
        baseline_widths: The full one-move heuristic resize result.
        topology: Stripe topology.
        compiled: Current compiled grid (hot-spot geometry source).
        drops: Per-node IR drop of the current design, volts.
        rules: Design rules for width legalisation.
        upsize_factor: The planner's multiplicative step.
        config: Search configuration.
        load_scale: Decap relief vector (with its plan already recorded
            by the caller); ``None`` disables the decap candidate.
    """
    candidates: list[CandidateMove] = []
    seen: set[bytes] = set()

    def add(kind: str, label: str, new_widths: np.ndarray,
            scale: np.ndarray | None = None, protected: bool = False) -> None:
        if len(candidates) >= config.batch_width and not protected:
            return
        changed = int(np.count_nonzero(new_widths != widths))
        if changed == 0 and scale is None:
            return
        key = new_widths.tobytes() + (b"decap" if scale is not None else b"")
        if key in seen:
            return
        seen.add(key)
        candidates.append(
            CandidateMove(
                kind=kind,
                label=label,
                widths=new_widths,
                load_scale=scale,
                lines_changed=changed,
                protected=protected,
            )
        )

    add("heuristic", "one-move baseline resize", baseline_widths, protected=True)

    # Hot spots: the worst-drop nodes, deduplicated by their nearest
    # (vertical, horizontal) stripe pair so each seeds a distinct fix.
    v_positions = np.asarray(topology.vertical_positions)
    h_positions = np.asarray(topology.horizontal_positions)
    order = np.argsort(drops)[::-1]
    spots: list[tuple[int, int]] = []
    for node in order[: 16 * config.hotspots]:
        vi = int(np.argmin(np.abs(v_positions - compiled.node_x[node])))
        hi = int(np.argmin(np.abs(h_positions - compiled.node_y[node])))
        if (vi, hi) not in spots:
            spots.append((vi, hi))
        if len(spots) >= config.hotspots:
            break

    for rank, (vi, hi) in enumerate(spots):
        v_line = np.asarray([vi])
        h_line = np.asarray([topology.num_vertical + hi])
        cross = np.asarray([vi, topology.num_vertical + hi])
        for lines, tag in ((cross, "cross"), (v_line, "v"), (h_line, "h")):
            new_widths, _ = _legalized_scale(baseline_widths, lines, upsize_factor, rules)
            add("upsize", f"hotspot{rank} {tag} x{upsize_factor:g}", new_widths)
        if rank == 0:
            aggressive = upsize_factor * upsize_factor
            new_widths, _ = _legalized_scale(baseline_widths, cross, aggressive, rules)
            add("upsize", f"hotspot0 cross x{aggressive:g}", new_widths)

    # Pitch-style reinforcement: widen every stride-th stripe of one
    # direction (the frozen-topology stand-in for tightening its pitch).
    stride = config.pitch_stride
    v_mesh = np.arange(0, topology.num_vertical, stride)
    h_mesh = topology.num_vertical + np.arange(0, topology.num_horizontal, stride)
    for lines, tag in ((v_mesh, "vertical"), (h_mesh, "horizontal")):
        new_widths, _ = _legalized_scale(baseline_widths, lines, upsize_factor, rules)
        add("pitch", f"{tag} mesh /{stride} x{upsize_factor:g}", new_widths)

    if config.use_decap and load_scale is not None:
        add("decap", "decap load relief", baseline_widths, scale=load_scale)

    return candidates


def candidate_features(
    candidates: list[CandidateMove],
    *,
    widths: np.ndarray,
    topology,
    compiled: CompiledGrid,
    worst_x: float,
    worst_y: float,
    worst_ir_drop: float,
    loads: np.ndarray,
) -> np.ndarray:
    """Feature matrix (one row per candidate, :data:`FEATURE_NAMES` order).

    Everything here is array arithmetic on data the loop already holds —
    stripe geometry, the current drop map's worst location, the load
    vector — so ranking a batch costs microseconds, not solves.
    """
    v_positions = np.asarray(topology.vertical_positions)
    h_positions = np.asarray(topology.horizontal_positions)
    extent = max(
        float(v_positions.max() - v_positions.min()) if v_positions.size > 1 else 1.0,
        float(h_positions.max() - h_positions.min()) if h_positions.size > 1 else 1.0,
        1e-12,
    )
    rows = np.zeros((len(candidates), len(FEATURE_NAMES)), dtype=float)
    for row, cand in enumerate(candidates):
        delta = cand.widths - widths
        changed = np.flatnonzero(delta != 0.0)
        total_increase = float(delta[changed].sum()) if changed.size else 0.0
        relative = (
            float((delta[changed] / widths[changed]).sum()) if changed.size else 0.0
        )
        if changed.size:
            distances = np.empty(changed.size, dtype=float)
            for k, line_id in enumerate(changed):
                if line_id < topology.num_vertical:
                    distances[k] = abs(v_positions[line_id] - worst_x)
                else:
                    distances[k] = abs(
                        h_positions[line_id - topology.num_vertical] - worst_y
                    )
            distance = float(distances.min()) / extent
            vertical_fraction = float(
                np.count_nonzero(changed < topology.num_vertical) / changed.size
            )
        else:
            distance = 0.0
            vertical_fraction = 0.0
        relief = 0.0
        if cand.load_scale is not None:
            relief = float((loads * (1.0 - cand.load_scale)).sum())
        rows[row] = (
            total_increase,
            relative,
            float(changed.size),
            distance,
            vertical_fraction,
            worst_ir_drop,
            1.0 if cand.load_scale is not None else 0.0,
            relief,
        )
    return rows
