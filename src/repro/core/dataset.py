"""Training / test dataset preparation for PowerPlanningDL.

Implements the data-preparation half of the paper's Fig. 2 / Fig. 6 flow:

* the **training dataset** is extracted from a benchmark's "historical"
  golden design — the widths the conventional iterative planner converged to
  — as (X, Y, Id, w) quadruples at every power-grid crossing;
* the **test dataset** is generated by perturbing that same design (branch
  currents / node voltages / switching currents changed by ``gamma``,
  Section IV-D) and re-deriving the golden widths for the perturbed design
  with the conventional flow, so prediction error against a ground truth can
  be measured at every perturbation size (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..design.planner import ConventionalPowerPlanner, PowerPlanResult
from ..grid.benchmarks import SyntheticBenchmark
from ..grid.floorplan import Floorplan
from ..grid.perturbation import FloorplanPerturbator, PerturbationKind, PerturbationSpec
from .features import FeatureExtractor


@dataclass
class RegressionDataset:
    """A supervised dataset of crossing features and golden line widths.

    Attributes:
        name: Dataset name (benchmark name plus an optional suffix).
        features: ``(n, 3)`` array of (x, y, Id) features.
        widths: ``(n, 2)`` array of golden (vertical, horizontal) widths, um.
        line_ids: ``(n, 2)`` array of (vertical line id, global horizontal
            line id) per sample.
        num_lines: Number of power-grid lines in the underlying topology.
    """

    name: str
    features: np.ndarray
    widths: np.ndarray
    line_ids: np.ndarray
    num_lines: int

    def __post_init__(self) -> None:
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.widths = np.atleast_2d(np.asarray(self.widths, dtype=float))
        self.line_ids = np.atleast_2d(np.asarray(self.line_ids, dtype=int))
        if self.widths.shape[1] != 2:
            raise ValueError("widths must have two columns (vertical, horizontal)")
        if self.line_ids.shape[1] != 2:
            raise ValueError("line_ids must have two columns (vertical, horizontal)")
        if self.features.shape[0] != self.widths.shape[0]:
            raise ValueError("features and widths must have the same number of samples")
        if self.features.shape[0] != self.line_ids.shape[0]:
            raise ValueError("features and line_ids must have the same number of samples")
        if self.num_lines <= 0:
            raise ValueError("num_lines must be positive")
        if self.line_ids.size and (
            self.line_ids.min() < 0 or self.line_ids.max() >= self.num_lines
        ):
            raise ValueError(f"line_ids must lie in [0, {self.num_lines})")

    @property
    def num_samples(self) -> int:
        """Number of crossing samples."""
        return self.features.shape[0]

    @property
    def num_interconnects(self) -> int:
        """Number of interconnect targets (two line widths per crossing)."""
        return self.num_samples * 2

    def split(
        self, test_fraction: float = 0.2, seed: int = 0
    ) -> tuple["RegressionDataset", "RegressionDataset"]:
        """Random train / test split of the samples.

        Raises:
            ValueError: If the fraction does not leave samples on both sides.
        """
        if not 0 < test_fraction < 1:
            raise ValueError("test_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        indices = rng.permutation(self.num_samples)
        num_test = int(round(self.num_samples * test_fraction))
        if num_test == 0 or num_test == self.num_samples:
            raise ValueError("test_fraction leaves an empty split")
        test_idx, train_idx = indices[:num_test], indices[num_test:]
        return (
            self._subset(train_idx, f"{self.name}_train"),
            self._subset(test_idx, f"{self.name}_test"),
        )

    def subset_by_vertical_lines(
        self, line_ids: np.ndarray | list[int], suffix: str = "lines"
    ) -> "RegressionDataset":
        """Return the samples whose vertical line is in ``line_ids``."""
        wanted = set(int(line) for line in line_ids)
        mask = np.asarray([line in wanted for line in self.line_ids[:, 0]])
        return self._subset(np.where(mask)[0], f"{self.name}_{suffix}")

    def _subset(self, indices: np.ndarray, name: str) -> "RegressionDataset":
        return RegressionDataset(
            name=name,
            features=self.features[indices],
            widths=self.widths[indices],
            line_ids=self.line_ids[indices],
            num_lines=self.num_lines,
        )


@dataclass
class BenchmarkDataset:
    """Everything derived from one benchmark for training and evaluation.

    Attributes:
        benchmark: The synthetic benchmark the data came from.
        golden_plan: Result of the conventional planner on the nominal
            floorplan (provides golden widths, the golden IR drop of
            Table III and the conventional convergence time of Table IV).
        training: The training dataset extracted from the golden design.
    """

    benchmark: SyntheticBenchmark
    golden_plan: PowerPlanResult
    training: RegressionDataset

    @property
    def name(self) -> str:
        """Benchmark name."""
        return self.benchmark.name


class DatasetBuilder:
    """Build training and perturbed test datasets from synthetic benchmarks.

    Args:
        planner: Conventional planner used to produce golden widths; a
            default planner for the benchmark's technology is created when
            omitted at call time.
    """

    def __init__(self, planner: ConventionalPowerPlanner | None = None) -> None:
        self._planner = planner

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def planner_for(self, benchmark: SyntheticBenchmark) -> ConventionalPowerPlanner:
        """Return the planner to use for a benchmark."""
        if self._planner is not None:
            return self._planner
        return ConventionalPowerPlanner(benchmark.technology)

    def build_training(self, benchmark: SyntheticBenchmark) -> BenchmarkDataset:
        """Run the conventional flow on a benchmark and extract training data."""
        planner = self.planner_for(benchmark)
        golden_plan = planner.plan(benchmark.floorplan, benchmark.topology)
        training = self.dataset_from_design(
            benchmark.floorplan, benchmark, golden_plan.widths, name=benchmark.name
        )
        return BenchmarkDataset(benchmark=benchmark, golden_plan=golden_plan, training=training)

    def build_perturbed_test(
        self,
        benchmark: SyntheticBenchmark,
        spec: PerturbationSpec,
    ) -> tuple[RegressionDataset, Floorplan, PowerPlanResult]:
        """Build the perturbed test set of Section IV-D.

        Two perturbation mechanisms are applied, matching the two families
        the paper sweeps in Fig. 9:

        * **current workloads** — the block switching currents of the
          floorplan are jittered by ``gamma`` and the conventional planner is
          re-run on the perturbed floorplan, so both the features (Id) and
          the golden widths shift;
        * **node voltages** — the per-line IR-drop budget the historical
          design was sized for is jittered by ``gamma``; since eq. (1) gives
          ``w ∝ 1 / V_IR``, this scales each golden line width by
          ``1 / (1 + u)`` with ``u`` uniform in ``±gamma``.  (Perturbing the
          pad voltages electrically instead would ask the planner to fix an
          un-fixable supply deficit and blow every width to the maximum,
          which is a redesign artefact rather than a test-set perturbation.)

        Returns:
            The test dataset, the perturbed floorplan and the perturbed
            design's plan result.
        """
        perturbed = self._perturbed_floorplan(benchmark, spec)
        planner = self.planner_for(benchmark)
        perturbed_plan = planner.plan(perturbed, benchmark.topology)
        golden_widths = self._golden_widths(perturbed_plan, spec)
        dataset = self.dataset_from_design(
            perturbed, benchmark, golden_widths, name=perturbed.name
        )
        return dataset, perturbed, perturbed_plan

    def build_perturbed_sweep(
        self,
        benchmark: SyntheticBenchmark,
        specs: list[PerturbationSpec] | tuple[PerturbationSpec, ...],
    ) -> list[tuple[RegressionDataset, Floorplan, PowerPlanResult]]:
        """Build the perturbed test set of every spec in one sweep.

        Produces, for each spec, exactly the triple
        :meth:`build_perturbed_test` would — but golden-label generation is
        deduplicated across the sweep: specs whose perturbed floorplans
        carry identical loads (every NODE_VOLTAGES spec re-plans the
        *nominal* loads, and CURRENT_WORKLOADS / BOTH share the same
        current jitter at a given gamma and seed) share one conventional
        golden plan instead of re-running the planner per spec.  A full
        Fig. 9 sweep (5 gammas x 3 kinds) thus runs 6 golden plans instead
        of 15, with bit-identical datasets.

        A shared plan object is returned for each spec that reuses it; its
        ``benchmark`` name reflects the first spec that requested it.
        """
        planner = self.planner_for(benchmark)
        plans: dict[tuple, PowerPlanResult] = {}
        results: list[tuple[RegressionDataset, Floorplan, PowerPlanResult]] = []
        for spec in specs:
            perturbed = self._perturbed_floorplan(benchmark, spec)
            key = (
                ("currents", spec.gamma, spec.seed)
                if spec.perturbs_currents
                else ("nominal",)
            )
            if key not in plans:
                plans[key] = planner.plan(perturbed, benchmark.topology)
            plan = plans[key]
            golden_widths = self._golden_widths(plan, spec)
            dataset = self.dataset_from_design(
                perturbed, benchmark, golden_widths, name=perturbed.name
            )
            results.append((dataset, perturbed, plan))
        return results

    def _perturbed_floorplan(
        self, benchmark: SyntheticBenchmark, spec: PerturbationSpec
    ) -> Floorplan:
        """The perturbed floorplan of one spec (Section IV-D semantics)."""
        suffix = f"gamma{int(round(spec.gamma * 100))}_{spec.kind.value}"
        if spec.perturbs_currents:
            current_spec = PerturbationSpec(
                gamma=spec.gamma, kind=PerturbationKind.CURRENT_WORKLOADS, seed=spec.seed
            )
            return FloorplanPerturbator(current_spec).perturb(
                benchmark.floorplan, name=f"{benchmark.name}_{suffix}"
            )
        return benchmark.floorplan.with_scaled_currents(1.0, name=f"{benchmark.name}_{suffix}")

    @staticmethod
    def _golden_widths(perturbed_plan: PowerPlanResult, spec: PerturbationSpec) -> np.ndarray:
        """Golden label widths of one spec, given its conventional plan."""
        golden_widths = np.asarray(perturbed_plan.widths, dtype=float).copy()
        if spec.perturbs_voltages:
            rng = np.random.default_rng(spec.seed + 1)
            budget_jitter = 1.0 + rng.uniform(-spec.gamma, spec.gamma, size=golden_widths.shape)
            golden_widths = golden_widths / budget_jitter
        return golden_widths

    def dataset_from_design(
        self,
        floorplan: Floorplan,
        benchmark: SyntheticBenchmark,
        widths: np.ndarray,
        name: str | None = None,
    ) -> RegressionDataset:
        """Extract a labeled dataset from a floorplan and its line widths."""
        extractor = FeatureExtractor(floorplan, benchmark.topology)
        features, targets, line_ids = extractor.feature_matrix(widths)
        return RegressionDataset(
            name=name or floorplan.name,
            features=features,
            widths=targets,
            line_ids=line_ids,
            num_lines=benchmark.topology.num_lines,
        )
