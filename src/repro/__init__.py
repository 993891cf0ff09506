"""repro — reproduction of PowerPlanningDL (Dey, Nandi, Trivedi, DATE 2020).

PowerPlanningDL replaces the iterative power-planning loop of VLSI physical
design with a deep-learning surrogate: a neural multi-target regressor
predicts power-grid interconnect widths from floorplan features (X, Y,
switching current), and a fast Kirchhoff-based estimator predicts the
resulting IR drop without a full power-grid solve.

The package is organised as:

* :mod:`repro.grid` — power-grid network model, floorplans, SPICE netlists,
  synthetic IBM-style benchmarks, perturbation engine;
* :mod:`repro.analysis` — the cached-factorization nodal analysis engine,
  IR-drop results, EM checking, vectorless bounds (the baseline's
  substrate);
* :mod:`repro.design` — the conventional iterative power planner, analytical
  sizing and reliability constraints;
* :mod:`repro.nn` — from-scratch NumPy neural-network stack (layers, Adam,
  training loop, metrics, hyper-parameter search);
* :mod:`repro.core` — the PowerPlanningDL framework itself (feature
  extraction, width predictor, IR-drop predictor, evaluation, memory
  profiling);
* :mod:`repro.io` — switching-activity files, result serialisation, ASCII
  figures.

Quickstart::

    from repro import PowerPlanningDL, load_benchmark
    from repro.nn import RegressorConfig

    bench = load_benchmark("ibmpg1", scale=0.5)
    framework = PowerPlanningDL(bench.technology, RegressorConfig.fast())
    framework.train_on_benchmark(bench)
    spec = framework.default_perturbation(gamma=0.10)
    predicted, test_set, golden = framework.predict_for_perturbation(bench, spec)
    print(framework.evaluate(test_set))
"""

from .analysis import BatchedAnalysisEngine, EMChecker
from .core import (
    DatasetBuilder,
    FeatureExtractor,
    KirchhoffIRDropEstimator,
    PowerPlanningDL,
    PredictedDesign,
    WidthPredictor,
)
from .design import ConventionalPowerPlanner, DesignRules, ReliabilityConstraints
from .grid import (
    CompiledGrid,
    Floorplan,
    GridBuilder,
    PowerGridNetwork,
    SyntheticIBMSuite,
    Technology,
    generic_45nm,
    generic_65nm,
    load_benchmark,
)
from .nn import MultiTargetRegressor, RegressorConfig

__version__ = "1.0.0"

__all__ = [
    "BatchedAnalysisEngine",
    "CompiledGrid",
    "ConventionalPowerPlanner",
    "DatasetBuilder",
    "DesignRules",
    "EMChecker",
    "FeatureExtractor",
    "Floorplan",
    "GridBuilder",
    "KirchhoffIRDropEstimator",
    "MultiTargetRegressor",
    "PowerGridNetwork",
    "PowerPlanningDL",
    "PredictedDesign",
    "RegressorConfig",
    "ReliabilityConstraints",
    "SyntheticIBMSuite",
    "Technology",
    "WidthPredictor",
    "__version__",
    "generic_45nm",
    "generic_65nm",
    "load_benchmark",
]
