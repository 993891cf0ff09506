"""Central registry of every environment variable the repo reads.

Every ``REPRO_*`` knob must be declared here with a one-line description
— the :mod:`repro.devtools.lint` rule ``RPR006`` (env-var registry)
rejects any ``os.environ`` / ``os.getenv`` read whose key is missing
from :data:`KNOWN_ENV_VARS`, so this table cannot silently go stale.

Conventions the linter enforces alongside the registry:

* Read keys through a module-level ``*_ENV`` string constant (e.g.
  ``EXECUTOR_ENV = "REPRO_TEST_EXECUTOR"``) or a string literal, never a
  dynamically-built expression — a key the linter cannot resolve cannot
  be checked against this table.
* The constant's *definition* is checked where it is assigned, so a
  module importing someone else's ``*_ENV`` constant needs no local
  entry lookup.
"""

from __future__ import annotations

KNOWN_ENV_VARS: dict[str, str] = {
    # --- engine / executor defaults (test-suite steering) -------------
    "REPRO_TEST_WORKERS": (
        "Default solver-thread count of BatchedAnalysisEngine; CI runs "
        "tier-1 once with 2 to exercise the parallel chunk pipeline."
    ),
    "REPRO_TEST_EXECUTOR": (
        "Default sweep executor (serial|hybrid|remote) for every "
        "analyze_* call that passes neither executor= nor workers=; "
        "remote also needs REPRO_REMOTE_COORDINATOR."
    ),
    "REPRO_HYBRID_SHARD_WORKERS": (
        "Process-shard count of HybridExecutor when shard_workers= is "
        "not passed; auto-resolved from os.cpu_count() when unset."
    ),
    "REPRO_HYBRID_THREADS": (
        "Solver threads inside each HybridExecutor process shard when "
        "threads_per_shard= is not passed."
    ),
    "REPRO_TEST_SOLVER": (
        "Default factorization backend (splu|cholmod|auto) of "
        "resolve_solver_backend."
    ),
    # --- remote fleet -------------------------------------------------
    "REPRO_REMOTE_COORDINATOR": (
        "Base URL of a standing sweep coordinator; RemoteExecutor submits "
        "there when coordinator= is not passed."
    ),
    "REPRO_REMOTE_WORKERS": (
        "Worker hint of RemoteExecutor: the basis of the workers x "
        "oversubscribe shard count."
    ),
    # --- benchmark harness --------------------------------------------
    "REPRO_BENCH_SCALE": (
        "Grid-size scale factor of the benchmark suite (1 = full scale; "
        "CI smoke runs use 0.15 and tag records as smoke)."
    ),
    "REPRO_BENCH_EPOCHS": "Training-epoch budget of the NN benchmark legs.",
    "REPRO_BENCH_SUITE": "Benchmark-grid suite override of benchmarks/conftest.py.",
    "REPRO_BENCH_PLANNER_GRID": (
        "Benchmark-grid override of the planner iteration / search benches."
    ),
}
"""Mapping of environment-variable name to its one-line contract."""
