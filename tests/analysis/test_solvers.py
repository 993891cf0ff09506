"""Tests for the pluggable solver-backend layer and the update factorizations.

The engine factors every distinct conductance set fresh: a resized grid
is one new factorization, served from the cache afterwards.  The low-rank
update factorizations (Woodbury, preconditioned CG) are no longer used by
the engine; their own tests check them against a fresh factorization to
1e-9.  The CHOLMOD backend, where installed, must be solution-equivalent
to SuperLU.
"""

import numpy as np
import pytest

from repro.analysis import (
    SOLVER_ENV,
    BatchedAnalysisEngine,
    CholmodBackend,
    PreconditionedUpdateFactorization,
    SpluBackend,
    UpdateDivergenceError,
    UpdatePolicy,
    WoodburyFactorization,
    cholmod_available,
    resolve_solver_backend,
)
from repro.grid import GridBuilder, SyntheticIBMSuite
from tests.oracle import update_incidence

VOLTAGE_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def ibmpg1_bench():
    return SyntheticIBMSuite().load("ibmpg1")


@pytest.fixture(scope="module")
def builder(ibmpg1_bench):
    return GridBuilder(ibmpg1_bench.technology)


@pytest.fixture(scope="module")
def base_compiled(ibmpg1_bench, builder):
    """The ibmpg1 grid at uniform 5 um, compiled once per module."""
    network = builder.build(ibmpg1_bench.floorplan, ibmpg1_bench.topology, 5.0)
    return network.compile()


def resized(builder, bench, base, line_scale):
    """A compiled clone with per-line widths ``5.0 * line_scale``."""
    widths = 5.0 * np.asarray(line_scale, dtype=float)
    return builder.resize_compiled(base, bench.topology, widths)


def single_line_scale(bench):
    scale = np.ones(bench.topology.num_lines)
    scale[0] = 1.4
    return scale


def stripe_scale(bench):
    scale = np.ones(bench.topology.num_lines)
    scale[2:7] = 1.3
    return scale


# ----------------------------------------------------------------------
# Every cache miss is one fresh factorization
# ----------------------------------------------------------------------
class TestFreshFactorization:
    def test_incremental_updates_rejected(self):
        with pytest.raises(ValueError, match="removed"):
            BatchedAnalysisEngine(incremental_updates=True)
        assert BatchedAnalysisEngine(incremental_updates=False).cache_info().updates == 0

    def test_resized_clone_factored_fresh_once(self, ibmpg1_bench, builder, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        voltages = engine.solve_voltages(clone)
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.updates) == (2, 0, 0)
        np.testing.assert_array_equal(engine.solve_voltages(clone), voltages)
        info = engine.cache_info()
        assert (info.factorizations, info.hits, info.updates) == (2, 1, 0)
        # The clone is the same matrix as a grid built at those widths.
        rebuilt = builder.build_compiled(
            ibmpg1_bench.floorplan, ibmpg1_bench.topology, 5.0 * stripe_scale(ibmpg1_bench)
        )
        np.testing.assert_array_equal(
            BatchedAnalysisEngine().solve_voltages(rebuilt), voltages
        )

    def test_identical_conductances_hit_the_cache(self, base_compiled):
        """A clone whose conductances did not change keeps the fingerprint,
        so it is served as a plain cache hit."""
        clone = base_compiled.with_conductances(base_compiled.conductance.copy())
        assert clone.fingerprint == base_compiled.fingerprint
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        engine.analyze(clone)
        info = engine.cache_info()
        assert info.factorizations == 1
        assert info.hits == 1


# ----------------------------------------------------------------------
# The two update implementations and the policy crossover between them
# ----------------------------------------------------------------------
class TestUpdateFactorizations:
    @pytest.fixture(scope="class")
    def update_pieces(self, ibmpg1_bench, builder, base_compiled):
        clone = resized(builder, ibmpg1_bench, base_compiled, stripe_scale(ibmpg1_bench))
        incidence, delta = update_incidence(base_compiled, clone)
        base_factor = SpluBackend().factor(base_compiled.reduced_matrix)
        return clone, base_factor, incidence, delta

    def test_dense_woodbury_matches_direct_solve(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        factor = WoodburyFactorization(base_factor, incidence, delta)
        assert factor.is_update and factor.update_rank == delta.size
        assert factor.direct is base_factor
        rhs = clone.rhs()
        direct = SpluBackend().factor(clone.reduced_matrix).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - direct)) <= VOLTAGE_TOLERANCE

    def test_preconditioned_cg_matches_direct_solve(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0)
        factor = PreconditionedUpdateFactorization(
            clone.reduced_matrix, base_factor, delta.size, policy
        )
        rhs = clone.rhs()
        direct = SpluBackend().factor(clone.reduced_matrix).solve(rhs)
        assert np.max(np.abs(factor.solve(rhs) - direct)) <= VOLTAGE_TOLERANCE
        assert 0 < factor.iterations <= policy.maxiter

    def test_block_rhs_solves_column_wise(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0)
        factor = PreconditionedUpdateFactorization(
            clone.reduced_matrix, base_factor, delta.size, policy
        )
        block = np.column_stack([clone.rhs(), 2.0 * clone.rhs()])
        direct = SpluBackend().factor(clone.reduced_matrix).solve(block)
        assert np.max(np.abs(factor.solve(block) - direct)) <= VOLTAGE_TOLERANCE

    def test_iteration_cap_raises_divergence(self, update_pieces):
        clone, base_factor, incidence, delta = update_pieces
        policy = UpdatePolicy(dense_rank_limit=0, rtol=1e-15, maxiter=1)
        factor = PreconditionedUpdateFactorization(
            clone.reduced_matrix, base_factor, delta.size, policy
        )
        with pytest.raises(UpdateDivergenceError):
            factor.solve(clone.rhs())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            UpdatePolicy(dense_rank_limit=-1)
        with pytest.raises(ValueError):
            UpdatePolicy(crossover_fraction=0.0)
        with pytest.raises(ValueError):
            UpdatePolicy(crossover_fraction=1.5)
        with pytest.raises(ValueError):
            UpdatePolicy(rtol=0.0)
        with pytest.raises(ValueError):
            UpdatePolicy(maxiter=0)


# ----------------------------------------------------------------------
# Backend policy resolution (names, environment, degrade path)
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_default_is_splu(self, monkeypatch):
        monkeypatch.delenv(SOLVER_ENV, raising=False)
        assert resolve_solver_backend().name == "splu"
        assert resolve_solver_backend("splu").name == "splu"

    def test_environment_selects_backend(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "splu")
        assert resolve_solver_backend().name == "splu"

    def test_environment_invalid_name_mentions_variable(self, monkeypatch):
        monkeypatch.setenv(SOLVER_ENV, "pardiso")
        with pytest.raises(ValueError, match=SOLVER_ENV):
            resolve_solver_backend()

    def test_invalid_explicit_name(self):
        with pytest.raises(ValueError, match="pardiso"):
            resolve_solver_backend("pardiso")

    def test_backend_instance_passes_through(self):
        backend = SpluBackend()
        assert resolve_solver_backend(backend) is backend

    def test_non_backend_object_rejected(self):
        with pytest.raises(TypeError):
            resolve_solver_backend(3.14)

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_auto_degrades_silently_without_cholmod(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_solver_backend("auto").name == "splu"

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_cholmod_request_warns_and_degrades(self):
        with pytest.warns(RuntimeWarning, match="degrading to the 'splu' backend"):
            backend = resolve_solver_backend("cholmod")
        assert backend.name == "splu"

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_engine_degrades_to_splu_without_cholmod(self, base_compiled):
        """The whole engine stays usable on a cholmod request: policy
        resolution warns, the splu backend serves every solve."""
        with pytest.warns(RuntimeWarning, match="scikit-sparse"):
            engine = BatchedAnalysisEngine(solver="cholmod")
        assert engine.cache_info().backend == "splu"
        voltages = engine.solve_voltages(base_compiled)
        assert np.all(np.isfinite(voltages))

    @pytest.mark.skipif(cholmod_available(), reason="scikit-sparse is installed")
    def test_cholmod_backend_factor_raises_without_binding(self, base_compiled):
        from repro.analysis import LinearSolverError

        with pytest.raises(LinearSolverError, match="scikit-sparse"):
            CholmodBackend().factor(base_compiled.reduced_matrix)


# ----------------------------------------------------------------------
# CHOLMOD equivalence (runs only where scikit-sparse is installed)
# ----------------------------------------------------------------------
@pytest.mark.skipif(not cholmod_available(), reason="scikit-sparse not installed")
class TestCholmodEquivalence:
    def test_backend_resolves(self):
        assert resolve_solver_backend("cholmod").name == "cholmod"
        assert resolve_solver_backend("auto").name == "cholmod"

    def test_voltages_match_splu(self, base_compiled):
        cholmod = BatchedAnalysisEngine(solver="cholmod")
        splu = BatchedAnalysisEngine(solver="splu")
        diff = cholmod.solve_voltages(base_compiled) - splu.solve_voltages(base_compiled)
        assert np.max(np.abs(diff)) <= VOLTAGE_TOLERANCE
        assert cholmod.cache_info().backend == "cholmod"


# ----------------------------------------------------------------------
# Counters and cache-key semantics
# ----------------------------------------------------------------------
class TestCacheSemantics:
    def test_counters_survive_clear_cache(self, ibmpg1_bench, builder, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        clone = resized(builder, ibmpg1_bench, base_compiled, single_line_scale(ibmpg1_bench))
        engine.analyze(clone)
        before = engine.cache_info()
        assert before.factorizations == 2 and before.entries == 2
        engine.analyze(clone)
        engine.clear_cache()
        after = engine.cache_info()
        assert after.entries == 0
        assert after.factorizations == before.factorizations
        assert after.hits == 1

    def test_cache_keys_are_backend_qualified(self, base_compiled):
        engine = BatchedAnalysisEngine()
        engine.analyze(base_compiled)
        (key,) = engine._cache.keys()
        assert key == f"splu:{base_compiled.fingerprint}"

    def test_cache_info_reports_backend(self):
        assert BatchedAnalysisEngine().cache_info().backend == "splu"
        assert BatchedAnalysisEngine(solver="auto").cache_info().backend in (
            "splu",
            "cholmod",
        )
