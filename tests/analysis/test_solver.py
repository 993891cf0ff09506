"""Tests for the engine's linear solve paths: cached direct factorization
and the Jacobi-preconditioned CG fallback past ``direct_size_limit``."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import (
    CG_METHOD,
    ENGINE_METHOD,
    BatchedAnalysisEngine,
    LinearSolverError,
    solvers,
)
from tests.oracle import reference_voltages


def cg_engine():
    """An engine that routes every system with more than one unknown to CG."""
    return BatchedAnalysisEngine(direct_size_limit=1)


class TestSolverSelection:
    def test_auto_uses_direct_for_small_systems(self, tiny_grid):
        result = BatchedAnalysisEngine().analyze(tiny_grid)
        assert result.solver_method == ENGINE_METHOD
        assert result.solver_iterations == 0

    def test_auto_switches_to_cg_above_limit(self, tiny_grid):
        engine = cg_engine()
        result = engine.analyze(tiny_grid)
        assert result.solver_method == CG_METHOD
        assert engine.solver_method(tiny_grid) == CG_METHOD
        assert engine.cache_info().factorizations == 0


class TestSolutionQuality:
    def test_direct_and_cg_agree(self, tiny_grid):
        direct = BatchedAnalysisEngine().solve_voltages(tiny_grid)
        cg = cg_engine().solve_voltages(tiny_grid)
        np.testing.assert_allclose(cg, direct, rtol=0.0, atol=1e-9)

    def test_residual_is_small(self, tiny_grid):
        compiled = tiny_grid.compile()
        rhs = compiled.rhs()
        for engine in (BatchedAnalysisEngine(), cg_engine()):
            voltages = engine.solve_voltages(compiled)
            residual = rhs - compiled.reduced_matrix @ voltages[compiled.unknown_sel]
            assert np.linalg.norm(residual) / np.linalg.norm(rhs) < 1e-8

    def test_solve_time_recorded(self, tiny_grid):
        assert BatchedAnalysisEngine().analyze(tiny_grid).analysis_time >= 0.0

    def test_voltages_do_not_exceed_vdd(self, tiny_grid):
        """A passive resistive grid with only Vdd sources cannot overshoot Vdd."""
        voltages = BatchedAnalysisEngine().solve_voltages(tiny_grid)
        assert np.all(voltages <= tiny_grid.vdd + 1e-9)
        assert np.all(voltages > 0.0)

    def test_cg_reports_iterations(self, tiny_grid):
        assert cg_engine().analyze(tiny_grid).solver_iterations > 0

    def test_cg_iteration_cap_raises(self, tiny_grid, monkeypatch):
        monkeypatch.setattr(solvers, "CG_MAX_ITERATIONS", 1)
        with pytest.raises(LinearSolverError, match="did not converge within 1 "):
            cg_engine().analyze(tiny_grid)

    def test_cg_rejects_non_positive_diagonal(self):
        matrix = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(LinearSolverError, match="non-positive diagonal"):
            solvers.cg_solve(matrix, np.ones(2))


class TestBackendRouting:
    """The engine's direct path routes through the shared solver backends."""

    def test_default_backend_resolved(self):
        engine = BatchedAnalysisEngine()
        assert type(engine.solver_backend) is type(solvers.resolve_solver_backend(None))

    def test_explicit_splu_backend(self, tiny_grid):
        engine = BatchedAnalysisEngine(solver="splu")
        assert isinstance(engine.solver_backend, solvers.SpluBackend)
        assert engine.analyze(tiny_grid).solver_method == ENGINE_METHOD

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            BatchedAnalysisEngine(solver="not-a-backend")

    def test_error_type_shared_with_solvers_module(self):
        from repro import analysis

        assert analysis.LinearSolverError is solvers.LinearSolverError
        assert issubclass(solvers.UpdateDivergenceError, analysis.LinearSolverError)

    def test_direct_and_engine_backends_agree(self, tiny_grid):
        """The engine's direct solve matches the independent reference solve."""
        reference = reference_voltages(tiny_grid)
        result = BatchedAnalysisEngine().analyze(tiny_grid)
        worst = max(abs(result.node_voltages[name] - v) for name, v in reference.items())
        assert worst <= 1e-9
