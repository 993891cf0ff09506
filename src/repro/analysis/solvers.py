"""Pluggable sparse solver backends.

The reduced MNA system the engine solves is symmetric positive definite.
**Backends** (:class:`SpluBackend`, :class:`CholmodBackend`) own its
fresh factorization; the engine factors each cache miss fresh and
caches the result.  CHOLMOD — an SPD Cholesky
factorization via ``scikit-sparse`` — is feature-detected: when the
package is missing the policy resolution degrades to ``splu`` with a
warning instead of failing, so the same configuration runs everywhere.
Like the executor layer's ``REPRO_TEST_EXECUTOR``, the default backend
can be supplied through the :data:`SOLVER_ENV` environment variable.
Systems past the engine's ``direct_size_limit`` are not factored at all:
:func:`cg_solve` runs Jacobi-preconditioned CG per RHS column.

:class:`WoodburyFactorization` and
:class:`PreconditionedUpdateFactorization` (with :class:`UpdatePolicy`
and :class:`UpdateDivergenceError`) solve a low-rank conductance update
against a base factorization.  The engine no longer uses them — a fresh
SuperLU factorization per resized grid is faster end to end — and they
remain only as standalone solvers.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

class LinearSolverError(RuntimeError):
    """Raised when the nodal system could not be solved to tolerance.

    Shared by the solver backends, the CG fallback and the engine.
    """


CG_TOLERANCE = 1e-10
"""Relative residual tolerance of the engine's CG fallback (:func:`cg_solve`)."""

CG_MAX_ITERATIONS = 20000
"""Iteration cap of the engine's CG fallback; hitting it raises
:class:`LinearSolverError`."""


def cg_solve(matrix: sp.spmatrix, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve one RHS column by Jacobi-preconditioned conjugate gradients.

    The memory-lean fallback for systems past the engine's
    ``direct_size_limit``, where SuperLU fill-in can exhaust memory.

    Returns:
        The solution vector and the number of CG iterations taken.

    Raises:
        LinearSolverError: On a non-positive diagonal entry, when CG does
            not converge within :data:`CG_MAX_ITERATIONS`, or on illegal
            input.
    """
    diagonal = matrix.diagonal()
    if np.any(diagonal <= 0):
        raise LinearSolverError("conductance matrix has a non-positive diagonal entry")
    preconditioner = spla.LinearOperator(matrix.shape, matvec=lambda x: x / diagonal)
    iterations = 0

    def count(_xk: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1

    solution, info = spla.cg(
        matrix,
        rhs,
        rtol=CG_TOLERANCE,
        maxiter=CG_MAX_ITERATIONS,
        M=preconditioner,
        callback=count,
    )
    if info > 0:
        raise LinearSolverError(
            f"CG did not converge within {CG_MAX_ITERATIONS} iterations (info={info})"
        )
    if info < 0:
        raise LinearSolverError(f"CG failed with illegal input (info={info})")
    return solution, iterations


SOLVER_ENV = "REPRO_TEST_SOLVER"
"""Environment variable supplying the engine's default solver backend.

Lets CI (and local runs) push the whole test suite through one backend
without touching any call site: every
:class:`~repro.analysis.engine.BatchedAnalysisEngine` constructed without
an explicit ``solver=`` resolves this variable.  Accepted values are the
:data:`SOLVER_NAMES`; unset or empty means ``splu``.  Requesting
``cholmod`` where ``scikit-sparse`` is not installed degrades to ``splu``
with a warning (so one CI matrix entry can set it unconditionally).
"""

SOLVER_NAMES = ("splu", "cholmod", "auto")
"""Names accepted by :func:`resolve_solver_backend` (and :data:`SOLVER_ENV`)."""

try:  # pragma: no cover - exercised only where scikit-sparse is installed
    from sksparse.cholmod import cholesky as _cholmod_cholesky
except ImportError:  # pragma: no cover - the common case in CI
    _cholmod_cholesky = None


def cholmod_available() -> bool:
    """True when the optional ``scikit-sparse`` CHOLMOD binding imports."""
    return _cholmod_cholesky is not None


class UpdateDivergenceError(LinearSolverError):
    """An update factorization could not reach its tolerance.

    Raised by the update solve paths and by Woodbury construction when
    the capacitance system is unusable.
    """


@dataclass(frozen=True)
class UpdatePolicy:
    """Crossover and tolerance knobs of the update factorizations.

    Attributes:
        dense_rank_limit: Largest update rank served by the explicit dense
            Woodbury path; above it the capacitance-free preconditioned-CG
            path is used (whose cost is independent of the rank).
        crossover_fraction: Rank, as a fraction of the unknown count,
            past which a caller should factor fresh instead of updating
            (e.g. a full-grid resize, where the "update" touches every
            branch).  Validated here; no code in this package reads it.
        rtol: Relative residual tolerance of the preconditioned-CG update
            solve.  Far below the engine's 1e-9 voltage-equivalence bar.
        maxiter: CG iteration cap; hitting it raises
            :class:`UpdateDivergenceError` instead of returning an
            inaccurate solution.
    """

    dense_rank_limit: int = 32
    crossover_fraction: float = 0.5
    rtol: float = 1e-12
    maxiter: int = 64

    def __post_init__(self) -> None:
        if self.dense_rank_limit < 0:
            raise ValueError("dense_rank_limit must be non-negative")
        if not 0.0 < self.crossover_fraction <= 1.0:
            raise ValueError("crossover_fraction must be in (0, 1]")
        if self.rtol <= 0.0:
            raise ValueError("rtol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be at least 1")


class Factorization:
    """One factorization of a reduced conductance matrix.

    The engine's cache stores these; the only operation the solve paths
    need is :meth:`solve` against one or many right-hand sides.

    Attributes:
        backend: Name of the backend that produced the factorization.
    """

    backend: str = "?"

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against a ``(n,)`` vector or ``(n, k)`` RHS block."""
        raise NotImplementedError


class SpluFactorization(Factorization):
    """SuperLU factorization (the engine's historical direct path)."""

    backend = "splu"

    def __init__(self, factor: spla.SuperLU) -> None:
        self._factor = factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor.solve(rhs)


class SpluBackend:
    """Generic sparse LU via ``scipy.sparse.linalg.splu`` (always available)."""

    name = "splu"

    @staticmethod
    def available() -> bool:
        return True

    def factor(self, matrix: sp.spmatrix) -> SpluFactorization:
        try:
            return SpluFactorization(spla.splu(matrix.tocsc()))
        except RuntimeError as exc:
            raise LinearSolverError(f"factorization failed: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "SpluBackend()"


class CholmodFactorization(Factorization):
    """Sparse SPD Cholesky factorization from ``sksparse.cholmod``."""

    backend = "cholmod"

    def __init__(self, factor) -> None:
        self._factor = factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor(rhs)


class CholmodBackend:
    """SPD Cholesky via ``scikit-sparse`` (CHOLMOD), feature-detected.

    The reduced MNA matrix is symmetric positive definite, so a Cholesky
    factorization halves the factor memory and skips pivoting.  The
    backend is optional: construct it only after
    :func:`resolve_solver_backend` (or :func:`cholmod_available`) has
    confirmed the binding imports.
    """

    name = "cholmod"

    @staticmethod
    def available() -> bool:
        return cholmod_available()

    def factor(self, matrix: sp.spmatrix) -> CholmodFactorization:
        if _cholmod_cholesky is None:
            raise LinearSolverError(
                "the cholmod backend needs scikit-sparse, which is not installed"
            )
        try:
            return CholmodFactorization(_cholmod_cholesky(matrix.tocsc()))
        except Exception as exc:  # CholmodError hierarchy is import-guarded
            raise LinearSolverError(f"CHOLMOD factorization failed: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "CholmodBackend()"


class WoodburyFactorization(Factorization):
    """Exact small-rank update via the Sherman–Morrison–Woodbury identity.

    With ``A₁ = A₀ + B·diag(δ)·Bᵀ`` and ``F₀`` the factorization of
    ``A₀``::

        A₁⁻¹ rhs = y − W · C⁻¹ · (Bᵀ y),   y = F₀⁻¹ rhs,
        W = F₀⁻¹ B,   C = diag(δ)⁻¹ + Bᵀ W

    ``W`` and the dense LU of the ``r × r`` capacitance matrix ``C`` are
    computed once at construction; each subsequent solve costs one base
    triangular solve plus dense rank-``r`` corrections, which makes this
    the right shape when an updated matrix serves *many* right-hand sides.
    """

    def __init__(
        self,
        base: Factorization,
        update_incidence: sp.spmatrix,
        delta: np.ndarray,
    ) -> None:
        self.backend = base.backend
        self.update_rank = int(delta.size)
        self._base = base
        self._B = update_incidence.tocsc()
        dense_b = self._B.toarray()
        self._W = base.solve(dense_b)
        capacitance = np.diag(1.0 / delta) + dense_b.T @ self._W
        if not np.all(np.isfinite(capacitance)):
            raise UpdateDivergenceError("Woodbury capacitance matrix is not finite")
        try:
            self._capacitance_lu = sla.lu_factor(capacitance)
        except sla.LinAlgError as exc:
            raise UpdateDivergenceError(
                f"Woodbury capacitance matrix is singular: {exc}"
            ) from exc

    @property
    def is_update(self) -> bool:
        return True

    @property
    def direct(self) -> Factorization:
        return self._base

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._base.solve(rhs)
        correction = sla.lu_solve(self._capacitance_lu, self._B.T @ y)
        return y - self._W @ correction


class PreconditionedUpdateFactorization(Factorization):
    """Capacitance-free update: CG on the new matrix, base as preconditioner.

    Solves ``A₁ x = rhs`` by conjugate gradients preconditioned with the
    base factorization ``F₀ ≈ A₁⁻¹``.  The ``r × r`` capacitance matrix of
    the Woodbury identity is never formed, so the per-solve cost is
    independent of the update rank — it depends only on how far the update
    moved the spectrum (for an upsize-only resize by ``α``,
    ``κ(A₀⁻¹A₁) ≤ α``, giving convergence in ~10 iterations at planner
    settings).  Divergence (iteration cap, non-finite iterates) raises
    :class:`UpdateDivergenceError` instead of returning a bad solution.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        base: Factorization,
        update_rank: int,
        policy: UpdatePolicy,
    ) -> None:
        self.backend = base.backend
        self.update_rank = int(update_rank)
        self.iterations = 0
        self._matrix = matrix.tocsr()
        self._base = base
        self._policy = policy
        n = self._matrix.shape[0]
        self._preconditioner = spla.LinearOperator((n, n), matvec=base.solve)

    @property
    def is_update(self) -> bool:
        return True

    @property
    def direct(self) -> Factorization:
        return self._base

    def _solve_column(self, rhs: np.ndarray) -> np.ndarray:
        iterations = 0

        def count(_xk: np.ndarray) -> None:
            nonlocal iterations
            iterations += 1

        solution, info = spla.cg(
            self._matrix,
            rhs,
            rtol=self._policy.rtol,
            atol=0.0,
            maxiter=self._policy.maxiter,
            M=self._preconditioner,
            callback=count,
        )
        self.iterations += iterations
        if info != 0 or not np.all(np.isfinite(solution)):
            raise UpdateDivergenceError(
                f"incremental update solve did not converge within "
                f"{self._policy.maxiter} iterations (rank {self.update_rank}); "
                "refactorize fresh"
            )
        return solution

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim == 1:
            return self._solve_column(rhs)
        return np.column_stack([self._solve_column(rhs[:, k]) for k in range(rhs.shape[1])])


def resolve_solver_backend(
    solver: "str | SpluBackend | CholmodBackend | None" = None,
) -> "SpluBackend | CholmodBackend":
    """Resolve a solver policy into a concrete backend instance.

    Args:
        solver: A name from :data:`SOLVER_NAMES`, an already-constructed
            backend (returned unchanged), or ``None`` to consult
            :data:`SOLVER_ENV` (falling back to ``splu``).

    Returns:
        A backend object exposing ``name`` / ``factor(matrix)``.

    Raises:
        ValueError: On a name outside :data:`SOLVER_NAMES` (prefixed with
            the environment variable name when it came from there).

    ``auto`` picks CHOLMOD when ``scikit-sparse`` is installed and
    ``splu`` otherwise, silently.  An explicit (or environment) request
    for ``cholmod`` where the binding is missing degrades to ``splu`` and
    emits a :class:`RuntimeWarning` naming both the requested and the
    substituted backend, so the policy resolution is visible in logs but
    never fails a run over an optional dependency.
    """
    if solver is None or isinstance(solver, str):
        from_env = solver is None
        name = (os.environ.get(SOLVER_ENV, "").strip() or "splu") if from_env else solver
        if name not in SOLVER_NAMES:
            message = f"unknown solver {name!r}; choose from {SOLVER_NAMES}"
            if from_env:
                message = f"{SOLVER_ENV}: {message}"
            raise ValueError(message)
        if name == "auto":
            return CholmodBackend() if cholmod_available() else SpluBackend()
        if name == "cholmod":
            if cholmod_available():
                return CholmodBackend()
            requested = f"{SOLVER_ENV}={name}" if from_env else f"solver policy {name!r}"
            warnings.warn(
                f"{requested} requires scikit-sparse (CHOLMOD), which is not "
                "installed; degrading to the 'splu' backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return SpluBackend()
        return SpluBackend()
    if not hasattr(solver, "factor") or not hasattr(solver, "name"):
        raise TypeError(
            "solver must be a backend name, a backend instance exposing "
            f"name/factor, or None; got {solver!r}"
        )
    return solver
