"""Environment fingerprint and the guard against code-path overrides.

The fingerprint goes into every record so numbers from different hosts
or BLAS set-ups are never compared as a trend.  BLAS thread counts are
read from the loaded OpenBLAS libraries and never set: the parallel
executors' oversubscription under default BLAS threading is one of the
things this benchmark exists to show.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

RECORDED_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
"""Threading variables recorded (never set) when present."""

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def code_path_overrides() -> list[str]:
    """Set environment variables that would change which code path runs.

    These are the test-suite steering variables of the program: a default
    executor, worker count or solver backend, and the hybrid executor's
    shard / thread sizing.
    """
    from repro.analysis.engine import WORKERS_ENV
    from repro.analysis.executors import (
        EXECUTOR_ENV,
        HYBRID_SHARD_WORKERS_ENV,
        HYBRID_THREADS_ENV,
    )
    from repro.analysis.solvers import SOLVER_ENV

    names = {EXECUTOR_ENV, WORKERS_ENV, SOLVER_ENV, HYBRID_SHARD_WORKERS_ENV, HYBRID_THREADS_ENV}
    names.update(name for name in os.environ if name.startswith("REPRO_HYBRID_"))
    return sorted(name for name in names if os.environ.get(name, "").strip())


def _blas(module) -> dict:
    """Vendor, version and current thread count of one package's BLAS."""
    info: dict = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = os.path.dirname(module.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def fingerprint() -> dict:
    """Host and library fingerprint recorded with every benchmark record."""
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's BLAS)

    from repro.analysis import HybridExecutor

    hybrid = HybridExecutor()
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "mp_start_method": hybrid._context().get_start_method(),
        "hybrid": f"{hybrid.shard_workers}x{hybrid.threads_per_shard}",
        "env": {name: os.environ[name] for name in RECORDED_ENV_VARS if name in os.environ},
    }
