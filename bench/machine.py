"""Machine facts recorded with every result, and the fixed BLAS thread count.

Importing this module does not import numpy, so the thread count can be
fixed in the environment before numpy loads its BLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform

# At or below nproc.  The thread count changes the last bits of eigenvalues,
# so it is part of a result's identity.
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}

# Thread-count getters of the OpenBLAS in numpy's wheels and of a system one.
_OPENBLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def fix_blas_threads() -> None:
    os.environ.update(BLAS_ENV)


def _loaded_blas_threads():
    """The thread count the loaded OpenBLAS reports, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_loaded": _loaded_blas_threads(),
    }
