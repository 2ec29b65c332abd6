"""The OpenBLAS kernel the tests run on, and what another kernel moves.

``conftest.py`` pins numpy's bundled OpenBLAS to its ``Nehalem`` kernel.
Another kernel moves only what an eigensolve returns, and that by a few
ulps; every other field of a report is exact arithmetic and stays put.
Run as a script, ``python tests/test_blas_pin.py <scenario>`` prints the
loaded kernel's name on one line and the scenario's golden report text
after it.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys

import pytest

from test_golden_reports import GOLDEN, ROOT, fresh_report, report_text

# report keys whose values come out of an eigensolve
EIGEN_KEYS = frozenset({"lambda_min", "residual", "exact_lambda_max", "module_lambda_min"})
EIGEN_RTOL = 1e-13


def openblas_corename():
    """The kernel the loaded OpenBLAS reports, or None where no loaded
    library exports ``scipy_openblas_get_corename64_``."""
    import numpy  # noqa: F401  -- loads the BLAS

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def assert_close(got, want, path=""):
    """Equal trees, except that a number under an eigensolver key need only
    lie within ``EIGEN_RTOL * (1 + |x|)`` of the golden value x."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for k, w in want.items():
            if k in EIGEN_KEYS and isinstance(w, float):
                assert isinstance(got[k], float), f"{path}/{k}"
                assert abs(got[k] - w) <= EIGEN_RTOL * (1 + abs(w)), f"{path}/{k}"
            else:
                assert_close(got[k], w, f"{path}/{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}/{i}")
    else:
        assert type(got) is type(want) and got == want, path


x86_64_only = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64"), reason="the pinned kernel is an x86-64 one"
)


@x86_64_only
def test_the_tests_run_on_the_pinned_kernel():
    core = openblas_corename()
    if core is None:
        pytest.skip("no loaded OpenBLAS reports its kernel")
    assert core == "Nehalem"


@x86_64_only
def test_another_kernel_moves_only_eigensolver_outputs():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, __file__, "path_mixed"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    core, text = proc.stdout.split("\n", 1)
    if core != "Haswell":
        pytest.skip(f"the child ran on {core}, not Haswell")
    golden = json.loads((GOLDEN / "path_mixed.json").read_text(encoding="utf-8"))
    assert_close(json.loads(text), golden)


if __name__ == "__main__":
    print(openblas_corename())
    print(report_text(fresh_report(sys.argv[1])), end="")
