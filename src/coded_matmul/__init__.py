"""Polynomial-coded distributed matrix multiplication over a prime field.

Four coding schemes (one univariate, two bivariate, one tri-variate) trade
extra worker computation against upload/download volume when a matrix
product is split across unreliable workers.  The package provides exact
encode/compute/decode, the closed-form overhead model, a Monte Carlo
straggler latency simulator, a constrained partition-scheme optimizer, a
local concurrent master/worker runtime, and a CLI front end.

Importing the package decides BLAS threading for every module in it, before
any of them imports numpy: the block products run on one BLAS thread, since
`runtime.run_job`'s worker threads already run them side by side and BLAS
threads on the same cores stalled them.  Where numpy is not yet imported,
`OPENBLAS_NUM_THREADS` is set to 1 for numpy's import alone and `os.environ`
is then restored exactly, so OpenBLAS never starts the thread pool it would
leave idle (about 60 ms per process on 2 cores) and child processes inherit
nothing.  Where numpy is already imported, OpenBLAS's `set_num_threads` is
called through ctypes.  Under another BLAS neither acts, which costs speed
but never exactness.
"""

import ctypes
import os
import sys

__version__ = "0.1.0"


def _one_blas_thread() -> None:
    """Run numpy's BLAS on one thread: by the environment if numpy is not yet imported."""
    if "numpy" in sys.modules:
        _set_one_thread()
        return
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if saved is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def _set_one_thread() -> None:
    """Set the loaded OpenBLAS to one thread, through the setter that numpy's core links."""
    core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    try:
        lib = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):
        return
    for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads64_", "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


_one_blas_thread()
