"""The process's one worker thread, and the BLAS thread budget it needs.

The worker runs beside the calling thread on the second core. numpy and
OpenBLAS release the interpreter lock inside their loops, so the two
threads compute at once; but if each of them also starts BLAS threads,
those compete for the same two cores and the split is slower than one
thread alone. So creating the worker first sets numpy's bundled OpenBLAS
to one thread, for the whole process.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from concurrent import futures
from dataclasses import dataclass

import numpy as np

# (set, get) symbol pairs, in the order they are tried: the names of the
# scipy-openblas build that numpy wheels bundle, then plain OpenBLAS
_BLAS_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                 ("openblas_set_num_threads", "openblas_get_num_threads"))


@dataclass(frozen=True)
class BlasThreads:
    """What `one_blas_thread` found and set: the library, the setter
    called, and the thread count before and after. All None when no
    OpenBLAS setter was found; then nothing was changed."""

    library: str | None = None
    symbol: str | None = None
    before: int | None = None
    after: int | None = None


@functools.cache
def one_blas_thread() -> BlasThreads:
    """Set numpy's bundled OpenBLAS to one thread, once per process, and
    return what was found and set. Looks the setter up with `ctypes` in
    the `numpy.libs` directory of numpy's Linux wheels; changes nothing
    when neither symbol pair is there."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                before = getter()
                setter(1)
                return BlasThreads(os.path.basename(path), set_name, before, getter())
    return BlasThreads()


@functools.cache
def worker() -> futures.ThreadPoolExecutor:
    """The process's one worker thread, created on first use, after
    `one_blas_thread`. It has five users: stage 1 runs its EMA-target
    branch on it, stage 1's backward its weight gradients and GELU
    slopes, `network.encode_frozen` the second half of the clips of
    extraction, stage 2.1 and a frozen stage 1.1, `frontend.compute_logmel`
    the second half of a long clip's frames, and a masked stage 2's
    `run_stage` the next batch's frozen encode (which passes
    `encode_frozen` no pool). None is ever called from the worker, so a
    task never waits on another task queued behind it."""
    one_blas_thread()
    return futures.ThreadPoolExecutor(1, thread_name_prefix="miniclap-worker")
