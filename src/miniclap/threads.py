"""The process's one worker thread, the BLAS thread budget it needs, and
`SharedCalls`, the one way to split independent work with it.

The worker runs beside the calling thread on the second core. numpy and
OpenBLAS release the interpreter lock inside their loops, so the two
threads compute at once; but if each of them also starts BLAS threads,
those compete for the same two cores and the split is slower than one
thread alone. So creating the worker first sets numpy's bundled OpenBLAS
to one thread, for the whole process.
"""

from __future__ import annotations

import collections
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
    `one_blas_thread`. It has two kinds of user:
    - stage 1's backward runs its weight gradients and GELU slopes on it;
    - a `SharedCalls` runs on it calls from the front of its list: the
      frozen encodes (`network.SharedEncode`) of extraction, stage 1's
      EMA target, stages 2 and 2.1 and a frozen stage 1.1, and a long
      clip's log-mel blocks.
    None is ever called from the worker, so a task never waits on
    another task queued behind it."""
    one_blas_thread()
    return futures.ThreadPoolExecutor(1, thread_name_prefix="miniclap-worker")


class SharedCalls:
    """A fixed list of independent calls, run by the thread that asks for
    their end and, once `share` is called, by a pool as well: the pool
    takes calls from the front of the list, the asking thread (in
    `result`) from the back, until none is left. The list is fixed when
    this is made, so which calls exist never depends on timing; which
    thread runs each one does, so each call must give the same bytes on
    any thread.

    A failed call empties the list, so neither thread starts another.
    `result` returns or raises only once the pool's task is done, and it
    raises the asking thread's error, else the pool's, as the same
    object. The pool's task never waits on the pool it runs on."""

    def __init__(self, calls):
        self._calls = collections.deque(calls)
        self._task = None

    def share(self, pool: futures.Executor) -> "SharedCalls":
        """Start `pool` on the calls from the front; returns self."""
        self._task = pool.submit(self._drain, self._calls.popleft)
        return self

    def _drain(self, take) -> None:
        """Run calls, each taken with `take` (deque pops are atomic), until none is left."""
        while True:
            try:
                call = take()
            except IndexError:
                return
            try:
                call()
            except BaseException:
                self._calls.clear()
                raise

    def result(self) -> None:
        """Run every call not yet started, from the back (in order when not
        shared), then wait for the pool's."""
        try:
            self._drain(self._calls.popleft if self._task is None else self._calls.pop)
        finally:
            self.wait()
        if self._task is not None:
            self._task.result()

    def wait(self) -> None:
        """Return once the pool's task has finished, without raising its error."""
        if self._task is not None:
            futures.wait((self._task,))
