"""The one worker thread and the BLAS thread budget its creation sets."""

import json
import os
import subprocess
import sys

from miniclap import network as net
from miniclap import threads

# Creates the worker in a fresh process with no BLAS thread variable set,
# and prints what the budget helper found and set.
BLAS_RUN = """
import dataclasses, json
from miniclap import network as net, threads
assert net.worker is threads.worker
assert threads.one_blas_thread.cache_info().currsize == 0, "set before the worker exists"
net.worker()
assert threads.one_blas_thread.cache_info().currsize == 1, "the worker did not set it"
print(json.dumps(dataclasses.asdict(threads.one_blas_thread())))
"""


def test_worker_creation_sets_one_blas_thread():
    src = os.path.dirname(os.path.dirname(threads.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", BLAS_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.strip().splitlines()[-1])
    if found["symbol"] is None:  # numpy without a bundled OpenBLAS: nothing changed
        assert found == {"library": None, "symbol": None, "before": None, "after": None}
    else:
        assert found["after"] == 1, found


def test_no_bundled_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(threads.glob, "glob", lambda pattern: [])
    assert threads.one_blas_thread.__wrapped__() == threads.BlasThreads()


def test_network_reexports_the_one_worker():
    assert net.worker is threads.worker
    assert net.worker() is threads.worker()
