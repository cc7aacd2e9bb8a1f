"""The one worker thread, the BLAS thread budget its creation sets, and
`SharedCalls`, the one call list every split with the worker uses."""

import functools
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from miniclap import evaluation as ev
from miniclap import frontend as fe
from miniclap import network as net
from miniclap import threads, trainer
from miniclap.config import HOP_LENGTH, ModelConfig
from miniclap.frontend import MelSpectrogram

from conftest import param_digest
from test_trainer import _partition, _stage1_cfg, _stage1_data, _state

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


# -- the users of SharedCalls, each returning the bytes it computed -------------

TINY = ModelConfig(dim=8, depth=1, heads=2, input_frames=32)


def _extraction() -> bytes:
    """Clip and semantic features of 76 windows of 10 patches: 3 calls each."""
    state = net.init_model_state(TINY, seed=6)
    rng = np.random.default_rng(0)
    mels = [MelSpectrogram(rng.standard_normal((80, t))) for t in (20, 100, 40 * 32 + 5, 30 * 32)]
    return ev.clip_features(state, mels).tobytes() + ev.semantic_features(state, mels).tobytes()


def _once_per_run_encode() -> bytes:
    """Every clip of a stage 2.1 run, as `run_stage` encodes them: 64 clips
    of 10 patches, 3 calls."""
    state = net.init_model_state(TINY, seed=6)
    patches = np.random.default_rng(1).standard_normal((64, 10, 256))
    return net.encode_frozen(state.online, patches, state.online.posenc.table,
                             pool=net.worker()).tobytes()


def _stage1_step() -> bytes:
    """One stage-1 step on 12 clips of 7 masked patches: at a budget of 21
    rows its EMA-target encode is four calls of 3 clips."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(net, "SHARED_TOKENS", 21)
        state = _state()
        opt = trainer.AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        data, cfg = _stage1_data(np.random.default_rng(2), n=12), _stage1_cfg(batch_size=12)
        partition = _partition(data, cfg, np.random.default_rng(3))
        stats = trainer.stage1_step(state, data, cfg, partition, opt, trainer.ema_target(state, opt))
    return json.dumps(stats).encode() + param_digest(state).encode()


def _logmel(frames: int) -> bytes:
    samples = np.random.default_rng(frames).standard_normal(frames * HOP_LENGTH - 37)
    return fe.compute_logmel(fe.Waveform(samples)).values.tobytes()


# 255 frames are three blocks, which stay on the calling thread; 256 and
# 257 frames are four, the fewest that are shared, and 900 frames (9 s) 14
USERS = {"extraction": _extraction, "encode": _once_per_run_encode, "stage1": _stage1_step,
         **{f"logmel-{t}": functools.partial(_logmel, t) for t in (255, 256, 257, 900)}}
SHARED_USERS = [name for name in USERS if name != "logmel-255"]


def _on_worker() -> bool:
    return threading.current_thread().name.startswith("miniclap-worker")


def _wrap_calls(monkeypatch, run):
    """Make every SharedCalls run each of its calls as `run(call)`."""
    init = threads.SharedCalls.__init__
    monkeypatch.setattr(threads.SharedCalls, "__init__", lambda self, calls: init(
        self, [functools.partial(run, call) for call in calls]))


def _force(monkeypatch, mode) -> list:
    """Make one thread run every call of every SharedCalls, and return the
    list that records, call by call, whether the worker ran it. "worker"
    shares every list and lets the worker take all of its calls before
    the asking thread looks; "caller" shares every list with a worker that
    stays busy until the asking thread has run every call; "none" shares
    no list."""
    on_worker = []
    share, result, wait = (threads.SharedCalls.share, threads.SharedCalls.result,
                           threads.SharedCalls.wait)

    def forced_share(calls, pool):
        if mode == "none":
            return calls
        if mode == "caller":
            calls.gate = threading.Event()
            pool.submit(calls.gate.wait)
        calls.forced = True
        return share(calls, pool)

    def forced_result(calls):
        if mode != "none" and not getattr(calls, "forced", False):
            forced_share(calls, threads.worker())
        if mode == "worker":
            wait(calls)
        return result(calls)

    def forced_wait(calls):
        if mode == "caller":
            calls.gate.set()  # the asking thread has taken every call
        wait(calls)

    _wrap_calls(monkeypatch, lambda call: (on_worker.append(_on_worker()), call()))
    monkeypatch.setattr(threads.SharedCalls, "share", forced_share)
    monkeypatch.setattr(threads.SharedCalls, "result", forced_result)
    monkeypatch.setattr(threads.SharedCalls, "wait", forced_wait)
    return on_worker


class TestSharedCalls:
    @pytest.mark.parametrize("user", USERS)
    def test_bytes_do_not_depend_on_which_thread_runs_a_call(self, monkeypatch, user):
        want = USERS[user]()
        for mode in ("worker", "caller", "none"):
            with monkeypatch.context() as patched:
                on_worker = _force(patched, mode)
                got = USERS[user]()
            assert on_worker and set(on_worker) == {mode == "worker"}, mode
            assert got == want, mode

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    @pytest.mark.parametrize("user", SHARED_USERS)
    def test_error_reaches_caller_as_same_object(self, monkeypatch, user, failing):
        error = RuntimeError(f"{failing} call failed")
        events, other_started = [], threading.Event()

        def run(call):
            thread = "worker" if _on_worker() else "caller"
            events.append(("start", thread))
            if thread == failing:
                assert other_started.wait(5), "the other thread took no call"
                events.append(("error", thread))
                raise error
            other_started.set()
            time.sleep(0.1)  # still running when the other thread fails
            call()
            events.append(("end", thread))

        _wrap_calls(monkeypatch, run)
        with pytest.raises(RuntimeError) as caught:
            USERS[user]()
        assert caught.value is error
        after = events[events.index(("error", failing)):]
        assert all(kind != "start" for kind, _ in after), events  # no call started after it
        assert events.count(("start", "worker")) == events.count(("end", "worker")) + (
            failing == "worker"), events  # the worker's call in flight had ended

    @pytest.mark.parametrize("user", SHARED_USERS)
    def test_result_returns_only_once_the_worker_is_idle(self, monkeypatch, user):
        running, ran, worker_started = [], [], threading.Event()

        def run(call):
            if _on_worker():
                running.append(call)
                worker_started.set()
                time.sleep(0.02)  # the caller runs out of calls first
                call()
                ran.append(running.pop())
            else:
                assert worker_started.wait(5), "the worker took no call"
                call()

        _wrap_calls(monkeypatch, run)
        USERS[user]()
        assert ran and running == []
