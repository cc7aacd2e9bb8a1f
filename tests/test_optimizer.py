"""The packed AdamW: byte-equality with the per-tensor optimizer it
replaced, parameter storage that stays one buffer across every write,
a step that rejects a rebound `.data` before any write, and source
checks that keep parameter writes in place and the worker's users to
two: `threads.SharedCalls` and the split backward."""

import ast
import os

import numpy as np
import pytest

from miniclap import evaluation as ev, network as net, trainer
from miniclap.errors import InvalidInput
from miniclap.trainer import AdamW, ema_update, run_stage, stage1_step

from conftest import param_digest
from test_trainer import (TINY, _encoded, _headed_state, _labeled_data, _partition, _stage1_cfg,
                          _stage1_data, _stage2_data, _state)


class OracleAdamW:
    """The per-tensor AdamW that `trainer.AdamW` replaced: moments in
    dicts keyed by name, and one update per parameter with a gradient."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.95), weight_decay=0.05):
        self.params = dict(params)
        self.lr = lr
        self.betas = betas
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    @property
    def flat(self):
        """Every parameter's values joined in order, as `AdamW.flat` holds
        them; a copy, from which stage 1's EMA reads the online encoder."""
        return np.concatenate([np.reshape(p.data, -1) for p in self.params.values()])

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr=None):
        lr = self.lr if lr is None else lr
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m, v, buf = self._m[name], self._v[name], np.empty_like(p.data)
            m *= b1
            m += np.multiply(1.0 - b1, g, out=buf)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=buf), g, out=buf)
            np.sqrt(np.divide(v, bc2, out=buf), out=buf)
            buf += 1e-8
            update = m / bc1
            update /= buf
            if self.weight_decay and AdamW._decays(name, p):
                update += np.multiply(self.weight_decay, p.data, out=buf)
            update *= lr
            p.data -= update


def _recorded(monkeypatch, module, make) -> list:
    """Make `module.AdamW` build its optimizers with `make`; returns the list
    they are appended to."""
    made = []
    monkeypatch.setattr(module, "AdamW", lambda *a, **kw: made.append(make(*a, **kw)) or made[-1])
    return made


# Each scenario trains with the optimizer class `make` and returns what it
# trained (compared by value) and the optimizer.

def _stage1(lambda_clap):
    def scenario(make, monkeypatch):
        state = _state()
        opt = make(trainer.trainable_params(state, "1"), lr=1e-3)
        data, gen = _stage1_data(np.random.default_rng(5), n=8), np.random.default_rng(7)
        cfg, target = _stage1_cfg(lambda_clap=lambda_clap), trainer.ema_target(state, opt)
        for i in range(3):
            batch = data.take(np.arange(4 * (i % 2), 4 * (i % 2) + 4))
            stage1_step(state, batch, cfg, _partition(batch, cfg, gen), opt, target,
                        lr=1e-3 * (i + 1), ema_alpha=0.9)
        if lambda_clap == 0:
            assert state.tau.grad is None and state.projector.cls_token.grad is None
        return param_digest(state), opt
    return scenario


def _finetune(make, monkeypatch):
    made = _recorded(monkeypatch, trainer, make)
    cfg = trainer.stage_config_from("1.1", dict(epochs=2, batch_size=3, base_lr=1e-2))
    state, rows = run_stage(cfg, _labeled_data(np.random.default_rng(5)), _headed_state(), seed=4)
    return (param_digest(state), rows), made[0]


def _masked_stage2(make, monkeypatch):
    made = _recorded(monkeypatch, trainer, make)
    cfg = trainer.stage_config_from("2", dict(epochs=2, warmup_epochs=1, batch_size=4,
                                              base_lr=1e-3))
    state, rows = run_stage(cfg, _stage2_data(np.random.default_rng(5), n=10), _state(), seed=2)
    return (param_digest(state), rows), made[0]


def _linear_probe(make, monkeypatch):
    made = _recorded(monkeypatch, ev, make)
    rng = np.random.default_rng(5)
    feats, labels = rng.standard_normal((30, 6)), np.arange(30) % 3
    parts = [ev.LabeledFeatureSet(feats[a:a + 10], labels[a:a + 10], split)
             for a, split in ((0, "train"), (10, "val"), (20, "test"))]
    result = ev.linear_probe(*parts, lr=1e-2, max_epochs=5, patience=5, seed=1)
    return (result.test_metric, result.val_history), made[0]


def _joined(arrays) -> bytes:
    return np.concatenate([np.reshape(a, -1) for a in arrays]).tobytes()


class TestMatchesPerTensorOracle:
    @pytest.mark.parametrize("scenario", [_stage1(0.01), _stage1(0.0), _finetune,
                                          _masked_stage2, _linear_probe],
                             ids=["stage1", "stage1-no-clap", "stage1.1-unfrozen",
                                  "stage2-masked", "linear-probe"])
    def test_parameters_and_moments_are_byte_equal(self, scenario, monkeypatch):
        got, opt = scenario(AdamW, monkeypatch)
        want, oracle = scenario(OracleAdamW, monkeypatch)
        assert opt.step_count == oracle.step_count >= 3
        assert got == want
        assert opt.flat.tobytes() == _joined(p.data for p in oracle.params.values())
        assert opt._m.tobytes() == _joined(oracle._m.values())
        assert opt._v.tobytes() == _joined(oracle._v.values())


class TestParameterStorage:
    """Every trained tensor stays a view into its optimizer's `flat`."""

    @staticmethod
    def _assert_views(opt):
        for name, p in opt.params.items():
            assert np.shares_memory(p.data, opt.flat), name

    def test_construction_copies_values(self):
        state = _state()
        before = param_digest(state)
        opt = AdamW(trainer.trainable_params(state, "1"))
        self._assert_views(opt)
        assert param_digest(state) == before

    def test_stage1_step_and_ema_update(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        target, batch = trainer.ema_target(state, opt), _stage1_data(rng).take(np.arange(4))
        stage1_step(state, batch, _stage1_cfg(), _partition(batch, _stage1_cfg(),
                    np.random.default_rng(0)), opt, target)
        self._assert_views(opt)
        ema_update(target, opt.flat[:target.size], 0.5)
        self._assert_views(opt)
        assert all(t.data.base is target for t in net.named_params(state.target).values())

    def test_stage2_step(self, rng):
        state = _state()
        cfg = trainer.stage_config_from("2", dict(batch_size=4, base_lr=1e-3, epochs=1))
        opt = AdamW(trainer.trainable_params(state, "2"), lr=1e-3)
        trainer.stage2_step(state, _encoded(state, _stage2_data(rng, n=4), cfg,
                                            np.random.default_rng(0)), cfg, opt)
        self._assert_views(opt)

    @staticmethod
    def _assert_rejected(opt, step, name):
        """`step` fails naming `name` and leaves the optimizer as it was."""
        before = (opt.flat.tobytes(), opt._m.tobytes(), opt._v.tobytes(), opt.step_count)
        with pytest.raises(InvalidInput, match=f"parameter {name} no longer views"):
            step()
        assert (opt.flat.tobytes(), opt._m.tobytes(), opt._v.tobytes(),
                opt.step_count) == before

    def test_rebound_data_is_rejected_before_any_write(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        target, batch = trainer.ema_target(state, opt), _stage1_data(rng).take(np.arange(4))
        state.tau.data = np.asarray(0.5)
        self._assert_rejected(opt, lambda: stage1_step(
            state, batch, _stage1_cfg(), _partition(batch, _stage1_cfg(), np.random.default_rng(0)),
            opt, target), "tau")

    def test_first_stale_parameter_is_named_after_steps(self, rng):
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
        data, gen = _stage1_data(rng, n=8), np.random.default_rng(7)
        target = trainer.ema_target(state, opt)

        def step(i):
            batch = data.take(np.arange(4 * (i % 2), 4 * (i % 2) + 4))
            stage1_step(state, batch, _stage1_cfg(), _partition(batch, _stage1_cfg(), gen), opt,
                        target, lr=1e-3 * (i + 1), ema_alpha=0.9)

        step(0)
        step(1)
        state.tau.data = np.asarray(0.07)  # tau comes last in the optimizer's order
        state.online.patch_embed.bias.data = state.online.patch_embed.bias.data + 0.1
        self._assert_rejected(opt, lambda: step(2), "online.patch_embed.bias")

    def test_transfer_shared(self):
        state, source = _state(), net.init_model_state(TINY, seed=4)
        opt = AdamW(trainer.trainable_params(state, "1"))
        net.transfer_shared(source, state)
        self._assert_views(opt)
        assert param_digest(state) == param_digest(source)

    def test_load_checkpoint(self, tmp_path, monkeypatch):
        source = net.init_model_state(TINY, seed=4)
        net.save_checkpoint(tmp_path / "m.ckpt", source)
        state = _state()
        opt = AdamW(trainer.trainable_params(state, "1"))
        monkeypatch.setattr(net, "_model_state", lambda cfg, rng: state)
        assert net.load_checkpoint(tmp_path / "m.ckpt", TINY) is state
        self._assert_views(opt)
        for name, tensor in net.named_params(source).items():  # the file holds float32
            want = tensor.data.astype("<f4").astype(np.float64)
            assert net.named_params(state)[name].data.tobytes() == want.tobytes(), name


# -- parameter writes stay in place, and the worker keeps two users --------------

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "miniclap")
# Where `.data` may be bound: a tensor's creation, and the packing of the
# optimizer's buffer and the EMA target's.
BINDS_DATA = {("autodiff.py", "Tensor.__init__"), ("trainer.py", "pack_params")}
# Where work may be handed to the worker (nested functions included): a
# shared call list, and the split backward.
SUBMITS = {("threads.py", "SharedCalls.share"), ("autodiff.py", "Tensor.backward")}


def _scoped_nodes(tree: ast.AST):
    """(enclosing function, node) for every node below `tree`."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield ".".join(scope), child
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            yield from visit(child, scope + (child.name,) if named else scope)

    return visit(tree, ())


def _data_bindings(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every assignment to a `.data`
    attribute. An augmented assignment (`x.data += y`) is not one: on an
    ndarray it writes in place."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for t in ast.walk(target)
            if isinstance(t, ast.Attribute) and t.attr == "data" and isinstance(t.ctx, ast.Store)]


def _submits(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every `.submit(...)` call."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"]


def _within(name: str, scope: str, allowed) -> bool:
    """Whether `scope` in file `name` is one of the (file, function) pairs
    `allowed`, or a function nested in one."""
    return any(name == file and (scope == fn or scope.startswith(fn + "."))
               for file, fn in allowed)


def _stray(found, allowed) -> list[str]:
    """Every `found(tree)` site of a package file outside `allowed`."""
    stray = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            stray += [f"{name}:{line} in {scope or 'module'}" for scope, line in found(tree)
                      if not _within(name, scope, allowed)]
    return stray


def test_parameter_data_is_bound_only_where_it_is_packed():
    stray = _stray(_data_bindings, BINDS_DATA)
    assert not stray, "assign into `.data[...]` instead of rebinding it: " + ", ".join(stray)


def test_binding_check_finds_a_rebind():
    tree = ast.parse("def f(t, u):\n    t.data += 1\n    t.data[...] = 2\n"
                     "    t.data = 3\n    (u.data, x) = (4, 5)\n")
    assert _data_bindings(tree) == [("f", 4), ("f", 5)]


def test_only_shared_calls_and_backward_submit_to_the_worker():
    stray = _stray(_submits, SUBMITS)
    assert not stray, "split work with the worker through `threads.SharedCalls`: " + \
        ", ".join(stray)


def test_submit_check_finds_a_stray_submit():
    tree = ast.parse("class C:\n    def share(self, pool):\n        pool.submit(f)\n"
                     "def g(pool):\n    def h():\n        return pool.submit(f)\n"
                     "    pool.submit(f)\n    pool.map(f, [])\n")
    assert _submits(tree) == [("C.share", 3), ("g.h", 6), ("g", 7)]
    allowed = {("threads.py", "C.share")}
    assert [site for site in _submits(tree)
            if not _within("threads.py", site[0], allowed)] == [("g.h", 6), ("g", 7)]
