"""The benchmark under `benchmarks/` calls miniclap by name: its
correctness checks through the public API, its traced run by wrapping
module functions. Both run here in a subprocess, so a rename that
breaks either one fails the suite, and the tracer's rebinding cannot
leak into other tests."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks")

# Installs the tracer, runs one tiny stage-1 step, one feature extraction,
# a tiny stage-2.1 run and one long clip's log-mel, and checks that the
# wrapped names were the ones called, that extraction recorded no graph,
# that stage 2.1 encoded each clip once while the tracer still saw every
# step, and that a log-mel split across two threads counts as one call.
TRACED_RUN = """
import numpy as np
from miniclap import evaluation as ev, frontend as fe, network as net, trainer
from miniclap.config import ModelConfig
from miniclap.frontend import MelSpectrogram
from tracer import Tracer

original = net.encode_tokens
tracer = Tracer()
tracer.install()
assert net.encode_tokens is not original
cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, predictor_depth=1,
                  predictor_heads=2, emb_dim=12)
state = net.init_model_state(cfg, 0)
rng = np.random.default_rng(0)
data = trainer.StageData(rng.standard_normal((4, 10, 256)), 5, 2,
                         embeddings=rng.standard_normal((4, 12)))
stage = trainer.stage_config_from("1", dict(batch_size=4))
opt = trainer.AdamW(trainer.trainable_params(state, "1"), lr=1e-3)
trainer.stage1_step(state, data, stage, rng, opt)
nodes = tracer.counts["autodiff.graph_nodes"]
mels = [MelSpectrogram(rng.standard_normal((80, 128)))]
ev.clip_features(state, mels)
ev.semantic_features(state, mels)
assert tracer.counts["autodiff.graph_nodes"] == nodes, "feature extraction built a graph"
before = dict(tracer.counts)
text_cfg = ModelConfig(dim=8, depth=1, heads=2, input_frames=32, text_vocab=11, text_depth=1,
                       text_heads=2, text_maxlen=8)
data = trainer.StageData(rng.standard_normal((6, 10, 256)), 5, 2,
                         token_rows=[[3 + i % 5, 4] for i in range(6)])
refine = trainer.stage_config_from("2.1", dict(epochs=2, warmup_epochs=0, batch_size=4))
_, rows = trainer.run_stage(refine, data, net.init_model_state(text_cfg, 0), seed=0)
refined = dict(tracer.counts)
steps = sum(span[0] == "trainer.stage2_step" for span in tracer.spans)
masked = trainer.stage_config_from("2", dict(epochs=2, warmup_epochs=0, batch_size=4))
_, masked_rows = trainer.run_stage(masked, data, net.init_model_state(text_cfg, 0), seed=0)
fe.compute_logmel(fe.Waveform(rng.standard_normal(2 * fe.MIN_PART_FRAMES * 160)))
tracer.uninstall()
assert net.encode_tokens is original
names = {span[0] for span in tracer.spans}
for name in ("masking.sample_partition", "network.encode_tokens.online",
             "network.encode_tokens.target", "network.predictor_forward",
             "network.project_audio", "trainer.stage1_step",
             "evaluation.clip_features", "evaluation.semantic_features",
             "frontend.compute_logmel"):
    assert name in names, f"traced run never reached {name}"
# online and target in the step, then the 4 windows, 2 on each thread, per feature kind
assert before["network.encode_tokens.calls"] == 6, before
# stage 2.1 encodes each of its 6 clips of 10 patches once, 3 on each
# thread, and the step timer and tracer still see each of its 2 x 2 steps
assert refined["network.encode_tokens.tokens"] - before["network.encode_tokens.tokens"] == 60
assert refined["network.encode_tokens.calls"] - before["network.encode_tokens.calls"] == 2
assert len(rows) == 4
assert steps == len(rows)
# masked stage 2 encodes each step's rows' 7 visible patches of 10 on the
# worker thread; every token is counted, and every step is a span
assert len(masked_rows) == 4
assert (tracer.counts["network.encode_tokens.tokens"] - refined["network.encode_tokens.tokens"]
        == 2 * (4 + 2) * 7)
assert sum(span[0] == "trainer.stage2_step" for span in tracer.spans) - steps == len(masked_rows)
assert tracer.counts["frontend.compute_logmel.calls"] == 1, dict(tracer.counts)
print("traced run ok")
"""


def _run(args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_checks_selftest_passes():
    proc = _run([os.path.join(BENCH, "checks_selftest.py")])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_installs_and_sees_every_traced_layer():
    proc = _run(["-c", TRACED_RUN])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "traced run ok" in proc.stdout
