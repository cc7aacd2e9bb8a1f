"""Every function of the package is entered by some verb.

A subprocess records every Python frame entered, on the calling thread
and the worker (`sys.setprofile`, `threading.setprofile`), while it
runs each CLI verb at a tiny model with its flag variants: frozen and
trained stage 1.1, the MLP projector with the text projector and no
contrastive weight, `--config`, `--wav-dir`, a multi-label probe and two
error exits. A module-level function or class method, dunders aside, that
none of them enters is reachable only from tests: delete it, or name it
in KEEP with the reason it stays.
"""

import json
import os
import subprocess
import sys

import miniclap

KEEP = {
    # benchmarks/tracer.py wraps it by name, so removing it is a benchmark revision
    "autodiff.softmax",
    # the paper's zero-shot caption templates, which acceptance criterion 10 checks
    "evaluation.caption_from_label",
    # the benchmark calls and traces it by name; removing it is a benchmark revision
    "evaluation.clip_features",
}

PROBE = r"""
import inspect, json, os, pkgutil, sys, threading

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(record)
threading.setprofile(record)  # before the package exists, so also before its worker

import importlib
import miniclap
from miniclap import datakit as dk
from miniclap.cli import main

work = sys.argv[1]
corpus = os.path.join(work, "corpus")
manifest = os.path.join(corpus, "manifest.jsonl")
cache = ["--cache", os.path.join(corpus, "embeddings.cache")]
tiny = [f"--set=model.{kv}" for kv in ("dim=8", "depth=1", "heads=2", "input_frames=32",
                                          "predictor_depth=1", "predictor_heads=2",
                                          "text_depth=1", "text_heads=2")]
codes = []


def run(verb, *argv, out=None):
    out = os.path.join(work, out or verb)
    codes.append(main([verb, "--out", out, *argv]))
    return out


def ckpt(run_dir):
    return ["--init", os.path.join(run_dir, "checkpoints", "final.ckpt")]


run("synth-data", "--classes", "2", "--per-class", "3", "--duration", "0.5", out="corpus")
config = os.path.join(work, "stage1.cfg")
with open(config, "w") as fh:
    fh.write("stage1.epochs = 2\nstage1.batch_size = 3\nstage1.warmup_epochs = 1\n")
stage1 = run("pretrain-stage1", "--manifest", manifest, *cache, "--config", config, *tiny)
run("pretrain-stage1", "--manifest", manifest, *cache, "--config", config, *tiny,
    "--set=model.projector_kind=mlp", "--set=model.text_projector=true",
    "--set=stage1.lambda_clap=0", out="stage1-mlp")
for frozen in ("false", "true"):
    run("finetune-stage1.1", "--manifest", manifest, *ckpt(stage1), "--set=stage1_1.epochs=1",
        "--set=stage1_1.batch_size=3", f"--set=stage1_1.freeze_audio_encoder={frozen}",
        out=f"stage11-{frozen}")
stage2 = run("pretrain-stage2", "--manifest", manifest, *ckpt(stage1), "--set=stage2.epochs=1",
             "--set=stage2.warmup_epochs=0", "--set=stage2.batch_size=3")
run("refine-stage2.1", "--manifest", manifest, *ckpt(stage2), "--set=stage2_1.epochs=1",
    "--set=stage2_1.warmup_epochs=0", "--set=stage2_1.batch_size=3")
features = ["--features", os.path.join(run("extract-features", "--manifest", manifest,
                                           *ckpt(stage1)), "clip.feat")]
run("eval-linear", *features, "--manifest", manifest)
entries = dk.load_manifest(manifest)
for i, entry in enumerate(entries):
    entry.labels.append("odd" if i % 2 else "even")
two_labels = os.path.join(work, "two-labels.jsonl")
dk.save_manifest(two_labels, entries)
run("eval-linear", *features, "--manifest", two_labels, out="eval-linear-multi")
for entry in entries:
    entry.source = entry.id + ".wav"
on_disk = os.path.join(work, "on-disk.jsonl")
dk.save_manifest(on_disk, entries)
run("extract-features", "--manifest", on_disk, "--wav-dir", os.path.join(corpus, "wavs"),
    *ckpt(stage1), out="wav-dir")
run("eval-zeroshot", "--manifest", manifest, *cache, *ckpt(stage1))
run("eval-retrieval", "--manifest", manifest, *cache, *ckpt(stage1))
run("export-attention", "--manifest", manifest, *ckpt(stage1), "--entry", entries[0].id)
malformed = os.path.join(work, "malformed.cfg")
with open(malformed, "w") as fh:
    fh.write("stage1.epochs = 2\nstage1.batch_size 3\n")
run("pretrain-stage1", "--manifest", manifest, *cache, "--config", malformed, out="malformed")
run("synth-data", "--classes", "2", "--per-class", "0", out="no-clips")

sys.setprofile(None)
threading.setprofile(None)


def functions(module):
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            # a staticmethod's or classmethod's function, a property's getter
            members = [(f"{name}.{attr}", getattr(member, "__func__", getattr(member, "fget", member)))
                       for attr, member in vars(obj).items()
                       if not (attr.startswith("__") and attr.endswith("__"))]
        for qualname, fn in members:
            fn = inspect.unwrap(fn)  # functools.cache and contextmanager wrappers
            # written in the module, which leaves out what namedtuple generates
            if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                yield qualname, fn


unreached = []
for info in pkgutil.iter_modules(miniclap.__path__):
    module = importlib.import_module(f"miniclap.{info.name}")
    unreached += [f"{info.name}.{qualname}" for qualname, fn in functions(module)
                  if fn.__code__ not in entered]
print(json.dumps({"codes": codes, "unreached": sorted(unreached)}))
"""


def test_every_function_is_reached_by_a_verb(tmp_path):
    src = os.path.dirname(os.path.dirname(miniclap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # every verb succeeds but the malformed config file and the empty corpus
    assert report["codes"] == [0] * 14 + [1, 1], report["codes"]
    assert set(report["unreached"]) == KEEP
