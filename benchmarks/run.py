"""Benchmark for miniclap: stage-1 training, the text stages and long-clip
extraction, each workload in its own process.

    python3 benchmarks/run.py                       # every workload, then a summary
    python3 benchmarks/run.py --workload stage1-toy --seed 3 --seconds 20 --trace 0
    python3 benchmarks/run.py --trace 1             # per-layer figures and tracing overhead

Run from the repository root. Each workload process runs with one BLAS
thread: at these matrix sizes a second thread gives no speed-up, and it
doubles the run's exposure to other load on a shared machine. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics (end-to-end metrics untraced, per-layer metrics with
--trace 1). Full records, with provenance, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("stage1-toy", "text-stages", "extract-eval")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "miniclap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload process; its parsed record, or None if it failed."""
    env = dict(os.environ, PYTHONPATH=SRC, **{var: "1" for var in THREAD_VARS})
    tag = f"{name}-seed{seed}-trace{trace}"
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}"),
           "--trace-file", os.path.join(OUT_DIR, f"trace-{tag}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(lines[-1])
    record["provenance"].update(git_sha=git_sha(), source_sha256=source_digest(),
                                workload=name, seed=seed, seconds=seconds, trace=trace)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_metrics(prefix: str, metrics: dict) -> None:
    for key, metric in metrics.items():
        print(f"{prefix}{key:<36} {metric['value']:>14.6g} {metric['unit']}")


def contract_line(record: dict, metrics: dict) -> str:
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "miniclap", "__init__.py")):
        print(f"error: no miniclap sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if record is None:
            return 1
        print(f"# provenance {json.dumps(record['provenance'])}")
        print(f"# checks {json.dumps(record['checks'])}  rounds {record['rounds']}")
        if args.trace:
            print_metrics("# traced end-to-end ", record["metrics"])
            print(f"# stage-1 step split {json.dumps(record['step_split'])}")
        metrics = record["per_layer"] if args.trace else record["metrics"]
        print_metrics(f"# {args.workload} ", metrics)
        print(contract_line(record, metrics))
        return 0

    summary, ok = {"correct": True, "attempted": 0, "failed": 0}, True
    combined = {}
    for name in WORKLOADS:
        record = run_workload(name, args.seed, args.seconds, 0)
        if record is None:
            ok = False
            continue
        print(f"== {name}: correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']} rounds={record['rounds']} checks={json.dumps(record['checks'])}")
        print_metrics("  ", record["metrics"])
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        combined.update({f"{name}/{k}": v for k, v in record["metrics"].items()})
        if args.trace:
            traced = run_workload(name, args.seed, args.seconds, 1)
            if traced is None:
                ok = False
                continue
            print(f"  -- traced: stage-1 step split {json.dumps(traced['step_split'])}")
            print_metrics("  ", traced["per_layer"])
            print("  -- tracing overhead (traced minus untraced):")
            overhead = {k: {"value": traced["metrics"][k]["value"] - v["value"], "unit": v["unit"]}
                        for k, v in record["metrics"].items()}
            print_metrics("  ", overhead)
    if not ok:
        return 1
    print(f"# provenance {json.dumps(record['provenance'])}")
    print(contract_line(summary, combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
