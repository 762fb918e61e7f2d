"""corpusforge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload zipf_retrieve --seed 1 --seconds 30 --trace 0

Run from the repository root. Steps, each in its own process:

1. generate.py writes the workload's inputs from --seed;
2. worker.py times `run_pipeline` repetitions for about --seconds on
   fresh copies of the inputs (with --trace 1, alternating untraced and
   traced repetitions), and between them fresh interpreters that import
   corpusforge.cli and build the `forge` parser (setup_s);
3. this process checks every repetition's outputs (checks.py) and that
   its output digest equals the first repetition's.

Times are in reference seconds (speed.py): wall or CPU seconds scaled by
the host's speed, sampled on the measured thread while it runs, so that
they do not drift with a shared host's speed state. The raw medians are
printed too.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
end-to-end metrics with --trace 0, per-module metrics with --trace 1.
Lines before it give units, sample counts, input properties and the
software versions. BENCHMARK.json lists the metrics and workloads.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("fixture", "zipf_retrieve", "zipf_filter")
# BLAS threads and FORGE_WORKERS share one count, at most the CPU count.
THREADS = str(min(2, os.cpu_count() or 1))
GENERATE_TIMEOUT = 40
WORKER_GRACE = 80


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pinned_env():
    env = dict(os.environ, PYTHONPATH=SRC, FORGE_WORKERS=THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def run_child(args, env, timeout, log):
    with open(log, "w") as err:
        try:
            proc = subprocess.run([sys.executable] + args, env=env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"{args[0]} exceeded {timeout} s (log: {log})")
    if proc.returncode != 0:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"{args[0]} exited with code {proc.returncode}")


def versions(env):
    out = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "corpusforge", "**", "*.*"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "numpy": out,
            "cpus": os.cpu_count(), "threads": int(THREADS)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "corpusforge", "pipeline.py")):
        fail(f"no corpusforge sources under {SRC}")

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, run_dir):
    env = pinned_env()
    info = versions(env)
    run_child([os.path.join(HERE, "generate.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", run_dir],
              env, GENERATE_TIMEOUT, os.path.join(run_dir, "generate.log"))
    run_child([os.path.join(HERE, "worker.py"), "--run-dir", run_dir,
               "--seconds", str(args.seconds), "--trace", str(args.trace)],
              env, args.seconds + WORKER_GRACE, os.path.join(run_dir, "worker.log"))

    sys.path.insert(0, SRC)
    import checks

    def load(name):
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            return json.load(fh)
    config, expected = load("inputs/pipeline.json"), load("expected.json")
    props, worker = load("properties.json"), load("worker.json")

    reference, failed = None, 0
    for rep in worker["reps"]:
        problems = [rep["error"]] if rep["error"] else []
        if not problems:
            problems = checks.check_workspace(rep["workspace"], config, expected)
            digest = checks.digest(rep["workspace"])
            reference = reference or digest
            if digest != reference:
                problems.append("output digest differs from the first repetition")
        shutil.rmtree(rep["workspace"], ignore_errors=True)
        if problems:
            failed += 1
            print(f"FAILED rep {os.path.basename(rep['workspace'])}: "
                  + "; ".join(p.strip() for p in problems), file=sys.stderr)
    for stage, span in worker["missing_spans"]:
        print(f"FAILED trace: stage {stage!r} produced no {span!r} span",
              file=sys.stderr)

    attempted = len(worker["reps"])
    print(f"software: {json.dumps(info, sort_keys=True)}")
    print(f"inputs[{args.workload}, seed {args.seed}]: "
          f"{json.dumps(props, sort_keys=True)}")
    untraced = [r for r in worker["reps"] if not r["traced"]]
    walls = sorted(r["wall_s"] for r in untraced)
    print(f"pipeline_s: median {statistics.median(walls):.4f} s, "
          f"max {walls[-1]:.4f} s, n={len(walls)} untraced repetitions "
          f"{[round(r['wall_s'], 3) for r in untraced]}")
    print(f"raw wall: median "
          f"{statistics.median(r['raw_wall_s'] for r in untraced):.4f} s "
          f"{[round(r['raw_wall_s'], 3) for r in untraced]}; speed factor "
          f"{[round(r['speed'], 3) for r in untraced]}")
    print(f"error_rate: {failed / attempted:.4f} ratio "
          f"({failed} failed of {attempted} attempted)")

    if args.trace:
        metrics = worker["layers"]
        traced = sum(1 for r in worker["reps"] if r["traced"])
        print(f"per-module metrics: median of n={traced} traced repetitions")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(worker["setup_s"]),
                        "unit": "s"},
            "pipeline_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in untraced),
                      "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s: n={len(worker['setup_s'])} fresh interpreters; cpu_s: "
              f"n={len(untraced)}; peak_rss_mb: max over the worker process")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0 and not worker["missing_spans"],
            "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    main()
