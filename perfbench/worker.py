"""Timing worker: runs one workload's `run_pipeline` repetitions in a fresh
process, so peak RSS covers this workload alone.

Between untraced repetitions it also times fresh interpreters that
import corpusforge.cli and build the `forge` parser (setup_s).

Times are recorded in reference seconds (speed.py): raw time scaled by
the host's speed, sampled on the measured thread while it runs.
Repetitions keep their raw wall time and speed factor as well.

Each repetition runs on a fresh copy of the generated inputs, made
outside the timed region, so no repetition reads an earlier one's
outputs. With --trace 1, untraced and traced repetitions alternate and
the traced ones also report per-module metrics.

    python3 perfbench/worker.py --run-dir DIR --seconds 30 --trace 0

Reads DIR/inputs, writes DIR/repNNN workspaces and DIR/worker.json.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from corpusforge.pipeline import run_pipeline

import spans
import speed

MIN_REPS = 3
MAX_REPS = 40
# setup_s samples: SETUP_PER_REP fresh interpreters before each untraced
# repetition, the rest after the last, so they spread over the run.
SETUP_SAMPLES = 8
SETUP_PER_REP = 2
SETUP_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "speed.py")


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def setup_sample():
    """Wall time of a fresh interpreter importing the CLI and building its
    parser, in reference seconds (the child samples its own speed)."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, SETUP_SCRIPT], check=True,
                         capture_output=True, text=True).stdout
    return (time.perf_counter() - t0) * float(out.split()[-1])


def run_rep(config, inputs, workspace, tracer):
    shutil.copytree(inputs, workspace)
    undo = spans.install(tracer) if tracer else None
    gc.collect()
    error = None
    with speed.Sampler() as sampler:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            run_pipeline(config, workspace=workspace)
        except Exception:  # a failed repetition is counted, not fatal
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    if undo:
        undo()
    factor = sampler.factor()
    return {"workspace": workspace, "raw_wall_s": wall, "speed": factor,
            "wall_s": wall * factor, "cpu_s": cpu * factor,
            "traced": tracer is not None, "error": error}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    inputs = os.path.join(args.run_dir, "inputs")
    with open(os.path.join(inputs, "pipeline.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    stage_names = [s["name"] for s in config["stages"]]

    reps, layers, missing, setup = [], [], set(), []
    if not args.trace:
        setup_sample()  # warm the bytecode cache; not a sample
    started = time.perf_counter()
    while len(reps) < MAX_REPS:
        if len(reps) >= (2 if args.trace else MIN_REPS):
            longest = max(r["raw_wall_s"] for r in reps)
            if time.perf_counter() - started + longest > args.seconds:
                break
        tracer = spans.Tracer() if args.trace and len(reps) % 2 else None
        while not args.trace and len(setup) < min(
                SETUP_SAMPLES, SETUP_PER_REP * (len(reps) + 1)):
            setup.append(setup_sample())
        rep = run_rep(config, inputs,
                      os.path.join(args.run_dir, f"rep{len(reps):03d}"), tracer)
        reps.append(rep)
        if tracer and not rep["error"]:
            layers.append({
                name: (value * rep["speed"] if unit == "s" else value, unit)
                for name, (value, unit) in spans.layer_metrics(
                    tracer, rep["raw_wall_s"]).items()})
            missing.update(tracer.missing(stage_names))

    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    traced = [r["wall_s"] for r in reps if r["traced"]]
    result = {
        "reps": reps,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "missing_spans": sorted(missing),
        "layers": {},
    }
    if layers:
        for name, (_, unit) in layers[0].items():
            result["layers"][name] = {
                "value": statistics.median(m[name][0] for m in layers),
                "unit": unit}
        if untraced:
            result["layers"]["bench.trace_overhead_s"] = {
                "value": statistics.median(traced) - statistics.median(untraced),
                "unit": "s"}
    with open(os.path.join(args.run_dir, "worker.json"), "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
