"""Check that two corpusforge source trees write byte-identical outputs.

    python3 scripts/compare_outputs.py BASE_SRC HEAD_SRC [--seed 1]
                                       [--workload fixture ...]

BASE_SRC and HEAD_SRC are directories that hold the `corpusforge`
package, such as the `src` directory of two checkouts. For each
benchmark workload, perfbench/generate.py writes the inputs once; then
the pipeline runs on a fresh copy of them under each source tree, each
in its own interpreter, and every file of the two workspaces but
pipeline.json is compared byte for byte. run_report.json is compared as
JSON, without each stage's duration_s and with each side's workspace path
replaced by a placeholder. Prints one line per workload and one per file
that differs (for a JSON or JSON Lines file, with the largest relative
difference among its numbers), and exits 1 when any file differs, is
missing on one side, or a run fails.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATE = os.path.join(ROOT, "perfbench", "generate.py")
WORKLOADS = ("fixture", "zipf_retrieve", "zipf_filter")
SKIPPED = {"pipeline.json"}
REPORT = "run_report.json"

# Runs the pipeline and checks that corpusforge came from the given tree.
RUN = """
import json, os, sys
import corpusforge
from corpusforge.pipeline import run_pipeline
src, config, workspace = sys.argv[1:]
here = os.path.realpath(corpusforge.__file__)
if not here.startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"imported corpusforge from {here}, not from {src}")
with open(config, encoding="utf-8") as fh:
    run_pipeline(json.load(fh), workspace=workspace)
"""


def run_pipeline(src, inputs, workspace):
    shutil.copytree(inputs, workspace)
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", RUN, src,
         os.path.join(inputs, "pipeline.json"), workspace],
        env=env, cwd=workspace, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"the pipeline failed under {src}")


def files(workspace):
    found = set()
    for parent, _, names in os.walk(workspace):
        found.update(os.path.relpath(os.path.join(parent, name), workspace)
                     for name in names)
    return {path for path in found if os.path.basename(path) not in SKIPPED}


def load(root, path):
    """The JSON value of a file, or the list of a JSON Lines file's values.
    The run report comes without durations, its workspace path replaced."""
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            return [json.loads(line) for line in fh]
        text = fh.read()
    if path != REPORT:
        return json.loads(text)
    report = json.loads(text.replace(json.dumps(root)[1:-1], "<workspace>"))
    for stage in report["stages"]:
        stage.pop("duration_s", None)
    return report


def same(base, head, path):
    if path == REPORT:
        return load(base, path) == load(head, path)
    return filecmp.cmp(os.path.join(base, path), os.path.join(head, path),
                       shallow=False)


def largest_relative_difference(a, b, where=""):
    """(|a - b| / max(|a|, |b|), path) for the numbers at the same place in
    two JSON values that differ the most, or None when the values differ
    in more than numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[key], b[key], f"{where}.{key}") for key in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = [(u, v, f"{where}[{i}]") for i, (u, v) in enumerate(zip(a, b))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (a, b)):
        return (0.0 if a == b else abs(a - b) / max(abs(a), abs(b))), where
    else:
        return (0.0, where) if a == b else None
    found = [largest_relative_difference(u, v, at) for u, v, at in pairs]
    return None if None in found else max(found, default=(0.0, where))


def describe(base, head, path):
    """The `differs` line of a file; for JSON and JSON Lines it names how
    far apart the numbers are, so a change of a few ulps reads as one. A
    JSON Lines file compares as the list of its lines, so files with
    different line counts differ in more than numbers."""
    lines = path.endswith(".jsonl")
    if not (lines or path.endswith(".json")):
        return f"differs: {path}"
    found = largest_relative_difference(load(base, path), load(head, path))
    if found is None:
        return f"differs: {path} (in more than numbers)"
    relative, where = found
    if lines:  # where starts with the 0-based index of its line
        index, _, where = where[1:].partition("]")
        where = f"line {int(index) + 1} {where}"
    return (f"differs: {path} (largest relative difference {relative:.3g}"
            f" at {where.lstrip('.') or 'the top level'})")


def differences(base, head):
    """Relative paths that differ or exist on one side only."""
    base_files, head_files = files(base), files(head)
    one_side = sorted(base_files ^ head_files)
    differ = sorted(path for path in base_files & head_files
                    if not same(base, head, path))
    return [f"only in {'base' if p in base_files else 'head'}: {p}"
            for p in one_side] + [describe(base, head, p) for p in differ]


def compare(workload, seed, base_src, head_src, scratch):
    out = os.path.join(scratch, workload)
    subprocess.run([sys.executable, GENERATE, "--workload", workload,
                    "--seed", str(seed), "--out", out], check=True,
                   stdout=subprocess.DEVNULL)
    inputs = os.path.join(out, "inputs")
    base, head = os.path.join(out, "base"), os.path.join(out, "head")
    run_pipeline(base_src, inputs, base)
    run_pipeline(head_src, inputs, head)
    problems = differences(base, head)
    print(json.dumps({"workload": workload, "seed": seed,
                      "files": len(files(head)), "identical": not problems}))
    for problem in problems:
        print(f"  {problem}")
    shutil.rmtree(out)
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base_src")
    parser.add_argument("head_src")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    for src in (args.base_src, args.head_src):
        if not os.path.isfile(os.path.join(src, "corpusforge", "pipeline.py")):
            parser.error(f"no corpusforge package under {src}")
    with tempfile.TemporaryDirectory(prefix="compare_outputs.") as scratch:
        ok = [compare(workload, args.seed, args.base_src, args.head_src, scratch)
              for workload in args.workload or WORKLOADS]
    sys.exit(0 if all(ok) else 1)


if __name__ == "__main__":
    main()
