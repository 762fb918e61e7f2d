"""Self-test of the benchmark itself.

1. The fixture generator in generate.py reproduces
   tests/conftest.py::build_pipeline_fixture byte for byte at seed 2024.
2. The output checks pass on a clean fixture run and catch each of a set
   of deliberately corrupted outputs (by a check or by the digest).

    python3 perfbench/selftest.py      # exit code 0 when both hold
"""

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402
import generate  # noqa: E402


def file_hashes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def compare_fixture_copy(root):
    from conftest import build_pipeline_fixture
    build_pipeline_fixture(root)
    original = file_hashes(root)
    shutil.rmtree(root)
    os.makedirs(root)
    planted = generate.gen_fixture(root, 2024)
    copy = file_hashes(root)
    differ = sorted(set(original) ^ set(copy)) + sorted(
        p for p in set(original) & set(copy) if original[p] != copy[p])
    print(f"fixture copy: {len(copy)} files, "
          + ("identical to build_pipeline_fixture" if not differ
             else f"DIFFERENT: {differ}"))
    with open(os.path.join(root, "pipeline.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    return config, planted, not differ


def rewrite(path, edit):
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(edit(data))


def flip_byte(data):
    i = len(data) // 2
    return data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1:]


def drop_last_line(data):
    return b"".join(data.splitlines(keepends=True)[:-1])


def json_edit(change):
    def edit(data):
        obj = json.loads(data)
        change(obj)
        return json.dumps(obj).encode()
    return edit


def keep_a_removed_doc(report):
    _, removed_id, _ = report["removed_pairs"].pop(0)
    report["retained_ids"].append(removed_id)


def move_optimum(optimum):
    optimum["x_star"] += 0.01


CORRUPTIONS = {
    "flipped byte in a mix shard": ("mixout/mix.00000.jsonl", flip_byte),
    "dropped a manifest doc": ("mixout/manifest.json", json_edit(
        lambda m: m["per_class"]["agent"]["doc_ids"].pop())),
    "dropped a kept doc": ("filtered.00000.jsonl", drop_last_line),
    "dropped a retrieve hit": ("hits.jsonl", drop_last_line),
    "moved optimum": ("optimum.json", json_edit(move_optimum)),
    "kept a doc prune removed": ("prune.json", json_edit(keep_a_removed_doc)),
}


def main():
    from corpusforge.pipeline import run_pipeline

    work = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    clean = os.path.join(work, "clean")
    os.makedirs(clean)
    try:
        config, planted, same = compare_fixture_copy(clean)
        run_pipeline(config, workspace=clean)
        fails = checks.check_workspace(clean, config, planted)
        reference = checks.digest(clean)
        print(f"clean run: {fails or 'all checks pass'}")
        ok = same and not fails
        for label, (rel, edit) in CORRUPTIONS.items():
            ws = os.path.join(work, "corrupt")
            shutil.copytree(clean, ws)
            rewrite(os.path.join(ws, rel), edit)
            found = checks.check_workspace(ws, config, planted)
            if checks.digest(ws) != reference:
                found.append("digest differs from the clean run")
            print(f"{label}: " + ("; ".join(found) if found else "NOT CAUGHT"))
            ok = ok and bool(found)
            shutil.rmtree(ws)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
