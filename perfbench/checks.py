"""Output checks for one repetition's workspace.

`check_workspace` returns a list of failure messages (empty when every
check passes). The checks recompute what they can from the workspace
files with numpy and plain JSON, and use corpusforge only for
`mix.verify_manifest`, the program's own manifest audit.
"""

import glob
import hashlib
import json
import os

import numpy as np

from corpusforge import corpus, mix

X_STAR_TOL = 1e-3
SCORE_TOL = 1e-9


def digest(workspace):
    """SHA-256 over (workspace-relative path, file hash) of every output.

    run_report.json is left out: its hash keys are absolute paths and it
    holds durations.
    """
    h = hashlib.sha256()
    for root, dirs, files in os.walk(workspace):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, workspace)
            if rel == "run_report.json":
                continue
            with open(path, "rb") as fh:
                h.update(f"{rel}\0{hashlib.sha256(fh.read()).hexdigest()}\n"
                         .encode())
    return h.hexdigest()


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _corpus(workspace, prefix):
    paths = sorted(glob.glob(os.path.join(workspace, prefix) + ".*.jsonl"))
    return [rec for p in paths for rec in _jsonl(p)]


def _unit_vectors(path):
    """(ids, unit rows) of the nonzero vectors in ascending id order."""
    recs = sorted(_jsonl(path), key=lambda r: r["id"])
    mat = np.array([r["v"] for r in recs], dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    keep = norms > 0
    return ([r["id"] for r, k in zip(recs, keep) if k],
            mat[keep] / norms[keep, None])


def check_retrieve(ws, stage):
    seed_ids, seeds = _unit_vectors(os.path.join(ws, stage["seeds"]))
    cand_ids, cands = _unit_vectors(os.path.join(ws, stage["candidates"]))
    best = np.clip(cands @ seeds.T, -1.0, 1.0).max(axis=1)
    hits = _jsonl(os.path.join(ws, stage["out"]))
    fails = []
    if len(hits) != min(int(stage["k"]), len(cand_ids)):
        fails.append(f"retrieve: {len(hits)} hits, expected "
                     f"{min(int(stage['k']), len(cand_ids))}")
    keys = [(-h["score"], h["candidate_id"]) for h in hits]
    if keys != sorted(keys):
        fails.append("retrieve: hits not in (score desc, id asc) order")
    index = {cid: i for i, cid in enumerate(cand_ids)}
    for h in hits:
        if abs(best[index[h["candidate_id"]]] - h["score"]) > SCORE_TOL:
            fails.append(f"retrieve: wrong score for {h['candidate_id']}")
            break
    chosen = {h["candidate_id"] for h in hits}
    if hits and any(best[i] > hits[-1]["score"] + SCORE_TOL
                    for cid, i in index.items() if cid not in chosen):
        fails.append("retrieve: a better candidate is missing from the top-k")
    return fails


def check_prune(ws, stage):
    """All-pairs soundness: no two retained vectors reach the threshold."""
    ids, units = _unit_vectors(os.path.join(ws, stage["vecs"]))
    with open(os.path.join(ws, stage["report"]), encoding="utf-8") as fh:
        report = json.load(fh)
    threshold = report["threshold"]
    index = {vid: i for i, vid in enumerate(ids)}
    retained = [index[v] for v in report["retained_ids"] if v in index]
    removed = [p[1] for p in report["removed_pairs"]]
    fails = []
    if sorted(set(report["retained_ids"]) | set(removed)) != sorted(
            r["id"] for r in _jsonl(os.path.join(ws, stage["vecs"]))) \
            or set(report["retained_ids"]) & set(removed):
        fails.append("prune: retained and removed do not partition the ids")
    sims = units[retained] @ units[retained].T
    np.fill_diagonal(sims, -1.0)
    if sims.size and sims.max() >= threshold:
        fails.append(f"prune: retained pair at cosine {sims.max():.6f}")
    kept = set(report["retained_ids"])
    for kept_id, removed_id, sim in report["removed_pairs"]:
        actual = float(units[index[kept_id]] @ units[index[removed_id]])
        if kept_id not in kept or actual < threshold - SCORE_TOL \
                or abs(actual - sim) > SCORE_TOL:
            fails.append(f"prune: bad removed pair {kept_id} -> {removed_id}")
            break
    return fails


def check_filter(ws, stage):
    """The kept docs are the shortest top-ranked prefix reaching the budget."""
    scores = {r["id"]: r["score"] for r in _jsonl(os.path.join(ws, stage["scores"]))}
    docs = [d for d in _corpus(ws, stage["corpus"]) if d["id"] in scores]
    ranked = sorted(docs, key=lambda d: (-scores[d["id"]], d["id"]))
    target = float(stage["keep_fraction"]) * sum(d["token_count"] for d in docs)
    expected, cumulative = [], 0
    for d in ranked:
        if cumulative >= target:
            break
        expected.append(d["id"])
        cumulative += d["token_count"]
    kept = [d["id"] for d in _corpus(ws, stage["out"])]
    return [] if kept == expected else [
        f"filter: kept {len(kept)} docs, minimal prefix has {len(expected)}"]


def check_annotate(ws, stage):
    labels = {r["doc_id"] for r in _jsonl(
        os.path.join(ws, stage["backend"]["labels"]))}
    expected = sorted(d["id"] for d in _corpus(ws, stage["corpus"])
                      if d["id"] in labels)
    got = [r["doc_id"] for r in _jsonl(os.path.join(ws, stage["out"]))]
    return [] if got == expected else [
        f"annotate: {len(got)} labels written, expected {len(expected)}"]


def check_mix(ws, stage):
    out = os.path.join(ws, stage["out"])
    manifest = mix.MixManifest.from_file(os.path.join(out, "manifest.json"))
    try:
        ok = mix.verify_manifest(manifest, os.path.join(out, "mix"))["ok"]
    except (mix.MixError, corpus.CorpusError) as exc:
        return [f"mix: {exc}"]
    return [] if ok else ["mix: verify_manifest is not ok"]


def check_optimize(ws, stage, expected):
    with open(os.path.join(ws, stage["out"]), encoding="utf-8") as fh:
        x_star = json.load(fh)["x_star"]
    if abs(x_star - expected["x_star"]) > X_STAR_TOL:
        return [f"optimize: x_star {x_star:.6f}, planted "
                f"{expected['x_star']:.6f}"]
    return []


CHECKS = {"retrieve": check_retrieve, "prune": check_prune,
          "filter": check_filter, "annotate": check_annotate,
          "mix": check_mix}


def check_workspace(ws, config, expected):
    fails = []
    for stage in config["stages"]:
        name = stage["name"]
        try:
            if name == "optimize":
                fails += check_optimize(ws, stage, expected)
            elif name in CHECKS:
                fails += CHECKS[name](ws, stage)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            fails.append(f"{name}: output unreadable: {exc!r}")
    return fails
