"""Compose training mixtures from per-class pools at target token ratios.

Targets are token-budgeted: the total budget is apportioned across
classes by largest remainder, each class is sampled by a seeded uniform
shuffle without replacement, and the output interleaves classes
deterministically by token share. Identical pools + spec always produce
byte-identical shards and manifest.
"""

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import corpus as corpus_mod
from .corpus import convert, read_json, write_corpus, write_json


class MixError(Exception):
    pass


@dataclass(frozen=True)
class MixSpec:
    ratios: dict  # pool name -> weight >= 0 as decoded; normalized on use
    total_token_budget: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.total_token_budget <= 0:
            raise MixError("total_token_budget must be positive")
        if not all(0 <= convert(float, r) < math.inf  # false for NaN too
                   for r in self.ratios.values()):
            raise MixError("ratios must be finite and non-negative")
        if not any(self.ratios.values()):
            raise MixError("at least one ratio must be positive")

    def spec_hash(self) -> str:
        canonical = json.dumps(
            {"ratios": self.ratios, "total_token_budget": self.total_token_budget,
             "rng_seed": self.rng_seed}, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def from_file(cls, path: str) -> "MixSpec":
        return read_json(path, lambda obj: cls(
            ratios=convert(dict, obj["ratios"]),
            total_token_budget=convert(int, obj["total_token_budget"]),
            rng_seed=convert(int, obj.get("rng_seed", 0))), MixError)


@dataclass
class MixManifest:
    per_class: dict  # name -> {target_tokens, realized_tokens, doc_ids}
    rng_seed: int
    spec_hash: str

    @classmethod
    def from_file(cls, path: str) -> "MixManifest":
        return read_json(path, lambda obj: cls(**obj), MixError)


def apportion_budget(budget: int, ratios: dict) -> dict:
    """Largest-remainder apportionment: integer targets summing to budget."""
    shares = {name: budget * r for name, r in ratios.items()}
    targets = {name: int(s) for name, s in shares.items()}
    leftover = budget - sum(targets.values())
    order = sorted(ratios, key=lambda n: (-(shares[n] - targets[n]), n))
    for name in order[:leftover]:
        targets[name] += 1
    return targets


def _sample_pool(docs, target: int, rng, name: str):
    """Seeded shuffle without replacement; stop before exceeding the target."""
    docs = sorted(docs, key=lambda d: d.id)  # pool order independence
    order = rng.permutation(len(docs))
    selected = []
    cumulative = 0
    for idx in order:
        doc = docs[idx]
        if cumulative + doc.token_count > target:
            break
        selected.append(doc)
        cumulative += doc.token_count
    else:
        if cumulative < target:
            raise MixError(f"pool {name!r} exhausted before target: "
                           f"short {target - cumulative} tokens")
    return selected, cumulative


def compose_mixture(pools: dict, spec: MixSpec):
    """Draw from each pool to its token target and interleave by share.

    pools maps class name -> iterable of Documents. Returns (manifest,
    docs) with docs in the deterministic interleaved output order.
    """
    total = sum(spec.ratios.values())
    ratios = {name: share for name, r in spec.ratios.items()
              if (share := r / total) > 0}
    missing = ratios.keys() - pools.keys()
    if missing:
        raise MixError(f"no pool supplied for classes: {sorted(missing)}")

    targets = apportion_budget(spec.total_token_budget, ratios)

    per_class = {}
    keyed = []
    for name in sorted(targets):
        pool_rng = np.random.default_rng(
            [spec.rng_seed & 0xFFFFFFFFFFFFFFFF,
             int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")])
        selected, realized = _sample_pool(list(pools[name]), targets[name],
                                          pool_rng, name)
        per_class[name] = {
            "target_tokens": targets[name],
            "realized_tokens": realized,
            "doc_ids": [d.id for d in selected],
        }
        emitted = 0
        for position, doc in enumerate(selected):
            keyed.append((emitted / max(targets[name], 1), name, position, doc))
            emitted += doc.token_count

    # Deterministic interleave: always emit from the class furthest below
    # its target token share (the share it had emitted before the doc),
    # ties broken by class name. A class's keys never decrease along its
    # draw order, so one sort gives that order.
    output = [doc for *_, doc in sorted(keyed)]

    seen = set()
    for doc in output:
        if doc.id in seen:
            raise MixError(f"document {doc.id!r} drawn twice across pools")
        seen.add(doc.id)

    manifest = MixManifest(per_class, spec.rng_seed, spec.spec_hash())
    return manifest, output


def compose_to_dir(pools: dict, spec: MixSpec, out_dir: str,
                   docs_per_shard: int = 10000):
    """Compose and write shards plus manifest.json into out_dir.

    Returns (manifest, paths of the files written: shards, then manifest).
    """
    manifest, docs = compose_mixture(pools, spec)
    os.makedirs(out_dir, exist_ok=True)
    paths = write_corpus(docs, os.path.join(out_dir, "mix"),
                         docs_per_shard=docs_per_shard)
    paths.append(os.path.join(out_dir, "manifest.json"))
    write_json(paths[-1], asdict(manifest))
    return manifest, paths


def verify_manifest(manifest: MixManifest, corpus_prefix: str) -> dict:
    """Recount shard tokens per class and compare against the manifest."""
    by_id = {}
    for doc in corpus_mod.read_corpus(corpus_prefix):
        by_id[doc.id] = doc

    deviations = {}
    for name, entry in manifest.per_class.items():
        recount = 0
        for doc_id in entry["doc_ids"]:
            doc = by_id.get(doc_id)
            if doc is None:
                raise MixError(f"manifest doc {doc_id!r} missing from shards")
            recount += doc.token_count
        deviations[name] = abs(recount - entry["realized_tokens"])
    return {
        "per_class_deviation": deviations,
        "max_deviation": max(deviations.values()) if deviations else 0,
        "ok": all(d == 0 for d in deviations.values()),
    }
