"""Exact top-K retrieval against seed vectors and greedy redundancy pruning.

Brute-force exact search is the contract: any accelerated index must
reproduce this module's output bit for bit on the acceptance suite.

prune_redundant screens a block of rows at a time with GEMMs against the
rows retained before it and within it. A GEMM and a GEMV round the dot
product of n-dim unit rows less than n * 2**-52 apart, so a row whose
products all stay below threshold - n * _MARGIN_PER_DIM (twice that) is
retained; the greedy scan's own GEMV decides every other row, bit for bit.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import convert, read_keyed, write_lines
from .embed import EmbedError, Embeddings


class RetrieveError(Exception):
    pass


@dataclass(frozen=True)
class RetrievalHit:
    candidate_id: str
    best_seed_id: str
    score: float


@dataclass
class PruneReport:
    retained_ids: list
    removed_pairs: list  # (kept_id, removed_id, similarity)
    threshold: float


def retrieve_top_k(seeds: Embeddings, cands: Embeddings, k: int) -> list:
    """Top-K candidates by max-over-seeds cosine similarity.

    Output is sorted by (score desc, candidate_id asc); ties among seeds
    resolve to the lexicographically smallest seed id; zero vectors are
    left out. Exact by construction: a full seeds-by-candidates matrix.
    """
    if k < 1:
        raise RetrieveError("k must be >= 1")
    seeds = seeds.nonzero()
    if not len(seeds):
        raise RetrieveError("no nonzero seed vectors")
    if not len(cands):
        return []
    cands = cands.nonzero()
    if not len(cands):
        raise RetrieveError("no nonzero candidate vectors")
    if seeds.matrix.shape[1] != cands.matrix.shape[1]:
        raise EmbedError(f"dimension mismatch: seeds {seeds.matrix.shape[1]} "
                         f"vs candidates {cands.matrix.shape[1]}")

    sims = np.clip(cands.matrix @ seeds.matrix.T, -1.0, 1.0)
    best = sims.max(axis=1)
    # argmax returns the first maximal column; seed ids are ascending, so
    # ties already resolve to the smallest seed id.
    best_seed = sims.argmax(axis=1)

    hits = [RetrievalHit(cid, seeds.ids[best_seed[i]], float(best[i]))
            for i, cid in enumerate(cands.ids)]
    hits.sort(key=lambda h: (-h.score, h.candidate_id))
    return hits[:k]


_PRUNE_BLOCK, _PRUNE_TILE = 128, 256  # rows per block; retained rows per tile
_MARGIN_PER_DIM = 2.0 ** -51  # (module doc)


def prune_redundant(vecs: Embeddings, threshold: float) -> PruneReport:
    """Greedy redundancy pruning in ascending id order.

    A document is removed iff its cosine to some already-retained document
    reaches the threshold; the recorded kept_id is the most similar
    retained document (earliest retained on ties). Sequential by contract:
    the greedy scan order defines the result.
    """
    if not 0.0 < threshold <= 1.0:
        raise RetrieveError(f"threshold must be in (0, 1], got {threshold}")

    live = vecs.nonzero()
    retained = np.empty_like(live.matrix)  # rows of retained_ids, in order
    retained_ids, removed = [], []
    limit = threshold - _MARGIN_PER_DIM * live.matrix.shape[1]
    for start in range(0, len(live), _PRUNE_BLOCK):
        block = live.matrix[start:start + _PRUNE_BLOCK]
        within = block @ block.copy().T  # a GEMM (A @ A.T is a SYRK)
        np.fill_diagonal(within, -1.0)
        near = within.max(axis=1)
        for tile in range(0, len(retained_ids), _PRUNE_TILE):
            before = retained[tile:min(tile + _PRUNE_TILE, len(retained_ids))]
            np.maximum(near, (before @ block.T).max(axis=0), out=near)
        for vid, row, screened in zip(live.ids[start:], block, near < limit):
            r = len(retained_ids)
            if r and not screened:  # may reach the threshold (module doc)
                sims = np.clip(retained[:r] @ row, -1.0, 1.0)
                best = int(sims.argmax())
                if sims[best] >= threshold:
                    removed.append((retained_ids[best], vid, float(sims[best])))
                    continue
            retained[r] = row
            retained_ids.append(vid)

    # Zero vectors carry no semantic content; retain them untouched.
    zero_ids = sorted(set(vecs.ids).difference(live.ids))
    return PruneReport(retained_ids + zero_ids, removed, threshold)


def save_hits(hits, path: str) -> None:
    write_lines(path, (json.dumps(asdict(hit)) for hit in hits))


def load_hits(path: str) -> list:
    """The hits of a file save_hits wrote, in file order; each candidate
    id appears once."""
    def parse(obj, _):
        if not isinstance(seed_id := obj["best_seed_id"], str):
            raise RetrieveError(f"best_seed_id must be a string, got {seed_id!r}")
        return RetrievalHit(**dict(obj, score=convert(float, obj["score"])))

    return list(read_keyed(path, "candidate_id", parse, RetrieveError).values())
