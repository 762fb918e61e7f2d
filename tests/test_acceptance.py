"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines on the terminal.
"""

import json
import math
import time

import numpy as np
import pytest

from corpusforge.classifier import FilterHyperparams, save_model, train_filter
from corpusforge.corpus import Document
from corpusforge.mix import MixSpec, compose_to_dir
from corpusforge.pipeline import run_pipeline
from corpusforge.quality import evaluate_filter, filter_by_rank
from corpusforge.retrieve import prune_redundant, retrieve_top_k
from corpusforge.scaling import (
    BudgetSpec,
    MixObservation,
    ScalingCurve,
    compute_budget,
    fit_power_law,
    optimal_mix_ratio,
)

from conftest import (
    build_pipeline_fixture,
    make_random_vectors,
    make_separable_samples,
)
from test_retrieve import brute_force_top_k
from test_scaling import TRUE_ALPHA, TRUE_C, TRUE_K, XS, grid_oracle_best_rmse


def passed(n, name):
    print(f"ACCEPTANCE {n:2d} {name}: PASS", flush=True)


def test_01_retrieval_oracle_equivalence():
    started = time.monotonic()
    seeds = make_random_vectors(50, 32, seed=101, prefix="s")
    cands = make_random_vectors(1000, 32, seed=202, prefix="c")
    hits = retrieve_top_k(seeds, cands, 25)
    oracle = brute_force_top_k(seeds, cands, 25)
    assert len(hits) == 25
    assert [(h.candidate_id, h.best_seed_id) for h in hits] == \
        [(c, s) for c, s, _ in oracle]
    for hit, (_, _, score) in zip(hits, oracle):
        assert abs(hit.score - score) < 1e-12
    assert time.monotonic() - started < 10.0
    passed(1, "retrieval oracle equivalence")


def test_02_prune_soundness():
    started = time.monotonic()
    vecs = make_random_vectors(500, 8, seed=303)
    report = prune_redundant(vecs, 0.9)
    rows = dict(zip(vecs.ids, vecs.matrix))
    retained = [rows[i] for i in report.retained_ids]
    for i in range(len(retained)):
        vi = retained[i] / np.linalg.norm(retained[i])
        for j in range(i + 1, len(retained)):
            vj = retained[j] / np.linalg.norm(retained[j])
            assert float(np.dot(vi, vj)) < 0.9
    assert time.monotonic() - started < 10.0
    passed(2, "prune soundness at threshold 0.9")


def test_03_classifier_learnability_and_determinism(tmp_path):
    started = time.monotonic()
    samples = make_separable_samples(2000)
    train, held = samples[:1600], samples[1600:]
    hp = FilterHyperparams(dims=256, learning_rate=0.1, word_ngram_max=3,
                           min_count=3, epochs=3, rng_seed=7)
    model = train_filter(train, hp)
    accuracy = sum((model.predict_score(t) >= 0.5) == (l == "agent")
                   for t, l in held) / len(held)
    assert accuracy >= 0.95
    again = train_filter(train, hp)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, str(p1))
    save_model(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert time.monotonic() - started < 60.0
    passed(3, "classifier learnability + determinism")


def test_04_metrics_oracle():
    samples = make_separable_samples(600, seed=31)
    model = train_filter(samples, FilterHyperparams(rng_seed=5))
    labeled = make_separable_samples(20000, seed=77)
    metrics = evaluate_filter(model, labeled)

    tp = fn = fp = tn = 0
    for text, label in labeled:
        pred_agent = model.predict_score(text) >= 0.5
        if label == "agent":
            tp, fn = tp + pred_agent, fn + (not pred_agent)
        else:
            fp, tn = fp + pred_agent, tn + (not pred_agent)
    total = tp + fn + fp + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) \
        if precision + recall else 0.0
    assert metrics.confusion == [[tp, fn], [fp, tn]]
    assert abs(metrics.accuracy - (tp + tn) / total) < 1e-12
    assert abs(metrics.precision - precision) < 1e-12
    assert abs(metrics.recall - recall) < 1e-12
    assert abs(metrics.f1 - f1) < 1e-12
    passed(4, "evaluation metrics oracle")


def test_05_rank_and_keep_ratio():
    rng = np.random.default_rng(55)
    scored = []
    for i in range(1000):
        length = int(rng.integers(1, 80))
        scored.append((Document(f"d{i:05d}", "s", "text",
                                " ".join(["w"] * length)),
                       float(rng.random())))
    total = sum(d.token_count for d, _ in scored)
    kept = filter_by_rank(scored, 0.4)
    kept_tokens = sum(d.token_count for d in kept)
    max_doc = max(d.token_count for d, _ in scored)
    assert kept_tokens >= 0.4 * total
    assert kept_tokens - 0.4 * total <= max_doc
    passed(5, "rank-and-keep at 0.4 token fraction")


def test_06_power_law_recovery():
    started = time.monotonic()
    noiseless = [MixObservation(x, TRUE_C + TRUE_K * x ** TRUE_ALPHA, "b")
                 for x in XS]
    curve = fit_power_law(noiseless)
    assert abs(curve.c - TRUE_C) / abs(TRUE_C) < 1e-4
    assert abs(curve.k - TRUE_K) / abs(TRUE_K) < 1e-4
    assert abs(curve.alpha - TRUE_ALPHA) / abs(TRUE_ALPHA) < 1e-4

    rng = np.random.default_rng(4)
    noisy = [MixObservation(x, TRUE_C + TRUE_K * x ** TRUE_ALPHA
                            + rng.normal(0.0, 0.002), "b") for x in XS]
    noisy_curve = fit_power_law(noisy)
    assert abs(noisy_curve.c - TRUE_C) / abs(TRUE_C) < 0.02
    assert abs(noisy_curve.k - TRUE_K) / abs(TRUE_K) < 0.02
    assert abs(noisy_curve.alpha - TRUE_ALPHA) / abs(TRUE_ALPHA) < 0.02
    assert noisy_curve.rmse <= grid_oracle_best_rmse(noisy) + 1e-15
    assert time.monotonic() - started < 5.0
    passed(6, "power-law parameter recovery")


def test_07_optimum_location():
    # Closed-form derivative oracle, solved before the build: with
    # L1 = c1 + k1*x^a1 (decreasing) and L2 = c2 + k2*x (increasing),
    # d(L1+L2)/dx = 0 at x* when k2 = -k1*a1*x*^(a1-1). Setting x* = 0.36
    # pins k2; the summed curve is convex there (k1*a1*(a1-1)*x^(a1-2) > 0).
    k2 = -TRUE_K * TRUE_ALPHA * 0.36 ** (TRUE_ALPHA - 1.0)
    curves = [ScalingCurve(TRUE_C, TRUE_K, TRUE_ALPHA, 0.0, "agent_bench"),
              ScalingCurve(1.0, k2, 1.0, 0.0, "mmlu")]
    x_star, _ = optimal_mix_ratio(curves, [1.0, 1.0], (0.05, 0.6), 0.001)
    assert abs(x_star - 0.36) < 1e-4
    passed(7, "aggregate optimum at 36% mixing ratio")


def test_08_budget_arithmetic():
    tokens, flops = compute_budget(BudgetSpec(model_params=45_000_000))
    assert tokens == 2_250_000_000
    assert flops == pytest.approx(6.075e17, rel=1e-12)
    assert math.floor(math.log10(flops)) == math.floor(math.log10(7e17))

    tokens, flops = compute_budget(BudgetSpec(model_params=650_000_000))
    assert tokens == 32_500_000_000
    assert flops == pytest.approx(1.2675e20, rel=1e-12)
    assert math.floor(math.log10(flops)) == math.floor(math.log10(2e20))
    passed(8, "compute budget FLOPs bracket")


def test_09_mixture_ratios(tmp_path):
    rng = np.random.default_rng(91)
    pools = {}
    for name in ("agent", "text", "code"):
        docs = []
        total = 0
        i = 0
        while total < 1_000_000:
            length = int(rng.integers(50, 150))
            docs.append(Document(f"{name}-{i:06d}", name, "text",
                                 " ".join(["w"] * length)))
            total += length
            i += 1
        pools[name] = docs
    budget = 2_400_000
    spec = MixSpec({"agent": 1, "text": 1, "code": 1}, budget, rng_seed=17)

    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    manifest, _ = compose_to_dir(pools, spec, str(out1))
    compose_to_dir(pools, spec, str(out2))

    max_doc = max(d.token_count for docs in pools.values() for d in docs)
    total_realized = sum(e["realized_tokens"]
                         for e in manifest.per_class.values())
    for entry in manifest.per_class.values():
        share = entry["realized_tokens"] / total_realized
        assert abs(share - 1 / 3) <= max_doc / budget

    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    passed(9, "1:1:1 mixture composition + determinism")


def test_10_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    config = build_pipeline_fixture(tmp_path)
    report1 = run_pipeline(config)
    report2 = run_pipeline(config)
    assert all(s["status"] == "ok" for s in report1["stages"])
    hashes1 = [sorted(s["outputs"].values()) for s in report1["stages"]]
    hashes2 = [sorted(s["outputs"].values()) for s in report2["stages"]]
    assert hashes1 == hashes2
    assert time.monotonic() - started < 300.0
    passed(10, "end-to-end pipeline determinism")
