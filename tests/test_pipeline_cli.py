import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest.mock import ANY

import pytest

from corpusforge import cli, pipeline
from corpusforge import corpus as corpus_mod
from corpusforge import embed as embed_mod
from corpusforge.cli import main
from corpusforge.pipeline import (
    ConfigError,
    StageError,
    run_pipeline,
    validate_config,
)

from conftest import build_pipeline_fixture, make_random_docs
from corpusforge.corpus import DuplicateIdError, read_corpus, write_corpus
from corpusforge.classifier import LABELS, ClassifierError
from corpusforge.ingest import IngestError
from corpusforge.mix import MixError
from corpusforge.quality import QualityError
from corpusforge.scaling import ScalingError


def output_hashes(report):
    """Per-stage output hash values, position-stable but path-free."""
    return [sorted(stage["outputs"].values()) for stage in report["stages"]]


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(ConfigError):
            validate_config([])

    def test_rejects_missing_stages(self):
        with pytest.raises(ConfigError, match="stages"):
            validate_config({"stages": []})

    def test_rejects_unknown_stage(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            validate_config({"stages": [{"name": "teleport"}]})

    def test_rejects_unknown_root_key(self):
        with pytest.raises(ConfigError, match="^rng_sed: unknown key"):
            validate_config({"rng_sed": 1, "stages": [{"name": "stats"}]})

    def test_missing_required_field_is_config_error(self, tmp_path):
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "retrieve", "seeds": "a.jsonl",
                              "candidates": "a.jsonl", "out": "h.jsonl"}]}
        (tmp_path / "a.jsonl").write_text("")
        with pytest.raises(ConfigError, match=r"stages\[retrieve\]\.k"):
            run_pipeline(config)

    @pytest.mark.parametrize("stage,field", [
        ({"name": "optimize", "fits": ["f.json"], "step": "abc"}, "step"),
        ({"name": "optimize", "fits": ["f.json"], "weights": ["x"]}, "weights"),
        ({"name": "optimize", "fits": 7}, "fits"),
        ({"name": "optimize", "fits": ["f.json"], "domain": [0.1]}, "domain"),
        ({"name": "frontier", "seeds": "f.json", "graph": "f.json",
          "filter_final": "false"}, "filter_final"),
        ({"name": "retrieve", "seeds": "f.json", "candidates": "f.json",
          "k": "five"}, "k"),
        # Values that int() and float() would truncate or coerce.
        ({"name": "retrieve", "seeds": "f.json", "candidates": "f.json",
          "k": 2.7}, "k"),
        ({"name": "retrieve", "seeds": "f.json", "candidates": "f.json",
          "k": True}, "k"),
        ({"name": "embed", "corpus": "f.json", "dims": 8.9}, "dims"),
        ({"name": "prune", "vecs": "f.json", "report": "out.json",
          "threshold": True}, "threshold"),
        ({"name": "prune", "vecs": "f.json", "report": "out.json",
          "threshold": 10**400}, "threshold"),
        ({"name": "optimize", "fits": ["f.json"], "weights": [True]},
         "weights"),
        ({"name": "frontier", "seeds": "f.json", "graph": "f.json",
          "keywords": [True]}, "keywords"),
        ({"name": "annotate", "corpus": "f.json", "backend": {
            "kind": "http", "url": "http://localhost:9", "timeout": "soon"}},
         "backend.timeout"),
        ({"name": "annotate", "corpus": "f.json", "backend": {
            "kind": "http", "url": "http://localhost:9", "retries": 2.5}},
         "backend.retries"),
        ({"name": "annotate", "corpus": "f.json", "backend": {
            "kind": "http", "url": "http://localhost:9", "timeout": False}},
         "backend.timeout"),
        # A key the stage does not define, named after the declared ones.
        ({"name": "train-filter", "corpus": "f.json", "labels": "f.json",
          "epoch": 5}, "epoch"),
        ({"name": "retrieve", "seeds": "f.json", "candidates": "f.json",
          "k": "five", "kk": 5}, "k"),
        # A backend key the backend kind does not define.
        ({"name": "annotate", "corpus": "f.json", "backend": {
            "kind": "file", "labels": "f.json", "timeuot": 9}},
         "backend.timeuot"),
        ({"name": "annotate", "corpus": "f.json", "backend": {
            "kind": "http", "url": "http://localhost:9", "labels": "f.json"}},
         "backend.labels"),
        # A path or name key takes only a string, even when a file is
        # named like the number ("3" and "9" exist).
        ({"name": "stats", "corpus": 5}, "corpus"),
        ({"name": "stats", "corpus": "f.json", "out": 7}, "out"),
        ({"name": "fit", "obs": "f.json", "benchmark": 3}, "benchmark"),
        ({"name": "annotate", "corpus": "f.json", "backend": {
            "kind": "file", "labels": 9}}, "backend.labels"),
        ({"name": "optimize", "fits": [3]}, "fits")])
    def test_mistyped_field_exits_2_and_names_it(self, tmp_path, capsys,
                                                 stage, field):
        for name in ("f.json", "3", "9"):
            (tmp_path / name).write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workspace": str(tmp_path), "stages": [
            {"out": "out.json", **stage}]}))
        assert main(["run", "--config", str(path)]) == 2
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert event["event"] == "config_error"
        assert event["field"] == f"stages[{stage['name']}].{field}"
        assert not (tmp_path / "out.json").exists()

    # Values that a cast would bend into the field's type: dict() of an
    # array of pairs, int() and float() of a string, list() of an object.
    @pytest.mark.parametrize("stage,field", [
        ({"name": "annotate", "corpus": "f.json",
          "backend": [["kind", "file"], ["labels", "f.json"]]}, "backend"),
        ({"name": "mix", "spec": "f.json", "pools": [["a", "f.json"]]},
         "pools"),
        ({"name": "embed", "corpus": "f.json", "dims": "5"}, "dims"),
        ({"name": "filter", "corpus": "f.json", "scores": "f.json",
          "keep_fraction": "0.5"}, "keep_fraction"),
        ({"name": "optimize", "fits": {"f.json": 1}}, "fits")],
        ids=["backend_pairs", "pools_pairs", "int_string", "float_string",
             "list_object"])
    def test_bent_value_exits_2_and_names_it(self, tmp_path, capsys, stage,
                                             field):
        self.test_mistyped_field_exits_2_and_names_it(tmp_path, capsys,
                                                      stage, field)

    @pytest.mark.parametrize("seed", [1.5, True, "abc"])
    def test_mistyped_rng_seed_exits_2_and_names_it(self, tmp_path, capsys,
                                                    seed):
        write_corpus(make_random_docs(3, seed=2), str(tmp_path / "tiny"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "workspace": str(tmp_path), "rng_seed": seed,
            "stages": [{"name": "stats", "corpus": "tiny",
                        "out": "out.json"}]}))
        assert main(["run", "--config", str(path)]) == 2
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert event["event"] == "config_error"
        assert event["field"] == "rng_seed"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("root,field", [({"report": 5}, "report"),
                                            ({"workspace": 7}, "workspace")])
    def test_mistyped_root_string_exits_2_before_the_workspace_exists(
            self, tmp_path, capsys, monkeypatch, root, field):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workspace": "ws", **root, "stages": [
            {"name": "stats", "corpus": "c", "out": "s.json"}]}))
        assert main(["run", "--config", str(path)]) == 2
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (event["event"], event["field"]) == ("config_error", field)
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_directory_input_exits_2_and_names_it(self, tmp_path, capsys):
        write_corpus(make_random_docs(3, seed=2), str(tmp_path / "d" / "c"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workspace": str(tmp_path), "stages": [
            {"name": "stats", "corpus": "d", "out": "s.json"}]}))
        assert main(["run", "--config", str(path)]) == 2
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (event["event"], event["field"]) == ("config_error",
                                                    "stages[stats].corpus")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("pools,field,error", [
        ({"a": "c", "agnet": "c"}, "agnet", "unknown key"),
        ({"a": 5}, "a", "must be a string, got 5"),
        ({"a": "c", "b": 7}, "b", "must be a string, got 7"),
        ({"b": "c"}, "a", "missing required field")])
    def test_mix_pools_are_the_names_the_spec_lists(self, tmp_path, capsys,
                                                    pools, field, error):
        write_corpus(make_random_docs(20, seed=4), str(tmp_path / "c"))
        (tmp_path / "spec.json").write_text(json.dumps(
            {"ratios": {"a": 1, "b": 0}, "total_token_budget": 50}))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workspace": str(tmp_path), "stages": [
            {"name": "mix", "spec": "spec.json", "pools": pools,
             "out": "mixout"}]}))
        assert main(["run", "--config", str(path)]) == 2
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert event["event"] == "config_error"
        assert event["error"] == f"stages[mix].pools.{field}: {error}"
        assert not (tmp_path / "mixout").exists()

    def test_mix_reads_only_the_pools_it_mixes(self, tmp_path):
        write_corpus(make_random_docs(20, seed=4), str(tmp_path / "c"))
        (tmp_path / "spec.json").write_text(json.dumps(
            {"ratios": {"a": 1, "b": 0}, "total_token_budget": 50}))
        config = {"workspace": str(tmp_path), "stages": [
            {"name": "mix", "spec": "spec.json", "pools": {"a": "c"},
             "out": "mixout"}]}
        (stage,) = run_pipeline(config)["stages"]
        assert sorted(stage["inputs"]) == [str(tmp_path / "c.00000.jsonl"),
                                           str(tmp_path / "spec.json")]
        assert list(stage["stats"]["realized_tokens"]) == ["a"]

    def test_missing_ingest_origin_is_config_error(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps([
            {"name": "s", "kind": "text", "format": "plain_text",
             "origin": "absent.jsonl"}]))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "ingest", "manifest": "m.json",
                              "out": "seed"}]}
        with pytest.raises(ConfigError, match=r"stages\[ingest\]\.origin"):
            run_pipeline(config)

    @pytest.mark.parametrize("bad", ["not json", '{"id": "x"}',
                                     '{"text": 5}', '["text"]'])
    def test_bad_origin_line_names_file_and_line(self, tmp_path, bad):
        (tmp_path / "m.json").write_text(json.dumps([
            {"name": "s", "kind": "text", "format": "plain_text",
             "origin": "o.jsonl"}]))
        (tmp_path / "o.jsonl").write_text('{"text": "fine"}\n' + bad + "\n")
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "ingest", "manifest": "m.json",
                              "out": "seed"}]}
        with pytest.raises(StageError, match=r"o\.jsonl:2: ") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, IngestError)

    def test_origin_line_with_escaped_surrogate_names_file_and_line(
            self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps([
            {"name": "s", "kind": "text", "format": "plain_text",
             "origin": "o.jsonl"}]))
        (tmp_path / "o.jsonl").write_text(
            '{"text": "fine"}\n{"text": "a \\ud800 b"}\n')
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "ingest", "manifest": "m.json",
                              "out": "seed"}]}
        with pytest.raises(StageError, match=r"o\.jsonl:2: .*surrogate") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, corpus_mod.ValidationError)
        assert not list(tmp_path.glob("seed*"))

    def test_invalid_utf8_shard_names_file_and_line(self, tmp_path):
        write_corpus(make_random_docs(2, seed=4), str(tmp_path / "c"))
        shard = tmp_path / "c.00000.jsonl"
        first, second = shard.read_bytes().splitlines(keepends=True)
        shard.write_bytes(first + second.replace(b"w", b"\xff", 1))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "stats", "corpus": "c",
                              "out": "stats.json"}]}
        with pytest.raises(StageError, match=r"c\.00000\.jsonl:2: invalid "
                           "UTF-8 byte 0xff") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, corpus_mod.ParseError)

    def test_invalid_utf8_seeds_name_file_and_line(self, tmp_path):
        (tmp_path / "urls.txt").write_bytes(b"https://a.com/doc\n"
                                            b"https://b.com/\xffdoc\n")
        (tmp_path / "graph.jsonl").write_text("")
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "frontier", "seeds": "urls.txt",
                              "graph": "graph.jsonl", "out": "f.json"}]}
        with pytest.raises(StageError, match=r"urls\.txt:2: invalid "
                           "UTF-8 byte 0xff") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, IngestError)

    def test_default_ids_count_physical_lines(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps([
            {"name": "s", "kind": "text", "format": "plain_text",
             "origin": "o.jsonl"}]))
        (tmp_path / "o.jsonl").write_text('{"text": "a"}\n\n{"text": "b"}\n')
        run_pipeline({"workspace": str(tmp_path),
                      "stages": [{"name": "ingest", "manifest": "m.json",
                                  "out": "seed"}]})
        docs = read_corpus(str(tmp_path / "seed"))
        assert [(d.id, d.text) for d in docs] == [("s:1", "a"), ("s:3", "b")]

    @pytest.mark.parametrize("bad", [
        '{"id": "d1"}', "not json", '{"id": "d1", "score": 1.5}',
        '{"id": "d1", "score": NaN}', '{"id": "d1", "score": true}',
        '{"id": "d1", "score": "0.5"}', '{"id": 0, "score": 0.9}'])
    def test_bad_scores_line_names_file_and_line(self, tmp_path, bad):
        docs = make_random_docs(3, seed=4)
        write_corpus(docs, str(tmp_path / "c"))
        (tmp_path / "scores.jsonl").write_text(
            json.dumps({"id": docs[0].id, "score": 0.5}) + "\n" + bad + "\n")
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "filter", "corpus": "c",
                              "scores": "scores.jsonl", "keep_fraction": 0.5,
                              "out": "kept"}]}
        with pytest.raises(StageError, match=r"scores\.jsonl:2: ") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, QualityError)

    @staticmethod
    def filter_config(tmp_path, docs, scores):
        write_corpus(docs, str(tmp_path / "c"))
        (tmp_path / "scores.jsonl").write_text("".join(
            json.dumps({"id": doc_id, "score": score}) + "\n"
            for doc_id, score in scores))
        return {"workspace": str(tmp_path),
                "stages": [{"name": "filter", "corpus": "c",
                            "scores": "scores.jsonl", "keep_fraction": 1.0,
                            "out": "kept"}]}

    def test_repeated_score_id_names_file_and_line(self, tmp_path):
        docs = make_random_docs(3, seed=4)
        config = self.filter_config(tmp_path, docs, [
            (docs[0].id, 0.5), (docs[1].id, 0.5), (docs[0].id, 0.9)])
        with pytest.raises(StageError, match=r"scores\.jsonl:3: .*duplicate"
                           ) as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, QualityError)

    def test_filter_counts_docs_without_score(self, tmp_path):
        docs = make_random_docs(5, seed=4)
        config = self.filter_config(tmp_path, docs, [
            (docs[1].id, 0.5), (docs[3].id, 0.7)])
        stats = run_pipeline(config)["stages"][0]["stats"]
        assert stats["kept_docs"] == 2
        assert stats["dropped"] == {"no_score": 3}

    def test_train_filter_counts_labels_without_doc(self, tmp_path):
        docs = make_random_docs(6, seed=4)
        write_corpus(docs, str(tmp_path / "c"))
        labels = [(doc.id, LABELS[i % 2]) for i, doc in enumerate(docs[:4])]
        (tmp_path / "labels.jsonl").write_text("".join(
            json.dumps({"doc_id": doc_id, "label": label}) + "\n"
            for doc_id, label in labels + [("gone-1", "agent"),
                                           ("gone-2", "general")]))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "train-filter", "corpus": "c",
                              "labels": "labels.jsonl", "out": "m.bin",
                              "min_count": 1}]}
        stats = run_pipeline(config)["stages"][0]["stats"]
        assert stats["samples"] == 4
        assert stats["dropped"] == {"no_doc": 2}

    @staticmethod
    def write_labeled_corpus(directory):
        docs = make_random_docs(6, seed=4)
        write_corpus(docs, str(directory / "c"))
        (directory / "labels.jsonl").write_text("".join(
            json.dumps({"doc_id": doc.id, "label": LABELS[i % 2]}) + "\n"
            for i, doc in enumerate(docs)))

    # A NaN or infinite rate trained a NaN model, which scored NaN.
    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_flag_exits_1(self, tmp_path, monkeypatch, lr):
        self.write_labeled_corpus(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["train-filter", "--corpus", "c", "--labels",
                     "labels.jsonl", "--out", "m.bin", "--min-count", "1",
                     "--lr", lr]) == 1
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_in_config_fails(self, tmp_path, lr):
        self.write_labeled_corpus(tmp_path)
        config = json.loads(json.dumps(  # NaN and Infinity, as JSON has them
            {"workspace": str(tmp_path),
             "stages": [{"name": "train-filter", "corpus": "c",
                         "labels": "labels.jsonl", "out": "m.bin",
                         "min_count": 1, "learning_rate": lr}]}))
        with pytest.raises(StageError, match="finite") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, ClassifierError)

    def test_colliding_source_ids_fail_at_ingest(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps([
            {"name": name, "kind": "text", "format": "plain_text",
             "origin": f"{name}.jsonl"} for name in ("a", "b")]))
        for name in ("a", "b"):
            (tmp_path / f"{name}.jsonl").write_text(
                json.dumps({"id": "same", "text": name}) + "\n")
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "ingest", "manifest": "m.json",
                              "out": "seed"}]}
        with pytest.raises(StageError, match="'same'") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, DuplicateIdError)

    @pytest.mark.parametrize("fit", [{"k": 0.7, "alpha": -0.3},
                                     {"c": "x", "k": 0.7, "alpha": -0.3}])
    def test_bad_fits_file_names_file(self, tmp_path, fit):
        (tmp_path / "fit_a.json").write_text(json.dumps(fit))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "optimize", "fits": ["fit_a.json"],
                              "out": "opt.json"}]}
        with pytest.raises(StageError, match=r"fit_a\.json: ") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, ScalingError)

    def test_fits_string_is_comma_separated(self, tmp_path):
        for name, k in (("fit_a.json", 0.7), ("fit_b.json", -0.4)):
            (tmp_path / name).write_text(json.dumps(
                {"c": 0.5, "k": k, "alpha": -0.3 if k > 0 else 1.0}))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "optimize",
                              "fits": "fit_a.json,fit_b.json",
                              "out": "opt.json"}]}
        (stage,) = run_pipeline(config)["stages"]
        assert sorted(stage["inputs"]) == [str(tmp_path / "fit_a.json"),
                                           str(tmp_path / "fit_b.json")]
        assert stage["stats"]["weights"] == [1.0, 1.0]

    def test_non_finite_loss_names_file_and_line(self, tmp_path):
        lines = [json.dumps({"x": x, "loss": 0.5 + 0.7 * x ** -0.3,
                             "benchmark": "b"}) for x in (0.1, 0.2, 0.3, 0.4)]
        lines.insert(2, '{"x": 0.25, "loss": NaN, "benchmark": "b"}')
        (tmp_path / "obs.jsonl").write_text("\n".join(lines) + "\n")
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "fit", "obs": "obs.jsonl",
                              "out": "fit.json"}]}
        with pytest.raises(StageError, match=r"obs\.jsonl:3: .*finite") as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, ScalingError)

    # A data file takes JSON numbers and strings as they are: a string
    # holding a number is not a number, an array of pairs is not an object.
    @pytest.mark.parametrize("stage,file,text,error", [
        ({"name": "ingest", "manifest": "m.json"}, "m.json", json.dumps(
            [{"name": 5, "kind": "text", "format": "plain_text",
              "origin": "o.jsonl"}]), IngestError),
        ({"name": "ingest", "manifest": "m.json"}, "m.json", json.dumps(
            [{"name": "s", "kind": "text", "format": "plain_text",
              "origin": 5}]), IngestError),
        ({"name": "ingest", "manifest": "m.json"}, "m.json", json.dumps(
            [{"name": "s", "kind": "text", "format": "plain_text",
              "origin": "o.jsonl", "declared_tokens": "12"}]), IngestError),
        ({"name": "mix", "spec": "spec.json", "pools": {"text": "c"}},
         "spec.json", json.dumps({"ratios": [["text", 1]],
                                  "total_token_budget": 5}), MixError),
        ({"name": "mix", "spec": "spec.json", "pools": {"text": "c"}},
         "spec.json", json.dumps({"ratios": {"text": 1},
                                  "total_token_budget": 2.7}), MixError),
        ({"name": "mix", "spec": "spec.json", "pools": {"text": "c"}},
         "spec.json", json.dumps({"ratios": {"text": True},
                                  "total_token_budget": 5}), MixError),
        ({"name": "fit", "obs": "obs.jsonl"}, "obs.jsonl:1",
         "".join(json.dumps({"x": x, "loss": 1.0, "benchmark": "b"}) + "\n"
                 for x in ("0.1", 0.2, 0.3, 0.4)), ScalingError),
        ({"name": "optimize", "fits": ["fit.json"]}, "fit.json", json.dumps(
            {"c": "0.5", "k": 0.7, "alpha": -0.3}), ScalingError)],
        ids=["source_name", "source_origin", "declared_tokens",
             "ratios_pairs", "budget_fraction", "ratio_bool", "obs_x",
             "fit_c"])
    def test_data_value_of_another_json_type_fails_naming_the_file(
            self, tmp_path, stage, file, text, error):
        write_corpus(make_random_docs(3, seed=2), str(tmp_path / "c"))
        (tmp_path / "o.jsonl").write_text('{"text": "a b"}\n')
        (tmp_path / file.split(":")[0]).write_text(text)
        config = {"workspace": str(tmp_path),
                  "stages": [{"out": "out", **stage}]}
        with pytest.raises(StageError, match=re.escape(
                f"{tmp_path / file}: ")) as info:
            run_pipeline(config)
        assert isinstance(info.value.__cause__, error)
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("backend,field", [
        ({"kind": "file"}, "labels"), ({"kind": "file", "labels": None}, "labels"),
        ({"kind": "http"}, "url"), ({"kind": "http", "timeout": 5}, "url")])
    def test_annotate_backend_without_source_is_config_error(
            self, tmp_path, backend, field):
        write_corpus(make_random_docs(1, seed=6), str(tmp_path / "c"))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "annotate", "corpus": "c",
                              "backend": backend, "out": "labels.jsonl"}]}
        with pytest.raises(ConfigError, match=re.escape(
                f"stages[annotate].backend.{field}")):
            run_pipeline(config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_input_is_config_error(self, tmp_path):
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "stats", "corpus": "nowhere",
                              "out": "stats.json"}]}
        with pytest.raises(ConfigError, match="nowhere"):
            run_pipeline(config)


class TestStatsOnlyRun:
    def test_three_doc_corpus(self, tmp_path):
        docs = make_random_docs(3, seed=2)
        write_corpus(docs, str(tmp_path / "tiny"))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "stats", "corpus": "tiny",
                              "out": "stats.json"}]}
        report = run_pipeline(config)
        assert report["stages"][0]["status"] == "ok"
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["total_tokens"] == sum(d.token_count for d in docs)
        assert stats == report["stages"][0]["stats"]


@pytest.fixture(scope="module")
def fixture_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    config = build_pipeline_fixture(root)
    return root, config


class TestFullPipeline:
    def test_completes_and_is_deterministic(self, fixture_root):
        root, config = fixture_root
        report1 = run_pipeline(config)
        assert all(s["status"] == "ok" for s in report1["stages"])
        report2 = run_pipeline(config)
        assert output_hashes(report1) == output_hashes(report2)

    def test_optimum_near_036(self, fixture_root):
        root, config = fixture_root
        run_pipeline(config)
        optimum = json.loads((root / "optimum.json").read_text())
        assert abs(optimum["x_star"] - 0.36) < 1e-3

    def test_fit_bytes_do_not_depend_on_the_blas_kernel(self, fixture_root,
                                                        tmp_path):
        # No BLAS or LAPACK call reaches the fit and optimize outputs, so
        # a different OpenBLAS CPU kernel leaves their bytes unchanged.
        root, config = fixture_root
        stages = [s for s in config["stages"] if s["name"] in ("fit", "optimize")]
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        outputs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            workspace = tmp_path / f"run{len(outputs)}"
            workspace.mkdir()
            shutil.copy(root / "observations.jsonl", workspace)
            path = workspace / "pipeline.json"
            path.write_text(json.dumps({"workspace": str(workspace),
                                        "stages": stages}))
            subprocess.run(
                [sys.executable, "-m", "corpusforge.cli", "run",
                 "--config", str(path)],
                env=dict(env, PYTHONPATH=src, **extra), check=True,
                capture_output=True)
            outputs.append({s["out"]: (workspace / s["out"]).read_bytes()
                            for s in stages})
        assert outputs[0] == outputs[1]

    def test_mix_reports_its_manifest_check(self, fixture_root):
        root, config = fixture_root
        run_pipeline(config)
        report = json.loads((root / "run_report.json").read_text())
        (mix,) = [s for s in report["stages"] if s["name"] == "mix"]
        assert mix["stats"]["verify_manifest"] == {"ok": True,
                                                   "max_deviation": 0}

    def test_report_reconstructs_provenance(self, fixture_root):
        root, config = fixture_root
        report = run_pipeline(config)
        # every stage input that is a produced file must appear as some
        # earlier stage's output with the same hash
        produced = {}
        for stage in report["stages"]:
            for path, digest in stage["inputs"].items():
                if path in produced:
                    assert produced[path] == digest
            produced.update(stage["outputs"])

    def test_retrieve_and_prune_decode_no_saved_vectors(self, fixture_root, monkeypatch):
        # retrieve and prune get the embed stages' vectors without parsing
        # the files those stages have just written.
        root, config = fixture_root
        decoded = []

        def counting(path, *args, _read=embed_mod.read_jsonl):
            decoded.append(os.path.basename(path))
            return _read(path, *args)

        monkeypatch.setattr(embed_mod, "read_jsonl", counting)
        stages = [s for s in config["stages"]
                  if s["name"] in ("ingest", "embed", "retrieve", "prune")]
        report = run_pipeline(dict(config, stages=stages))
        assert [s["name"] for s in report["stages"]] == [
            "ingest", "embed", "embed", "retrieve", "prune"]
        assert decoded == []

    def test_each_corpus_shard_parsed_once_per_run(self, fixture_root,
                                                   monkeypatch):
        # annotate, train-filter, score and filter take the web corpus
        # from the run table that the embed stage's read filled.
        root, config = fixture_root
        parsed = Counter()

        def counting(path, parse, *args, _read=corpus_mod.read_jsonl):
            if parse is corpus_mod._document:
                parsed[os.path.relpath(path, root)] += 1
            return _read(path, parse, *args)

        monkeypatch.setattr(corpus_mod, "read_jsonl", counting)
        run_pipeline(config)
        assert {p for p in parsed if p.startswith("web.")} == {
            f"web.{i:05d}.jsonl" for i in range(4)}
        assert set(parsed.values()) == {1}

    def test_runs_in_two_threads_write_what_runs_in_turn_write(
            self, tmp_path):
        def workspace(name, rng_seed):
            config = build_pipeline_fixture(tmp_path / name)
            return dict(config, rng_seed=rng_seed)

        def written(config):
            root = pathlib.Path(config["workspace"])
            return {str(p.relative_to(root)): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()
                    and p.name not in ("run_report.json", "pipeline.json")}

        in_turn = [workspace("a", 42), workspace("b", 7)]
        for config in in_turn:
            run_pipeline(config)
        together = [workspace("c", 42), workspace("d", 7)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(run_pipeline, c) for c in together]:
                future.result(timeout=120)
        for one, other in zip(in_turn, together):
            assert written(one) == written(other)
        assert written(in_turn[0]) != written(in_turn[1])

    def test_each_file_hashed_once_per_run(self, fixture_root, monkeypatch):
        # Counted where a file is hashed inline and where it is pinned.
        root, config = fixture_root
        hashed = []

        def counting(path, _hash=pipeline.sha256_file):
            hashed.append(path)
            return _hash(path)

        class CountingPinned(pipeline._Pinned):
            def __init__(self, path, *args):
                hashed.append(path)
                super().__init__(path, *args)

        monkeypatch.setattr(pipeline, "sha256_file", counting)
        monkeypatch.setattr(pipeline, "_Pinned", CountingPinned)
        report = run_pipeline(config)
        assert len(hashed) == len(set(hashed))
        listed = set()
        for stage in report["stages"]:
            listed.update(stage["inputs"], stage["outputs"])
        assert set(hashed) == listed

    def test_outputs_are_the_files_written(self, tmp_path):
        write_corpus(make_random_docs(20, seed=4), str(tmp_path / "c"))
        (tmp_path / "spec.json").write_text(json.dumps(
            {"ratios": {"a": 1}, "total_token_budget": 50}))
        (tmp_path / "mixout").mkdir()
        (tmp_path / "mixout" / "notes.txt").write_text("not from the mix\n")
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "mix", "spec": "spec.json",
                              "pools": {"a": "c"}, "out": "mixout"}]}
        (stage,) = run_pipeline(config)["stages"]
        assert sorted(stage["outputs"]) == [
            str(tmp_path / "mixout" / "manifest.json"),
            str(tmp_path / "mixout" / "mix.00000.jsonl")]

    @pytest.mark.parametrize("read_before", [False, True])
    def test_in_place_rewrite_digests_what_it_read_and_wrote(self, tmp_path,
                                                             read_before):
        docs = make_random_docs(15, seed=8)
        write_corpus(docs, str(tmp_path / "c"), docs_per_shard=5)
        (tmp_path / "s.jsonl").write_text("".join(
            json.dumps({"id": d.id, "score": i / 15}) + "\n"
            for i, d in enumerate(docs)))
        shards = [str(tmp_path / f"c.{i:05d}.jsonl") for i in range(3)]
        read = {path: pipeline.sha256_file(path)
                for path in shards + [str(tmp_path / "s.jsonl")]}
        stages = [{"name": "filter", "corpus": "c", "scores": "s.jsonl",
                   "keep_fraction": 0.3, "out": "c"}]
        if read_before:
            stages.insert(0, {"name": "stats", "corpus": "c", "out": "st.json"})
        report = run_pipeline({"workspace": str(tmp_path), "stages": stages})
        stage = report["stages"][-1]
        # The kept docs fit one shard, so the rewrite deletes c.00001 and
        # c.00002; the stage still lists the three shards it read.
        assert list(stage["outputs"]) == [shards[0]]
        assert stage["inputs"] == read
        if read_before:
            assert stage["inputs"] == {**report["stages"][0]["inputs"],
                                       str(tmp_path / "s.jsonl"): ANY}
        for entry in report["stages"]:
            assert entry["inputs"][shards[0]] != stage["outputs"][shards[0]]

    def test_read_after_in_place_rewrite_sees_new_documents(self, tmp_path):
        docs = make_random_docs(15, seed=8)
        write_corpus(docs, str(tmp_path / "c"), docs_per_shard=5)
        (tmp_path / "s.jsonl").write_text("".join(
            json.dumps({"id": d.id, "score": i / 15}) + "\n"
            for i, d in enumerate(docs)))
        stages = [{"name": "stats", "corpus": "c", "out": "before.json"},
                  {"name": "filter", "corpus": "c", "scores": "s.jsonl",
                   "keep_fraction": 0.3, "out": "c"},
                  {"name": "stats", "corpus": "c", "out": "after.json"}]
        report = run_pipeline({"workspace": str(tmp_path), "stages": stages})
        before, kept, after = (s["stats"] for s in report["stages"])
        assert before["total_docs"] == 15
        assert after["total_docs"] == kept["kept_docs"] < 15
        assert after["total_tokens"] == kept["kept_tokens"]
        assert [d.meta for d in read_corpus(str(tmp_path / "c"))] == [
            {"filter_score": ANY}] * kept["kept_docs"]

    def test_durations_ignore_wall_clock_steps(self, tmp_path, monkeypatch):
        # A wall clock stepped back by an hour during every stage.
        clock = iter(range(10**6, 0, -3600))
        monkeypatch.setattr("time.time", lambda: float(next(clock)))
        write_corpus(make_random_docs(3, seed=2), str(tmp_path / "c"))
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "stats", "corpus": "c", "out": "s.json"}]}
        assert run_pipeline(config)["stages"][0]["duration_s"] >= 0

    def test_stage_failure_halts_with_partial_report(self, tmp_path):
        docs = make_random_docs(5, seed=3)
        write_corpus(docs, str(tmp_path / "c"))
        bad = {"workspace": str(tmp_path),
               "stages": [
                   {"name": "stats", "corpus": "c", "out": "s.json"},
                   {"name": "fit", "obs": "s.json", "out": "fit.json"}]}
        with pytest.raises(StageError, match="fit"):
            run_pipeline(bad)
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["stages"][0]["status"] == "ok"
        assert report["stages"][1]["status"] == "failed"


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def held_hashes(monkeypatch):
    """Keep each hashing thread from reading its file until the runner
    first waits for one: a pinned file is then hashed only after the
    stages that follow it have run."""
    release = threading.Event()

    def held(fh, buf=None, _hash=corpus_mod.sha256_file):
        if threading.current_thread() is not threading.main_thread():
            release.wait(timeout=30)
        return _hash(fh, buf)

    def wait(self, _wait=pipeline._Pinned.wait):
        release.set()
        _wait(self)

    monkeypatch.setattr(corpus_mod, "sha256_file", held)
    monkeypatch.setattr(pipeline._Pinned, "wait", wait)


def process_state():
    return threading.active_count(), sorted(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="lists open files through /proc")


class TestPinnedDigests:
    """Every file takes the second thread (the size gate is 0)."""

    @pytest.fixture(autouse=True)
    def pin_every_file(self, monkeypatch):
        monkeypatch.setattr(pipeline, "LARGE_FILE", 0)

    test_report_reconstructs_provenance = \
        TestFullPipeline.test_report_reconstructs_provenance
    test_each_file_hashed_once_per_run = \
        TestFullPipeline.test_each_file_hashed_once_per_run
    test_in_place_rewrite_digests_what_it_read_and_wrote = \
        TestFullPipeline.test_in_place_rewrite_digests_what_it_read_and_wrote

    def test_replaced_output_keeps_the_digest_of_what_was_written(
            self, tmp_path, monkeypatch):
        write_corpus(make_random_docs(5, seed=3), str(tmp_path / "a"))
        write_corpus(make_random_docs(9, seed=4), str(tmp_path / "b"))
        stages = [{"name": "stats", "corpus": "a", "out": "s.json"},
                  {"name": "stats", "corpus": "b", "out": "s.json"}]
        run_pipeline({"workspace": str(tmp_path), "stages": stages[:1]})
        first = sha256_of(tmp_path / "s.json")
        held_hashes(monkeypatch)
        report = run_pipeline({"workspace": str(tmp_path), "stages": stages})
        path = str(tmp_path / "s.json")
        assert report["stages"][0]["outputs"] == {path: first}
        assert report["stages"][1]["outputs"] == {path: sha256_of(path)}
        assert sha256_of(path) != first

    def test_failed_stage_reports_hex_digests(self, tmp_path, monkeypatch):
        write_corpus(make_random_docs(5, seed=3), str(tmp_path / "c"))
        held_hashes(monkeypatch)
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "stats", "corpus": "c", "out": "s.json"},
                             {"name": "fit", "obs": "s.json", "out": "f.json"}]}
        with pytest.raises(StageError, match="fit") as info:
            run_pipeline(config)
        with open(tmp_path / "run_report.json") as fh:
            assert json.load(fh) == info.value.report
        ok, failed = info.value.report["stages"]
        shard, out = str(tmp_path / "c.00000.jsonl"), str(tmp_path / "s.json")
        assert ok["inputs"] == {shard: sha256_of(shard)}
        assert ok["outputs"] == {out: sha256_of(out)}
        assert failed["status"] == "failed"

    @needs_proc_fd
    def test_failed_hash_fails_its_stage(self, tmp_path, monkeypatch):
        write_corpus(make_random_docs(5, seed=3), str(tmp_path / "c"))

        def failing(fh, buf=None, _hash=corpus_mod.sha256_file):
            if fh.name.endswith("s.json"):
                raise OSError("read error")
            return _hash(fh, buf)

        monkeypatch.setattr(corpus_mod, "sha256_file", failing)
        config = {"workspace": str(tmp_path),
                  "stages": [{"name": "stats", "corpus": "c", "out": "s.json"},
                             {"name": "stats", "corpus": "c", "out": "t.json"}]}
        before = process_state()
        with pytest.raises(StageError, match=re.escape(
                f"stage 'stats' failed: {tmp_path / 's.json'}: read error")) as info:
            run_pipeline(config)
        assert process_state() == before
        assert info.value.report["stages"] == [{
            "name": "stats", "status": "failed",
            "error": f"{tmp_path / 's.json'}: read error"}]
        with open(tmp_path / "run_report.json") as fh:
            assert json.load(fh) == info.value.report

    @needs_proc_fd
    def test_no_thread_or_file_outlives_the_run(self, tmp_path):
        write_corpus(make_random_docs(5, seed=3), str(tmp_path / "c"))
        stats = {"name": "stats", "corpus": "c", "out": "s.json"}
        fit = {"name": "fit", "obs": "s.json", "out": "f.json"}
        before = process_state()
        run_pipeline({"workspace": str(tmp_path), "stages": [stats]})
        assert process_state() == before
        with pytest.raises(StageError):
            run_pipeline({"workspace": str(tmp_path), "stages": [stats, fit]})
        assert process_state() == before

    def test_more_files_than_the_cap(self, tmp_path, monkeypatch):
        n = 3 * pipeline.MAX_PINNED + 1
        write_corpus(make_random_docs(n, seed=5), str(tmp_path / "c"),
                     docs_per_shard=1)
        open_at_pin = []

        class Counting(pipeline._Pinned):
            def __init__(self, *args):
                super().__init__(*args)
                pinned.append(self)
                open_at_pin.append(sum(not p.fh.closed for p in pinned))

        pinned = []
        monkeypatch.setattr(pipeline, "_Pinned", Counting)
        report = run_pipeline({"workspace": str(tmp_path), "stages": [
            {"name": "stats", "corpus": "c", "out": "s.json"}]})
        (stage,) = report["stages"]
        shards = sorted(str(p) for p in tmp_path.glob("c.*.jsonl"))
        assert len(shards) == n
        assert stage["inputs"] == {p: sha256_of(p) for p in shards}
        assert max(open_at_pin) == pipeline.MAX_PINNED


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_import_loads_no_http_client_package(self):
        # The HTTP annotator speaks urllib; numpy is the one dependency.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, corpusforge.cli; "
             "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=src), check=True,
            capture_output=True, text=True).stdout
        assert loaded.strip() == "[]"

    def test_stats_subcommand(self, tmp_path):
        docs = make_random_docs(10, seed=4)
        write_corpus(docs, str(tmp_path / "c"))
        out = tmp_path / "stats.json"
        code = main(["stats", "--corpus", str(tmp_path / "c"),
                     "--out", str(out),
                     "--report", str(tmp_path / "report.json")])
        assert code == 0
        assert json.loads(out.read_text())["total_docs"] == 10

    def test_missing_corpus_exits_2(self, tmp_path):
        code = main(["stats", "--corpus", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "s.json"),
                     "--report", str(tmp_path / "report.json")])
        assert code == 2

    def test_run_with_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"stages": [{"name": "bogus"}]}))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("make", [
        lambda path: None, pathlib.Path.mkdir,
        lambda path: path.write_bytes(b'{"stages": "\xff"}'),
        lambda path: path.write_text("{bad")],
        ids=["missing", "directory", "not_utf8", "not_json"])
    def test_unreadable_config_exits_2_and_names_it(self, tmp_path, capsys,
                                                    make):
        path = tmp_path / "cfg.json"
        make(path)
        assert main(["run", "--config", str(path)]) == 2
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (event["event"], event["field"]) == ("config_error", "config")
        assert str(path) in event["error"]

    def test_run_stage_failure_exits_1(self, tmp_path):
        docs = make_random_docs(5, seed=5)
        write_corpus(docs, str(tmp_path / "c"))
        cfg = {"workspace": str(tmp_path),
               "stages": [{"name": "fit", "obs": "c.00000.jsonl",
                           "out": "f.json"}]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 1

    def test_fit_and_optimize_subcommands(self, tmp_path):
        obs = tmp_path / "obs.jsonl"
        with open(obs, "w") as fh:
            for x in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
                fh.write(json.dumps({"x": x, "loss": 0.5 + 0.7 * x ** -0.3,
                                     "benchmark": "b"}) + "\n")
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--obs", str(obs), "--benchmark", "b",
                     "--out", str(fit_out),
                     "--report", str(tmp_path / "r1.json")]) == 0
        curve = json.loads(fit_out.read_text())
        assert abs(curve["alpha"] - -0.3) < 1e-3
        opt_out = tmp_path / "opt.json"
        assert main(["optimize", "--fits", str(fit_out),
                     "--domain", "0.05:0.6", "--step", "0.001",
                     "--out", str(opt_out),
                     "--report", str(tmp_path / "r2.json")]) == 0
        assert abs(json.loads(opt_out.read_text())["x_star"] - 0.6) < 1e-6


# The config `forge <stage>` builds for each subcommand form, stage keys
# with null values dropped; top-level keys other than the defaults below
# are given per case.
CLI_CASES = [
    (["stats", "--corpus", "c", "--out", "s.json"],
     {"name": "stats", "corpus": "c", "out": "s.json"}, {}),
    (["ingest", "--manifest", "m.json", "--out", "seed"],
     {"name": "ingest", "manifest": "m.json", "out": "seed"}, {}),
    (["frontier", "--seeds", "u.txt", "--graph", "g.jsonl", "--out", "f.json"],
     {"name": "frontier", "seeds": "u.txt", "graph": "g.jsonl",
      "out": "f.json", "levels": 3, "keywords": "doc,guide,reference",
      "filter_final": True}, {}),
    (["frontier", "--seeds", "u.txt", "--graph", "g.jsonl", "--levels", "2",
      "--keywords", "api,doc", "--no-filter", "--out", "f.json"],
     {"name": "frontier", "seeds": "u.txt", "graph": "g.jsonl",
      "out": "f.json", "levels": 2, "keywords": "api,doc",
      "filter_final": False}, {}),
    (["embed", "--corpus", "c", "--out", "v.jsonl", "--dims", "64",
      "--ngrams", "2:4", "--seed", "7"],
     {"name": "embed", "corpus": "c", "out": "v.jsonl", "dims": 64,
      "ngram_min": 2, "ngram_max": 4, "seed": 7}, {"rng_seed": 7}),
    (["embed", "--corpus", "c", "--out", "v.jsonl"],
     {"name": "embed", "corpus": "c", "out": "v.jsonl", "dims": 256,
      "ngram_min": 3, "ngram_max": 5, "seed": 0}, {}),
    (["retrieve", "--seeds", "a.jsonl", "--candidates", "b.jsonl", "--k", "5",
      "--out", "h.jsonl"],
     {"name": "retrieve", "seeds": "a.jsonl", "candidates": "b.jsonl",
      "k": 5, "out": "h.jsonl"}, {}),
    (["prune", "--vecs", "v.jsonl", "--threshold", "0.9",
      "--report-out", "p.json", "--report", "r.json"],
     {"name": "prune", "vecs": "v.jsonl", "threshold": 0.9,
      "report": "p.json"}, {"report": "r.json"}),
    (["prune", "--vecs", "v.jsonl", "--report-out", "p.json"],
     {"name": "prune", "vecs": "v.jsonl", "threshold": 0.95,
      "report": "p.json"}, {}),
    (["annotate", "--corpus", "c", "--labels", "l.jsonl", "--out", "a.jsonl"],
     {"name": "annotate", "corpus": "c", "out": "a.jsonl",
      "backend": {"kind": "file", "labels": "l.jsonl"}}, {}),
    (["annotate", "--corpus", "c", "--url", "http://127.0.0.1:9/",
      "--out", "a.jsonl"],
     {"name": "annotate", "corpus": "c", "out": "a.jsonl",
      "backend": {"kind": "http", "url": "http://127.0.0.1:9/"}}, {}),
    (["train-filter", "--corpus", "c", "--labels", "l.jsonl", "--out", "m.bin",
      "--dims", "32", "--lr", "0.2", "--word-ngram-max", "2",
      "--min-count", "1", "--epochs", "4", "--buckets", "1000",
      "--seed", "3"],
     {"name": "train-filter", "corpus": "c", "labels": "l.jsonl",
      "out": "m.bin", "dims": 32, "learning_rate": 0.2, "word_ngram_max": 2,
      "min_count": 1, "epochs": 4, "bucket_count": 1000, "seed": 3},
     {"rng_seed": 3}),
    (["train-filter", "--corpus", "c", "--labels", "l.jsonl", "--out", "m.bin"],
     {"name": "train-filter", "corpus": "c", "labels": "l.jsonl",
      "out": "m.bin", "dims": 256, "learning_rate": 0.1, "word_ngram_max": 3,
      "min_count": 3, "epochs": 3, "bucket_count": 2_000_000, "seed": 0},
     {}),
    (["score", "--model", "m.bin", "--corpus", "c", "--out", "s.jsonl"],
     {"name": "score", "model": "m.bin", "corpus": "c", "out": "s.jsonl"},
     {}),
    (["filter", "--corpus", "c", "--scores", "s.jsonl",
      "--keep-fraction", "0.4", "--out", "kept"],
     {"name": "filter", "corpus": "c", "scores": "s.jsonl",
      "keep_fraction": 0.4, "out": "kept"}, {}),
    (["fit", "--obs", "o.jsonl", "--benchmark", "b", "--out", "fit.json"],
     {"name": "fit", "obs": "o.jsonl", "benchmark": "b", "out": "fit.json"},
     {}),
    (["fit", "--obs", "o.jsonl", "--out", "fit.json"],
     {"name": "fit", "obs": "o.jsonl", "out": "fit.json"}, {}),
    (["optimize", "--fits", "a.json,b.json", "--weights", "1,2",
      "--domain", "0.1:0.5", "--step", "0.01", "--out", "o.json"],
     {"name": "optimize", "fits": "a.json,b.json", "weights": "1,2",
      "domain": "0.1:0.5", "step": 0.01, "out": "o.json"}, {}),
    (["optimize", "--fits", "a.json", "--out", "o.json"],
     {"name": "optimize", "fits": "a.json", "domain": "0.05:0.6",
      "step": 0.001, "out": "o.json"}, {}),
    (["mix", "--spec", "spec.json", "--pool", "agent=kept",
      "--pool", "text=t", "--out", "mixdir"],
     {"name": "mix", "spec": "spec.json",
      "pools": {"agent": "kept", "text": "t"}, "out": "mixdir"}, {}),
]


class TestCliConfig:
    @pytest.fixture
    def captured(self, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "run_pipeline", configs.append)
        return configs

    @pytest.mark.parametrize("argv,stage,top", CLI_CASES,
                             ids=[" ".join(c[0]) for c in CLI_CASES])
    def test_subcommand_builds_config(self, captured, argv, stage, top):
        assert main(argv) == 0
        (config,) = captured
        config["stages"] = [{k: v for k, v in s.items() if v is not None}
                            for s in config["stages"]]
        expected = {"workspace": ".", "rng_seed": 0,
                    "report": "run_report.json", **top, "stages": [stage]}
        assert config == expected

    @pytest.mark.parametrize("argv", [
        ["annotate", "--corpus", "c", "--out", "a.jsonl"],
        ["annotate", "--corpus", "c", "--labels", "l", "--url", "u",
         "--out", "a.jsonl"],
        ["mix", "--spec", "s.json", "--pool", "bad", "--out", "m"],
        ["embed", "--corpus", "c", "--out", "v", "--ngrams", "3"],
        ["embed", "--corpus", "c", "--out", "v", "--ngrams", "x:5"],
    ])
    def test_bad_hook_flags_exit_2(self, captured, capsys, argv):
        assert main(argv) == 2
        assert captured == []
        field = {"annotate": "annotate", "mix": "mix.pool",
                 "embed": "embed.ngrams"}[argv[0]]
        event = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (event["event"], event["field"]) == ("config_error", field)
