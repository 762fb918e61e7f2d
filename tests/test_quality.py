import gc
import json
import os
import random
import threading
import urllib.error
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock

import pytest

from corpusforge.classifier import FilterHyperparams, train_filter
from corpusforge.corpus import Document, read_corpus
from corpusforge.quality import (
    FileLabelBackend,
    HttpAnnotationBackend,
    LabeledSample,
    QualityError,
    annotate_batch,
    evaluate_filter,
    filter_by_rank,
    load_prompt_asset,
    metrics_from_confusion,
    parse_verdict,
    render_prompt,
    save_labels,
)

from conftest import build_pipeline_fixture, make_separable_samples


class StubAnnotationServer:
    """Local HTTP endpoint answering the n-th POST with the n-th scripted
    (status, body) reply, the last one repeating; by default every reply
    is 200 with the given completion. Records each request's headers and
    body."""

    def __init__(self, completion=None, replies=None):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                outer.requests.append((self.headers, self.rfile.read(length)))
                status, payload = outer.replies[
                    min(len(outer.requests), len(outer.replies)) - 1]
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        if replies is None:
            replies = [(200, json.dumps({"completion": completion}))]
        self.replies = [(status, body.encode()) for status, body in replies]
        self.requests = []
        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval, so that shutdown() returns at once.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01},
                                       daemon=True)

    @property
    def prompts(self):
        return [json.loads(body)["prompt"] for _, body in self.requests]

    def __enter__(self):
        self.thread.start()
        return f"http://127.0.0.1:{self.server.server_address[1]}/"

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


class TestVerdictParsing:
    @pytest.mark.parametrize("completion,expected", [
        ("agent", "agent"),
        ("Agent.", "agent"),
        ("This is GENERAL text", "general"),
        ("Verdict: agent", "agent"),
        ("no verdict here", None),
        ("", None),
    ])
    def test_first_classification_word(self, completion, expected):
        assert parse_verdict(completion) == expected


class TestPromptAssets:
    def test_annotator_template_loads_and_renders(self):
        template = load_prompt_asset()
        assert "{document}" in template
        rendered = render_prompt(template, "sample text")
        assert "sample text" in rendered
        assert "{document}" not in rendered

    def test_code_to_text_template_exists(self):
        assert load_prompt_asset("code_to_text.txt")


class TestAnnotateBatch:
    def _docs(self, n=3):
        return [Document(f"d{i}", "s", "text", f"doc number {i}")
                for i in range(n)]

    def test_file_backend_lookup(self, tmp_path):
        labels_path = tmp_path / "labels.jsonl"
        lines = [{"doc_id": "d0", "label": "agent", "annotator": "human"},
                 {"doc_id": "d1", "label": "general", "annotator": "human"},
                 {"doc_id": "d2", "label": "agent", "annotator": "human"}]
        labels_path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        backend = FileLabelBackend(str(labels_path))
        samples, errors = annotate_batch(self._docs(), backend)
        assert errors == []
        assert [(s.doc_id, s.label) for s in samples] == [
            ("d0", "agent"), ("d1", "general"), ("d2", "agent")]

    def test_file_backend_missing_doc_excluded(self, tmp_path):
        labels_path = tmp_path / "labels.jsonl"
        labels_path.write_text(json.dumps(
            {"doc_id": "d0", "label": "agent"}) + "\n")
        samples, errors = annotate_batch(self._docs(2),
                                         FileLabelBackend(str(labels_path)))
        assert [s.doc_id for s in samples] == ["d0"]
        assert [e[0] for e in errors] == ["d1"]

    def test_http_backend_all_agent(self):
        with StubAnnotationServer("agent") as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
            samples, errors = annotate_batch(self._docs(), backend)
        assert errors == []
        assert all(s.label == "agent" for s in samples)

    def test_http_backend_substitutes_document(self):
        server = StubAnnotationServer("general")
        with server as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
            annotate_batch(self._docs(1), backend)
        assert "doc number 0" in server.prompts[0]

    def test_http_unparseable_verdict_excluded(self):
        with StubAnnotationServer("no idea") as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
            samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert len(errors) == 2

    def test_unreachable_backend_recorded_per_doc(self):
        backend = HttpAnnotationBackend("http://127.0.0.1:1/", timeout=0.2,
                                        retries=0)
        samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert len(errors) == 2

    @pytest.mark.parametrize("reply", [["agent"], "agent", {"completion": 5}])
    def test_http_reply_without_completion_string_recorded_per_doc(self,
                                                                   reply):
        with StubAnnotationServer(replies=[(200, json.dumps(reply))]) as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
            samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1"]
        assert all("completion" in why for _, why in errors)

    def test_http_error_status_retried_then_recorded_per_doc(self):
        server = StubAnnotationServer(replies=[(500, "{}")])
        with server as url, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=1)
            samples, errors = annotate_batch(self._docs(2), backend)
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1"]
        # Two attempts for each document, in doc order.
        prompts = server.prompts
        assert len(prompts) == 4
        assert prompts[0] == prompts[1] != prompts[2] == prompts[3]

    def test_http_error_status_then_success_labels_doc(self):
        server = StubAnnotationServer(replies=[
            (503, "{}"), (200, json.dumps({"completion": "agent"}))])
        with server as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=1)
            samples, errors = annotate_batch(self._docs(1), backend)
        assert errors == []
        assert [(s.doc_id, s.label) for s in samples] == [("d0", "agent")]
        assert len(server.requests) == 2

    def test_http_reply_not_json_recorded_per_doc(self):
        with StubAnnotationServer(replies=[(200, "agent")]) as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
            samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1"]

    @pytest.mark.parametrize("url", ["not a url", "http://"])
    def test_malformed_url_recorded_per_doc(self, url):
        backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
        samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1"]

    def test_file_url_not_read(self, tmp_path):
        # Only http and https are spoken: a local file holding a valid
        # reply labels nothing.
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps({"completion": "agent"}))
        backend = HttpAnnotationBackend(reply.as_uri(), timeout=5.0,
                                        retries=0)
        samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1"]

    def test_http_client_error_not_retried(self):
        server = StubAnnotationServer(replies=[(404, "{}")])
        with server as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=2)
            samples, errors = annotate_batch(self._docs(2), backend)
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1"]
        assert all("404" in why for _, why in errors)
        assert len(server.requests) == 2  # one per document

    @pytest.mark.parametrize("status", [408, 429])
    def test_http_timeout_and_rate_limit_retried(self, status):
        server = StubAnnotationServer(replies=[
            (status, "{}"), (200, json.dumps({"completion": "agent"}))])
        with server as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=1)
            samples, errors = annotate_batch(self._docs(1), backend)
        assert errors == []
        assert [(s.doc_id, s.label) for s in samples] == [("d0", "agent")]
        assert len(server.requests) == 2

    @pytest.mark.parametrize("url", [None, "not a url", "http://",
                                     "ftp://127.0.0.1/reply.json"])
    def test_unusable_url_fails_without_backoff(self, tmp_path, url):
        reply = tmp_path / "reply.json"
        reply.write_text(json.dumps({"completion": "agent"}))
        backend = HttpAnnotationBackend(url or reply.as_uri(), timeout=5.0,
                                        retries=2)
        with mock.patch("time.sleep") as sleep:
            samples, errors = annotate_batch(self._docs(3), backend)
        sleep.assert_not_called()
        assert samples == []
        assert [doc_id for doc_id, _ in errors] == ["d0", "d1", "d2"]

    def test_each_attempt_sends_a_new_request_through_a_proxy(self):
        # A proxy rewrites the Request it sends (set_proxy): resending the
        # same object would send the third attempt as plain http.
        seen = []

        class Refused(urllib.request.HTTPSHandler):
            def https_open(self, req):
                seen.append((req, req.type, req.selector, req._tunnel_host))
                raise urllib.error.URLError("refused")

        class RefusedPlain(urllib.request.HTTPHandler):
            http_open = Refused.https_open

        opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({"https": "http://proxy.invalid:3128"}),
            Refused, RefusedPlain)
        backend = HttpAnnotationBackend("https://annotator.invalid/v1",
                                        timeout=5.0, retries=2)
        with mock.patch("urllib.request.urlopen", opener.open), \
                mock.patch("time.sleep"):
            samples, errors = annotate_batch(self._docs(1), backend)
        assert samples == [] and [d for d, _ in errors] == ["d0"]
        assert [entry[1:] for entry in seen] == [
            ("https", "/v1", "annotator.invalid")] * 3
        assert len({id(entry[0]) for entry in seen}) == 3

    def test_http_request_is_json(self):
        server = StubAnnotationServer("agent")
        with server as url:
            backend = HttpAnnotationBackend(url, timeout=5.0, retries=0)
            annotate_batch(self._docs(1), backend)
        (headers, body), = server.requests
        assert headers["Content-Type"] == "application/json"
        assert list(json.loads(body)) == ["prompt"]

    def test_labels_file_round_trip(self, tmp_path):
        samples = [LabeledSample("d0", "agent", "test")]
        path = tmp_path / "out.jsonl"
        save_labels(samples, str(path))
        backend = FileLabelBackend(str(path))
        assert backend.samples == {"d0": samples[0]}

    @pytest.mark.parametrize("doc_id", ['["d0"]', "7"])
    def test_non_string_doc_id_names_line(self, tmp_path, doc_id):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"doc_id": "d1", "label": "agent"}\n'
                        '{"doc_id": %s, "label": "agent"}\n' % doc_id)
        with pytest.raises(QualityError, match=r"labels\.jsonl:2: .*string"):
            FileLabelBackend(str(path))

    def test_non_string_annotator_names_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"doc_id": "d0", "label": "agent", "annotator": 5}\n')
        with pytest.raises(QualityError,
                           match=r"labels\.jsonl:1: annotator must be a string"):
            FileLabelBackend(str(path))

    def test_repeated_doc_id_names_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"doc_id": "d0", "label": "agent"}\n'
                        '{"doc_id": "d1", "label": "agent"}\n'
                        '{"doc_id": "d0", "label": "general"}\n')
        with pytest.raises(QualityError,
                           match=r"labels\.jsonl:3: duplicate doc_id 'd0'"):
            FileLabelBackend(str(path))

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_bytes(b'{"doc_id": "d0", "label": "agent"}\n'
                         b'{"doc_id": "d1\xff", "label": "agent"}\n')
        with pytest.raises(QualityError, match=r"labels\.jsonl:2: invalid "
                           r"UTF-8 byte 0xff"):
            FileLabelBackend(str(path))

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        save_labels([LabeledSample("d0", "agent", "test")], str(path))
        before = path.read_bytes()

        def samples():
            yield LabeledSample("d1", "general", "test")
            raise RuntimeError("annotator went away")

        with pytest.raises(RuntimeError, match="went away"):
            save_labels(samples(), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["labels.jsonl"]

    def test_invalid_label_rejected(self):
        with pytest.raises(QualityError):
            LabeledSample("d0", "maybe", "test")


@pytest.fixture(scope="module")
def model():
    samples = make_separable_samples(400, seed=5)
    return train_filter(samples, FilterHyperparams(rng_seed=3))


class TestEvaluateFilter:
    def test_perfect_predictor_all_ones(self, model):
        labeled = make_separable_samples(200, seed=6)
        metrics = evaluate_filter(model, labeled)
        assert metrics.accuracy == 1.0
        assert metrics.f1 == 1.0
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0
        (tp, fn), (fp, tn) = metrics.confusion
        assert fn == 0 and fp == 0

    def test_matches_independent_tally(self, model):
        labeled = make_separable_samples(20000, seed=44)
        metrics = evaluate_filter(model, labeled)
        # Independent tally: separate pass, separate counting code.
        tp = fn = fp = tn = 0
        for text, label in labeled:
            pred = "agent" if model.predict_score(text) >= 0.5 else "general"
            if label == "agent" and pred == "agent":
                tp += 1
            elif label == "agent":
                fn += 1
            elif pred == "agent":
                fp += 1
            else:
                tn += 1
        assert metrics.confusion == [[tp, fn], [fp, tn]]
        assert abs(metrics.accuracy - (tp + tn) / 20000) < 1e-12

    def test_metrics_recomputable_from_confusion(self, model):
        labeled = make_separable_samples(500, seed=13)
        m = evaluate_filter(model, labeled)
        (tp, fn), (fp, tn) = m.confusion
        again = metrics_from_confusion(tp, fn, fp, tn)
        assert again.accuracy == m.accuracy
        assert again.f1 == m.f1
        assert again.precision == m.precision
        assert again.recall == m.recall

    def test_zero_division_conventions(self):
        m = metrics_from_confusion(0, 0, 0, 5)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_empty_set_rejected(self, model):
        with pytest.raises(QualityError):
            evaluate_filter(model, [])

    def test_unknown_label_rejected_before_scoring_its_text(self):
        class CountingModel:
            calls = 0

            def predict_score(self, text):
                self.calls += 1
                return 0.9

        model = CountingModel()
        with pytest.raises(QualityError, match="unknown label 'spam'"):
            evaluate_filter(model, [("a", "agent"), ("b", "spam"),
                                    ("c", "general")])
        assert model.calls == 1


class TestDefaultFilterLearns:
    def test_holdout_of_the_pipeline_fixture(self, tmp_path):
        # The default hyperparameters, trained on 80% of the fixture's
        # labelled web docs, separate the other 20% with a margin.
        build_pipeline_fixture(tmp_path)
        labeled = FileLabelBackend(str(tmp_path / "web_labels.jsonl")).samples
        samples = [(doc.text, labeled[doc.id].label)
                   for doc in read_corpus(str(tmp_path / "web"))
                   if doc.id in labeled]
        random.Random(0).shuffle(samples)
        cut = int(0.8 * len(samples))
        model = train_filter(samples[:cut], FilterHyperparams())
        holdout = samples[cut:]
        assert model.epoch_losses[-1] < 0.3
        assert evaluate_filter(model, holdout).accuracy >= 0.95
        for text, label in holdout:
            margin = model.predict_score(text) - 0.5
            assert (margin if label == "agent" else -margin) >= 0.1


class TestFilterByRank:
    def _scored(self, n, seed=17):
        import numpy as np
        rng = np.random.default_rng(seed)
        docs = []
        for i in range(n):
            length = int(rng.integers(1, 50))
            docs.append((Document(f"d{i:05d}", "s", "text",
                                  " ".join(["w"] * length)),
                         float(rng.random())))
        return docs

    def test_keep_all(self):
        scored = self._scored(10)
        kept = filter_by_rank(scored, 1.0)
        assert len(kept) == 10
        scores = [float(d.meta["filter_score"]) for d in kept]
        assert scores == sorted(scores, reverse=True)

    def test_forty_percent_equal_lengths(self):
        docs = [(Document(f"d{i:03d}", "s", "text", "a b c d e"),
                 i / 100) for i in range(100)]
        kept = filter_by_rank(docs, 0.4)
        assert len(kept) == 40
        assert all(float(d.meta["filter_score"]) >= 0.60 for d in kept)

    def test_matches_sort_and_scan_oracle(self):
        scored = self._scored(1000)
        kept = filter_by_rank(scored, 0.4)
        ranked = sorted(scored, key=lambda p: (-p[1], p[0].id))
        total = sum(d.token_count for d, _ in scored)
        cum, expected = 0, []
        for doc, _ in ranked:
            if cum >= 0.4 * total:
                break
            expected.append(doc.id)
            cum += doc.token_count
        assert [d.id for d in kept] == expected

    def test_kept_tokens_within_one_doc_of_target(self):
        scored = self._scored(1000, seed=23)
        total = sum(d.token_count for d, _ in scored)
        kept = filter_by_rank(scored, 0.4)
        kept_tokens = sum(d.token_count for d in kept)
        max_doc = max(d.token_count for d, _ in scored)
        assert kept_tokens >= 0.4 * total
        assert kept_tokens - 0.4 * total <= max_doc

    def test_monotone_in_fraction(self):
        scored = self._scored(300, seed=29)
        small = {d.id for d in filter_by_rank(scored, 0.2)}
        large = {d.id for d in filter_by_rank(scored, 0.6)}
        assert small <= large

    def test_bad_fraction(self):
        with pytest.raises(QualityError):
            filter_by_rank(self._scored(5), 0.0)
        with pytest.raises(QualityError):
            filter_by_rank(self._scored(5), 1.5)

    def test_bad_score(self):
        doc = Document("d", "s", "text", "x")
        with pytest.raises(QualityError):
            filter_by_rank([(doc, 1.5)], 0.5)
