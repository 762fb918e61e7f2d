"""Quality-control stage: annotation ingestion, filter evaluation, and
rank-and-keep filtering at a target token fraction.

Annotation runs against either a file of precomputed labels or a generic
HTTP JSON endpoint that receives the annotator prompt and returns a
completion containing a binary verdict.
"""

import json
import re
import time
from collections import Counter
from dataclasses import asdict, dataclass

from .classifier import LABELS
from .corpus import read_keyed, write_lines

ANNOTATOR_PROMPT_ASSET = "llm_annotator.txt"

_VERDICT_RE = re.compile(r"[a-zA-Z]+")


class QualityError(Exception):
    pass


@dataclass(frozen=True)
class LabeledSample:
    doc_id: str
    label: str
    annotator: str

    def __post_init__(self):
        for name in ("doc_id", "annotator"):
            if not isinstance(value := getattr(self, name), str):
                raise QualityError(f"{name} must be a string, got {value!r}")
        if self.label not in LABELS:
            raise QualityError(f"label must be one of {LABELS}, got {self.label!r}")


@dataclass
class FilterMetrics:
    accuracy: float
    f1: float
    precision: float
    recall: float
    confusion: list  # [[tp, fn], [fp, tn]] with agent as the positive class


def load_prompt_asset(name: str = ANNOTATOR_PROMPT_ASSET) -> str:
    from importlib import resources
    ref = resources.files("corpusforge").joinpath("assets", "prompts", name)
    return ref.read_text(encoding="utf-8")


def render_prompt(template: str, text: str) -> str:
    return template.replace("{document}", text)


def parse_verdict(completion: str):
    """First classification word in the response, case-insensitive.

    Returns "agent" or "general", or None when no verdict word appears.
    """
    for word in _VERDICT_RE.findall(completion):
        lowered = word.lower()
        if lowered in LABELS:
            return lowered
    return None


class FileLabelBackend:
    """Lookup of precomputed labels from a JSONL labels file."""

    name = "file"

    def __init__(self, path: str):
        self.samples = read_keyed(path, "doc_id", lambda obj, _: LabeledSample(
            obj["doc_id"], obj["label"], obj.get("annotator", "file")),
            QualityError)

    def annotate(self, doc, prompt: str):
        sample = self.samples.get(doc.id)
        return (sample.label, sample.annotator) if sample else (None, None)


class HttpAnnotationBackend:
    """POST {"prompt": ...} -> {"completion": ...} against a JSON endpoint."""

    name = "http"

    def __init__(self, url: str, timeout: float = 30.0, retries: int = 2):
        self.url = url
        self.timeout = timeout
        self.retries = retries

    def annotate(self, doc, prompt: str):
        # Loaded here, not with the module: urllib.request pulls in ssl.
        import http.client
        import urllib.error
        import urllib.request
        body = json.dumps({"prompt": prompt}).encode()
        try:  # no retry mends a URL that is not http(s) with a host
            request = urllib.request.Request(self.url)
            if request.type not in ("http", "https") or not request.host:
                raise ValueError(f"not an http(s) URL: {self.url!r}")
        except ValueError as exc:
            raise QualityError(f"annotation request failed: {exc}") from exc
        last_exc = None
        for attempt in range(self.retries + 1):
            try:  # a new Request per attempt: a proxy rewrites the one it sends
                request = urllib.request.Request(
                    self.url, body, {"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    reply = json.loads(resp.read())
                completion = (reply.get("completion", "")
                              if isinstance(reply, dict) else None)
                if not isinstance(completion, str):
                    raise QualityError("annotation reply has no completion "
                                       f"string: {reply!r:.200}")
                return parse_verdict(completion), self.name
            except (OSError, ValueError, http.client.HTTPException) as exc:
                last_exc = exc
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # it holds the error response's socket
                    if 400 <= exc.code < 500 and exc.code not in (408, 429):
                        break  # no retry mends the request
                if attempt < self.retries:
                    time.sleep(min(0.1 * 2 ** attempt, 2.0))
        raise QualityError(f"annotation request failed: {last_exc}")


def annotate_batch(docs, backend):
    """Annotate documents, returning (samples, errors).

    Per-document failures are recorded and the batch continues; documents
    with no parseable verdict are excluded. Results are ordered by doc_id.
    """
    prompt_template = load_prompt_asset()
    samples = []
    errors = []
    for doc in sorted(docs, key=lambda d: d.id):
        prompt = render_prompt(prompt_template, doc.text)
        try:
            label, annotator = backend.annotate(doc, prompt)
        except QualityError as exc:
            errors.append((doc.id, str(exc)))
            continue
        if label is None:
            errors.append((doc.id, "no parseable verdict"))
            continue
        samples.append(LabeledSample(doc.id, label, annotator))
    return samples, errors


def metrics_from_confusion(tp: int, fn: int, fp: int, tn: int) -> FilterMetrics:
    total = tp + fn + fp + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return FilterMetrics(accuracy, f1, precision, recall, [[tp, fn], [fp, tn]])


def evaluate_filter(model, labeled_texts) -> FilterMetrics:
    """Confusion-matrix evaluation of the trained filter.

    labeled_texts yields (text, label) pairs; agent is the positive class
    and the hard-decision threshold is 0.5 (score >= 0.5 predicts agent).
    """
    pairs = Counter()
    for text, label in labeled_texts:
        if label not in LABELS:
            raise QualityError(f"unknown label {label!r}")
        pairs[label, model.predict_score(text) >= 0.5] += 1
    if not pairs:
        raise QualityError("empty labeled set")
    return metrics_from_confusion(
        tp=pairs["agent", True], fn=pairs["agent", False],
        fp=pairs["general", True], tn=pairs["general", False])


def filter_by_rank(scored, keep_token_fraction: float) -> list:
    """Keep the top-scoring documents up to a token-budget fraction.

    Documents sort by (score desc, id asc); the kept prefix is the
    shortest whose cumulative token count reaches keep_token_fraction of
    the total. Kept documents carry meta["filter_score"].
    """
    if not 0.0 < keep_token_fraction <= 1.0:
        raise QualityError(
            f"keep_token_fraction must be in (0, 1], got {keep_token_fraction}")
    scored = list(scored)
    for _, score in scored:
        if not 0.0 <= score <= 1.0:
            raise QualityError(f"score out of [0, 1]: {score}")

    total = sum(doc.token_count for doc, _ in scored)
    target = keep_token_fraction * total
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0].id))

    kept = []
    cumulative = 0
    for doc, score in ranked:
        if cumulative >= target:
            break
        kept.append(doc.with_meta(filter_score=repr(score)))
        cumulative += doc.token_count
    return kept


def save_labels(samples, path: str) -> None:
    write_lines(path, (json.dumps(asdict(s)) for s in samples))
