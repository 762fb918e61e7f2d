"""Declarative pipeline runner: one JSON config drives every stage.

Stages run sequentially in config order; each stage reads and writes
config-declared paths under the workspace. The run report records
per-stage input/output SHA-256 hashes, durations, and key stats so the
full provenance chain from the final mix back to the raw inputs is
reconstructible from the report alone. An input's digest is of the bytes
the stage read and an output's of the bytes it wrote, pinned when the stage
declares the input and when it finishes; a file is hashed once per version.
A file under LARGE_FILE bytes is hashed then, on the runner's thread. A
larger one is only opened then, which pins its bytes, and is hashed on a
second thread while the run goes on (`Digests`); the run waits for those
digests before it writes, returns or attaches a report. So a stage's
`duration_s` includes hashing its small inputs but not its large ones, and
never its outputs. The run table (`corpus`) also hashes a corpus shard or
vectors file each time a stage reads it, to find the parse of those bytes.
"""

import inspect
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import ingest as ingest_mod
from . import mix as mix_mod
from . import quality as quality_mod
from . import retrieve as retrieve_mod
from . import scaling as scaling_mod
from .classifier import FilterHyperparams, load_model, save_model, train_filter
from .corpus import (Document, compute_stats, convert, read_corpus,
                     read_jsonl, read_keyed, read_lines, write_corpus,
                     write_json, write_lines)


class ConfigError(Exception):
    """Config schema violation; maps to exit code 2."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class StageError(Exception):
    """A stage failed at run time; maps to exit code 1."""


def log_event(**fields):
    print(json.dumps(fields, sort_keys=True), file=sys.stderr)


# ----------------------------------------------------------------------
# The stage table. A stage body declares its config fields as keyword
# parameters whose defaults are `Field`s, and the CLI builds each
# `forge <stage>` subparser from the same fields.

IN, OUT, VALUE = "in", "out", "value"
REQUIRED = object()  # default of a field that must be set
RUN_SEED = object()  # default of a field that takes the run's rng_seed


@dataclass(frozen=True)
class Field:
    """One key of a config object, read by `read_fields`: of the root, a
    stage (named by the body's parameter), an `annotate` backend or the
    `mix` pools. kind is IN (an input path), OUT (an output path) or VALUE.

    The field's `forge <stage>` flag is `flag`, or --key with "_" -> "-"
    when `flag` is empty; None means the field has no flag of its own and
    a CLI hook or --seed sets it.
    """

    type: Callable = str
    default: object = REQUIRED
    kind: str = VALUE
    flag: str | None = ""
    help: str | None = None


INPUT = Field(kind=IN)
OUTPUT = Field(kind=OUT)


def sha256_file(path: str) -> str:
    """The hex SHA-256 of the file at path, hashed on the calling thread."""
    with open(path, "rb", buffering=0) as fh:
        return corpus_mod.sha256_file(fh)


LARGE_FILE = 16 << 20  # bytes; a smaller file's thread cost more than it saved
MAX_PINNED = 4  # large files held open unhashed; past it, wait for the oldest


class _Pinned:
    """The digest of a file opened on the runner's thread and hashed on a
    thread of its own once the thread of `before` is done, so that the
    threads take turns with the one buffer. `stage` is the report index of
    the stage that read or wrote the file."""

    def __init__(self, path: str, stage: int, buf: bytearray, before):
        self.path, self.stage = path, stage
        self.hex = self.error = None
        self.fh = open(path, "rb", buffering=0)
        self.thread = threading.Thread(target=self._hash, args=(buf, before))
        try:
            self.thread.start()
        except BaseException:
            self.fh.close()
            raise

    def _hash(self, buf, before):
        if before is not None:
            before.thread.join()
        try:
            self.hex = corpus_mod.sha256_file(self.fh, buf)
        except Exception as exc:  # the runner raises it in `Digests.close`
            self.error = exc

    def wait(self):
        self.thread.join()
        self.fh.close()


class Digests:
    """The digest of each file version the run has hashed, by path.

    A file under LARGE_FILE bytes is hashed by sha256_file when asked. A
    larger one is opened then, which pins those bytes: every writer
    replaces its path with os.replace (`corpus.replacing`), so the handle
    keeps reading the old file. It is hashed on a second thread while the
    run goes on, and its digest is a _Pinned until `close`.
    """

    def __init__(self):
        self.latest = {}  # path -> hex digest or _Pinned
        self.pinned = []  # every _Pinned of the run, oldest first
        self.waited = 0  # how many of them were waited for
        self.buf = None  # the hashing threads' read buffer, made on this one

    def hash(self, path: str, stage: int):
        """The digest of the bytes now at path, for stage `stage`."""
        if os.path.getsize(path) < LARGE_FILE:
            digest = sha256_file(path)
        else:
            if len(self.pinned) - self.waited >= MAX_PINNED:
                self.pinned[self.waited].wait()
                self.waited += 1
            if self.buf is None:
                self.buf = bytearray(corpus_mod.HASH_CHUNK)
            digest = _Pinned(path, stage, self.buf,
                             self.pinned[-1] if self.pinned else None)
            self.pinned.append(digest)
        self.latest[path] = digest
        return digest

    def close(self):
        """Wait for every pinned file to be hashed and closed; return the
        oldest whose hash failed, or None."""
        while self.waited < len(self.pinned):
            self.pinned[self.waited].wait()
            self.waited += 1
        return next((p for p in self.pinned if p.error is not None), None)


class StageRun:
    """Per-call state of one stage: the workspace, the run's seed and
    digests, the stage's report index and the digests of the inputs it
    declared (its own, its backend's, its pools')."""

    def __init__(self, workspace: str, seed: int, digests: Digests,
                 index: int):
        self.workspace = workspace
        self.seed = seed
        self.digests = digests
        self.index = index
        self.inputs = {}

    def resolve(self, path: str) -> str:
        return os.path.join(self.workspace, path)  # keeps an absolute path

    def input(self, path: str, field: str) -> str:
        """Resolve an input path, check that it names a file or shards and
        record the digest of each, hashed unless the run has it."""
        path = self.resolve(path)
        paths = corpus_mod.shard_paths(path)
        if not paths:
            raise ConfigError(field, f"no input file or shards at {path}")
        for p in paths:
            if p not in self.digests.latest:
                self.digests.hash(p, self.index)
            self.inputs[p] = self.digests.latest[p]
        return path


def read_fields(where: str, fields: dict, obj: dict, run=None) -> dict:
    """The values of config object `obj`, keyed as its table `fields`.

    In table order, a missing or null key takes its default (given in
    config form; RUN_SEED is run.seed), the value is converted by the
    field's type, an OUT path is resolved and an IN path declared in `run`.
    Then a key the table lacks is refused. A ConfigError names the key
    after `where`, as in "stages[mix].pools.agent".
    """
    values = {}
    for key, f in fields.items():
        value = obj.get(key)
        if value is None:
            value = run.seed if f.default is RUN_SEED else f.default
        if value is REQUIRED:
            raise ConfigError(where + key, "missing required field")
        if value is not None:
            try:
                value = convert(f.type, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(where + key, str(exc)) from exc
            if f.kind == IN:
                value = run.input(value, where + key)
            elif f.kind == OUT:
                value = run.resolve(value)
        values[key] = value
    unknown = sorted(obj.keys() - fields.keys())
    if unknown:
        raise ConfigError(where + unknown[0], "unknown key")
    return values


class Stage:
    """A stage body and the fields its signature declares.

    `body(run, **fields)` returns (output_paths, stats), the output paths
    being exactly the files it wrote. Called with (stage_dict, run), the
    stage runs the body on the values of the dict's keys but `name`."""

    def __init__(self, name: str, help: str, body: Callable):
        self.name = name
        self.help = help
        self.body = body
        params = list(inspect.signature(body).parameters.values())[1:]
        self.fields = {p.name: p.default for p in params}

    def __call__(self, stage: dict, run: StageRun):
        keys = {k: v for k, v in stage.items() if k != "name"}
        return self.body(run, **read_fields(f"stages[{self.name}].",
                                            self.fields, keys, run))


def _listed(cast):
    """A list value, also accepted as a comma-separated string."""
    def convert_list(value):
        if isinstance(value, str):
            return [cast(v) for v in value.split(",") if v]
        return [convert(cast, v) for v in convert(list, value)]
    return convert_list


def _span(value):
    """A [lo, hi] pair of floats, also accepted as a "lo:hi" string."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(":")]
    lo, hi = value
    return [convert(float, lo), convert(float, hi)]


# Bodies look up corpus and model functions as module globals at call time.


def _stats(run, corpus=INPUT, out=OUTPUT):
    stats = asdict(compute_stats(read_corpus(corpus)))
    write_json(out, stats)
    return [out], stats


def _ingest(run, manifest=INPUT, out=OUTPUT):
    sources = ingest_mod.load_sources(manifest)

    def docs():
        for spec in sources:
            if not spec.origin:
                continue
            data_class = ingest_mod.KIND_TO_CLASS[spec.kind]

            def parse(obj, lineno):
                if not (isinstance(obj, dict)
                        and isinstance(obj.get("text"), str)
                        and isinstance(obj.get("id", ""), str)):
                    raise ingest_mod.IngestError(
                        'expected a JSON object with a string "text" and an '
                        'optional string "id"')
                # Default ids count physical lines, blank ones included.
                return Document(obj.get("id", f"{spec.name}:{lineno}"),
                                spec.name, data_class, obj["text"],
                                meta={"origin": spec.origin})
            yield from read_jsonl(run.input(spec.origin, "stages[ingest].origin"), parse,
                                  ingest_mod.IngestError)

    paths = write_corpus(docs(), out)
    return paths, {"sources": len(sources), "shards": len(paths)}


def _frontier(run, seeds=INPUT, graph=INPUT, out=OUTPUT,
              levels=Field(int, 3),
              keywords=Field(_listed(str),
                             ",".join(ingest_mod.DEFAULT_DOC_KEYWORDS)),
              filter_final=Field(bool, True, flag="--no-filter",
                                 help="skip the documentation-keyword filter")):
    seed_urls = {url for _, url in read_lines(seeds, ingest_mod.IngestError)}
    link_graph = ingest_mod.load_link_graph(graph)
    frontier = ingest_mod.expand_url_frontier(seed_urls, link_graph, levels)
    all_urls = frontier.all_urls()
    kept = (ingest_mod.filter_doc_urls(all_urls, keywords)
            if filter_final else all_urls)
    write_json(out, {
        "levels": [sorted(level) for level in frontier.levels],
        "rejected_seeds": frontier.rejected_seeds,
        "doc_urls": sorted(kept),
    })
    level_sizes = [len(level) for level in frontier.levels]
    return [out], {"level_sizes": level_sizes, "doc_urls": len(kept)}


def _embed(run, corpus=INPUT, out=OUTPUT, dims=Field(int, 256),
           ngram_min=Field(int, 3, flag=None),
           ngram_max=Field(int, 5, flag=None),
           seed=Field(int, RUN_SEED, flag=None)):
    cfg = embed_mod.EmbedderConfig(dims=dims, ngram_min=ngram_min,
                                   ngram_max=ngram_max, hash_seed=seed)
    vectors = embed_mod.Embeddings.from_rows(
        {doc.id: embed_mod.embed_document(doc, cfg)
         for doc in read_corpus(corpus)}, dims)
    embed_mod.save_embeddings(vectors, out)
    return [out], {"vectors": len(vectors)}


def _retrieve(run, seeds=INPUT, candidates=INPUT, out=OUTPUT, k=Field(int)):
    hits = retrieve_mod.retrieve_top_k(
        embed_mod.load_external_embeddings(seeds),
        embed_mod.load_external_embeddings(candidates), k)
    retrieve_mod.save_hits(hits, out)
    return [out], {"hits": len(hits)}


def _prune(run, vecs=INPUT, report=Field(kind=OUT, flag="--report-out"),
           threshold=Field(float, 0.95)):
    result = retrieve_mod.prune_redundant(
        embed_mod.load_external_embeddings(vecs), threshold)
    write_json(report, asdict(result))
    return [report], {"retained": len(result.retained_ids),
                      "removed": len(result.removed_pairs)}


# Backend kind -> its class and its fields, in the class's parameter order.
BACKENDS = {"file": (quality_mod.FileLabelBackend, {"labels": INPUT}),
            "http": (quality_mod.HttpAnnotationBackend,
                     {"url": Field(), "timeout": Field(float, 30.0),
                      "retries": Field(int, 2)})}


def _annotate(run, corpus=INPUT, out=OUTPUT,
              backend=Field(dict, flag=None)):
    kind = backend.pop("kind", None)  # from the field's copy, dict(value)
    if kind not in list(BACKENDS):  # compared, so an unhashable kind is refused
        raise ConfigError("stages[annotate].backend.kind",
                          f"must be 'file' or 'http', got {kind!r}")
    cls, fields = BACKENDS[kind]
    annotator = cls(*read_fields("stages[annotate].backend.", fields,
                                 backend, run).values())
    samples, errors = quality_mod.annotate_batch(read_corpus(corpus), annotator)
    quality_mod.save_labels(samples, out)
    return [out], {"labeled": len(samples), "errors": len(errors)}


def _train_filter(run, corpus=INPUT, labels=INPUT, out=OUTPUT,
                  dims=Field(int, 256),
                  learning_rate=Field(float, 0.1, flag="--lr"),
                  word_ngram_max=Field(int, 3), min_count=Field(int, 3),
                  epochs=Field(int, 3),
                  bucket_count=Field(int, 2_000_000, flag="--buckets"),
                  seed=Field(int, RUN_SEED, flag=None)):
    labeled = quality_mod.FileLabelBackend(labels).samples
    samples = [(doc.text, labeled[doc.id].label) for doc in read_corpus(corpus)
               if doc.id in labeled]
    model = train_filter(samples, FilterHyperparams(
        dims=dims, learning_rate=learning_rate, word_ngram_max=word_ngram_max,
        min_count=min_count, epochs=epochs, bucket_count=bucket_count,
        rng_seed=seed))
    save_model(model, out)
    return [out], {"samples": len(samples), "epoch_losses": model.epoch_losses,
                   "dropped": {"no_doc": len(labeled) - len(samples)}}


def _score(run, model=INPUT, corpus=INPUT, out=OUTPUT):
    classifier = load_model(model)
    n = write_lines(out, (json.dumps({"id": doc.id,
                                      "score": classifier.predict_score(doc.text)})
                          for doc in read_corpus(corpus)))
    return [out], {"scored": n}


def _filter(run, corpus=INPUT, scores=INPUT, out=OUTPUT,
            keep_fraction=Field(float)):
    def parse(obj, _):
        if not 0.0 <= (score := convert(float, obj["score"])) <= 1.0:
            raise quality_mod.QualityError(
                f"score must be a number in [0, 1], got {score!r}")
        return score

    score_of = read_keyed(scores, "id", parse, quality_mod.QualityError)
    scored, no_score = [], 0
    for doc in read_corpus(corpus):
        if doc.id in score_of:
            scored.append((doc, score_of[doc.id]))
        else:
            no_score += 1
    kept = quality_mod.filter_by_rank(scored, keep_fraction)
    paths = write_corpus(kept, out)
    kept_tokens = sum(d.token_count for d in kept)
    return paths, {"kept_docs": len(kept), "kept_tokens": kept_tokens,
                   "dropped": {"no_score": no_score}}


def _fit(run, obs=INPUT, out=OUTPUT, benchmark=Field(str, None)):
    observations = scaling_mod.load_observations(obs)
    curve = scaling_mod.fit_power_law(observations, benchmark)
    payload = asdict(curve)
    payload["n_obs"] = len([o for o in observations
                            if benchmark is None or o.benchmark == benchmark])
    write_json(out, payload)
    return [out], payload


def _optimize(run, fits=Field(_listed(str),
                              help="comma-separated fit-report paths"),
              out=OUTPUT, weights=Field(_listed(float), None),
              domain=Field(_span, "0.05:0.6"), step=Field(float, 1e-3)):
    curves = [scaling_mod.load_curve(run.input(p, "stages[optimize].fits"))
              for p in fits]
    if weights is None:
        weights = [1.0] * len(curves)
    x_star, loss = scaling_mod.optimal_mix_ratio(curves, weights,
                                                 tuple(domain), step)
    payload = {"x_star": x_star, "aggregate_loss": loss,
               "weights": weights, "domain": domain, "step": step}
    write_json(out, payload)
    return [out], payload


def _mix(run, spec=INPUT, pools=Field(dict, flag=None), out=OUTPUT):
    mix_spec = mix_mod.MixSpec.from_file(spec)
    prefixes = read_fields("stages[mix].pools.", {
        name: Field(kind=IN, default=REQUIRED if ratio else None)
        for name, ratio in mix_spec.ratios.items()}, pools, run)
    corpora = {name: list(read_corpus(prefix))
               for name, prefix in prefixes.items() if prefix is not None}
    manifest, paths = mix_mod.compose_to_dir(corpora, mix_spec, out)
    check = mix_mod.verify_manifest(manifest, os.path.join(out, "mix"))
    realized = {n: e["realized_tokens"] for n, e in manifest.per_class.items()}
    return paths, {"realized_tokens": realized, "verify_manifest": {
        "ok": check["ok"], "max_deviation": check["max_deviation"]}}


STAGES = {name: Stage(name, help, body) for name, help, body in (
    ("stats", "per-class token statistics", _stats),
    ("ingest", "build a corpus from a source manifest", _ingest),
    ("frontier", "expand a URL frontier over a link graph", _frontier),
    ("embed", "embed a corpus into JSONL vectors", _embed),
    ("retrieve", "top-K retrieval against seed vectors", _retrieve),
    ("prune", "greedy redundancy pruning", _prune),
    ("annotate", "label documents via a backend", _annotate),
    ("train-filter", "train the quality classifier", _train_filter),
    ("score", "score a corpus with a trained filter", _score),
    ("filter", "rank-and-keep token-budget filtering", _filter),
    ("fit", "fit a power-law scaling curve", _fit),
    ("optimize", "find the loss-minimizing mix ratio", _optimize),
    ("mix", "compose a training mixture", _mix),
)}


def _stages(value):
    """A non-empty array of stages, each an object naming a known stage."""
    if not isinstance(value, list) or not value:
        raise ValueError("must be a non-empty array")
    for i, stage in enumerate(value):
        if not isinstance(stage, dict) or "name" not in stage:
            raise ConfigError(f"stages[{i}]", "each stage needs a 'name'")
        if stage["name"] not in STAGES:
            raise ConfigError(f"stages[{i}].name",
                              f"unknown stage {stage['name']!r}")
    return value


ROOT = {"workspace": Field(str, "."), "rng_seed": Field(int, 0),
        "report": Field(str, "run_report.json"), "stages": Field(_stages)}


def validate_config(config: dict) -> dict:
    """The root's values; a stage's own keys are read when it runs."""
    if not isinstance(config, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    return read_fields("", ROOT, config)


def run_pipeline(config: dict, workspace: str | None = None) -> dict:
    """Run every configured stage in order; returns the run report.

    Raises ConfigError for schema/path problems and StageError when a
    stage fails at run time; in both cases the report written so far is
    attached to the exception as `.report` when available. A hash that
    failed on the second thread fails its stage, as it would have inline.
    """
    root = validate_config(config)
    workspace = workspace or root["workspace"]
    os.makedirs(workspace, exist_ok=True)
    digests = Digests()
    report = {"rng_seed": root["rng_seed"], "workspace": workspace, "stages": []}
    report_path = os.path.join(workspace, root["report"])
    error = None

    try:
        with corpus_mod.run_table():  # each file parsed at most once per run
            for stage in root["stages"]:
                name = stage["name"]
                log_event(event="stage_start", stage=name)
                started = time.perf_counter()
                run = StageRun(workspace, root["rng_seed"], digests,
                               len(report["stages"]))
                try:
                    outputs, stats = STAGES[name](stage, run)
                    duration_s = round(time.perf_counter() - started, 6)
                    outputs = {path: digests.hash(path, run.index)
                               for path in sorted(set(outputs))}
                except ConfigError:
                    raise
                except Exception as exc:
                    report["stages"].append({"name": name, "status": "failed",
                                             "error": str(exc)})
                    raise StageError(f"stage {name!r} failed: {exc}") from exc
                report["stages"].append({
                    "name": name, "status": "ok", "duration_s": duration_s,
                    "inputs": run.inputs, "outputs": outputs, "stats": stats})
                log_event(event="stage_done", stage=name, duration_s=duration_s)
    except (ConfigError, StageError) as exc:
        error = exc
    finally:
        failed = digests.close()
    if failed is not None:
        name = root["stages"][failed.stage]["name"]
        message = f"{failed.path}: {failed.error}"
        del report["stages"][failed.stage:]
        report["stages"].append({"name": name, "status": "failed",
                                 "error": message})
        error = StageError(f"stage {name!r} failed: {message}")
        error.__cause__ = failed.error
    for entry in report["stages"]:
        for key in ("inputs", "outputs"):
            if key in entry:
                entry[key] = {path: d if isinstance(d, str) else d.hex
                              for path, d in entry[key].items()}
    write_json(report_path, report)
    if error is not None:
        error.report = report
        raise error
    return report
