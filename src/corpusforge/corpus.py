"""Canonical document model, token accounting, and JSON Lines file I/O.

Every stage of the pipeline reads and writes its JSON Lines and JSON files
through this module. Documents are immutable after parse.

Within a run (a `run_table` block; `pipeline.run_pipeline` opens one) a
file is parsed at most once: the run's table maps what it was parsed as and
the SHA-256 of its bytes to the parse (a shard's Documents, a vectors
file's Embeddings). It lasts one run, in its thread. read_corpus always
parses a shard whole before it yields any of its documents. Reads share
Documents, so no stage may mutate `Document.meta`; `with_meta` copies.
"""

import contextvars
import glob
import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Iterable, Iterator

DATA_CLASSES = ("agent_doc", "agent_traj", "code", "text")

SHARD_PATTERN = "{corpus}.{index:05d}.jsonl"


class CorpusError(Exception):
    """Base class for corpus-level failures."""


class ParseError(CorpusError):
    """A serialized record could not be decoded."""


class ValidationError(CorpusError):
    """A record decoded but violates the document contract."""


class DuplicateIdError(CorpusError):
    """The same document id appeared more than once in a corpus."""


def count_tokens(text: str) -> int:
    """Count tokens as contiguous non-whitespace runs (Unicode whitespace).

    This is the budget-accounting tokenizer: cheap, deterministic, and
    consistent across the whole pipeline. It makes no attempt to match any
    particular LLM's subword vocabulary.
    """
    return len(text.split())


@dataclass(frozen=True)
class Document:
    """One corpus record; building one checks every field, so each Document
    a shard holds reads back. A token_count of None is counted from the
    text."""

    id: str
    source_id: str
    data_class: str
    text: str
    token_count: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("id", "source_id", "data_class", "text"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"field {name!r} must be a string")
        if not self.id:
            raise ValidationError("document id must be non-empty")
        if self.data_class not in DATA_CLASSES:
            raise ValidationError(
                f"unknown data_class {self.data_class!r}; expected one of {DATA_CLASSES}"
            )
        if self.token_count is None:
            object.__setattr__(self, "token_count", count_tokens(self.text))
        elif type(self.token_count) is not int:  # bool is a subclass
            raise ValidationError("field 'token_count' must be an integer")
        if self.token_count < 0:
            raise ValidationError(f"negative token_count for doc {self.id!r}")
        if not isinstance(self.meta, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in self.meta.items()):
            raise ValidationError("field 'meta' must be a string-to-string map")
        joined = "".join((self.id, self.source_id, self.text, *self.meta,
                          *self.meta.values()))  # one test; isascii is O(1)
        if not joined.isascii() and _SURROGATE.search(joined):
            raise ValidationError("a string holds a surrogate (U+D800-DFFF)")

    def with_meta(self, **extra: str) -> "Document":
        return replace(self, meta={**self.meta, **extra})


def _document(obj, _lineno: int) -> Document:
    """The Document of one decoded corpus record (a read_jsonl parse): a JSON
    object with the four required keys. A token_count that is present is
    kept as-is, so externally counted corpora round-trip."""
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object")
    for name in ("id", "source_id", "data_class", "text"):
        if name not in obj:
            raise ParseError(f"record missing required field {name!r}")
    return Document(obj["id"], obj["source_id"], obj["data_class"],
                    obj["text"], obj.get("token_count"), obj.get("meta", {}))


def serialize_document(doc: Document) -> str:
    return json.dumps(vars(doc), ensure_ascii=False, sort_keys=True)


@dataclass
class CorpusStats:
    tokens_by_class: dict
    docs_by_class: dict
    total_tokens: int = 0
    total_docs: int = 0


def compute_stats(docs: Iterable[Document]) -> CorpusStats:
    """Single-pass, order-independent corpus statistics.

    Duplicate ids are a hard error: silently double counting a document
    would corrupt every downstream token budget.
    """
    stats = CorpusStats({c: 0 for c in DATA_CLASSES}, {c: 0 for c in DATA_CLASSES})
    for doc in _unique(docs):
        stats.tokens_by_class[doc.data_class] += doc.token_count
        stats.docs_by_class[doc.data_class] += 1
        stats.total_tokens += doc.token_count
        stats.total_docs += 1
    return stats


def _unique(docs: Iterable[Document]) -> Iterator[Document]:
    """Pass documents through; raise DuplicateIdError at a repeated id."""
    seen = set()
    for doc in docs:
        if doc.id in seen:
            raise DuplicateIdError(f"duplicate document id {doc.id!r}")
        seen.add(doc.id)
        yield doc


# What a parse may raise on a record it rejects, raised as the reader's error
# (OverflowError: a JSON integer too large for a float).
PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
# Surrogate code points: a str holding one cannot be written as UTF-8. In a
# line read with surrogateescape, each stands for a byte that is not UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")


# The JSON values that convert takes for each type, and how to name them.
_DECODED = {bool: (bool, "true or false"), int: ((int, float), "an integer"),
            float: ((int, float), "a number"), str: (str, "a string"),
            list: (list, "an array"), dict: (dict, "an object")}


def convert(cast, value):
    """cast(value) if value has the JSON type _DECODED gives for cast (a
    cast it lacks takes anything but a boolean), so what cast would bend is
    refused: "5" or 8.9 for int, 3 for str, [["a", 1]] for dict."""
    types, wanted = _DECODED.get(cast, (object, "no boolean"))
    if (isinstance(value, bool) != (cast is bool) or not isinstance(value, types)
            or cast is int and isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"must be {wanted}, got {value!r}")
    return cast(value)


def read_lines(path: str, error: type) -> Iterator:
    """Yield (physical line number, stripped line) for each non-blank line
    of a UTF-8 text file; a line that is not UTF-8 raises `error`, with a
    message that starts with `path:lineno:`."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line.isascii() and (bad := _SURROGATE.search(line)):
                raise error(f"{path}:{lineno}: invalid UTF-8 byte "
                            f"0x{ord(bad[0]) - 0xDC00:02x}")
            if line:
                yield lineno, line


_scan_once = json.JSONDecoder().scan_once  # json.loads's own scanner


def _decode(line: str):
    """json.loads(line), value or error alike, for a stripped line, in
    fewer Python frames: when json's scanner finds no value at the line's
    start or stops before its end, json.loads raises json's own error."""
    try:
        value, end = _scan_once(line, 0)
    except StopIteration:  # no value starts at offset 0 (a BOM, "]")
        end = -1
    return value if end == len(line) else json.loads(line)


def read_jsonl(path: str, parse: Callable, error: type) -> Iterator:
    """Yield parse(decoded line, physical line number) for each non-blank
    line of a UTF-8 JSON Lines file; each line decodes as json.loads
    decodes it, value and error alike (_decode).

    A line that is not UTF-8 or not JSON, or whose parse raises one of
    PARSE_ERRORS, raises `error`; else an `error` or CorpusError from parse
    keeps its type. Either way the message starts with `path:lineno:`.
    """
    for lineno, line in read_lines(path, error):
        try:
            record = parse(_decode(line), lineno)
        except PARSE_ERRORS as exc:
            raise error(f"{path}:{lineno}: {exc!r}") from exc
        except (error, CorpusError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        yield record


def read_keyed(path: str, key: str, parse: Callable, error: type) -> dict:
    """{record[key]: parse(record, lineno)} of the records of a JSON Lines
    file, read as read_jsonl reads it, in file order; a key that is not a
    string or was already seen raises `error` with the `path:lineno:`
    prefix."""
    out = {}

    def keyed(record, lineno):
        value = parse(record, lineno)
        if not isinstance(record[key], str):
            raise error(f"{key} must be a string, got {record[key]!r}")
        if record[key] in out:
            raise error(f"duplicate {key} {record[key]!r}")
        return record[key], value

    for record_key, value in read_jsonl(path, keyed, error):
        out[record_key] = value
    return out


def unique_keys(pairs) -> dict:
    """A JSON object, refused when it gives a key twice: the
    object_pairs_hook of every JSON file read whole."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # name the first key given again
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} given twice")
            seen.add(key)
    return obj


def read_json(path: str, parse: Callable, error: type):
    """Return parse(value) for the one JSON value in a UTF-8 file; an
    object in it that repeats a key is refused.

    Errors are raised as in read_jsonl, with messages starting `path:`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh, object_pairs_hook=unique_keys))
    except PARSE_ERRORS as exc:
        raise error(f"{path}: {exc!r}") from exc
    except (error, CorpusError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


HASH_CHUNK = 1 << 20  # bytes read per call by sha256_file


def sha256_file(fh) -> str:
    """The hex SHA-256 of the bytes of binary file `fh` from its position to
    its end, read chunk after chunk into one buffer that holds the whole
    file, up to HASH_CHUNK bytes (and at least one byte, so that an empty
    read means the end)."""
    buf = bytearray(min(os.fstat(fh.fileno()).st_size, HASH_CHUNK) or 1)
    h, view = hashlib.sha256(), memoryview(buf)
    while n := fh.readinto(buf):
        h.update(view[:n])
    return h.hexdigest()


_run_table = contextvars.ContextVar("run_table", default=None)


@contextmanager
def run_table():
    """Parse each file at most once within the block (module docstring)."""
    token = _run_table.set({})
    try:
        yield
    finally:
        _run_table.reset(token)


def parse_once(path: str, kind: str, parse: Callable):
    """parse(path); in a run, what its first parse of these bytes gave."""
    table = _run_table.get()
    if table is None:
        return parse(path)
    with open(path, "rb", buffering=0) as fh:
        key = (kind, sha256_file(fh))
    if key not in table:
        table[key] = parse(path)
    return table[key]


@contextmanager
def replacing(paths: list):
    """Once the block succeeds, move each `<path>.tmp` onto its path (the
    block may add paths); either way, remove every temp file left."""
    try:
        yield
        for path in paths:
            os.replace(path + ".tmp", path)
    finally:
        for path in paths:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")


def write_lines(path: str, lines: Iterable[str]) -> int:
    """Write one text line per item and return the count.

    The lines go to `<path>.tmp`, which no shard or *.jsonl glob matches,
    and replace `path` once all are written: a failure leaves the previous
    file as it was and no temp file behind.
    """
    count = 0
    with replacing([path]), open(path + ".tmp", "w", encoding="utf-8") as fh:
        for count, line in enumerate(lines, start=1):
            fh.write(line + "\n")
    return count


def write_json(path: str, payload) -> None:
    """Write one JSON value, sorted keys and 2-space indent, atomically."""
    write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


def _numbered_shards(corpus_prefix: str) -> list:
    """(index, path) of each `<prefix>.NNNNN.jsonl` file, in index order.

    Exact names only: corpus "c" does not own the shards of "c.extra".
    """
    name = re.compile(
        re.escape(os.path.basename(corpus_prefix)) + r"\.(\d{5,})\.jsonl")
    shards = []
    for path in glob.glob(f"{glob.escape(corpus_prefix)}.*.jsonl"):
        match = name.fullmatch(os.path.basename(path))
        if match:
            shards.append((int(match.group(1)), path))
    return sorted(shards)


def shard_paths(corpus_prefix: str) -> list:
    """All shard files for a corpus prefix, in shard order, or the one file
    it names."""
    paths = [path for _, path in _numbered_shards(corpus_prefix)]
    if not paths and os.path.isfile(corpus_prefix):
        return [corpus_prefix]
    return paths


def read_corpus(corpus_prefix: str) -> Iterator[Document]:
    """The documents of every shard in shard order, a whole shard at a
    time; from a shard prefix or one file. A repeated id, in one shard or
    across shards, raises DuplicateIdError naming the shard."""
    paths = shard_paths(corpus_prefix)
    if not paths:
        raise CorpusError(f"no corpus shards found at {corpus_prefix!r}")
    seen = set()
    for path in paths:
        for doc in parse_once(path, "corpus", lambda p: tuple(
                read_jsonl(p, _document, ParseError))):
            if doc.id in seen:
                raise DuplicateIdError(f"{path}: duplicate document id {doc.id!r}")
            seen.add(doc.id)
            yield doc


def write_corpus(docs: Iterable[Document], corpus_prefix: str,
                 docs_per_shard: int = 10000) -> list:
    """Write documents into zero-padded shard files; returns shard paths.

    All shards are written to `<shard>.tmp` before any is replaced, so a
    failure, a repeated id (DuplicateIdError) included, keeps the old corpus.
    """
    if docs_per_shard < 1:
        raise CorpusError(f"docs_per_shard must be >= 1, got {docs_per_shard}")
    parent = os.path.dirname(corpus_prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    docs, paths = _unique(docs), []
    with replacing(paths):
        while True:
            batch = list(islice(docs, docs_per_shard))
            if paths and not batch:
                break
            paths.append(SHARD_PATTERN.format(corpus=corpus_prefix,
                                              index=len(paths)))
            with open(paths[-1] + ".tmp", "w", encoding="utf-8") as fh:
                fh.writelines(serialize_document(doc) + "\n" for doc in batch)

    # Shards an earlier, larger write left under this prefix would be read
    # back as part of this corpus: delete every higher-index one.
    for index, path in _numbered_shards(corpus_prefix):
        if index >= len(paths):
            os.remove(path)
    return paths
