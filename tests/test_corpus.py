import contextlib
import json
import os
import re
import tempfile
import threading

import pytest
from hypothesis import given, strategies as st

from corpusforge import corpus as corpus_mod
from corpusforge.corpus import (
    DATA_CLASSES,
    CorpusError,
    Document,
    DuplicateIdError,
    ParseError,
    ValidationError,
    compute_stats,
    count_tokens,
    read_corpus,
    run_table,
    serialize_document,
    write_corpus,
)
from corpusforge.ingest import IngestError, load_sources
from corpusforge.mix import MixError, MixSpec
from corpusforge.scaling import ScalingError, load_curve

from conftest import make_random_docs


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_whitespace_split(self):
        assert count_tokens("call the weather API") == 4

    def test_unicode_whitespace(self):
        assert count_tokens("a b\tc\nd") == 4

    def test_corpus_total_matches_brute_force(self):
        # Independent one-pass counter: manual scan for runs of
        # non-whitespace characters.
        docs = make_random_docs(10000, seed=11)

        def brute(text):
            count, in_run = 0, False
            for ch in text:
                if ch.isspace():
                    in_run = False
                elif not in_run:
                    count += 1
                    in_run = True
            return count

        assert sum(d.token_count for d in docs) == sum(brute(d.text) for d in docs)

    @given(st.text(min_size=1).filter(lambda s: s.strip()),
           st.text(min_size=1).filter(lambda s: s.strip()))
    def test_concatenation_additive(self, a, b):
        assert count_tokens(a + " " + b) == count_tokens(a) + count_tokens(b)


class TestParseDocumentRecord:
    """Document records read back through a one-shard corpus."""

    @staticmethod
    def read_back(docs, root):
        write_corpus(docs, os.path.join(root, "c"))
        return list(read_corpus(os.path.join(root, "c")))

    @staticmethod
    def read_lines(tmp_path, *records):
        # A valid record first, so an error must name line 2.
        good = {"id": "d0", "source_id": "s", "data_class": "text", "text": "x"}
        lines = [json.dumps(good)] + [r if isinstance(r, str) else json.dumps(r)
                                      for r in records]
        (tmp_path / "c.00000.jsonl").write_text("\n".join(lines) + "\n")
        return list(read_corpus(str(tmp_path / "c")))

    def test_round_trip(self, tmp_path):
        doc = Document("d1", "s1", "agent_doc", "call the api",
                       meta={"url": "https://x"})
        assert self.read_back([doc], str(tmp_path)) == [doc]

    def test_token_count_recomputed_when_absent(self, tmp_path):
        docs = self.read_lines(tmp_path, {"id": "d1", "source_id": "s",
                                          "data_class": "text", "text": "a b c"})
        assert docs[1].token_count == 3

    def test_unknown_data_class(self, tmp_path):
        doc = {"id": "d1", "source_id": "s", "data_class": "video", "text": "x"}
        with pytest.raises(ValidationError, match=r"c\.00000\.jsonl:2: "):
            self.read_lines(tmp_path, doc)

    def test_missing_id(self, tmp_path):
        with pytest.raises(ParseError, match=r"c\.00000\.jsonl:2: .*'id'"):
            self.read_lines(tmp_path, {"source_id": "s", "data_class": "text",
                                       "text": "x"})

    @pytest.mark.parametrize("record,what", [
        ("[1, 2]", "not a JSON object"),
        ({"id": 5, "source_id": "s", "data_class": "text", "text": "x"},
         "'id' must be a string"),
        ({"id": "d1", "source_id": "s", "data_class": "text", "text": "x",
          "token_count": "3"}, "'token_count' must be an integer")])
    def test_mistyped_record_names_line(self, tmp_path, record, what):
        # A line that is no JSON object does not decode; a mistyped field
        # decodes and breaks the document contract.
        error = ParseError if isinstance(record, str) else ValidationError
        with pytest.raises(error, match=r"c\.00000\.jsonl:2: .*" + what):
            self.read_lines(tmp_path, record)

    def test_malformed_json(self, tmp_path):
        with pytest.raises(ParseError, match=r"c\.00000\.jsonl:2: "):
            self.read_lines(tmp_path, "{not json")

    # A lone byte, a lead byte without its continuation, an encoded surrogate.
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"])
    def test_invalid_utf8_names_line(self, tmp_path, bad):
        record = (b'{"id": "d%d", "source_id": "s", "data_class": "text", '
                  b'"text": "caf%s"}\n')
        (tmp_path / "c.00000.jsonl").write_bytes(
            record % (0, "\u00e9".encode()) + record % (1, bad))
        with pytest.raises(ParseError, match=r"c\.00000\.jsonl:2: invalid "
                           r"UTF-8 byte 0x" + bad[:1].hex()):
            list(read_corpus(str(tmp_path / "c")))

    def test_bad_meta(self, tmp_path):
        doc = {"id": "d", "source_id": "s", "data_class": "text", "text": "x",
               "meta": {"k": 1}}
        with pytest.raises(ValidationError, match=r"c\.00000\.jsonl:2: .*meta"):
            self.read_lines(tmp_path, doc)

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
    def test_round_trip_any_text(self, text):
        doc = Document("d", "s", "code", text)
        with tempfile.TemporaryDirectory() as root:
            assert self.read_back([doc], root) == [doc]


# Field values for Document(...), each valid or not: strings without lone
# surrogates (which UTF-8 cannot write), other JSON values, unknown classes,
# bools and negative, None or float token counts, meta values of any type.
_STRINGS = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=12)
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    _STRINGS, st.lists(st.integers(), max_size=2))
_FIELDS = {
    "id": st.one_of(_STRINGS, _VALUES),
    "source_id": st.one_of(_STRINGS, _STRINGS, _VALUES),
    "data_class": st.one_of(st.sampled_from(DATA_CLASSES), _VALUES),
    "text": st.one_of(_STRINGS, _STRINGS, _VALUES),
    "token_count": st.one_of(st.none(), st.integers(-3, 10**20), _VALUES),
    "meta": st.one_of(st.dictionaries(_STRINGS, _STRINGS, max_size=3),
                      st.dictionaries(_STRINGS, _VALUES, max_size=2), _VALUES),
}


def _follows_contract(f):
    """The document contract, written out from its description."""
    count = f["token_count"]
    return (all(isinstance(f[k], str)
                for k in ("id", "source_id", "data_class", "text"))
            and f["id"] != "" and f["data_class"] in DATA_CLASSES
            and (count is None or type(count) is int and count >= 0)
            and isinstance(f["meta"], dict)
            and all(isinstance(v, str) for v in f["meta"].values()))


class TestDocumentContract:
    @given(st.fixed_dictionaries(_FIELDS))
    def test_built_is_read_back_or_refused(self, fields):
        try:
            doc = Document(**fields)
        except ValidationError:
            assert not _follows_contract(fields)
            return
        assert _follows_contract(fields)
        with tempfile.TemporaryDirectory() as root:
            write_corpus([doc], os.path.join(root, "c"))
            assert list(read_corpus(os.path.join(root, "c"))) == [doc]

    @pytest.mark.parametrize("fields", [
        {"id": "d\ud800"}, {"source_id": "\udfff"}, {"text": "a \ud800 b"},
        {"meta": {"k\udc80": "v"}}, {"meta": {"k": "\udbff"}}],
        ids=["id", "source_id", "text", "meta_key", "meta_value"])
    def test_lone_surrogate_refused(self, fields):
        with pytest.raises(ValidationError, match="surrogate"):
            Document(**{"id": "d", "source_id": "s", "data_class": "text",
                        "text": "x", **fields})

    def test_shard_line_with_escaped_surrogate_names_line(self, tmp_path):
        doc = Document("d0", "s", "text", "fine")
        (tmp_path / "c.00000.jsonl").write_text(
            serialize_document(doc) + "\n\n" + '{"id": "d1", "source_id": "s", '
            '"data_class": "text", "text": "a \\ud800 b"}\n')
        with pytest.raises(ValidationError,
                           match=r"c\.00000\.jsonl:3: .*surrogate"):
            list(read_corpus(str(tmp_path / "c")))


class TestComputeStats:
    def test_empty_stream(self):
        stats = compute_stats([])
        assert stats.total_tokens == 0
        assert all(v == 0 for v in stats.tokens_by_class.values())

    def test_small_arithmetic(self):
        docs = [Document(f"d{i}", "s", cls, "t1 t2 t3 t4 t5")
                for i, cls in enumerate(["agent_doc", "code", "text"])]
        stats = compute_stats(docs)
        assert stats.tokens_by_class == {"agent_doc": 5, "agent_traj": 0,
                                         "code": 5, "text": 5}
        assert stats.total_tokens == 15

    def test_matches_brute_force_recount(self):
        docs = make_random_docs(1000, seed=3)
        stats = compute_stats(docs)
        expected = {}
        for d in docs:
            expected[d.data_class] = expected.get(d.data_class, 0) + d.token_count
        for cls, tok in expected.items():
            assert stats.tokens_by_class[cls] == tok
        assert stats.total_tokens == sum(expected.values())

    def test_duplicate_id_error(self):
        doc = Document("dup", "s", "text", "x")
        with pytest.raises(DuplicateIdError, match="dup"):
            compute_stats([doc, doc])

    def test_permutation_invariant(self):
        docs = make_random_docs(200, seed=5)
        forward = compute_stats(docs)
        backward = compute_stats(list(reversed(docs)))
        assert forward == backward


class TestShardIO:
    def test_write_read_round_trip(self, tmp_path):
        docs = make_random_docs(250, seed=1)
        prefix = str(tmp_path / "corpus")
        paths = write_corpus(docs, prefix, docs_per_shard=100)
        assert [p.split("/")[-1] for p in paths] == [
            "corpus.00000.jsonl", "corpus.00001.jsonl", "corpus.00002.jsonl"]
        assert list(read_corpus(prefix)) == docs

    def test_rewrite_deletes_stale_higher_shards(self, tmp_path):
        prefix = str(tmp_path / "c")
        write_corpus(make_random_docs(30, seed=1), prefix, docs_per_shard=10)
        docs = make_random_docs(5, seed=3)
        paths = write_corpus(docs, prefix, docs_per_shard=10)
        assert [p.split("/")[-1] for p in paths] == ["c.00000.jsonl"]
        assert list(read_corpus(prefix)) == docs
        # Another corpus whose name extends the prefix is not a stale shard.
        sibling = write_corpus(make_random_docs(3, seed=2), prefix + ".extra")
        write_corpus(docs, prefix, docs_per_shard=10)
        assert all(os.path.exists(p) for p in sibling)

    def test_prefix_does_not_read_a_longer_corpus_name(self, tmp_path):
        prefix = str(tmp_path / "c")
        docs = make_random_docs(5, seed=1)
        write_corpus(docs, prefix)
        write_corpus(make_random_docs(3, seed=2), prefix + ".extra")
        assert list(read_corpus(prefix)) == docs

    def test_failed_rewrite_keeps_previous_corpus(self, tmp_path):
        prefix = str(tmp_path / "c")
        old = make_random_docs(30, seed=1)
        write_corpus(old, prefix, docs_per_shard=10)

        def failing_source():
            for i, doc in enumerate(make_random_docs(30, seed=3)):
                if i == 15:
                    raise RuntimeError("source failed at the 16th document")
                yield doc
        with pytest.raises(RuntimeError, match="16th"):
            write_corpus(failing_source(), prefix, docs_per_shard=10)
        assert list(read_corpus(prefix)) == old
        assert not list(tmp_path.glob("*.tmp"))

    def test_duplicate_id_rejected_and_previous_corpus_kept(self, tmp_path):
        prefix = str(tmp_path / "c")
        old = make_random_docs(30, seed=1)
        write_corpus(old, prefix, docs_per_shard=10)
        docs = make_random_docs(20, seed=3)
        clash = Document(docs[2].id, "other", "text", "same id again")
        with pytest.raises(DuplicateIdError, match=re.escape(repr(clash.id))):
            write_corpus(docs + [clash], prefix, docs_per_shard=10)
        assert list(read_corpus(prefix)) == old
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("shards", [
        [["a", "b", "a"]], [["a", "b"], ["c", "a"]]],
        ids=["one_shard", "two_shards"])
    def test_repeated_id_on_read_names_shard_and_id(self, tmp_path, shards):
        for index, ids in enumerate(shards):
            (tmp_path / f"c.{index:05d}.jsonl").write_text("".join(
                serialize_document(Document(i, "s", "text", "x")) + "\n"
                for i in ids))
        last = re.escape(str(tmp_path / f"c.{len(shards) - 1:05d}.jsonl"))
        with pytest.raises(DuplicateIdError, match=last + ": .*'a'"):
            list(read_corpus(str(tmp_path / "c")))

    def test_directory_of_jsonl_files_is_not_a_corpus(self, tmp_path):
        write_corpus(make_random_docs(3, seed=1), str(tmp_path / "d" / "c"))
        with pytest.raises(CorpusError, match="no corpus shards"):
            list(read_corpus(str(tmp_path / "d")))

    def test_empty_corpus_still_writes_one_shard(self, tmp_path):
        paths = write_corpus([], str(tmp_path / "empty"), docs_per_shard=10)
        assert len(paths) == 1

    def test_refused_shard_size_makes_no_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="docs_per_shard"):
            write_corpus(make_random_docs(3, seed=1),
                         str(tmp_path / "newdir" / "c"), docs_per_shard=0)
        assert list(tmp_path.iterdir()) == []


class TestRunTable:
    def _half_bad_shard(self, tmp_path):
        doc = Document("d0", "s", "text", "first document")
        (tmp_path / "c.00000.jsonl").write_text(
            serialize_document(doc) + "\n{not json\n")
        return doc, str(tmp_path / "c")

    @pytest.mark.parametrize("in_run", [True, False],
                             ids=["in_run", "no_run"])
    def test_shard_parsed_whole_within_a_run(self, tmp_path, in_run):
        _, prefix = self._half_bad_shard(tmp_path)
        with run_table() if in_run else contextlib.nullcontext():
            with pytest.raises(ParseError, match=r"c\.00000\.jsonl:2: "):
                next(read_corpus(prefix))
            assert corpus_mod._run_table.get() == ({} if in_run else None)

    def test_reads_share_documents_until_the_bytes_change(self, tmp_path):
        prefix = str(tmp_path / "c")
        write_corpus(make_random_docs(6, seed=1), prefix, docs_per_shard=4)
        with run_table():
            first = list(read_corpus(prefix))
            again = list(read_corpus(prefix))
            assert all(a is b for a, b in zip(first, again))
            write_corpus(first[:3], prefix)
            assert list(read_corpus(prefix)) == first[:3]
        assert corpus_mod._run_table.get() is None

    def test_table_belongs_to_the_thread_that_opened_it(self):
        seen = []
        with run_table():
            thread = threading.Thread(
                target=lambda: seen.append(corpus_mod._run_table.get()))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive() and seen == [None]


def json_lines_reference(path, parse, error):
    """The reference for read_jsonl: the same reader, with one json.loads
    per line."""
    for lineno, line in corpus_mod.read_lines(path, error):
        try:
            record = parse(json.loads(line), lineno)
        except (error, CorpusError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
        except corpus_mod.PARSE_ERRORS as exc:
            raise error(f"{path}:{lineno}: {exc!r}") from exc
        yield record


def outcome(read):
    """repr of what read() returns (so NaN equals NaN, and 1 is not 1.0),
    or the type and message of what it raises."""
    try:
        return repr(read())
    except Exception as exc:
        return type(exc), str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@st.composite
def json_lines(draw):
    """json.dumps of a JSON value, whole, cut short or with text put in."""
    line = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    at = draw(st.integers(0, len(line)))
    return draw(st.sampled_from([
        line, line[:at],
        line[:at] + draw(st.text(",:[]{}\"\\ \t0eE.-+xnN\x00\x1f\ufeff",
                                 min_size=1, max_size=3)) + line[at:]]))


class TestJsonLinesParity:
    """read_jsonl decodes with json's scanner and falls back to json.loads;
    each line must give what json.loads gives, value or error."""

    @staticmethod
    def _check(tmp, line):
        path = os.path.join(tmp, "lines.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
        read = [outcome(lambda: list(reader(path, lambda obj, _: obj,
                                            IngestError)))
                for reader in (corpus_mod.read_jsonl, json_lines_reference)]
        assert read[0] == read[1]

    @given(json_lines())
    def test_line_decodes_as_json_loads_decodes_it(self, line):
        with tempfile.TemporaryDirectory() as tmp:
            self._check(tmp, line)

    @pytest.mark.parametrize("line", [
        "\ufeff{}", "1,2", "[1", "NaN", '{"a":1}}', "1" * 5000, '"abc',
        '"a\x01b"', "[1 2]", "-", "{}x", "Infinity", "[-Infinity, NaN]"])
    def test_fixed_lines(self, tmp_path, line):
        self._check(str(tmp_path), line)

    def test_keyed_error_of_a_fallback_line_comes_first(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "graph.jsonl"
        path.write_text('{"url": "a", "out": []}\n{"url": "a", "out": []}}\n'
                        '{"url": "a", "out": []}\n')

        def read():
            return corpus_mod.read_keyed(str(path), "url",
                                         lambda obj, _: obj["out"],
                                         IngestError)

        got = outcome(read)
        monkeypatch.setattr(corpus_mod, "read_jsonl", json_lines_reference)
        assert got == outcome(read)
        assert got[0] is IngestError
        assert ":2: JSONDecodeError('Extra data" in got[1]


class TestErrorRebuild:
    """A reader raises `error`, or keeps an exact `error` or a CorpusError,
    naming the file and line, whatever `error` is."""

    def test_jsonl_line_that_is_not_json_raises_the_error_given(self,
                                                                 tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_text('{"a": 1}\n[1\n')
        with pytest.raises(ValueError, match=r"lines\.jsonl:2: JSONDecodeError"
                           ) as info:
            list(corpus_mod.read_jsonl(str(path), lambda obj, _: obj,
                                       ValueError))
        assert type(info.value) is ValueError

    def test_json_file_that_is_not_json_raises_the_error_given(self, tmp_path):
        path = tmp_path / "value.json"
        path.write_text("[1")
        with pytest.raises(ValueError, match=r"value\.json: JSONDecodeError"
                           ) as info:
            corpus_mod.read_json(str(path), lambda obj: obj, ValueError)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("raised, error, kept", [
        (ValueError("bad"), ValueError, ValueError),
        (ParseError("bad"), IngestError, ParseError),
        (UnicodeError("bad"), ValueError, ValueError),
        (KeyError("k"), IngestError, IngestError)])
    def test_parse_error_type_and_place(self, tmp_path, raised, error, kept):
        path = tmp_path / "lines.jsonl"
        path.write_text("{}\n")

        def parse(*_):
            raise raised

        with pytest.raises(kept, match=r"lines\.jsonl:1: ") as info:
            list(corpus_mod.read_jsonl(str(path), parse, error))
        assert type(info.value) is kept
        with pytest.raises(kept, match=r"lines\.jsonl: ") as info:
            corpus_mod.read_json(str(path), parse, error)
        assert type(info.value) is kept

    # Each would load with the key's last value if a repeat were allowed.
    @pytest.mark.parametrize("load, error, text, key", [
        (MixSpec.from_file, MixError, '{"ratios": {"agent": 1, "agent": 0, '
         '"text": 1}, "total_token_budget": 100}', "agent"),
        (load_sources, IngestError, '[{"name": "a", "kind": "agent_doc", '
         '"format": "jsonl", "origin": "a.jsonl", "origin": "b.jsonl"}]',
         "origin"),
        (load_curve, ScalingError,
         '{"c": 1.0, "k": 2.0, "alpha": -0.5, "alpha": 0.5}', "alpha")],
        ids=["mix_spec", "source_manifest", "fit_report"])
    def test_json_file_repeating_a_key_is_refused(self, tmp_path, load, error,
                                                  text, key):
        path = tmp_path / "value.json"
        path.write_text(text)
        with pytest.raises(error, match=re.escape(
                f"{path}: ValueError(\"key {key!r} given twice\")")) as info:
            load(str(path))
        assert type(info.value) is error
