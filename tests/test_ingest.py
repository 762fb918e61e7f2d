import json
import re
from urllib.parse import urlsplit

import pytest
from hypothesis import given, strategies as st

from corpusforge.corpus import read_corpus
from corpusforge.ingest import (
    DEFAULT_DOC_KEYWORDS,
    IngestError,
    SourceSpec,
    expand_url_frontier,
    filter_doc_urls,
    is_valid_url,
    load_link_graph,
    load_sources,
)
from corpusforge.pipeline import run_pipeline


def write_manifest(tmp_path, entries):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestRegistry:
    def test_register_toolbench_spec(self, tmp_path):
        path = write_manifest(tmp_path, [{
            "name": "ToolBench", "kind": "trajectory", "format": "dialog",
            "declared_tokens": 530_000_000,
            "origin": "https://github.com/OpenBMB/ToolBench"}])
        assert load_sources(path) == [SourceSpec(
            name="ToolBench", kind="trajectory", format="dialog",
            declared_tokens=530_000_000,
            origin="https://github.com/OpenBMB/ToolBench")]

    def test_duplicate_name_rejected(self, tmp_path):
        path = write_manifest(tmp_path, [
            {"name": "x", "kind": "code", "format": "code"},
            {"name": "x", "kind": "text", "format": "plain_text"}])
        with pytest.raises(IngestError, match=re.escape(
                f"{path}: source 'x' already registered")):
            load_sources(path)

    def test_manifest_with_61_sources(self, tmp_path):
        names = [f"source_{i}" for i in range(61)]
        path = write_manifest(tmp_path, [
            {"name": name, "kind": "trajectory", "format": "api_seq"}
            for name in reversed(names)])
        assert [spec.name for spec in load_sources(path)] == sorted(names)

    @pytest.mark.parametrize("text", [
        json.dumps([{"name": "s", "format": "plain_text"}]), "not json",
        json.dumps({"name": "s", "kind": "text", "format": "plain_text"})])
    def test_bad_manifest_names_file(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(IngestError, match=re.escape(f"{path}: ")):
            load_sources(str(path))

    def test_bad_kind_rejected(self):
        with pytest.raises(IngestError):
            SourceSpec("x", "video", "dialog")


class TestAssignDataClass:
    @pytest.mark.parametrize("kind,expected", [
        ("documentation", "agent_doc"),
        ("trajectory", "agent_traj"),
        ("code", "code"),
        ("text", "text"),
    ])
    def test_mapping_total(self, tmp_path, kind, expected):
        fmt = "code" if kind == "code" else "plain_text"
        # A source without an origin is counted, but has nothing to read.
        write_manifest(tmp_path, [
            {"name": "s", "kind": kind, "format": fmt, "origin": "s.jsonl"},
            {"name": "t", "kind": "text", "format": "plain_text"}])
        (tmp_path / "s.jsonl").write_text('{"text": "call the api"}\n')
        report = run_pipeline({"workspace": str(tmp_path), "stages": [
            {"name": "ingest", "manifest": "manifest.json", "out": "seed"}]})
        assert report["stages"][0]["stats"]["sources"] == 2
        assert [(d.id, d.data_class) for d in read_corpus(
            str(tmp_path / "seed"))] == [("s:1", expected)]


def assert_agrees_with_urlsplit(url):
    try:
        parts = urlsplit(url)
    except ValueError:
        assert not is_valid_url(url)
        return
    assert is_valid_url(url) == (parts.scheme in ("http", "https")
                                 and bool(parts.netloc))


class TestUrlValidity:
    def test_accepts_http_https(self):
        assert is_valid_url("https://example.com/docs")
        assert is_valid_url("http://example.com")

    def test_rejects_other(self):
        assert not is_valid_url("ftp://example.com")
        assert not is_valid_url("not a url")
        assert not is_valid_url("https://")
        assert not is_valid_url("http://[::1/docs")  # urlsplit's ValueError

    @pytest.mark.parametrize("url", [
        # Plain http(s) URLs, read without urlsplit.
        "http://a", "https://a.b/c?d#e", "http://a?", "http://a#",
        "http://user@a:80/x", "http://@", "http://:", "http://a/%7e x",
        "http://?x", "http://#x", "https://?", "https://#", "http:///x",
        "http://",
        # Not plain: urlsplit decides.
        "http://a/é", "http://a\t/b", "http://a\r", "http://\na",
        "http:/\t/a",
        "http://\t/x", "https://\r\n#x", "http://a\n\n/\t?",
        "ht\ttp://a", "http\n://a", "\thttp://a", " http://a",
        "\x00http://a", "\x1fhttps://a", "HTTP://a", "Https://a",
        "http://[::1]/x", "http://[::1/x", "http://a]/x", "http://a/[x]",
        "http://a/x]", "http://a?[", "http://exämple.com/",
        "http://例え.jp", "http://\uff03x", "http://a\u2100b", "http:a",
        "http:/a", "//a", "ftp://a", "",
    ])
    def test_agrees_with_urlsplit_at_the_plain_form_edges(self, url):
        assert_agrees_with_urlsplit(url)

    @given(st.from_regex(r"(https?|ftp|HTTP)?:?/{0,3}[\w.:@\[\];=/-]*",
                         fullmatch=True)
           | st.builds(str.__add__,
                       st.lists(st.sampled_from(
                           ["http", "https", "HTTP", "ht\ttp", "ftp", ":",
                            "://", "/", " ", "\x00", "\x1f", "\n"]),
                           max_size=3).map("".join),
                       st.text(st.sampled_from(
                           "a.-:@/?#[]\t\r\n %é例\uff03\u2100")
                           | st.characters(), max_size=20))
           | st.text())
    def test_agrees_with_urlsplit(self, url):
        assert_agrees_with_urlsplit(url)


class TestFrontier:
    def test_empty_graph_frontier_is_seeds(self):
        frontier = expand_url_frontier({"https://a.com"}, {}, 3)
        assert frontier.levels == [{"https://a.com"}]

    def test_bfs_layers_match_hand_oracle(self):
        # 5-node toy graph; BFS layers worked out by hand:
        #   level 1: {a}, level 2: {b, c}, level 3: {d, e}
        a, b, c, d, e = (f"https://x.com/{n}" for n in "abcde")
        graph = {a: [b, c], b: [d, a], c: [e, b], d: [], e: [a]}
        frontier = expand_url_frontier({a}, graph, 3)
        assert frontier.levels == [{a}, {b, c}, {d, e}]

    def test_levels_pairwise_disjoint(self):
        urls = [f"https://x.com/{i}" for i in range(30)]
        graph = {urls[i]: urls[max(0, i - 3):i + 4] for i in range(30)}
        frontier = expand_url_frontier(set(urls[:3]), graph, 3)
        seen = set()
        for level in frontier.levels:
            assert not (level & seen)
            seen |= level

    def test_malformed_seeds_counted_not_fatal(self):
        frontier = expand_url_frontier({"https://ok.com", "garbage"}, {}, 1)
        assert frontier.levels == [{"https://ok.com"}]
        assert frontier.rejected_seeds == 1

    def test_max_level_must_be_positive(self):
        with pytest.raises(IngestError):
            expand_url_frontier({"https://a.com"}, {}, 0)


# Regex metacharacters, and letters whose lowered form is longer (İ) or
# differs from their upper case's (ß, whose upper case is SS).
URL_CHARS = "aAİıiIßsS.*+?^$()[]{}|\\/:-"


class TestFilterDocUrls:
    def test_substring_rule(self):
        urls = {"https://x.com/docs/a", "https://x.com/blog"}
        assert filter_doc_urls(urls, {"doc"}) == {"https://x.com/docs/a"}

    def test_default_keywords_match_api_reference(self):
        urls = {"https://x.com/api-reference", "https://x.com/pricing"}
        assert filter_doc_urls(urls, DEFAULT_DOC_KEYWORDS) == {
            "https://x.com/api-reference"}

    def test_case_insensitive(self):
        assert filter_doc_urls({"https://x.com/DOCS"}, {"doc"})

    def test_matches_brute_force_scan(self):
        urls = {f"https://site{i}.com/" + ("docs" if i % 3 == 0 else
                "guide" if i % 3 == 1 else "blog") for i in range(200)}
        keywords = {"doc", "guide"}
        expected = {u for u in urls
                    if any(k in u.lower() for k in keywords)}
        assert filter_doc_urls(urls, keywords) == expected

    def test_idempotent_and_subset(self):
        urls = {f"https://x.com/{w}" for w in
                ("docs", "guide", "blog", "reference", "news")}
        once = filter_doc_urls(urls, DEFAULT_DOC_KEYWORDS)
        assert once <= urls
        assert filter_doc_urls(once, DEFAULT_DOC_KEYWORDS) == once

    @given(st.sets(st.text(URL_CHARS, max_size=12), max_size=6),
           st.lists(st.text(URL_CHARS, max_size=8), min_size=1, max_size=4))
    def test_matches_the_any_scan(self, urls, keywords):
        expected = {u for u in urls
                    if any(k.lower() in u.lower() for k in keywords)}
        assert filter_doc_urls(urls, keywords) == expected

    def test_empty_keywords_rejected(self):
        with pytest.raises(IngestError):
            filter_doc_urls({"https://x.com"}, set())


class TestLinkGraphFile:
    def test_load(self, tmp_path):
        path = tmp_path / "graph.jsonl"
        path.write_text(
            json.dumps({"url": "https://a.com", "out": ["https://b.com"]}) + "\n")
        assert load_link_graph(str(path)) == {"https://a.com": ["https://b.com"]}

    def test_repeated_url_names_line(self, tmp_path):
        path = tmp_path / "graph.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in [
            {"url": "https://a.com", "out": ["https://b.com"]},
            {"url": "https://a.com", "out": ["https://c.com"]}]))
        with pytest.raises(IngestError,
                           match=r"graph\.jsonl:2: duplicate url"):
            load_link_graph(str(path))

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "graph.jsonl"
        path.write_text('{"url": "https://a.com"}\n')
        with pytest.raises(IngestError, match=":1:"):
            load_link_graph(str(path))

    @pytest.mark.parametrize("record", [
        {"url": "https://a.com", "out": "https://b.com"},
        {"url": "https://a.com", "out": [1]},
        {"url": 5, "out": []}])
    def test_urls_must_be_strings_in_an_array(self, tmp_path, record):
        path = tmp_path / "graph.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(IngestError, match=r"graph\.jsonl:1: .*array"):
            load_link_graph(str(path))
