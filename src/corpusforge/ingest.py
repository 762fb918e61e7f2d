"""Source manifests and URL-frontier expansion.

The pipeline never fetches the network: it consumes a source manifest, a
set of already-fetched seed URLs, and a link graph file, and expands the
frontier breadth-first with an optional documentation-keyword filter.
"""

import re
from dataclasses import dataclass
from urllib.parse import urlsplit

from .corpus import convert, read_json, read_keyed

SOURCE_KINDS = ("documentation", "trajectory", "code", "text")
SOURCE_FORMATS = ("dialog", "react", "nl_plan", "api_seq", "json", "qa",
                  "plain_text", "code")

KIND_TO_CLASS = {
    "documentation": "agent_doc",
    "trajectory": "agent_traj",
    "code": "code",
    "text": "text",
}

DEFAULT_DOC_KEYWORDS = ("doc", "guide", "reference")


class IngestError(Exception):
    pass


@dataclass(frozen=True)
class SourceSpec:
    name: str
    kind: str
    format: str
    declared_tokens: int = 0
    origin: str = ""

    def __post_init__(self):
        if not (isinstance(self.name, str) and isinstance(self.origin, str)):
            raise IngestError("source name and origin must be strings, got "
                              f"{self.name!r} and {self.origin!r}")
        if not self.name:
            raise IngestError("source name must be non-empty")
        if self.kind not in SOURCE_KINDS:
            raise IngestError(f"unknown source kind {self.kind!r}")
        if self.format not in SOURCE_FORMATS:
            raise IngestError(f"unknown source format {self.format!r}")
        if self.declared_tokens < 0:
            raise IngestError("declared_tokens must be non-negative")


def load_sources(path: str) -> list:
    """The SourceSpecs of a manifest (a JSON array of them), in name order."""
    def parse(entries):
        if not isinstance(entries, list):
            raise IngestError("manifest must be a JSON array")
        specs = {}
        for entry in entries:
            spec = SourceSpec(
                entry["name"], entry["kind"], entry["format"],
                declared_tokens=convert(int, entry.get("declared_tokens", 0)),
                origin=entry.get("origin", ""))
            if spec.name in specs:
                raise IngestError(f"source {spec.name!r} already registered")
            specs[spec.name] = spec
        return [specs[name] for name in sorted(specs)]
    return read_json(path, parse, IngestError)


# is_valid_url's plain form, for fullmatch; group 1 is the host. The host
# ends at "/", "?", "#" or the end, so a failed match takes linear time.
_PLAIN_URL = re.compile(
    r"https?://([^/?#\t\r\n\[\]]*)(?:[/?#][^\t\r\n\[\]]*)?")


def is_valid_url(url: str) -> bool:
    """Whether urlsplit reads `url` as an http or https URL with a host.

    A plain URL, "http://" or "https://" and then ASCII with no tab, CR,
    LF, "[" or "]", is read directly: urlsplit would take that scheme, and
    as its host the text after "//" up to the first "/", "?" or "#", and
    would check nothing more, so the verdict is the same. Every other
    string goes through urlsplit.
    """
    plain = url.isascii() and _PLAIN_URL.fullmatch(url)
    if plain:
        return bool(plain[1])
    try:
        parts = urlsplit(url)
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


@dataclass
class UrlFrontier:
    levels: list
    rejected_seeds: int = 0

    def all_urls(self) -> set:
        out = set()
        for level in self.levels:
            out |= level
        return out


def expand_url_frontier(seed_urls, link_graph: dict, max_level: int) -> UrlFrontier:
    """Level-synchronous breadth-first expansion over a pre-fetched link graph.

    Level 1 holds the valid seeds; level k+1 holds the previously unseen,
    valid out-links of level k. Malformed seeds are counted and dropped,
    not fatal. Levels are pairwise disjoint by construction.
    """
    if max_level < 1:
        raise IngestError("max_level must be >= 1")
    valid_seeds = {u for u in seed_urls if is_valid_url(u)}
    rejected = len(set(seed_urls)) - len(valid_seeds)

    levels = [valid_seeds]
    seen = set(valid_seeds)
    for _ in range(max_level - 1):
        frontier = set()
        for url in levels[-1]:
            for out in link_graph.get(url, ()):
                if out not in seen and is_valid_url(out):
                    frontier.add(out)
                    seen.add(out)
        if not frontier:
            break
        levels.append(frontier)
    return UrlFrontier(levels=levels, rejected_seeds=rejected)


def filter_doc_urls(urls, keywords) -> set:
    """Keep URLs containing at least one keyword, case-insensitive substring."""
    kws = [re.escape(k.lower()) for k in keywords]
    if not kws:
        raise IngestError("keyword set must be non-empty")
    found = re.compile("|".join(kws)).search
    return {u for u in urls if found(u.lower())}


def load_link_graph(path: str) -> dict:
    """Read a JSONL link graph: one {"url": ..., "out": [...]} per line,
    each url on one line only."""
    def parse(obj, _):
        url, out = obj["url"], obj["out"]
        if not (isinstance(url, str) and isinstance(out, list)
                and all(isinstance(u, str) for u in out)):
            raise IngestError('expected a string "url" and an array of '
                              'string "out" URLs')
        return out

    return read_keyed(path, "url", parse, IngestError)
