"""Query-biased snippet generation (the ``SnippetBuilder`` analogue).

Reproduces the reference's snippet algorithm (ref:src/SnippetBuilder.cpp)
as used by ``IndriRunQuery -printSnippets=true``
(ref:runquery/IndriRunQuery.cpp:494-496):

1. collect the query's *raw scorer* nodes — the text-matching leaves of the
   parsed query tree (``_getRawNodes``, ref :20-28),
2. gather each node's match extents in token-position space — the
   structured engine's extent sets, for all result documents at once —
   and sort each document's by begin (``_documentMatches``, ref :53-86),
3. greedily choose up to 50 words of match regions, each round picking the
   window (≤ remaining width) covering the most *unique* query nodes, with
   earlier-in-document regions winning ties (``_bestRegion`` /
   ``_buildRegions``, ref :101-198), then pad each region by half the match
   width,
4. render: map token positions to byte offsets, sanitize the raw bytes
   (strip tags/comments/script/style, collapse whitespace), highlight the
   match extents (UPPERCASE in text mode, ``<strong>`` in HTML mode), add
   ellipses between non-adjacent regions, and in text mode insert line
   breaks at ~50-character word boundaries (ref :204-331,337-399).

Token positions come from :func:`indri_5_5_ray.tokenizer.tokenize_with_offsets`,
which reproduces the ingest slot stream (the index's position space) with
byte extents, playing the role of ``ParsedDocument::positions``.

Deviation from the reference (documented): ``_sanitizeText``'s comment /
style / script scans call ``strstr(needle, haystack)`` with swapped
arguments (ref :224,231,240), so in the reference a comment or style/script
tag inside a snippet region silently truncates that region.  This
implementation performs the evidently intended search (skip to the matching
``-->`` / ``</style...>`` / ``</script...>``).  Both behaviours only differ
on markup that survives inside a chosen region.

Snippet assembly is a driver-side, per-result operation (k documents, same
as the reference's query loop); the document texts are fetched with a
doc_id-pruned parquet read so only the k result rows leave the docstore.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow.dataset as pads

from ..tokenizer import tokenize_with_offsets
from .indriql import (
    _EMPTY,
    Node,
    StructuredQueryEngine,
    _ExtentEval,
    _union,
    _unit_extents,
    parse_query,
)

WINDOW_SIZE = 50  # words per snippet (ref :339)

# ops whose subtree matches text directly — the RawScorerNode analogues.
# band / any / numeric-date predicates match FIELD extents; they are scorer
# leaves too but this builder emits no highlights for them (their "match"
# is a field region, not query text) — they still occupy node slots so the
# uniqueness counting matches the reference's shape.
_SCORER_OPS = frozenset({
    "term", "wildcard", "syn", "wsyn", "od", "uw", "restrict",
    "band", "any",
})


def collect_raw_scorers(root: Node) -> list[Node]:
    """Mirror of ``_getRawNodes`` (ref :20-28): depth-first; a scorer-op
    node is collected whole, anything else recurses into its children."""
    out: list[Node] = []

    def walk(n: Node) -> None:
        if n.op in _SCORER_OPS:
            out.append(n)
        else:
            for c in n.children:
                walk(c)

    walk(root)
    return out


def _scorer_extents(ev: _ExtentEval, node: Node):
    """Match extents ``(doc index, begins, ends)`` of one raw-scorer node
    over the result documents: the engine's extent set of a text-matching
    node (#wsyn highlights the union of its term-like members'); #band /
    #any:f are field-extent scorers with no text highlight."""
    if node.op == "wsyn":
        return _union([ev.extents(c) for c in node.children
                       if _unit_extents(c)])
    if node.op in ("band", "any"):
        return _EMPTY, _EMPTY, _EMPTY
    return ev.extents(node)


# ---------------------------------------------------------------------------
# region selection (ref :88-198)
# ---------------------------------------------------------------------------


class _Region:
    __slots__ = ("begin", "end", "extents")

    def __init__(self, begin: int = 0, end: int = 0,
                 extents: list[tuple[int, int]] | None = None):
        self.begin = begin
        self.end = end
        self.extents = extents if extents is not None else []


def _should_skip(skips: list[_Region], begin: int, end: int) -> bool:
    return any(s.begin <= begin and s.end >= end for s in skips)


def _best_region(extents: list[tuple[int, int, int]], skips: list[_Region],
                 position_count: int, window_width: int) -> _Region:
    """``_bestRegion`` (ref :101-157): grow a window from each extent,
    absorbing later extents while the span fits ``window_width``; keep the
    window covering the most unique nodes (strict > ⇒ earliest wins ties)."""
    best = _Region()
    best_unique = 0
    for i, (b, e, node) in enumerate(extents):
        if _should_skip(skips, b, e):
            continue
        if b >= position_count:
            break
        rbegin, rend = b, e
        rextents = [(b, e)]
        nodes = {node}
        for j in range(i, len(extents)):
            jb, je, jn = extents[j]
            new_end = max(je, rend)
            if new_end - rbegin > window_width or _should_skip(skips, jb, je):
                break
            # merge duplicate/overlapping extents (assignment, not max —
            # faithful to ref :139-143)
            if rextents[-1][1] < jb:
                rextents.append((jb, je))
            else:
                rextents[-1] = (rextents[-1][0], je)
            nodes.add(jn)
            rend = new_end
        if best_unique < len(nodes):
            best = _Region(rbegin, rend, rextents)
            best_unique = len(nodes)
    return best


def _build_regions(extents: list[tuple[int, int, int]], position_count: int,
                   match_width: int, window_width: int) -> list[_Region]:
    """``_buildRegions`` (ref :164-198)."""
    if not extents:
        return []
    regions: list[_Region] = []
    words_used = 0
    while words_used < window_width:
        r = _best_region(extents, regions, position_count,
                         window_width - words_used)
        words_used += r.end - r.begin
        if r.end - r.begin == 0:
            break
        regions.append(r)
        regions.sort(key=lambda x: x.begin)
    for r in regions:
        r.begin = max(0, r.begin - match_width // 2)
        r.end = min(position_count, r.end + match_width // 2)
    return regions


# ---------------------------------------------------------------------------
# text assembly (ref :204-399)
# ---------------------------------------------------------------------------

_C_SPACE = frozenset(b" \t\n\r\v\f")  # C isspace()
_STYLE_END = re.compile(rb"</style", re.I)
_SCRIPT_END = re.compile(rb"</script", re.I)


def _sanitize(text: bytes, begin: int, length: int) -> bytes:
    """``_sanitizeText`` (ref :204-269): drop markup, collapse whitespace.
    Comment/style/script skips use the intended forward search (see module
    docstring for the reference's swapped-strstr deviation)."""
    out = bytearray()
    was_space = False
    i = begin
    end = begin + length
    while i < end:
        c = text[i]
        if c == 0x3C:  # '<'
            i += 1
            while i < len(text) and text[i] in _C_SPACE:
                i += 1
            if text[i:i + 3] == b"!--":
                p = text.find(b"-->", i + 3)
                i = (p + 3) if p >= 0 else end
            elif text[i:i + 5].lower() == b"style":
                m = _STYLE_END.search(text, i)
                p = text.find(b">", m.end()) if m else -1
                i = (p + 1) if p >= 0 else end
            elif text[i:i + 6].lower() == b"script":
                m = _SCRIPT_END.search(text, i)
                p = text.find(b">", m.end()) if m else -1
                i = (p + 1) if p >= 0 else end
            else:  # regular tag
                p = text.find(b">", i)
                i = (p + 1) if p >= 0 else end
            continue
        if c in _C_SPACE:
            if not was_space:
                was_space = True
                out.append(0x20)
        else:
            out.append(c)
            was_space = False
        i += 1
    return bytes(out)


class SnippetBuilder:
    """Faithful port of the region-and-render pipeline; ``html=False``
    (the runquery default, ref:runquery/IndriRunQuery.cpp:495) UPPERCASES
    matches and wraps lines; ``html=True`` emits ``<strong>`` tags."""

    def __init__(self, html: bool = False):
        self._html = html

    def _highlight(self, region: bytes) -> bytes:
        if self._html:
            return b"<strong>" + region + b"</strong>"
        return region.upper()  # ASCII toupper per byte (ref :281-283)

    def _ellipsis(self) -> bytes:
        return b"<strong>...</strong>" if self._html else b"..."

    def _complete(self, snippet: bytearray) -> None:
        """Text-mode line breaks at ≥50-char word boundaries (ref :317-331)."""
        if self._html:
            return
        i = 0
        while i < len(snippet):
            i += 50
            while i < len(snippet) and snippet[i] not in _C_SPACE:
                i += 1
            if i < len(snippet):
                snippet[i] = 0x0A

    def build(self, text: bytes, positions: list[tuple[int, int]],
              extents: list[tuple[int, int, int]]) -> str:
        """``build`` (ref :337-399).  ``positions`` = per-token-slot byte
        extents; ``extents`` = (begin, end, node_index) matches sorted by
        begin."""
        if not extents:
            return ""
        match_width = max(15, min(30, len(extents)))  # ref :349-350
        regions = _build_regions(extents, len(positions), match_width,
                                 WINDOW_SIZE)
        snippet = bytearray()
        word_count = 0
        for i, region in enumerate(regions):
            if word_count >= WINDOW_SIZE:
                break
            if region.begin != 0 and i == 0:
                snippet += self._ellipsis()
            if region.end > len(positions):
                continue
            begin_byte = positions[region.begin][0]
            end_byte = positions[region.end - 1][1]
            current = begin_byte
            word_count += region.end - region.begin
            for eb, ee in region.extents:
                if ee > len(positions):
                    continue
                bm = positions[eb][0]
                em = positions[ee - 1][1]
                snippet += _sanitize(text, current, bm - current)
                snippet += self._highlight(_sanitize(text, bm, em - bm))
                current = em
            snippet += _sanitize(text, current, end_byte - current)
            if region.end != len(positions) - 1:
                snippet += self._ellipsis()
        self._complete(snippet)
        return snippet.decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# driver entry: snippets for a result list
# ---------------------------------------------------------------------------


def _doc_texts(reader, doc_ids: list[int]) -> dict[int, str]:
    """doc_id → stored text, via a doc_id-pruned docstore read (only the k
    result rows are decoded; the docs dir is doc-range sharded so row-group
    pruning applies)."""
    if "content" not in reader._dset("docs").schema.names:
        raise ValueError("index built without store_content=True; "
                         "snippets need the docstore")
    t = reader._point_read("docs", doc_ids, ["doc_id", "content"])
    return dict(zip(t.column("doc_id").to_pylist(),
                    t.column("content").to_pylist()))


def build_snippets(reader, query: str, doc_ids: list[int],
                   html: bool = False,
                   texts: dict[int, str] | None = None) -> dict[int, str]:
    """Snippets for ``doc_ids`` under ``query`` (any IndriQL query the
    structured engine accepts, including bare terms).  Returns
    {doc_id: snippet}; a document with no match yields ""
    (ref :345-346).  ``texts`` lets a caller that already fetched the
    docstore rows (e.g. runquery with print_documents) skip the second
    read."""
    mode = getattr(reader.cfg, "tokenizer", "word") or "word"
    if mode not in ("word", "char"):
        raise ValueError(
            f"snippets need a built-in tokenizer mode (word|char) to map "
            f"index positions to bytes; index uses {mode!r}")
    eng = StructuredQueryEngine(reader)
    root = parse_query(query)
    leafs: set[str] = set()
    eng._leaf_terms(root, leafs)
    # prune the postings fetch to the result docs' id range: snippets only
    # need positions for the k result documents, so block-pruned decode
    # instead of each term's full positional list (a stopword-ish term at
    # web scale is GBs of positions for 10 needed docs)
    doc_range = ((min(doc_ids), max(doc_ids) + 1) if doc_ids else None)
    eng._postings = eng._fetch_postings(sorted(leafs), doc_range=doc_range,
                                        need_positions=True,
                                        doc_set=list(doc_ids))
    if texts is None:
        texts = _doc_texts(reader, list(doc_ids))
    # ``_documentMatches`` for every result doc at once: (begin, end,
    # node index) extents, sorted by begin per doc (``beginsBefore``,
    # Extent.hpp:62-64; a stable sort keeps node order on ties)
    cand = np.unique(np.asarray(doc_ids, dtype=np.int64))
    ev = _ExtentEval.documents(eng, cand)
    sets = [_scorer_extents(ev, nd) for nd in collect_raw_scorers(root)]
    d, b, e = (np.concatenate(col) for col in zip((_EMPTY,) * 3, *sets))
    node = np.repeat(np.arange(len(sets)), [len(x[0]) for x in sets])
    o = np.lexsort((b, d))
    d, b, e, node = d[o], b[o], e[o], node[o]
    builder = SnippetBuilder(html)
    out: dict[int, str] = {}
    for did in doc_ids:
        text = texts.get(did)
        if text is None:
            out[did] = ""
            continue
        tb = text.encode("utf-8")
        positions = [(pb, pe) for _t, pb, pe in tokenize_with_offsets(tb, mode)]
        i = int(np.searchsorted(cand, did))
        sl = slice(int(np.searchsorted(d, i, "left")),
                   int(np.searchsorted(d, i, "right")))
        extents = list(zip(b[sl].tolist(), e[sl].tolist(),
                           node[sl].tolist()))
        out[did] = builder.build(tb, positions, extents)
    return out
