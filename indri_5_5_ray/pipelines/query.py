"""BM25 (okapi baseline) query engine over the built index.

Score semantics pinned to the reference (rank-identity contract):

* ``idf = log((N - df + 0.5) / (df + 0.5))`` — may be negative for common
  terms, kept as-is (ref:src/TermScoreFunctionFactory.cpp:94);
* doc score per term = ``qtw · idf·(k1+1)·tf / (tf + k1·(1-b) +
  k1·b·dl/avgdl)`` with the same factored constants
  (ref:include/indri/TFIDFTermScoreFunction.hpp:92-109, _precomputeConstants
  :53-60);
* ``qtw = (k3+1)·qtf / (k3+qtf)`` (ref:TFIDFTermScoreFunction.hpp:140-143);
* ``avgdl = contextSize / documentCount`` with contextSize counting stopped
  slots (ref:src/TermScoreFunctionFactory.cpp:95);
* statistics are GLOBAL across all index partitions, gathered before scoring
  (ref:src/QueryEnvironment.cpp:957-970);
* per-doc accumulation sums terms in query order (``PlusNode``,
  ref:src/PlusNode.cpp:75-106);
* final ranking: score desc → doc_id desc (``ScoredExtentResult::score_greater``
  ref:include/indri/ScoredExtentResult.hpp:32-47), stable sort + truncate
  (ref:src/QueryEnvironment.cpp:985-988).

One scorer, ``BM25Scorer.score_exhaustive``: it gathers every block of
every query term (only a shard's blocks under ``doc_range``), decodes
them in one call laid out in query-term order, scores that flat batch in
one pass and sums it per doc with one ``np.bincount`` over the decoded
doc-id window, so a call costs the same numpy calls whatever its number
of terms (only the per-block decode loop grows).  This is the
reference's own algorithm — its ``PlusNode`` is not SkippingCapable
(ref:src/PlusNode.cpp:36-42), so the okapi baseline never prunes.

One posting lookup.  Each bucket's rows are one uncompressed Arrow IPC
file, sorted by term then first_doc and memory-mapped once per reader: a
term's rows are the contiguous span a binary search on the term column
finds (the ``(startOffset, length)`` read of the reference's
``DiskTermData``, ref:include/indri/DiskTermData.hpp:27-38), and its
(cf, df) is the sum over that span.  The OS page cache holds the mapped
files, so the reader keeps no per-term cache of its own.

One posting reader.  The posting-row layout — ``first_doc`` plus the
per-block offset/length/n_docs/last_doc lists, where a block's doc gaps
count from its ``first``, the previous block's last + 1 — is known here
only: ``posting_blocks`` turns a table of posting rows into flat
per-block arrays over zero-copy views of the payload buffers.  It runs
once per mapped bucket file (``_BucketFile.blocks``), so a term's blocks
are one slice of its file's block arrays, and ``IndexReader.blocks``
gathers a query's slices without building a row table; the ``term_rows``
row tables serve dumpindex and the tests.  ``read_postings`` is the one
block walk (gather, select, one decode, exact range mask, cut by term)
that LM, the structured engine and dumpindex read postings
through (the single ``DiskDocListIterator`` of the reference,
ref:src/DiskDocListIterator.cpp:21-56); BM25 takes the same walk
(``_select``, ``_walk``) and scores the flat batch uncut; the RM feedback
scan selects and decodes ``IndexReader.blocks`` itself.

One doc-keyed map.  Each index dir has one map, ``docnos/docnos.arrow``
(a docno and a dl column dense over the dir's doc_id range), mapped once
per reader: a docno page is a ``searchsorted`` over the dirs' first ids
and one Arrow ``take`` per dir it hits, and a doc-length read is the same
dispatch and one numpy gather from the mapped ``dl`` view (the
reference's cached ``documentLengths``, ref:src/DiskIndex.cpp:103-104),
so no reader copies the lengths onto its heap.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

# decode_block is not called here; it stays importable from this module
# because the traced benchmark (perfbench/run.py) wraps it by name, as it
# wraps decode_doc_tf_batch — PostingBlocks.decode calls both batch
# decoders through this module's globals, offsets as the second positional
# argument, so the wrap sees and counts every decode
from ..codec import decode_block, decode_doc_tf_batch, decode_full_batch  # noqa: F401
from ..config import IndexConfig
from ..stages.ingest import TermProcessor
from ..stages.postings import (DOCNO_MAP, INDEX_FORMAT, POSTINGS_SCHEMA,
                               footer_index, parquet_listing, read_keyed,
                               term_bucket)
from ..tokenizer import tokenize


def process_query(text: str, cfg: IndexConfig, proc: TermProcessor | None = None) -> list[tuple[str, int]]:
    """Query text → [(indexed term, qtf)] in first-occurrence order.

    Query terms run through the same normalize→stop→stem chain as documents
    (``Repository::processTerm``, ref:src/Repository.cpp:1087-1112); qtf
    counts duplicates of the *processed* term (``QueryTFWalker``,
    ref:src/QueryEnvironment.cpp:976-980).
    """
    proc = proc or TermProcessor(cfg)
    counts: dict[str, int] = {}
    for raw in tokenize(text, cfg.tokenizer):
        term = proc.process(raw)
        if term is None:
            continue
        counts[term] = counts.get(term, 0) + 1
    return list(counts.items())


def load_deleted(path: Path | str) -> np.ndarray | None:
    """deleted.parquet → sorted unique doc_id array; None when the file is
    absent OR holds zero rows (an empty list must behave as 'no deletions' —
    a 0-size array would make searchsorted-based masks index out of
    bounds)."""
    path = Path(path)
    if not path.exists():
        return None
    arr = np.unique(
        pq.read_table(path, columns=["doc_id"]).column("doc_id").to_numpy())
    return arr if len(arr) else None


def read_manifest(index_dir: str | Path) -> dict:
    """An index's manifest.  An index whose manifest carries another
    ``format_version`` than ``INDEX_FORMAT`` is refused: it must be
    rebuilt (every reader and writer of an existing index opens it
    here)."""
    m = json.loads((Path(index_dir) / "manifest.json").read_text())
    if m.get("format_version") != INDEX_FORMAT:
        raise ValueError(
            f"{index_dir}: index format {m.get('format_version')} is not "
            f"{INDEX_FORMAT}; rebuild the index with this version")
    return m


def _overlaps(rows: pa.Table, doc_range: tuple[int, int]) -> pa.ChunkedArray:
    """Mask of posting rows whose [first_doc, last_doc] meets [lo, hi)."""
    return pc.and_(pc.greater_equal(rows.column("last_doc"), doc_range[0]),
                   pc.less(rows.column("first_doc"), doc_range[1]))


class IndexReader:
    """Read-side handle on one index directory, or on N indexes with
    disjoint docID ranges (the segments of a ``Repository`` — the
    reference's one inference network over every index of a repository,
    ref:src/InferenceNetwork.cpp:118-176).

    Every read goes through file sets spanning all dirs (``_dset``: the
    row-group index, the docs/fields datasets; ``_spans``: a term's rows
    in each dir's mapped bucket file; ``doc_maps``: every dir's mapped
    doc-keyed map), so a segment boundary is one more file boundary.
    Statistics are the sums over the manifests (global, so scores equal a
    merged single index's), and the deleted set is the union of every
    dir's ``deleted.parquet`` and ``deleted_path`` (a repository's own
    list).  An index whose manifest carries another ``format_version``
    than ``INDEX_FORMAT`` is refused: it must be rebuilt."""

    def __init__(self, index_dir: str | list[str],
                 deleted_path: str | None = None):
        self.index_dirs = ([str(index_dir)] if isinstance(index_dir, (str, Path))
                           else [str(d) for d in index_dir])
        if not self.index_dirs:
            raise ValueError("no index dirs")
        self.index_dir = self.index_dirs[0]
        manifests = [read_manifest(d) for d in self.index_dirs]
        self.cfg = IndexConfig.from_dict(manifests[0]["config"])
        if any(IndexConfig.from_dict(m["config"]).to_dict() != self.cfg.to_dict()
               for m in manifests[1:]):
            raise ValueError("segment configs differ")
        if len(manifests) == 1:
            self.manifest = manifests[0]
        else:
            from .build import sum_field_stats

            self.manifest = {
                "max_doc_id": max(m["max_doc_id"] for m in manifests),
                "config": self.cfg.to_dict(),
                "doc_count": sum(m["doc_count"] for m in manifests),
                "total_terms": sum(m["total_terms"] for m in manifests),
                "field_stats": sum_field_stats(
                    m.get("field_stats") for m in manifests),
            }
        self.doc_count = self.manifest["doc_count"]
        self.total_terms = self.manifest["total_terms"]
        self.avgdl = self.total_terms / self.doc_count
        # deleted-document list (DeletedDocumentList analogue,
        # ref:src/DeletedDocumentList.cpp): collection statistics keep the
        # deleted docs until compaction, exactly like the reference
        self.deleted_path = deleted_path
        paths = [Path(d) / "deleted.parquet" for d in self.index_dirs]
        if deleted_path:
            paths.append(deleted_path)
        lists = [a for p in paths if (a := load_deleted(p)) is not None]
        self.deleted: np.ndarray | None = (
            np.unique(np.concatenate(lists)) if lists else None)
        self._maps: dict[tuple[str, int], _BucketFile] = {}
        self._stats_spans: dict[str, list] = {}  # see term_stats
        self._doc_maps: tuple[np.ndarray, list[pa.Array],
                              list[np.ndarray]] | None = None
        # per-subdir dataset handles and doc_id footer indexes: the dirs
        # do not change while the reader is open, so the file listing and
        # footers are paid once per reader, not per point lookup
        self._dsets: dict[str, pads.Dataset] = {}
        self._doc_index: dict[str, list] = {}

    def _dset(self, sub: str) -> pads.Dataset:
        """One dataset over ``sub`` of every dir; FileNotFoundError when a
        dir lacks it."""
        ds = self._dsets.get(sub)
        if ds is None:
            parts = [pads.dataset(f"{d}/{sub}", format="parquet")
                     for d in self.index_dirs]
            ds = parts[0] if len(parts) == 1 else pads.dataset(
                [f for p in parts for f in p.files], schema=parts[0].schema,
                format="parquet")
            self._dsets[sub] = ds
        return ds

    def _footers(self, sub: str) -> list:
        """The doc_id footer index (``stages.postings.footer_index``) of
        ``sub`` over every dir, dir by dir, built once per reader;
        FileNotFoundError when a dir lacks ``sub``."""
        idx = self._doc_index.get(sub)
        if idx is None:
            idx = self._doc_index[sub] = footer_index(
                [f for d in self.index_dirs
                 for f, _, _ in parquet_listing(f"{d}/{sub}")], "doc_id")
        return idx

    def _point_read(self, sub: str, doc_ids: list[int],
                    columns: list[str]) -> pa.Table:
        """doc_id point read over the doc_id-sorted dir ``sub`` of every
        dir: the rows of the requested ids (``read_keyed`` over the held
        footer index, so only the row groups whose doc_id range holds a
        requested id are decoded), in doc_id order; content docstores use
        256-row groups, so a k=10 snippet page decodes ~10×256 rows."""
        t = read_keyed(self._footers(sub), "doc_id", ids=doc_ids,
                       columns=list(dict.fromkeys(["doc_id", *columns])))
        d = t.column("doc_id").to_numpy()
        if not (d[1:] >= d[:-1]).all():
            t = t.take(np.argsort(d, kind="stable"))
        return t.select(columns)

    def keep_mask(self, doc_ids: np.ndarray) -> np.ndarray:
        """Boolean mask of NOT-deleted docs (True = keep; DeletedDocumentList
        analogue, ref:src/DeletedDocumentList.cpp)."""
        deleted = self.deleted
        if deleted is None or not len(deleted) or not len(doc_ids):
            return np.ones(len(doc_ids), dtype=bool)
        pos = np.minimum(np.searchsorted(deleted, doc_ids), len(deleted) - 1)
        return deleted[pos] != doc_ids

    # -- doc metadata -------------------------------------------------------

    def doc_maps(self) -> tuple[np.ndarray, list[pa.Array], list[np.ndarray]]:
        """``(firsts, docnos, dls)``: every dir's doc-keyed map
        (``stages.postings.write_docno_map``) that holds a row, sorted by
        its first doc_id — the ``docno`` column as an Arrow array and the
        ``dl`` column as a read-only int32 numpy view, both zero-copy over
        the memory-mapped file (one empty map when no dir has a row);
        opened once per reader."""
        if self._doc_maps is None:
            maps = []
            for d in self.index_dirs:
                f = pa.ipc.open_file(pa.memory_map(str(Path(d, DOCNO_MAP))))
                if f.num_record_batches:
                    b = f.get_batch(0)
                    maps.append((int(f.schema.metadata[b"first"]),
                                 b.column("docno"),
                                 b.column("dl").to_numpy(zero_copy_only=True)))
            maps = sorted(maps, key=lambda m: m[0]) or [
                (0, pa.array([], pa.large_string()), np.empty(0, np.int32))]
            firsts, docnos, dls = zip(*maps)
            self._doc_maps = (np.array(firsts, np.int64), list(docnos),
                              list(dls))
        return self._doc_maps

    def docnos(self, doc_ids) -> pa.Array:
        """docID → docno forward lookup (ref:src/LocalQueryServer.cpp:167-206):
        an Arrow (large) string array, one docno per id, in ``doc_ids`` order.

        One ``take`` from a plain index's memory-mapped map (the OS page
        cache holds the docnos, not the worker heap); over several dirs, a
        ``searchsorted`` over their first ids and one ``take`` per dir hit.
        An id no map covers (negative, past a map's end) or a
        deleted/deduplicated slot gives ``""``."""
        ids = np.asarray(doc_ids, np.int64).ravel()
        firsts, maps, _ = self.doc_maps()
        if len(maps) == 1:
            out = _take_slots(maps[0], ids - firsts[0])
        else:
            # one take per dir hit, then one take back into doc_ids order;
            # an id below every first reads a negative slot of the first map
            which = np.maximum(np.searchsorted(firsts, ids, "right") - 1, 0)
            order = np.argsort(which, kind="stable")
            w = which[order]
            out = pa.concat_arrays([pa.array([], pa.large_string())] + [
                _take_slots(maps[j], ids[order[w == j]] - firsts[j])
                for j in np.unique(w).tolist()]).take(np.argsort(order))
        return out.fill_null("") if out.null_count else out

    def doc_lens(self, doc_ids) -> np.ndarray:
        """docID → document length (stopped slots counted): an int32 array,
        one length per id, in ``doc_ids`` order — one gather from the
        memory-mapped ``dl`` view of the map holding each id, with the
        dispatch of :meth:`docnos`.  An id no map covers or a
        deduplicated slot gives 0."""
        ids = np.asarray(doc_ids, np.int64).ravel()
        firsts, _, dls = self.doc_maps()
        if len(dls) == 1:
            return _gather_slots(dls[0], ids - firsts[0])
        which = np.maximum(np.searchsorted(firsts, ids, "right") - 1, 0)
        out = np.empty(len(ids), np.int32)
        for j in np.unique(which).tolist():
            m = which == j
            out[m] = _gather_slots(dls[j], ids[m] - firsts[j])
        return out

    def doc_ids_of(self, docnos: list[str]) -> np.ndarray:
        """Sorted doc_ids whose docno is in ``docnos``: an equality scan
        over every dir's mapped docno map (the backward lookup,
        ref:src/Repository.cpp:367-387)."""
        want = pa.array(sorted(set(docnos)), pa.large_string())
        firsts, maps, _ = self.doc_maps()
        hits = [np.flatnonzero(pc.is_in(m, value_set=want).fill_null(
                    False).to_numpy(zero_copy_only=False)) + first
                for first, m in zip(firsts.tolist(), maps)]
        return np.sort(_cat(hits))

    def doc_vectors(self, doc_ids: list[int]) -> dict[int, dict[str, int]]:
        """doc_id → {term: tf} from the forward ("direct") index — a
        doc-range-pruned point read (the TermList role,
        ref:include/indri/TermList.hpp:105-131).  Raises FileNotFoundError
        when the index was built without ``store_direct``."""
        self._footers("direct")  # raises when built without store_direct
        if not doc_ids:
            return {}
        t = self._point_read("direct", doc_ids, ["doc_id", "terms", "tfs"])
        return {r["doc_id"]: dict(zip(r["terms"], r["tfs"]))
                for r in t.to_pylist()}

    def doc_vector_positional(self, doc_id: int) -> list[str | None]:
        """Positional term vector of one doc (dumpindex documentvector):
        index i → term at position i, None for stopped/termID-0 slots."""
        t = self._point_read("direct", [doc_id], ["terms", "tfs", "positions"])
        if t.num_rows == 0:
            return []
        dl = int(self.doc_lens([doc_id])[0])
        vec: list[str | None] = [None] * dl
        row = t.to_pylist()[0]
        cur = 0
        for term, tf in zip(row["terms"], row["tfs"]):
            for p in row["positions"][cur : cur + tf]:
                vec[p] = term
            cur += tf
        return vec

    def dictionary_prefix(self, prefix: str, cap: int) -> list[str]:
        """Alphabetical dictionary terms with ``prefix``, capped (wildcard
        expansion backend, ref:src/LocalQueryServer.cpp:139)."""
        dset = self._dset("dictionary")
        t = dset.to_table(
            filter=(pads.field("term") >= prefix) & (pads.field("term") < prefix + "\uffff"),
            columns=["term"],
        )
        terms = {x for x in t.column("term").to_pylist() if x.startswith(prefix)}
        return sorted(terms)[:cap]

    def load_prior(self, name: str, lo: int | None = None,
                   hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (doc_ids, log_priors) of a named prior, optionally bounded
        to a doc_id range (row-group pruned read): the dirs' tables
        concatenated; a dir without the prior leaves its docs to the
        engine's absent-doc default, and FileNotFoundError means no dir
        has it."""
        from .priors import load_prior

        parts = []
        for d in self.index_dirs:
            try:
                parts.append(load_prior(d, name, lo, hi))
            except FileNotFoundError:
                continue
        if not parts:
            raise FileNotFoundError(f"no prior named {name!r} in {self.index_dirs}")
        ids = _cat([i for i, _ in parts])
        lps = _cat([lp for _, lp in parts])
        order = np.argsort(ids, kind="stable")
        return ids[order], lps[order]

    # -- field extents -------------------------------------------------------

    def field_stats(self, field: str) -> dict | None:
        """Global field statistics from the manifest (total extent length,
        extent count, docs with field) — the fieldStatistics gather
        (ref:src/MemoryIndex.cpp:605-612)."""
        return (self.manifest.get("field_stats") or {}).get(field)

    def field_extents(self, field: str, doc_ids: list[int] | None = None,
                      doc_range: tuple[int, int] | None = None) -> pa.Table:
        """(doc_id, begins, ends, numbers, ordinals, parent_ordinals)
        extent rows of one field — a scan pruned by field value (row-group
        stats), or, when a doc set or a ``[lo, hi)`` doc range is given, a
        ``read_keyed`` of those docs over the held doc_id footer index.
        Raises FileNotFoundError when the index was built without field
        specs."""
        cols = ["doc_id", "begins", "ends", "numbers", "ordinals",
                "parent_ordinals"]
        if doc_ids is None and doc_range is None:
            return self._dset("fields").to_table(
                filter=pads.field("field") == field, columns=cols)
        lo, hi = doc_range or (None, None)
        t = read_keyed(self._footers("fields"), "doc_id", lo,
                       None if hi is None else hi - 1, ids=doc_ids,
                       columns=["field", *cols])
        return t.filter(pc.equal(t.column("field"), field)).select(cols)

    # -- postings access ----------------------------------------------------

    def _bucket_of(self, term: str) -> int:
        return term_bucket(term, self.cfg.n_buckets)

    def _bucket_file(self, d: str, bucket: int) -> "_BucketFile":
        """Bucket ``bucket``'s postings file of dir ``d``, mapped once per
        reader."""
        bf = self._maps.get((d, bucket))
        if bf is None:
            bf = self._maps[(d, bucket)] = _BucketFile(
                Path(d) / "postings" / f"postings-{bucket:05d}.arrow")
        return bf

    def posting_tables(self) -> list[pa.Table]:
        """Every bucket's posting rows, dir by dir (the whole-index scans:
        dumpindex validate and the RM feedback fallback)."""
        return [self._bucket_file(d, b).rows for d in self.index_dirs
                for b in range(self.cfg.n_buckets)]

    def _spans(self, term: str) -> list[tuple["_BucketFile", int, int]]:
        """``(file, a, b)``: rows ``[a, b)`` of ``file`` are ``term``'s, one
        entry per dir holding the term, in first_doc order (the dirs'
        docID ranges are disjoint)."""
        b = self._bucket_of(term)
        out = []
        for d in self.index_dirs:
            bf = self._bucket_file(d, b)
            lo, hi = bf.span(term)
            if hi > lo:
                out.append((bf, lo, hi))
        if len(out) > 1:
            out.sort(key=lambda s: int(s[0].first_doc[s[1]]))
        return out

    def _read_term_rows(self, terms: list[str],
                        doc_range: tuple[int, int] | None = None
                        ) -> pa.Table:
        """The posting rows of ``terms``, term-major with first_doc
        ascending: zero-copy slices of the mapped bucket files.
        ``doc_range=(lo, hi)`` keeps only rows whose [first_doc, last_doc]
        meets [lo, hi) — a shard worker never decodes other shards' salt
        rows of a hot term."""
        parts = [bf.rows.slice(lo, hi - lo) for t in sorted(set(terms))
                 for bf, lo, hi in self._spans(t)]
        if not parts:
            return POSTINGS_SCHEMA.empty_table()
        rows = pa.concat_tables(parts)
        return rows if doc_range is None else rows.filter(
            _overlaps(rows, doc_range))

    def term_rows(self, terms: list[str],
                  doc_range: tuple[int, int] | None = None) -> pa.Table:
        """All posting rows of ``terms`` (the ``BulkTree`` lookup of the
        reference, ref:src/IndexWriter.cpp:885-901): a term's rows are one
        contiguous span of its bucket's memory-mapped file, found by binary
        search.  Nothing is cached per term: the OS page cache holds the
        mapped files (the ListCache analogue, ref:include/indri/ListCache.hpp).

        ``doc_range=(lo, hi)`` keeps only rows whose [first_doc, last_doc]
        intersects [lo, hi) — the doc-partitioned scatter path."""
        return self._read_term_rows(terms, doc_range)

    def blocks(self, terms: list[str] | None,
               doc_range: tuple[int, int] | None = None) -> "PostingBlocks":
        """The posting blocks of ``terms``, term-major (terms sorted, a
        term's blocks doc-ascending): a term's rows ``[a, b)`` in a bucket
        file are that file's blocks ``[list_off[a], list_off[b])``, so the
        gather is one slice of the file's block arrays per span — no row
        table is assembled.  ``doc_range=(lo, hi)`` keeps only the blocks
        whose ``[first, last]`` meets ``[lo, hi)``.  ``terms=None`` gathers
        every term's blocks, file by file (the whole-index scan of RM
        feedback without a direct index).  A term the last ``term_stats``
        call looked up reuses the spans it found."""
        parts = []
        if terms is None:
            names: dict[str, int] = {}
            for bf in (self._bucket_file(d, b) for d in self.index_dirs
                       for b in range(self.cfg.n_buckets)):
                sel = (np.arange(len(bf.blocks)) if doc_range is None else
                       np.flatnonzero(_meets(bf.blocks, slice(None), doc_range)))
                if not len(sel):
                    continue
                # a block's row → its term, named only for the rows hit
                rows, inv = np.unique(bf.blocks.term[sel], return_inverse=True)
                tids = np.array([names.setdefault(t, len(names)) for t in
                                 bf.rows.column("term").take(rows).to_pylist()],
                                np.int64)
                parts.append((tids[inv], bf, sel))
            return _gather(list(names), parts)
        named: list[str] = []
        for t in sorted(set(terms)):
            spans = self._stats_spans.get(t)
            for bf, a, b in (self._spans(t) if spans is None else spans):
                lo, hi = int(bf.list_off[a]), int(bf.list_off[b])
                sel, n = slice(lo, hi), hi - lo
                if doc_range is not None:
                    sel = lo + np.flatnonzero(_meets(bf.blocks, sel, doc_range))
                    n = len(sel)
                if n:
                    if not named or named[-1] != t:
                        named.append(t)
                    parts.append((len(named) - 1, bf, sel))
        return _gather(named, parts)

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """Global (cf, df) per term: the sum over the term's posting rows in
        every dir (the values its dictionary rows hold; first query pass —
        the statistics gather of ref:src/QueryEnvironment.cpp:957-965).
        The terms' row spans are kept until the next call, so the query's
        ``blocks`` gather searches no term twice (a term's spans never
        change under a reader, whose bucket files are mapped once)."""
        self._stats_spans = {t: self._spans(t) for t in terms}
        return {t: (sum(int(bf.cf[lo:hi].sum()) for bf, lo, hi in sp),
                    sum(int(bf.df[lo:hi].sum()) for bf, lo, hi in sp))
                for t, sp in self._stats_spans.items() if sp}


class _BucketFile:
    """One bucket's postings file, memory-mapped: the rows (zero-copy — the
    OS page cache holds them, not the worker heap), views of the term
    column's offsets and UTF-8 bytes, of cf, df and first_doc, and the
    file's flat block arrays (``blocks``, built once: each block's
    ``first`` and absolute payload offset are computed, every other field
    is a view of the mapped columns), where row ``r``'s blocks are
    ``[list_off[r], list_off[r + 1])``."""

    def __init__(self, path: Path):
        self.rows = pa.ipc.open_file(pa.memory_map(str(path))).read_all(
        ).combine_chunks()
        n = self.rows.num_rows
        e = np.empty(0, np.int64)
        self.blocks = posting_blocks(self.rows)
        if not n:
            self.offs, self.data = memoryview(b"\0" * 4).cast("i"), b""
            self.cf = self.df = self.first_doc = e
            self.list_off = np.zeros(1, np.int64)
            return
        term = self.rows.column("term").chunk(0)
        _valid, offs, data = term.buffers()
        self.offs = memoryview(offs).cast("i")[term.offset:term.offset + n + 1]
        self.data = memoryview(data)
        self.cf, self.df, self.first_doc = (
            self.rows.column(c).chunk(0).to_numpy()
            for c in ("cf", "df", "first_doc"))
        lists = self.rows.column("block_offset").chunk(0)
        self.list_off = lists.offsets.to_numpy()
        if self.list_off[0]:
            self.list_off = self.list_off - self.list_off[0]

    def span(self, term: str) -> tuple[int, int]:
        """``[a, b)``: the rows of ``term`` (rows are term-sorted; UTF-8
        byte order is code point order)."""
        offs, data = self.offs, self.data
        key = term.encode()

        def at(i: int) -> bytes:
            return data[offs[i]:offs[i + 1]].tobytes()

        idx = range(len(offs) - 1)
        a = bisect.bisect_left(idx, key, key=at)
        if a == len(idx) or at(a) != key:
            return a, a
        if a + 1 == len(idx) or at(a + 1) != key:  # most terms have one row
            return a, a + 1
        return a, bisect.bisect_right(idx, key, lo=a + 2, key=at)


def _take_slots(m: pa.Array, slots: np.ndarray) -> pa.Array:
    """``m.take(slots)``; a slot outside ``m`` reads null."""
    out = slots.view(np.uint64) >= len(m)  # a negative slot wraps past the end
    return m.take(pa.array(slots, mask=out) if out.any() else slots)


def _gather_slots(dl: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``dl[slots]``; a slot outside ``dl`` reads 0."""
    u = slots.view(np.uint64)  # a negative slot wraps past the end
    if not len(u) or int(u.max()) < len(dl):  # one reduction, no mask
        return dl[slots]
    got = np.zeros(len(slots), np.int32)
    got[u < len(dl)] = dl[slots[u < len(dl)]]
    return got


# -- the one posting reader -------------------------------------------------


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


_BLOCK_FIELDS = ("offset", "length", "n_docs", "first", "last")


@dataclass(frozen=True)
class PostingBlocks:
    """Flat per-block posting arrays: block ``i`` belongs to term
    ``terms[term[i]]`` (to row ``term[i]`` of the table ``posting_blocks``
    read, whose ``terms`` is empty), holds ``n_docs[i]`` docs in
    ``[first[i], last[i]]`` and is encoded at ``offset[i]`` (length
    ``length[i]``) in the ``uint8`` memoryview ``views[view[i]]``
    — a zero-copy view of a ``postings`` buffer, so no payload byte is
    copied."""

    terms: list[str]
    term: np.ndarray
    view: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    n_docs: np.ndarray
    first: np.ndarray
    last: np.ndarray
    views: list[memoryview]

    def __len__(self) -> int:
        return len(self.first)

    def decode(self, sel, positions: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(doc_ids, tfs, flat positions | None)`` of blocks ``sel`` (block
        indices, any order, repeats allowed), in ``sel`` order: one
        batch-decoder call, each block handed its own payload view, so a
        selection spanning terms, bucket files and segments decodes at
        once.  Every block decodes from its own bytes and its ``first``."""
        sel = np.asarray(sel, np.int64)
        if not len(sel):
            e = np.empty(0, np.int64)
            return e, e, (e if positions else None)
        views = self.views
        bufs = [views[v] for v in self.view[sel].tolist()]
        offs = self.offset[sel].tolist()
        if positions:
            return decode_full_batch(bufs, offs, self.length[sel].tolist(),
                                     self.n_docs[sel], self.first[sel])
        d, tf = decode_doc_tf_batch(bufs, offs, self.n_docs[sel],
                                    self.first[sel])
        return d, tf, None


def posting_blocks(rows: pa.Table) -> PostingBlocks:
    """The posting-row layout, read in one place: flatten a table of
    posting rows (a bucket file, or ``term_rows``) into per-block arrays (a
    row's head block starts at the row's ``first_doc``, every later block
    at the previous block's last + 1) and point each block at its payload
    bytes without copying them.  The term column stays in Arrow (a bucket
    file's blocks are built once per mapped file, and no term is turned
    into a string): ``term[i]`` is block ``i``'s row and ``terms`` is
    empty."""

    def flat(name: str) -> np.ndarray:
        return pc.list_flatten(rows.column(name)).to_numpy()

    row_nb = pc.list_value_length(rows.column("block_offset")).to_numpy()
    last = flat("block_last_doc")
    first = np.empty(len(last), np.int64)
    first[1:] = last[:-1] + 1
    nz = row_nb > 0
    first[(np.cumsum(row_nb) - row_nb)[nz]] = \
        rows.column("first_doc").to_numpy()[nz]
    row = np.repeat(np.arange(rows.num_rows, dtype=np.int64), row_nb)
    views, row_base, chunk_rows = [], [], []
    for chunk in rows.column("postings").chunks:
        _valid, offs, data = chunk.buffers()
        otype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        row_base.append(np.frombuffer(offs, otype)[
            chunk.offset:chunk.offset + len(chunk)].astype(np.int64))
        views.append(memoryview(np.frombuffer(data, np.uint8)) if data
                     is not None else memoryview(b""))
        chunk_rows.append(len(chunk))
    base = _cat(row_base) if row_base else np.empty(0, np.int64)
    return PostingBlocks(
        terms=[], term=row,
        # one payload view per chunk: a stride-0 view when there is one
        view=(np.broadcast_to(np.int64(0), row.shape) if len(views) <= 1
              else np.repeat(np.arange(len(views)), chunk_rows)[row]),
        offset=base[row] + flat("block_offset"), length=flat("block_length"),
        n_docs=flat("block_n_docs"), first=first, last=last, views=views)


def _meets(pb: PostingBlocks, sel, doc_range: tuple[int, int]) -> np.ndarray:
    """Mask of blocks ``sel`` whose ``[first, last]`` meets ``[lo, hi)``."""
    return (pb.last[sel] >= doc_range[0]) & (pb.first[sel] < doc_range[1])


def _gather(terms: list[str], parts: list[tuple]) -> PostingBlocks:
    """One ``PostingBlocks`` over ``parts``, in order: ``(tid, file, sel)``
    puts blocks ``sel`` (a slice or index array) of a bucket file's block
    arrays under term ``terms[tid]`` (``tid`` one index, or one per
    block)."""
    if not parts:
        e = np.empty(0, np.int64)
        return PostingBlocks(terms=[], term=e, view=e, views=[],
                             **{f: e for f in _BLOCK_FIELDS})
    cols: dict[str, list[np.ndarray]] = {f: [] for f in _BLOCK_FIELDS}
    tids, vids, lens, views, vid = [], [], [], [], {}
    for tid, bf, sel in parts:
        for f in _BLOCK_FIELDS:
            cols[f].append(getattr(bf.blocks, f)[sel])
        lens.append(len(cols["first"][-1]))
        v = vid.setdefault(id(bf), len(views))
        if v == len(views):
            views.append(bf.blocks.views[0])
        tids.append(tid)
        vids.append(v)
    # a part's term and view ids, one repeat each over the parts
    term = np.repeat(tids, lens) if np.ndim(tids[0]) == 0 else _cat(tids)
    return PostingBlocks(terms=terms, term=term, view=np.repeat(vids, lens),
                         views=views, **{f: _cat(c) for f, c in cols.items()})


def _select(pb: PostingBlocks, doc_set) -> np.ndarray:
    """Indices of the blocks of ``pb`` to decode: every block, or with
    ``doc_set`` only those holding a wanted id (blocks decode
    independently — each from its payload and its metadata ``first``)."""
    if doc_set is None:
        return np.arange(len(pb))
    ws = np.unique(np.asarray(doc_set, np.int64))
    # the first wanted id at or after each block's first doc (a sentinel
    # past every doc id when there is none)
    return np.flatnonzero(
        np.append(ws, 1 << 62)[np.searchsorted(ws, pb.first)] <= pb.last)


def _walk(pb: PostingBlocks, sel: np.ndarray,
          doc_range: tuple[int, int] | None, positions: bool):
    """Blocks ``sel`` of ``pb`` decoded in one call and masked to exactly
    ``[lo, hi)`` → ``(doc_ids, tfs, flat positions | None, postings kept
    per block)``, in ``sel`` order."""
    d, tf, pos = pb.decode(sel, positions)
    n = pb.n_docs[sel]
    if doc_range is not None:
        m = (d >= doc_range[0]) & (d < doc_range[1])
        if not m.all():
            if pos is not None:
                pos = pos[np.repeat(m, tf)]
            kept = np.concatenate(([0], np.cumsum(m)))
            n = np.diff(kept[np.concatenate(([0], np.cumsum(n)))])
            d, tf = d[m], tf[m]
    return d, tf, pos, n


def read_postings(reader, terms: list[str], *,
                  doc_range: tuple[int, int] | None = None,
                  doc_set: np.ndarray | list[int] | None = None,
                  positions: bool = False) -> dict[str, tuple]:
    """``{term: (doc_ids, tfs, flat positions | None, per-doc position
    starts | None)}`` for every term with a posting in scope — the one block
    walk behind every posting consumer.

    ``reader.blocks(terms, doc_range)`` gives the blocks that overlap
    ``doc_range``; with ``doc_set`` only those holding a wanted id are kept
    (``_select``).  Every kept block of every term is decoded in one call
    and masked to exactly ``[lo, hi)`` (``_walk``); blocks are term-major,
    so each term's postings are one slice of that flat batch, and a term's
    docs ascend.  ``doc_set`` prunes at block granularity only: the result
    holds whole blocks, so it suits per-doc lookups, not collection
    statistics.  Positions are decoded only when asked for and stored; doc
    i's run is ``flat[starts[i]:starts[i + 1]]``."""
    pb = reader.blocks(terms, doc_range)
    sel = _select(pb, doc_set)
    if not len(sel):
        return {}
    positions = positions and reader.cfg.store_positions
    d, tf, pos, n = _walk(pb, sel, doc_range, positions)
    # each term's selected blocks are one run; cut the postings there
    sel_term = pb.term[sel]
    runs = np.flatnonzero(sel_term[1:] != sel_term[:-1]) + 1
    at = np.concatenate(([0], np.cumsum(n)))
    cuts = at[np.concatenate(([0], runs, [len(sel)]))].tolist()
    pat = None
    if pos is not None:
        pat = np.zeros(len(d) + 1, np.int64)
        np.cumsum(tf, out=pat[1:])
    out: dict[str, tuple] = {}
    for t, a, b in zip(sel_term[np.concatenate(([0], runs))].tolist(),
                       cuts[:-1], cuts[1:]):
        if a == b:  # every posting outside the range
            continue
        if pat is None:
            out[pb.terms[t]] = (d[a:b], tf[a:b], None, None)
        else:
            out[pb.terms[t]] = (d[a:b], tf[a:b], pos[pat[a]:pat[b]],
                                pat[a:b + 1] - pat[a])
    return out


# _topk's chunk-max bound pays off above this many rows per kept row: one
# maximum.reduceat and one compare over n rows then cost less than an
# argpartition of all n (measured crossover)
TOPK_BOUND_ROWS = 64


def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank by score desc, doc_id desc; truncate to k
    (ref:include/indri/ScoredExtentResult.hpp:32-47).

    Above ``TOPK_BOUND_ROWS`` rows per kept row, every row scoring below
    the least of the maxima of k disjoint chunks is dropped first: each
    chunk holds a row at its maximum, so at least k rows score at or above
    that bound, and so does every row of the top k (the threshold step of
    *Cache-Efficient Top-k Aggregation*, VLDB 2023).  A NaN in any chunk
    makes the bound NaN, and then nothing is dropped.  Above k rows, an
    O(n) partition then finds the k-th largest non-NaN score and every
    row below it is dropped before the full-rank lexsort: every row tied
    AT that score is kept, so the final ordering (score desc, doc_id
    desc) is bit-identical to sorting the whole candidate array — a query
    ranks ~k rows, not ~N.  The partition runs on the negated scores,
    which sorts NaN rows last: the k-th score is NaN only when fewer than
    k rows are non-NaN, and then the full sort (NaN rows ranked last)
    runs on every row."""
    n = len(scores)
    if k > 0 and n > TOPK_BOUND_ROWS * k:
        # exactly k chunks (ceil-sized chunks could give fewer, and then
        # fewer than k rows need reach the bound)
        bound = np.maximum.reduceat(scores, np.arange(k) * n // k).min()
        if not np.isnan(bound):
            cand = np.flatnonzero(scores >= bound)
            doc_ids, scores = doc_ids[cand], scores[cand]
            n = len(scores)
    if k > 0 and n > k:
        s_k = -np.partition(-scores, k - 1)[k - 1]
        if not np.isnan(s_k):
            cand = np.flatnonzero(scores >= s_k)
            doc_ids, scores = doc_ids[cand], scores[cand]
    order = np.lexsort((-doc_ids, -scores))
    order = order[:k]
    return doc_ids[order], scores[order]


class BM25Scorer:
    """Okapi BM25 / lemur-tfidf scorer over an IndexReader.

    ``variant="okapi"`` (default) is the BM25 rank-identity path;
    ``variant="tfidf"`` is the factory's other documented rule
    (ref:src/TermScoreFunctionFactory.cpp:77-88): idf = log((N+1)/(df+0.5)),
    numerator constant qtw·idf·k1 with qtw = idf·k1·qtf/(qtf+k1)
    (ref:include/indri/TFIDFTermScoreFunction.hpp:110-126,144-147); the
    doc-side denominator is shared with okapi."""

    def __init__(self, reader: IndexReader, k1: float | None = None,
                 b: float | None = None, k3: float | None = None,
                 variant: str = "okapi"):
        self.r = reader
        cfg = reader.cfg
        self.k1 = cfg.k1 if k1 is None else k1
        self.b = cfg.b if b is None else b
        self.k3 = cfg.k3 if k3 is None else k3
        if variant not in ("okapi", "tfidf"):
            raise ValueError(f"unknown scorer variant {variant!r}")
        self.variant = variant
        self.proc = TermProcessor(cfg)  # query terms' stem memo

    # -- shared machinery ---------------------------------------------------

    def _term_constants(self, terms_qtf: list[tuple[str, int]]):
        """Precompute per-term (qtw·idf·(k1+1), k1(1-b), k1·b/avgdl)
        (ref:TFIDFTermScoreFunction.hpp:53-60)."""
        stats = self.r.term_stats([t for t, _ in terms_qtf])
        N = self.r.doc_count
        avgdl = self.r.avgdl
        k1, b, k3 = self.k1, self.b, self.k3
        out = []
        for term, qtf in terms_qtf:
            cf_df = stats.get(term)
            if cf_df is None:
                continue  # df=0: no postings, contributes nothing
            _cf, df = cf_df
            if self.variant == "okapi":
                idf = np.log((N - df + 0.5) / (df + 0.5))
                qtw = ((k3 + 1) * qtf) / (k3 + qtf)
                out.append((term, qtw * idf * (k1 + 1)))
            else:  # lemur tfidf (ref:src/TermScoreFunctionFactory.cpp:77-88)
                idf = np.log((N + 1) / (df + 0.5))
                qtw = (idf * k1 * qtf) / (qtf + k1)
                out.append((term, qtw * idf * k1))
        k1_one_minus_b = k1 * (1 - b)
        k1_b_over_avgdl = k1 * b / avgdl
        return out, k1_one_minus_b, k1_b_over_avgdl

    def _score_arrays(self, tf: np.ndarray, dl: np.ndarray, numer_const: float,
                      k1_1mb: float, k1b_avg: float) -> np.ndarray:
        return (numer_const * tf) / (tf + k1_1mb + k1b_avg * dl)

    # -- scoring ------------------------------------------------------------

    def score_exhaustive(self, terms_qtf: list[tuple[str, int]], k: int = 1000,
                         doc_range: tuple[int, int] | None = None,
                         doc_set: np.ndarray | list[int] | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k over every posting of every query term.

        The terms' blocks come from one ``IndexReader.blocks`` gather
        (term-sorted), selected and masked by the walk ``read_postings``
        takes (``_select``, ``_walk``), and are decoded in one call laid
        out in query-term order: each entry of ``terms_qtf`` gets its
        term's run of blocks, so a repeated entry is scored once per
        entry.  Their doc lengths are one ``IndexReader.doc_lens`` gather,
        one elementwise pass scores them (each posting's numerator is its
        entry's constant, repeated over the entry's blocks and then over
        each block's postings), and one ``np.bincount`` sums the scores
        per doc.  bincount adds its weights in array order, so every
        doc's sum is taken in query-term order, as the reference's
        ``PlusNode`` takes it.

        ``doc_range=(lo, hi)`` restricts to a doc-id shard — the
        doc-partitioned scatter of the reference
        (ref:src/QueryEnvironment.cpp:111-122) with range shards instead of
        ``docID % serverCount``: a shard fetches and decodes only its slice
        of every posting list, and global statistics keep shard scores
        identical to the unsharded ones.  ``doc_set`` intersects the
        result with a working set (documentSet overload,
        ref:src/QueryEnvironment.cpp:679-707)."""
        empty = np.empty(0, np.int64), np.empty(0, np.float64)
        consts, k1_1mb, k1b_avg = self._term_constants(terms_qtf)
        if not consts:
            return empty
        pb = self.r.blocks([t for t, _ in consts], doc_range)
        sel = _select(pb, doc_set)
        # blocks are term-sorted, so each term's selected blocks are one run
        # of sel: lay the runs out once per entry of consts, in query order
        # (fixed query order = fixed float order)
        runs = np.bincount(pb.term[sel], minlength=len(pb.terms)).tolist()
        run = dict(zip(pb.terms, zip(accumulate(runs, initial=0), runs)))
        lay = [(*run[t], c) for t, c in consts if run.get(t, (0, 0))[1]]
        if not lay:
            return empty
        starts, lens, ncs = zip(*lay)
        shift = [a - b for a, b in zip(starts, accumulate(lens, initial=0))]
        if any(shift):  # not already in query order
            sel = sel[np.repeat(shift, lens) + np.arange(sum(lens))]
        d, tf, _, n = _walk(pb, sel, doc_range, False)
        if not len(d):
            return empty
        scores = self._score_arrays(
            tf.astype(np.float64), self.r.doc_lens(d).astype(np.float64),
            np.repeat(np.repeat(ncs, lens), n),
            k1_1mb, k1b_avg)
        # one dense accumulation over the decoded doc-id window [amin, amax]:
        # bincount adds the weights in array order, and the postings are
        # laid out in query-term order, so a doc's sum is taken in
        # query-term order — PlusNode's summation sequence
        # (ref:src/PlusNode.cpp:75-106), bit for bit.  Memory is
        # O(amax - amin), never O(max_doc_id): a segment built at a large
        # doc_id base allocates only the span its postings cover.
        amin = int(d.min())
        slot = d - amin
        dense = np.bincount(slot, weights=scores)
        touched = np.zeros(len(dense), bool)
        touched[slot] = True
        cand = np.flatnonzero(touched) + amin
        cand = cand[self.r.keep_mask(cand)]
        if doc_set is not None:
            ws = np.unique(np.asarray(doc_set, dtype=np.int64))
            cand = cand[np.isin(cand, ws, assume_unique=True)]
        return _topk(cand, dense[cand - amin], k)

    # the traced benchmark (perfbench/run.py) wraps this name; it exists
    # only for that wrap — callers use score_exhaustive
    score_blockmax = score_exhaustive


def format_trec(qid: str, doc_ids, scores, docnos, run_id: str = "indri55ray") -> list[str]:
    """TREC result lines ``qid Q0 docno rank score runID``
    (ref:runquery/IndriRunQuery.cpp:459-466)."""
    return [
        f"{qid} Q0 {docno} {rank + 1} {score:.6f} {run_id}"
        for rank, (docno, score) in enumerate(zip(docnos, scores))
    ]
