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

Two scorers, both returning identical rankings:

* ``score_exhaustive`` — decodes every block of every query term; vectorized
  numpy; this is the oracle path mirroring the reference baseline, which
  never prunes (``PlusNode`` is not SkippingCapable, ref:src/PlusNode.cpp:36-42);
* ``score_blockmax`` — rank-safe block-max pruning: doc-space segments are
  processed in descending upper-bound order and processing stops when the
  residual upper bound drops strictly below the top-k threshold
  (generalizing topdocs/max-score, ref:src/IndexWriter.cpp:531-607,
  ref:src/WeightedAndNode.cpp:32-74; skipping is strict-inequality so results
  stay identical to the exhaustive path even under score ties).
"""

from __future__ import annotations

import json
import os
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..codec import decode_block, decode_doc_tf_batch
from ..config import IndexConfig
from ..stages.ingest import TermProcessor
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


def deleted_keep_mask(deleted: np.ndarray | None,
                      doc_ids: np.ndarray) -> np.ndarray:
    """True where doc survives (DeletedDocumentList analogue,
    ref:src/DeletedDocumentList.cpp)."""
    if deleted is None or not len(deleted) or not len(doc_ids):
        return np.ones(len(doc_ids), dtype=bool)
    pos = np.minimum(np.searchsorted(deleted, doc_ids), len(deleted) - 1)
    return deleted[pos] != doc_ids


class IndexReader:
    """Read-side handle on one index directory (or one doc-range shard of a
    sharded deployment; statistics always come from the global manifest)."""

    def __init__(self, index_dir: str):
        self.index_dir = str(index_dir)
        self.manifest = json.loads((Path(index_dir) / "manifest.json").read_text())
        self.cfg = IndexConfig.from_dict(self.manifest["config"])
        self.doc_count = self.manifest["doc_count"]
        self.total_terms = self.manifest["total_terms"]
        self.avgdl = self.total_terms / self.doc_count
        # deleted-document list (DeletedDocumentList analogue,
        # ref:src/DeletedDocumentList.cpp): collection statistics keep the
        # deleted docs until compaction, exactly like the reference
        self.deleted: np.ndarray | None = load_deleted(
            Path(index_dir) / "deleted.parquet")
        self._doc_lens: np.ndarray | None = None
        self._range_lens: dict[tuple[int, int], np.ndarray] = {}
        self._range_lens_bytes = 0
        self._docnos: dict[int, str] | None = None
        self._row_cache: dict[str, pa.Table] = {}
        # per-term postings payload bytes, aligned with _row_cache row order:
        # large_binary -> Python bytes is a full copy, so it is paid once at
        # cache insert, not per query (see term_payloads).  The copy doubles
        # a cached term's payload footprint, so eviction is ALSO byte-bound
        # (not just term-count-bound) to keep long-lived actors at the same
        # memory ceiling as before the payload cache existed
        self._payload_cache: dict[str, list[bytes]] = {}
        self._cache_payload_bytes = 0
        self._stats_cache: dict[str, tuple[int, int] | None] = {}
        # per-subdir dataset handles: discovery + fragment metadata (file
        # listing, footers) are paid once per reader, not per point lookup
        self._dsets: dict[str, pads.Dataset] = {}
        self._frag_bounds: dict[str, list] = {}
        self._rg_idx: dict[str, tuple] = {}
        self._pqfiles: dict[str, pq.ParquetFile] = {}
        self._pcat: list | None = None
        self._dcat: dict[int, tuple] | None = None

    def _dset(self, sub: str) -> pads.Dataset:
        ds = self._dsets.get(sub)
        if ds is None:
            ds = pads.dataset(f"{self.index_dir}/{sub}", format="parquet")
            self._dsets[sub] = ds
        return ds

    def _doc_bounds(self, sub: str) -> list:
        """Per-fragment (min, max, frag, row-group bounds) doc_id footer
        stats of a doc-range-sharded dataset dir, cached per reader; a
        group without stats gets (-1, huge) bounds, so it is always read."""
        bounds = self._frag_bounds.get(sub)
        if bounds is None:
            bounds = []
            for frag in self._dset(sub).get_fragments():
                md = pq.read_metadata(frag.path)
                try:
                    ci = md.schema.to_arrow_schema().names.index("doc_id")
                    rgs = []
                    for i in range(md.num_row_groups):
                        s = md.row_group(i).column(ci).statistics
                        rgs.append((int(s.min), int(s.max), i))
                    mn = min(r[0] for r in rgs)
                    mx = max(r[1] for r in rgs)
                except (ValueError, AttributeError, TypeError):
                    mn, mx = -1, 1 << 62
                    rgs = [(mn, mx, i) for i in range(md.num_row_groups)]
                bounds.append((mn, mx, frag, rgs))
            self._frag_bounds[sub] = bounds
        return bounds

    def _rg_index(self, sub: str) -> tuple:
        """``(mins, reach, maxs, paths, groups)`` of every row group of
        ``sub`` sorted by doc_id min; ``reach`` is the running max of
        ``maxs``, so each group before ``searchsorted(reach, x)`` ends
        below doc x."""
        idx = self._rg_idx.get(sub)
        if idx is None:
            rows = sorted((mn, mx, frag.path, g)
                          for _mn, _mx, frag, rgs in self._doc_bounds(sub)
                          for mn, mx, g in rgs)
            mins, maxs, paths, groups = zip(*rows) if rows else ((),) * 4
            maxs = np.asarray(maxs, np.int64)
            idx = (np.asarray(mins, np.int64), np.maximum.accumulate(maxs),
                   maxs, paths, groups)
            self._rg_idx[sub] = idx
        return idx

    def _point_read(self, sub: str, doc_ids: list[int],
                    columns: list[str]) -> pa.Table:
        """doc_id point read over a doc-range-sharded dataset dir: decodes
        only the row groups whose doc_id footer [min, max] holds a requested
        id (``searchsorted`` on ``_rg_index``), one cached-handle read per
        file, rows masked by the sorted ids; content docstores use 256-row
        groups, so a k=10 snippet page decodes ~10×256 rows."""
        ids = np.unique(np.asarray(doc_ids, np.int64))
        mins, reach, maxs, paths, groups = self._rg_index(sub)
        # per id: groups [lo, hi) start at or before it, not all end below it
        lo = np.searchsorted(reach, ids, "left")
        n = np.maximum(np.searchsorted(mins, ids, "right") - lo, 0)
        cand = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        by_file: dict[str, list[int]] = {}
        for j in np.unique(cand[maxs[cand] >= np.repeat(ids, n)]).tolist():
            by_file.setdefault(paths[j], []).append(groups[j])
        if not by_file:
            return self._dset(sub).schema.empty_table().select(columns)
        need = columns if "doc_id" in columns else ["doc_id", *columns]
        t = pa.concat_tables([
            self._pqfile(p).read_row_groups(g, columns=need, use_threads=False)
            for p, g in by_file.items()])
        d = t.column("doc_id").to_numpy()
        hit = ids[np.minimum(np.searchsorted(ids, d), len(ids) - 1)] == d
        return t.filter(hit).select(columns)

    def _pqfile(self, path: str):
        """LRU cache of at most 128 open ParquetFile handles for row-group
        point reads (footer parse is paid once per file, not per query)."""
        pf = self._pqfiles.pop(path, None)
        if pf is None:
            if len(self._pqfiles) >= 128:
                self._pqfiles.pop(next(iter(self._pqfiles)))
            pf = pq.ParquetFile(path)
        self._pqfiles[path] = pf
        return pf

    def keep_mask(self, doc_ids: np.ndarray) -> np.ndarray:
        """Boolean mask of NOT-deleted docs (True = keep)."""
        return deleted_keep_mask(self.deleted, doc_ids)

    # -- doc metadata -------------------------------------------------------

    def doc_lens(self) -> np.ndarray:
        """Dense doc_id → dl array (per-shard at scale; whole index here)."""
        if self._doc_lens is None:
            t = pq.read_table(f"{self.index_dir}/docs", columns=["doc_id", "dl"])
            arr = np.zeros(self.manifest["max_doc_id"] + 1, dtype=np.int32)
            arr[t.column("doc_id").to_numpy()] = t.column("dl").to_numpy()
            self._doc_lens = arr
        return self._doc_lens

    def doc_lens_range(self, lo: int, hi: int) -> np.ndarray:
        """Dense dl slice for doc_ids in [lo, hi) — index with ``d - lo``.

        Docs files are doc-range partitioned, so the filtered read prunes row
        groups; a sharded query actor holds O(shard span) memory instead of
        the whole index's dl array (at 10⁹ docs the dense array is GBs ×
        actors).  Slices are cached with a BYTE bound (not an entry count):
        block-max cells recur across queries, and the bound keeps a
        long-lived query actor's dl footprint at ~64 MB regardless of how
        many distinct cells its query mix touches."""
        hi = min(hi, self.manifest["max_doc_id"] + 1)
        if hi <= lo:
            return np.empty(0, np.int32)
        if self._doc_lens is not None:  # full array already resident
            return self._doc_lens[lo:hi]
        key = (lo, hi)
        hit = self._range_lens.get(key)
        if hit is None:
            dset = self._dset("docs")
            t = dset.to_table(
                filter=(pads.field("doc_id") >= lo) & (pads.field("doc_id") < hi),
                columns=["doc_id", "dl"],
            )
            hit = np.zeros(hi - lo, dtype=np.int32)
            hit[t.column("doc_id").to_numpy() - lo] = t.column("dl").to_numpy()
            if self._range_lens_bytes + hit.nbytes > (64 << 20):
                self._range_lens.clear()
                self._range_lens_bytes = 0
            self._range_lens[key] = hit
            self._range_lens_bytes += hit.nbytes
        return hit

    def docnos(self, doc_ids: list[int]) -> list[str]:
        """docID → docno forward lookup (ref:src/LocalQueryServer.cpp:167-206).

        Answered by ``_point_read``, which decompresses only the docs row
        groups holding the ids — no corpus-sized resident dict in query
        actors."""
        if not doc_ids:
            return []
        t = self._point_read("docs", doc_ids, ["doc_id", "docno"])
        lookup = dict(zip(t.column("doc_id").to_pylist(), t.column("docno").to_pylist()))
        return [lookup.get(d, "") for d in doc_ids]

    def doc_vectors(self, doc_ids: list[int]) -> dict[int, dict[str, int]]:
        """doc_id → {term: tf} from the forward ("direct") index — a
        doc-range-pruned point read (the TermList role,
        ref:include/indri/TermList.hpp:105-131).  Raises FileNotFoundError
        when the index was built without ``store_direct``."""
        if not (Path(self.index_dir) / "direct").exists():
            raise FileNotFoundError(f"{self.index_dir}/direct (store_direct off)")
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
        dl = int(self.doc_lens_range(doc_id, doc_id + 1)[0])
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
        terms = sorted(x for x in t.column("term").to_pylist() if x.startswith(prefix))
        return terms[:cap]

    def load_prior(self, name: str, lo: int | None = None,
                   hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (doc_ids, log_priors) of a named prior, optionally bounded
        to a doc_id range (row-group pruned read)."""
        from .priors import load_prior

        return load_prior(self.index_dir, name, lo, hi)

    # -- field extents -------------------------------------------------------

    def field_stats(self, field: str) -> dict | None:
        """Global field statistics from the manifest (total extent length,
        extent count, docs with field) — the fieldStatistics gather
        (ref:src/MemoryIndex.cpp:605-612)."""
        return (self.manifest.get("field_stats") or {}).get(field)

    def field_extents(self, field: str, doc_ids: list[int] | None = None,
                      doc_range: tuple[int, int] | None = None) -> pa.Table:
        """(doc_id, begins, ends, numbers) extent rows of one field —
        pruned by field value (row-group stats) and, when given, by doc set
        (doc-range partitioned files).  Raises FileNotFoundError when the
        index was built without field specs."""
        if not (Path(self.index_dir) / "fields").exists():
            raise FileNotFoundError(f"{self.index_dir}/fields (no field spec)")
        dset = self._dset("fields")
        expr = pads.field("field") == field
        if doc_ids is not None:
            expr = expr & pads.field("doc_id").isin(list(set(doc_ids)))
        if doc_range is not None:
            expr = expr & (pads.field("doc_id") >= doc_range[0]) \
                        & (pads.field("doc_id") < doc_range[1])
        cols = ["doc_id", "begins", "ends", "numbers"]
        # tag-tree columns (indexes built before ordinals existed lack them)
        names = dset.schema.names
        cols += [c for c in ("ordinals", "parent_ordinals") if c in names]
        if doc_range is not None and doc_ids is None:
            # sharded-extents scatter: read only the doc-range fragments
            # this shard owns (the fields dir is doc-range sharded; a
            # dataset-level scan evaluates every fragment), footer bounds
            # cached per reader exactly like _point_read
            lo, hi = doc_range
            hits = [frag for mn, mx, frag, _rgs in self._doc_bounds("fields")
                    if mx >= lo and mn < hi]
            if not hits:
                return pa.table({c: pa.array([], dset.schema.field(c).type)
                                 for c in cols})
            return pa.concat_tables(
                [frag.to_table(filter=expr, columns=cols) for frag in hits])
        return dset.to_table(filter=expr, columns=cols)

    # -- postings access ----------------------------------------------------

    def _bucket_of(self, term: str) -> int:
        import hashlib

        h = int.from_bytes(hashlib.md5(term.encode()).digest()[:4], "little")
        return h % self.cfg.n_buckets

    @staticmethod
    def _term_footer_catalog(files: list[Path], extra_cols: tuple = ()) -> list:
        """Per-file row-group TERM bounds of term-sorted shard files, built
        once from footers.  Entries: ``(ParquetFile, tmins, tmaxs,
        monotone, always, extras)`` — ``always`` holds row groups lacking
        term statistics (never pruned, so stats truncation/omission can't
        lose rows); ``monotone`` enables the bisect fast path, with a
        linear per-group range check as the fallback for files whose rows
        aren't term-sorted (e.g. indexes written by an older layout);
        ``extras[col] = (mins, maxs)`` carries per-group bounds of each
        requested numeric column (missing stats widen to (-1, huge),
        i.e. never prune)."""
        cat = []
        for fp in files:
            pf = pq.ParquetFile(str(fp))
            md = pf.metadata
            idx = {md.schema.column(i).path: i
                   for i in range(len(md.schema))}
            ti = idx["term"]
            tmins, tmaxs, always = [], [], []
            extras = {c: ([], []) for c in extra_cols}
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                ts = rg.column(ti).statistics
                if ts is None or not ts.has_min_max:
                    always.append(g)
                    tmins.append(None)
                    tmaxs.append(None)
                else:
                    tmins.append(ts.min)
                    tmaxs.append(ts.max)
                for c in extra_cols:
                    ci = idx.get(c)
                    s = rg.column(ci).statistics if ci is not None else None
                    ok = s is not None and s.has_min_max
                    extras[c][0].append(s.min if ok else -1)
                    extras[c][1].append(s.max if ok else 1 << 62)
            known = [(mn, mx) for mn, mx in zip(tmins, tmaxs)
                     if mn is not None]
            monotone = (not always) and all(
                known[i][0] <= known[i + 1][0]
                and known[i][1] <= known[i + 1][1]
                for i in range(len(known) - 1))
            cat.append((pf, tmins, tmaxs, monotone, always, extras))
        return cat

    @staticmethod
    def _term_row_groups(entry, terms: list[str],
                         per_group_gate=None) -> set[int]:
        """Row groups of one catalog entry that can hold any of ``terms``
        (bisect on monotone files, linear range check otherwise), plus the
        stats-less ``always`` groups; ``per_group_gate(g, term)`` can veto
        a candidate (e.g. the postings bucket check)."""
        import bisect

        pf, tmins, tmaxs, monotone, always, _extras = entry
        want = set(always)
        if monotone:
            for t in terms:
                lo = bisect.bisect_left(tmaxs, t)
                hi = bisect.bisect_right(tmins, t) - 1
                for g in range(lo, hi + 1):
                    if per_group_gate is None or per_group_gate(g, t):
                        want.add(g)
        else:
            for g, (mn, mx) in enumerate(zip(tmins, tmaxs)):
                if mn is None:
                    continue
                for t in terms:
                    if mn <= t <= mx and (per_group_gate is None
                                          or per_group_gate(g, t)):
                        want.add(g)
                        break
        return want

    def _postings_catalog(self) -> list:
        """Postings-dir term catalog (``_term_footer_catalog`` with the
        bucket and first/last_doc bounds as extras): a term fetch reads
        only the row groups whose term range can contain it — the files
        are written term-sorted with byte-bounded row groups by
        MergeWorker — instead of a ``pads.dataset(...).to_table(filter=)``
        scan that paid 20-40 ms per cold query at sf0.1 re-evaluating
        fragments (pyarrow does not prune row groups for isin)."""
        if self._pcat is None:
            self._pcat = self._term_footer_catalog(
                sorted((Path(self.index_dir) / "postings").glob("*.parquet")),
                ("bucket", "first_doc", "last_doc"))
        return self._pcat

    def _read_term_rows(self, terms: list[str],
                        doc_range: tuple[int, int] | None = None
                        ) -> pa.Table:
        """Row-group-pruned read of the posting rows for ``terms``.
        ``doc_range`` additionally drops row groups whose
        [min first_doc, max last_doc] statistics miss [lo, hi) — the
        sharded-scatter path, where a shard worker must not decode other
        shards' salt-row groups of a hot term; callers still apply the
        exact per-row mask in memory."""
        from ..stages.postings import POSTINGS_SCHEMA

        t_buckets = {t: self._bucket_of(t) for t in terms}
        parts = []
        for entry in self._postings_catalog():
            extras = entry[5]
            bmins, bmaxs = extras["bucket"]
            want = self._term_row_groups(
                entry, terms,
                lambda g, t: bmins[g] <= t_buckets[t] <= bmaxs[g])
            if doc_range is not None:
                fmins, _ = extras["first_doc"]
                _, lmaxs = extras["last_doc"]
                want = {g for g in want
                        if lmaxs[g] >= doc_range[0]
                        and fmins[g] < doc_range[1]}
            if want:
                # threaded: a hot term's payload spans many row groups
                # (512 KB each) — parallel decompress matters at 10M+ docs
                # (cold fetch of 3 top-cf terms measured 1.4x slower
                # single-threaded at the 9.8M A/B)
                parts.append(entry[0].read_row_groups(sorted(want)))
        if not parts:
            return POSTINGS_SCHEMA.empty_table()
        fetched = pa.concat_tables(parts)
        return fetched.filter(pc.is_in(fetched.column("term"),
                                       value_set=pa.array(terms)))

    def _dict_catalog(self) -> dict[int, tuple]:
        """Dictionary term catalog keyed by bucket: MergeWorker writes one
        term-sorted ``dictionary-{bucket:05d}.parquet`` per term-hash bucket
        with 4096-row groups, so a cold (cf, df) lookup decompresses ~one
        group of the term's own bucket file.  A file name that carries no
        bucket raises ValueError."""
        if self._dcat is None:
            files = sorted((Path(self.index_dir) / "dictionary").glob("*.parquet"))
            names = [re.fullmatch(r"dictionary-(\d+)\.parquet", f.name)
                     for f in files]
            if None in names:
                raise ValueError("dictionary file name carries no bucket: "
                                 f"{files[names.index(None)]}")
            self._dcat = {int(m.group(1)): entry for m, entry
                          in zip(names, self._term_footer_catalog(files))}
        return self._dcat

    def _read_dict_rows(self, terms: list[str]) -> pa.Table:
        """Dictionary rows of ``terms``, each looked up in its own bucket's
        file only (``_bucket_of``, the hash the merge buckets by)."""
        cat = self._dict_catalog()
        by_bucket: dict[int, list[str]] = {}
        for t in terms:
            by_bucket.setdefault(self._bucket_of(t), []).append(t)
        parts = []
        for b, b_terms in sorted(by_bucket.items()):
            if b in cat and (want := self._term_row_groups(cat[b], b_terms)):
                parts.append(cat[b][0].read_row_groups(sorted(want),
                                                       use_threads=False))
        if not parts:
            return pa.table({"term": pa.array([], pa.string()),
                             "cf": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64())})
        # cast to one schema: pre-r5-final dictionary shards mix
        # string/large_string terms (polars salt-merge vs select branch)
        parts = [p.cast(parts[0].schema) for p in parts]
        fetched = pa.concat_tables(parts)
        return fetched.filter(pc.is_in(fetched.column("term"),
                                       value_set=pa.array(terms)))

    def term_rows(self, terms: list[str],
                  doc_range: tuple[int, int] | None = None) -> pa.Table:
        """Partition-pruned fetch of all posting rows for ``terms``.

        Pruning: parquet filter on (bucket, term) — bucket is constant per
        output file (merge reducers are per-bucket) so row-group statistics
        skip non-matching files wholesale; the term filter prunes row groups
        within the bucket file (``BulkTree`` lookup analogue,
        ref:src/IndexWriter.cpp:885-901).  Fetched rows are cached per reader
        (one reader per scoring actor — the ListCache analogue,
        ref:include/indri/ListCache.hpp).

        ``doc_range=(lo, hi)`` additionally keeps only rows whose
        [first_doc, last_doc] intersects [lo, hi) — the doc-partitioned
        scatter path, where a shard worker must not pay for other shards'
        blocks.  Range fetches are not INSERTED into the per-term cache
        (they are shard-local), but when every term is already cached
        from a full fetch (e.g. the snippet builder re-fetching the terms
        the scorer just ran) the range filter is applied to the cached
        rows in memory instead of re-reading parquet."""
        from ..stages.postings import POSTINGS_SCHEMA

        if not terms:
            return POSTINGS_SCHEMA.empty_table()
        if doc_range is not None:
            lo, hi = doc_range
            if all(t in self._row_cache for t in terms):
                tables = [self._row_cache[t] for t in sorted(terms)
                          if self._row_cache[t].num_rows]
                if not tables:
                    return POSTINGS_SCHEMA.empty_table()
                t = pa.concat_tables(tables)  # term-major, first_doc asc
                mask = pc.and_(
                    pc.greater_equal(t.column("last_doc"), lo),
                    pc.less(t.column("first_doc"), hi))
                return t.filter(mask)
            t = self._read_term_rows(terms, doc_range)
            mask = pc.and_(pc.greater_equal(t.column("last_doc"), lo),
                           pc.less(t.column("first_doc"), hi))
            return t.filter(mask).sort_by(
                [("term", "ascending"), ("first_doc", "ascending")])
        missing = [t for t in terms if t not in self._row_cache]
        if missing:
            fetched = self._read_term_rows(missing)
            if (len(self._row_cache) > 8192
                    or self._cache_payload_bytes > (256 << 20)):
                keep = set(terms)  # bound long-lived actor memory
                for k in [k for k in self._row_cache if k not in keep]:
                    del self._row_cache[k]
                    self._payload_cache.pop(k, None)
                self._cache_payload_bytes = sum(
                    len(b) for pl_ in self._payload_cache.values() for b in pl_)
            for term in missing:
                mask = pc.equal(fetched.column("term"), term)
                # sorted ONCE at insert: per-query assembly below is then a
                # zero-copy concat in term order — re-sorting per query
                # copied every cached postings payload byte (the dominant
                # per-query cost for common terms)
                t_rows = fetched.filter(mask).sort_by(
                    [("first_doc", "ascending")])
                self._row_cache[term] = t_rows
                pl_ = t_rows.column("postings").to_pylist()
                self._payload_cache[term] = pl_
                self._cache_payload_bytes += sum(len(b) for b in pl_)
        tables = [self._row_cache[t] for t in sorted(terms)
                  if self._row_cache[t].num_rows]
        if not tables:
            return POSTINGS_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    def term_payloads(self, terms: list[str],
                      rows: pa.Table | None = None) -> list[bytes]:
        """Cached postings payload bytes for ``terms``, row-aligned with
        :meth:`term_rows`'s result for the same terms (same sorted-term,
        first_doc-ascending order).  Call AFTER term_rows so the cache is
        populated — a cache miss raises (silent misalignment would decode
        the wrong term's bytes); avoids re-copying every payload byte out of
        arrow per query.  ``rows`` is accepted for reader-interface parity
        (MultiIndexReader extracts from it); here it is used only to ASSERT
        alignment — rows from a ``doc_range`` fetch (which bypasses the
        cache) would silently pair the wrong payloads otherwise."""
        out: list[bytes] = []
        for t in sorted(terms):
            cached = self._payload_cache.get(t)
            if cached is None:
                raise ValueError(
                    f"term_payloads: no cached payloads for {t!r} — run a "
                    "cache-backed term_rows (no doc_range) for the same term "
                    "list first; doc_range fetches bypass the cache, and an "
                    "interleaved query may have evicted the entry")
            out.extend(cached)
        if rows is not None and len(out) != rows.num_rows:
            raise ValueError(
                f"term_payloads misaligned with rows ({len(out)} payloads vs "
                f"{rows.num_rows} rows) — rows must come from a cache-backed "
                "term_rows call (no doc_range) for the same term list")
        return out

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """Global (cf, df) per term from the dictionary (first query pass —
        the statistics gather of ref:src/QueryEnvironment.cpp:957-965)."""
        if not terms:
            return {}
        missing = [t for t in terms if t not in self._stats_cache]
        if missing:
            t = self._read_dict_rows(missing)
            found = {
                term: (int(cf), int(df))
                for term, cf, df in zip(
                    t.column("term").to_pylist(),
                    t.column("cf").to_pylist(),
                    t.column("df").to_pylist(),
                )
            }
            for term in missing:
                self._stats_cache[term] = found.get(term)
        return {t: s for t in terms if (s := self._stats_cache.get(t)) is not None}


def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank by score desc, doc_id desc; truncate to k
    (ref:include/indri/ScoredExtentResult.hpp:32-47).

    O(n) argpartition prunes to the k-th score boundary before the full-rank
    lexsort: every row tied AT the boundary score is kept, so the final
    ordering (score desc, doc_id desc) is bit-identical to sorting the whole
    candidate array — common-term queries rank ~k rows, not ~N."""
    n = len(scores)
    if k > 0 and n > 4 * k:
        part = np.argpartition(scores, n - k)[n - k:]
        s_k = scores[part].min()
        # NaN scores (possible in belief-network callers) land at the top of
        # an argpartition and poison min() — fall back to the full sort,
        # which ranks NaN rows last like the pre-prune behavior
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

    # -- exhaustive path ----------------------------------------------------

    def score_exhaustive(self, terms_qtf: list[tuple[str, int]], k: int = 1000,
                         doc_range: tuple[int, int] | None = None,
                         doc_set: np.ndarray | list[int] | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Exhaustive scoring; ``doc_range=(lo, hi)`` restricts to a doc-id
        shard — the doc-partitioned scatter of the reference
        (ref:src/QueryEnvironment.cpp:111-122) with range shards instead of
        ``docID % serverCount``: block metadata lets each shard decode only
        its slice of every posting list, and global statistics keep shard
        scores identical to the unsharded ones."""
        consts, k1_1mb, k1b_avg = self._term_constants(terms_qtf)
        if not consts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        rows = self.r.term_rows([t for t, _ in consts])
        has_pos = self.r.cfg.store_positions
        lo, hi = doc_range if doc_range is not None else (0, 1 << 62)
        if doc_range is None:
            doc_lens = self.r.doc_lens()
            base = 0
        else:
            # shard-sized dl slice, not the whole index's dense array
            doc_lens = self.r.doc_lens_range(lo, hi)
            base = lo

        # decode per term in query order; accumulate into a doc->score map

        row_terms = rows.column("term").to_pylist()
        payloads = rows.column("postings").to_pylist()
        offs = rows.column("block_offset").to_pylist()
        lens = rows.column("block_length").to_pylist()
        ndocs = rows.column("block_n_docs").to_pylist()
        row_first = rows.column("first_doc").to_pylist()
        all_block_last = rows.column("block_last_doc").to_pylist()
        term_doc_arrays: list[np.ndarray] = []
        term_score_arrays: list[np.ndarray] = []
        for term, numer_const in consts:  # fixed query order = fixed float order
            t_ids, t_tfs = [], []
            for ri, rt in enumerate(row_terms):
                if rt != term:
                    continue
                # select the blocks overlapping this shard's doc range, then
                # decode them all in one vectorized pass
                sel_off, sel_len, sel_nd = [], [], []
                prev_last = row_first[ri] - 1
                for off, ln, blast, nd in zip(
                    offs[ri], lens[ri], all_block_last[ri], ndocs[ri]
                ):
                    bfirst = prev_last + 1
                    prev_last = blast
                    if blast < lo or bfirst >= hi:
                        continue  # block outside this shard's doc range
                    sel_off.append(off)
                    sel_len.append(ln)
                    sel_nd.append(nd)
                if not sel_off:
                    continue
                d, tf = decode_doc_tf_batch(payloads[ri], sel_off, sel_len, sel_nd)
                if doc_range is not None:
                    m = (d >= lo) & (d < hi)
                    d, tf = d[m], tf[m]
                    if not len(d):
                        continue
                t_ids.append(d)
                t_tfs.append(tf)
            if not t_ids:
                continue
            d = np.concatenate(t_ids)
            tf = np.concatenate(t_tfs).astype(np.float64)
            dl = doc_lens[d - base].astype(np.float64)
            s = self._score_arrays(tf, dl, numer_const, k1_1mb, k1b_avg)
            term_doc_arrays.append(d)
            term_score_arrays.append(s)
        if not term_doc_arrays:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        # dense accumulation over the shard's doc-id SPAN (offset by lo): one
        # fancy-index += per term — exact because a term's doc_ids are
        # unique, and per-doc addition order equals query-term order,
        # matching PlusNode's summation sequence (ref:src/PlusNode.cpp:75-106).
        # Memory is O(hi - lo), which doc-range sharding bounds at scale.
        span = len(doc_lens)
        dense = np.zeros(span, dtype=np.float64)
        touched = np.zeros(span, dtype=bool)
        for d, s in zip(term_doc_arrays, term_score_arrays):
            dense[d - base] += s
            touched[d - base] = True
        cand = np.nonzero(touched)[0] + base
        keep = self.r.keep_mask(cand)
        cand = cand[keep]
        if doc_set is not None:
            # working-set restriction (documentSet overload,
            # ref:src/QueryEnvironment.cpp:679-707): global statistics, the
            # result set intersected with the given docIDs
            ws = np.asarray(sorted(set(int(d) for d in doc_set)), dtype=np.int64)
            if len(ws):
                pos = np.minimum(np.searchsorted(ws, cand), len(ws) - 1)
                cand = cand[ws[pos] == cand]
            else:
                cand = cand[:0]
        return _topk(cand, dense[cand - base], k)

    # -- block-max path -----------------------------------------------------

    def score_blockmax(self, terms_qtf: list[tuple[str, int]], k: int = 1000
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Rank-safe block-max scoring over doc-range cells.

        The doc-id space is gridded into cells; each cell's upper bound is
        Σ over query terms of the max block upper-bound overlapping the cell.
        Cells are processed in descending upper-bound order and every block
        overlapping a processed cell is decoded (decoded blocks are cached and
        sliced), so every doc in a processed cell is scored COMPLETELY — in
        fixed query-term order for float-identical sums.  Processing stops
        when a cell's upper bound is strictly below the k-th finalized score
        (tie-safe), guaranteeing skipped docs cannot enter the top-k.
        """
        consts, k1_1mb, k1b_avg = self._term_constants(terms_qtf)
        if not consts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        term_order = {t: i for i, (t, _) in enumerate(consts)}
        numer_by_ti = [c for _, c in consts]
        rows = self.r.term_rows(list(term_order))
        # doc lengths: dense only while the whole array is small (or already
        # resident from an exhaustive pass); past the gate each processed
        # CELL fetches its own dl slice via the row-group-pruned range read,
        # so a query actor holds O(processed cells), never O(max_doc_id) —
        # at 10⁹+ docs the dense array is 4 GB × every actor
        dense_gate = int(os.environ.get("INDRI55_DENSE_DL_DOCS", str(4 << 20)))
        use_dense = (self.r._doc_lens is not None
                     or self.r.manifest["max_doc_id"] + 1 <= dense_gate)
        doc_lens = self.r.doc_lens() if use_dense else None
        has_pos = self.r.cfg.store_positions
        n_terms = len(consts)

        # collect blocks — fully vectorized: flatten the per-row block
        # metadata lists straight out of arrow (one C pass per column) and
        # derive per-block term index / first-doc bound / upper bound with
        # numpy segment ops.  The per-Python-block loop this replaces cost
        # ~25 ms/query on common-term queries and grew with corpus size.
        from ..stages.postings import _flatten_list_column

        row_terms = rows.column("term").to_pylist()
        # payload bytes come from the reader's per-term cache (copied out of
        # arrow once at insert) — rows and payloads share the same
        # (sorted term, first_doc asc) row order; multi-segment readers
        # extract from the rows table passed here instead of re-fetching
        payloads = self.r.term_payloads(list(term_order), rows)
        row_first = rows.column("first_doc").to_numpy()
        nrows = rows.num_rows

        off_f, row_nb = _flatten_list_column(rows, "block_offset")
        ln_f, _ = _flatten_list_column(rows, "block_length")
        mtf_f, _ = _flatten_list_column(rows, "block_max_tf", np.float64)
        mdl_f, _ = _flatten_list_column(rows, "block_min_dl", np.float64)
        last_f, _ = _flatten_list_column(rows, "block_last_doc")
        nd_f, _ = _flatten_list_column(rows, "block_n_docs")
        nb = len(off_f)
        if nb == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ri_f = np.repeat(np.arange(nrows, dtype=np.int64), row_nb)
        ti_f = np.array([term_order[t] for t in row_terms], np.int64)[ri_f]
        # block first-doc lower bound: previous block's last+1; row head
        # starts at the row's first_doc
        first_f = np.empty(nb, np.int64)
        first_f[1:] = last_f[:-1] + 1
        head = np.concatenate(([0], np.cumsum(row_nb)))[:-1]
        nz = row_nb > 0
        first_f[head[nz]] = row_first[nz]
        nc_f = np.asarray(numer_by_ti, np.float64)[ti_f]
        # negative-idf terms can only lower a score → ub 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ub_f = np.where(
                nc_f > 0,
                (nc_f * mtf_f) / (mtf_f + k1_1mb + k1b_avg * mdl_f), 0.0)
        max_doc = int(last_f.max())

        # doc-range cells sized so each holds several blocks per term —
        # too-fine cells pay per-cell numpy overhead without extra pruning
        n_cells = max(16, min(256, nb // max(1, 4 * n_terms)))
        n_cells = min(n_cells, max(1, nb))
        # cap the cell width: the dense per-cell accumulator below allocates
        # O(cell_span), so a rare term whose few blocks span a huge doc-id
        # space must not turn one cell into the whole corpus
        cell_span = min((max_doc + n_cells) // n_cells, 1 << 16)
        cell_span = max(1, cell_span)
        c0 = first_f // cell_span
        spans = last_f // cell_span - c0 + 1
        tot = int(spans.sum())
        seg = np.concatenate(([0], np.cumsum(spans)[:-1]))
        entry_cell = (np.repeat(c0, spans)
                      + (np.arange(tot, dtype=np.int64) - np.repeat(seg, spans)))
        entry_bi = np.repeat(np.arange(nb, dtype=np.int64), spans)
        # order entries by (cell, term) so each cell's block list is already
        # in query-term order (float-identical accumulation order)
        order = np.lexsort((ti_f[entry_bi], entry_cell))
        entry_cell = entry_cell[order]
        entry_bi = entry_bi[order]
        cbrk = np.flatnonzero(entry_cell[1:] != entry_cell[:-1])
        cstarts = np.concatenate(([0], cbrk + 1))
        cends = np.concatenate((cbrk + 1, [len(entry_cell)]))
        cells_u = entry_cell[cstarts]
        # per-cell ub = Σ over terms of the max block ub overlapping the cell
        ent_ti = ti_f[entry_bi]
        kbrk = np.flatnonzero((entry_cell[1:] != entry_cell[:-1])
                              | (ent_ti[1:] != ent_ti[:-1]))
        g_starts = np.concatenate(([0], kbrk + 1))
        g_max = np.maximum.reduceat(ub_f[entry_bi], g_starts)
        g_cell = entry_cell[g_starts]
        gc_starts = np.concatenate(
            ([0], np.flatnonzero(g_cell[1:] != g_cell[:-1]) + 1))
        cell_ub_vals = np.add.reduceat(g_max, gc_starts)

        decoded: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        def get_block(bi: int) -> tuple[np.ndarray, np.ndarray]:
            ri, off = int(ri_f[bi]), int(off_f[bi])
            key = (ri, off)
            hit = decoded.get(key)
            if hit is None:
                # positions are never used in scoring — skip stream B
                d, tf, _ = decode_block(
                    payloads[ri][off : off + int(ln_f[bi])], False)
                hit = (d, tf)
                decoded[key] = hit
            return hit

        final_ids: list[np.ndarray] = []
        final_scores: list[np.ndarray] = []
        n_final = 0
        threshold = -np.inf
        running_topk: np.ndarray | None = None

        for ci in np.argsort(-cell_ub_vals, kind="stable"):
            if n_final >= k and cell_ub_vals[ci] < threshold:
                break
            cell = int(cells_u[ci])
            lo, hi = cell * cell_span, (cell + 1) * cell_span
            bis = entry_bi[cstarts[ci]:cends[ci]]  # already term-ordered
            # batch-decode this cell's missing blocks, one vectorized pass
            # per postings row instead of one numpy round-trip per block —
            # the stopword-query tail decodes ~every block, and per-block
            # decode overhead dominated p95 latency
            by_row: dict[int, list[int]] = {}
            for bi in bis:
                ri0, off0 = int(ri_f[bi]), int(off_f[bi])
                if (ri0, off0) not in decoded:
                    by_row.setdefault(ri0, []).append(int(bi))
            for ri0, row_bis in by_row.items():
                offs = [int(off_f[bi]) for bi in row_bis]
                lns = [int(ln_f[bi]) for bi in row_bis]
                nds = [int(nd_f[bi]) for bi in row_bis]
                d_all, tf_all = decode_doc_tf_batch(
                    payloads[ri0], offs, lns, nds)
                cuts = np.concatenate(([0], np.cumsum(nds)))
                for j, bi in enumerate(row_bis):
                    decoded[(ri0, offs[j])] = (
                        d_all[cuts[j]:cuts[j + 1]],
                        tf_all[cuts[j]:cuts[j + 1]])
            # dense cell-local accumulator: cells span ~10³ doc ids, so a
            # direct-indexed float array replaces the per-term unique/add.at
            # merge (same per-doc addition order — terms ascending — so sums
            # stay float-identical; doc ids are unique within a term's cell
            # slice, so fancy-index += never collides)
            width = hi - lo
            dense_cell = np.zeros(width, np.float64)
            touched = np.zeros(width, bool)
            bis_ti = ti_f[bis]
            cell_lens = (doc_lens if doc_lens is not None
                         else self.r.doc_lens_range(lo, hi))
            any_term = False
            for ti in range(n_terms):
                t_ids, t_tfs = [], []
                for bi in bis[bis_ti == ti]:
                    d, tf = get_block(int(bi))
                    m = (d >= lo) & (d < hi)
                    if m.any():
                        t_ids.append(d[m])
                        t_tfs.append(tf[m])
                if not t_ids:
                    continue
                d = np.concatenate(t_ids)
                tf = np.concatenate(t_tfs).astype(np.float64)
                dl = (doc_lens[d] if doc_lens is not None
                      else cell_lens[d - lo]).astype(np.float64)
                s = self._score_arrays(tf, dl, numer_by_ti[ti], k1_1mb, k1b_avg)
                dloc = d - lo
                dense_cell[dloc] += s
                touched[dloc] = True
                any_term = True
            if not any_term:
                continue
            ids_local = np.flatnonzero(touched)
            acc_ids = ids_local + lo
            acc_scores = dense_cell[ids_local]
            # deleted docs leave the cell BEFORE the threshold update, so
            # pruning stays rank-safe with deletions pending compaction
            keepm = self.r.keep_mask(acc_ids)
            if not keepm.all():
                acc_ids, acc_scores = acc_ids[keepm], acc_scores[keepm]
            if not len(acc_ids):
                continue
            final_ids.append(acc_ids)
            final_scores.append(acc_scores)
            n_final += len(acc_ids)
            # bounded running top-k: threshold from (previous top-k ∪ this
            # cell) only — O(k + cell) per update instead of O(n_final)
            running_topk = (
                acc_scores if running_topk is None
                else np.concatenate([running_topk, acc_scores])
            )
            if len(running_topk) > k:
                running_topk = np.partition(running_topk, -k)[-k:]
            if len(running_topk) == k:
                threshold = float(running_topk.min())

        if not final_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return _topk(np.concatenate(final_ids), np.concatenate(final_scores), k)


def format_trec(qid: str, doc_ids, scores, docnos, run_id: str = "indri55ray") -> list[str]:
    """TREC result lines ``qid Q0 docno rank score runID``
    (ref:runquery/IndriRunQuery.cpp:459-466)."""
    return [
        f"{qid} Q0 {docno} {rank + 1} {score:.6f} {run_id}"
        for rank, (docno, score) in enumerate(zip(docnos, scores))
    ]
