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

One scorer, ``BM25Scorer.score_exhaustive``: it decodes every block of
every query term (only a shard's blocks under ``doc_range``) in one
vectorized pass per posting row and accumulates per-doc sums in a dense
array over the decoded doc-id window.  This is the reference's own
algorithm — its ``PlusNode`` is not SkippingCapable
(ref:src/PlusNode.cpp:36-42), so the okapi baseline never prunes.

One posting reader.  The posting-row layout — ``first_doc`` plus the
per-block offset/length/n_docs/last_doc lists, where a block's first doc
is the previous block's last + 1 — is known here only:
``posting_blocks`` turns any ``term_rows`` table into flat per-block
arrays over zero-copy views of the payload buffers, and ``read_postings``
is the one block walk (select, decode, exact range mask, group by term)
every scorer, the structured engine, RM feedback and dumpindex read
postings through (the single ``DiskDocListIterator`` of the reference,
ref:src/DiskDocListIterator.cpp:21-56).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

# decode_block is not called here; it stays importable from this module
# because the traced benchmark (perfbench/run.py) wraps it by name, as it
# wraps decode_doc_tf_batch — PostingBlocks.decode calls both batch
# decoders through this module's globals so the wrap sees every decode
from ..codec import decode_block, decode_doc_tf_batch, decode_full_batch  # noqa: F401
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


def _overlaps(rows: pa.Table, doc_range: tuple[int, int]) -> pa.ChunkedArray:
    """Mask of posting rows whose [first_doc, last_doc] meets [lo, hi)."""
    return pc.and_(pc.greater_equal(rows.column("last_doc"), doc_range[0]),
                   pc.less(rows.column("first_doc"), doc_range[1]))


class IndexReader:
    """Read-side handle on one index directory, or on N indexes with
    disjoint docID ranges (the segments of a ``Repository`` — the
    reference's one inference network over every index of a repository,
    ref:src/InferenceNetwork.cpp:118-176).

    Every read goes through file sets spanning all dirs (``_dset``,
    ``_files``: the row-group index, the footer catalogs, the docs/fields
    datasets), so a segment boundary is one more file boundary.
    Statistics are the sums over the manifests (global, so scores equal a
    merged single index's), and the deleted set is the union of every
    dir's ``deleted.parquet`` and ``deleted_path``."""

    def __init__(self, index_dir: str | list[str],
                 deleted_path: str | None = None):
        self.index_dirs = ([str(index_dir)] if isinstance(index_dir, (str, Path))
                           else [str(d) for d in index_dir])
        if not self.index_dirs:
            raise ValueError("no index dirs")
        self.index_dir = self.index_dirs[0]
        manifests = [json.loads((Path(d) / "manifest.json").read_text())
                     for d in self.index_dirs]
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
        paths = [Path(d) / "deleted.parquet" for d in self.index_dirs]
        if deleted_path:
            paths.append(deleted_path)
        lists = [a for p in paths if (a := load_deleted(p)) is not None]
        self.deleted: np.ndarray | None = (
            np.unique(np.concatenate(lists)) if lists else None)
        self._doc_lens: np.ndarray | None = None
        self._range_lens: dict[tuple[int, int], np.ndarray] = {}
        self._range_lens_bytes = 0
        # per-term posting rows (the ListCache analogue); eviction is bound
        # by term count AND by the cached tables' Arrow buffer bytes, so a
        # long-lived actor's cache stays under a fixed memory ceiling
        self._row_cache: dict[str, pa.Table] = {}
        self._row_cache_bytes = 0
        self._stats_cache: dict[str, tuple[int, int] | None] = {}
        # per-subdir dataset handles: discovery + fragment metadata (file
        # listing, footers) are paid once per reader, not per point lookup
        self._dsets: dict[str, pads.Dataset] = {}
        self._frag_bounds: dict[str, list] = {}
        self._rg_idx: dict[str, tuple] = {}
        self._pqfiles: dict[str, pq.ParquetFile] = {}
        self._pcat: list | None = None
        self._dcat: dict[int, list] | None = None

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

    def _files(self, sub: str) -> list[Path]:
        """The ``*.parquet`` files of ``sub`` in every dir, dir by dir."""
        return [f for d in self.index_dirs
                for f in sorted((Path(d) / sub).glob("*.parquet"))]

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
        """Boolean mask of NOT-deleted docs (True = keep; DeletedDocumentList
        analogue, ref:src/DeletedDocumentList.cpp)."""
        deleted = self.deleted
        if deleted is None or not len(deleted) or not len(doc_ids):
            return np.ones(len(doc_ids), dtype=bool)
        pos = np.minimum(np.searchsorted(deleted, doc_ids), len(deleted) - 1)
        return deleted[pos] != doc_ids

    # -- doc metadata -------------------------------------------------------

    def doc_lens(self) -> np.ndarray:
        """Dense doc_id → dl array (per-shard at scale; whole index here)."""
        if self._doc_lens is None:
            t = self._dset("docs").to_table(columns=["doc_id", "dl"])
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
        self._dset("direct")  # raises when built without store_direct
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
        """(doc_id, begins, ends, numbers) extent rows of one field —
        pruned by field value (row-group stats) and, when given, by doc set
        (doc-range partitioned files).  Raises FileNotFoundError when the
        index was built without field specs."""
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
                self._files("postings"),
                ("bucket", "first_doc", "last_doc"))
        return self._pcat

    def _read_term_rows(self, terms: list[str],
                        doc_range: tuple[int, int] | None = None
                        ) -> pa.Table:
        """Row-group-pruned read of the posting rows for ``terms``.
        ``doc_range`` additionally drops row groups whose
        [min first_doc, max last_doc] statistics miss [lo, hi), then rows
        whose [first_doc, last_doc] misses it — the sharded-scatter path,
        where a shard worker must not decode other shards' salt rows of a
        hot term."""
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
                parts.append(entry[0].read_row_groups(
                    sorted(want), columns=POSTINGS_SCHEMA.names))
        if not parts:
            return POSTINGS_SCHEMA.empty_table()
        fetched = pa.concat_tables(parts)
        mask = pc.is_in(fetched.column("term"), value_set=pa.array(terms))
        if doc_range is not None:
            mask = pc.and_(mask, _overlaps(fetched, doc_range))
        return fetched.filter(mask)

    def _dict_catalog(self) -> dict[int, list]:
        """Dictionary term catalog: bucket → the catalog entries of that
        bucket's files, one per dir.  MergeWorker writes one term-sorted
        ``dictionary-{bucket:05d}.parquet`` per term-hash bucket with
        4096-row groups, so a cold (cf, df) lookup decompresses ~one group
        of each of the term's own bucket files.  A file name that carries
        no bucket raises ValueError."""
        if self._dcat is None:
            files = self._files("dictionary")
            names = [re.fullmatch(r"dictionary-(\d+)\.parquet", f.name)
                     for f in files]
            if None in names:
                raise ValueError("dictionary file name carries no bucket: "
                                 f"{files[names.index(None)]}")
            self._dcat = {}
            for m, entry in zip(names, self._term_footer_catalog(files)):
                self._dcat.setdefault(int(m.group(1)), []).append(entry)
        return self._dcat

    def _read_dict_rows(self, terms: list[str]) -> pa.Table:
        """Dictionary rows of ``terms``, each looked up in its own bucket's
        files only (``_bucket_of``, the hash the merge buckets by)."""
        cat = self._dict_catalog()
        by_bucket: dict[int, list[str]] = {}
        for t in terms:
            by_bucket.setdefault(self._bucket_of(t), []).append(t)
        parts = []
        for b, b_terms in sorted(by_bucket.items()):
            for entry in cat.get(b, ()):
                if want := self._term_row_groups(entry, b_terms):
                    parts.append(entry[0].read_row_groups(
                        sorted(want), columns=["term", "cf", "df"],
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
            if all(t in self._row_cache for t in terms):
                tables = [self._row_cache[t] for t in sorted(terms)
                          if self._row_cache[t].num_rows]
                if not tables:
                    return POSTINGS_SCHEMA.empty_table()
                t = pa.concat_tables(tables)  # term-major, first_doc asc
                return t.filter(_overlaps(t, doc_range))
            return self._read_term_rows(terms, doc_range).sort_by(
                [("term", "ascending"), ("first_doc", "ascending")])
        missing = [t for t in terms if t not in self._row_cache]
        if missing:
            fetched = self._read_term_rows(missing)
            if (len(self._row_cache) > 8192
                    or self._row_cache_bytes > (256 << 20)):
                keep = set(terms)  # bound long-lived actor memory
                for k in [k for k in self._row_cache if k not in keep]:
                    del self._row_cache[k]
                self._row_cache_bytes = sum(
                    t.get_total_buffer_size() for t in self._row_cache.values())
            for term in missing:
                mask = pc.equal(fetched.column("term"), term)
                # sorted ONCE at insert: per-query assembly below is then a
                # zero-copy concat in term order — re-sorting per query
                # copied every cached postings payload byte (the dominant
                # per-query cost for common terms)
                t_rows = fetched.filter(mask).sort_by(
                    [("first_doc", "ascending")])
                self._row_cache[term] = t_rows
                # the sort's take gave the table buffers of its own
                self._row_cache_bytes += t_rows.get_total_buffer_size()
        tables = [self._row_cache[t] for t in sorted(terms)
                  if self._row_cache[t].num_rows]
        if not tables:
            return POSTINGS_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    def term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """Global (cf, df) per term: the sum over the term's dictionary rows,
        one per dir holding it (first query pass — the statistics gather of
        ref:src/QueryEnvironment.cpp:957-965)."""
        if not terms:
            return {}
        missing = [t for t in terms if t not in self._stats_cache]
        if missing:
            t = self._read_dict_rows(missing)
            found: dict[str, tuple[int, int]] = {}
            for term, cf, df in zip(t.column("term").to_pylist(),
                                    t.column("cf").to_pylist(),
                                    t.column("df").to_pylist()):
                pcf, pdf = found.get(term, (0, 0))
                found[term] = (pcf + cf, pdf + df)
            for term in missing:
                self._stats_cache[term] = found.get(term)
        return {t: s for t in terms if (s := self._stats_cache.get(t)) is not None}


# -- the one posting reader -------------------------------------------------


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(frozen=True)
class PostingBlocks:
    """Flat per-block view of a ``term_rows`` table: block ``i`` belongs
    to table row ``row[i]`` and term ``terms[term[i]]``, holds ``n_docs[i]``
    docs in ``[first[i], last[i]]`` and is encoded at ``offset[i]`` (length
    ``length[i]``) inside that row's payload.  Payloads stay in Arrow: one
    zero-copy ``uint8`` view per ``postings`` chunk, and a row's payload
    starts at ``row_base[r]`` in view ``views[row_chunk[r]]``."""

    terms: list[str]
    row: np.ndarray
    term: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    n_docs: np.ndarray
    first: np.ndarray
    last: np.ndarray
    max_tf: np.ndarray
    min_dl: np.ndarray
    views: list[np.ndarray]
    row_chunk: np.ndarray
    row_base: np.ndarray

    def decode(self, sel, positions: bool = False
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(doc_ids, tfs, flat positions | None)`` of blocks ``sel`` (block
        indices), in ``sel`` order: one batch-decoder call per run of
        same-row blocks."""
        sel = np.asarray(sel, np.int64)
        if not len(sel):
            e = np.empty(0, np.int64)
            return e, e, (e if positions else None)
        rows = self.row[sel]
        cuts = (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
        ds, tfs, poss = [], [], []
        for a, b in zip([0, *cuts], [*cuts, len(sel)]):
            g = sel[a:b]
            r = rows[a]
            args = (self.views[self.row_chunk[r]],
                    (self.row_base[r] + self.offset[g]).tolist(),
                    self.length[g].tolist(), self.n_docs[g])
            if positions:
                d, tf, pos = decode_full_batch(*args)
                poss.append(pos)
            else:
                d, tf = decode_doc_tf_batch(*args)
            ds.append(d)
            tfs.append(tf)
        return _cat(ds), _cat(tfs), (_cat(poss) if positions else None)


def posting_blocks(rows: pa.Table) -> PostingBlocks:
    """The posting-row layout, read in one place: flatten a ``term_rows``
    table's block lists into per-block arrays (a row's head block starts at
    the row's ``first_doc``, every later block at the previous block's
    last + 1) and map each row to its payload bytes without copying them."""

    def flat(name: str) -> np.ndarray:
        return pc.list_flatten(rows.column(name)).to_numpy()

    row_nb = pc.list_value_length(rows.column("block_offset")).to_numpy()
    last = flat("block_last_doc").astype(np.int64, copy=False)
    first = np.empty(len(last), np.int64)
    first[1:] = last[:-1] + 1
    nz = row_nb > 0
    first[(np.cumsum(row_nb) - row_nb)[nz]] = \
        rows.column("first_doc").to_numpy()[nz]
    index: dict[str, int] = {}
    row_term = [index.setdefault(t, len(index))
                for t in rows.column("term").to_pylist()]
    views, row_base, chunk_rows = [], [], []
    for chunk in rows.column("postings").chunks:
        _valid, offs, data = chunk.buffers()
        otype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        row_base.append(np.frombuffer(offs, otype)[
            chunk.offset:chunk.offset + len(chunk)].astype(np.int64))
        views.append(np.frombuffer(data, np.uint8) if data is not None
                     else np.empty(0, np.uint8))
        chunk_rows.append(len(chunk))
    return PostingBlocks(
        terms=list(index),
        row=np.repeat(np.arange(rows.num_rows, dtype=np.int64), row_nb),
        term=np.repeat(np.asarray(row_term, np.int64), row_nb),
        offset=flat("block_offset"), length=flat("block_length"),
        n_docs=flat("block_n_docs"), first=first, last=last,
        max_tf=flat("block_max_tf"), min_dl=flat("block_min_dl"),
        views=views,
        row_chunk=np.repeat(np.arange(len(views)), chunk_rows),
        row_base=_cat(row_base) if row_base else np.empty(0, np.int64))


def read_postings(reader, terms: list[str], *,
                  doc_range: tuple[int, int] | None = None,
                  doc_set: np.ndarray | list[int] | None = None,
                  positions: bool = False) -> dict[str, tuple]:
    """``{term: (doc_ids, tfs, flat positions | None, per-doc position
    starts | None)}`` for every term with a posting in scope — the one block
    walk behind every posting consumer.

    ``reader.term_rows(terms, doc_range)`` gives the rows; only blocks that
    overlap ``doc_range`` and, with ``doc_set``, hold a wanted id (blocks
    decode independently — each starts at an absolute doc id) are decoded;
    decoded docs are then masked to exactly ``[lo, hi)`` and grouped by term
    in row order (doc-ascending).  ``doc_set`` prunes at block granularity
    only: the result holds whole blocks, so it suits per-doc lookups, not
    collection statistics.  Positions are decoded only when asked for and
    stored; doc i's run is ``flat[starts[i]:starts[i + 1]]``."""
    pb = posting_blocks(reader.term_rows(terms, doc_range))
    keep = np.ones(len(pb.row), bool)
    if doc_range is not None:
        lo, hi = doc_range
        keep &= (pb.last >= lo) & (pb.first < hi)
    if doc_set is not None:
        ws = np.unique(np.asarray(doc_set, np.int64))
        # the first wanted id at or after each block's first doc (a
        # sentinel past every doc id when there is none)
        keep &= np.append(ws, 1 << 62)[np.searchsorted(ws, pb.first)] <= pb.last
    positions = positions and reader.cfg.store_positions
    sel = np.flatnonzero(keep)
    sel_term = pb.term[sel]
    out: dict[str, tuple] = {}
    for ti, term in enumerate(pb.terms):
        d, tf, pos = pb.decode(sel[sel_term == ti], positions)
        if doc_range is not None:
            m = (d >= lo) & (d < hi)
            if not m.all():
                if pos is not None:
                    pos = pos[np.repeat(m, tf)]
                d, tf = d[m], tf[m]
        if not len(d):
            continue
        starts = None
        if pos is not None:
            starts = np.zeros(len(d) + 1, np.int64)
            np.cumsum(tf, out=starts[1:])
        out[term] = (d, tf, pos, starts)
    return out


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

    # -- scoring ------------------------------------------------------------

    def score_exhaustive(self, terms_qtf: list[tuple[str, int]], k: int = 1000,
                         doc_range: tuple[int, int] | None = None,
                         doc_set: np.ndarray | list[int] | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k over every posting of every query term.

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
        postings = read_postings(self.r, [t for t, _ in consts],
                                 doc_range=doc_range, doc_set=doc_set)
        if doc_range is None:
            doc_lens, base = self.r.doc_lens(), 0
        else:
            # shard-sized dl slice, not the whole index's dense array
            doc_lens, base = self.r.doc_lens_range(*doc_range), doc_range[0]
        term_doc_arrays: list[np.ndarray] = []
        term_score_arrays: list[np.ndarray] = []
        for term, numer_const in consts:  # fixed query order = fixed float order
            if term not in postings:
                continue
            d, tf = postings[term][:2]
            dl = doc_lens[d - base].astype(np.float64)
            term_doc_arrays.append(d)
            term_score_arrays.append(self._score_arrays(
                tf.astype(np.float64), dl, numer_const, k1_1mb, k1b_avg))
        if not term_doc_arrays:
            return empty
        # dense accumulation over the decoded doc-id window [amin, amax]: one
        # fancy-index += per term — exact because a term's doc_ids are
        # unique, and per-doc addition order equals query-term order,
        # matching PlusNode's summation sequence (ref:src/PlusNode.cpp:75-106).
        # Memory is O(amax - amin), never O(max_doc_id): a segment built at
        # a large doc_id base allocates only the span its postings cover.
        amin = min(int(d.min()) for d in term_doc_arrays)
        amax = max(int(d.max()) for d in term_doc_arrays)
        dense = np.zeros(amax - amin + 1, dtype=np.float64)
        touched = np.zeros(amax - amin + 1, dtype=bool)
        for d, s in zip(term_doc_arrays, term_score_arrays):
            dense[d - amin] += s
            touched[d - amin] = True
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
