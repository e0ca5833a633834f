"""Ingest stage: tokenize → stop → stem → per-chunk partial postings.

This is the Ray analogue of the reference's single-threaded chain
``tokenize → parse → transforms → MemoryIndex::addDocument``
(ref:src/IndexEnvironment.cpp:356-421, ref:src/MemoryIndex.cpp:538-651) run
as an actor-pool ``map_batches`` over a dataset of resumable work items
(one item = one row-group-aligned chunk of one corpus file).

Each actor holds the per-worker state the reference keeps per process —
the Krovetz dictionary + cache and a term-processing memo — and for each
chunk writes two deterministic side outputs before committing a lineage
record:

* ``docs/docs-<range>.parquet``  — (doc_id, docno, sha256, dl, unique_terms)
* ``partials/partials-<range>.parquet`` — per (term) partial posting run:
  ascending doc_ids, tfs, dls, flattened positions + partial cf/df stats
  (the role of ``MemoryIndex``'s in-memory postings,
  ref:src/MemoryIndex.cpp:560-651)

Document-length semantics: stopped terms keep their position slot and count
toward ``dl`` (ref:src/StopperTransformation.cpp:102-110,
ref:src/MemoryIndex.cpp:617,647-648) but emit no posting.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codec import segmented_delta, vbyte_encode, vbyte_sizes
from ..config import IndexConfig
from ..kstem import KrovetzStemmer
from ..sources.corpus import Chunk, read_chunk
from ..state import lineage
from ..tokenizer import expand_raw, normalize_token, scan_raw, tokenize_bytes
from .postings import PARTIALS_SCHEMA

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("docno", pa.string()),
        ("sha256", pa.string()),
        ("dl", pa.int32()),
        ("unique_terms", pa.int32()),
    ]
)

# docstore variant (CompressedCollection analogue — parquet compression
# replaces the reference's zlib framing, ref:src/CompressedCollection.cpp:58-110)
DOCS_SCHEMA_WITH_CONTENT = DOCS_SCHEMA.append(pa.field("content", pa.string()))

# forward ("direct") index — the TermList analogue
# (ref:include/indri/TermList.hpp:105-131): per doc, its unique indexed terms
# in first-occurrence order with tf and flattened ascending positions (terms
# are keyed by string, not termID — the engine has no global term numbering).
# Files are doc-range partitioned like docs/, so doc-sliced reads prune.
DIRECT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("terms", pa.list_(pa.string())),
        ("tfs", pa.list_(pa.int32())),
        ("positions", pa.list_(pa.int32())),  # concat of per-term position runs
    ]
)

# field extent lists (DocExtentListMemoryBuilder / fieldsFile analogue,
# ref:src/DocExtentListMemoryBuilder.cpp, ref:src/MemoryIndex.cpp:337-393):
# one row per (doc, field) with begin/end token positions and the numeric/
# date value per extent.  Files are doc-range partitioned like docs/.
FIELDS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("field", pa.string()),
        ("begins", pa.list_(pa.int32())),
        ("ends", pa.list_(pa.int32())),
        ("numbers", pa.list_(pa.int64())),
        # per-doc tag-tree structure: global ordinal (begin asc, end desc,
        # open order) + nearest enclosing extent's ordinal (0 = root) —
        # FieldExtent.ordinal/parentOrdinal
        # (ref:include/indri/FieldExtent.hpp:30-48,
        # ref:src/MemoryIndex.cpp:341-391)
        ("ordinals", pa.list_(pa.int32())),
        ("parent_ordinals", pa.list_(pa.int32())),
    ]
)


def fields_rows_to_table(rows: list[tuple]) -> pa.Table:
    """(doc_id, field, begins, ends, numbers, ordinals, parent_ordinals)
    tuples → FIELDS_SCHEMA table — shared by ingest and
    pipelines/modify.py so the extent-table layout has one definition."""
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "field": pa.array([r[1] for r in rows], pa.string()),
            "begins": pa.array([r[2] for r in rows], pa.list_(pa.int32())),
            "ends": pa.array([r[3] for r in rows], pa.list_(pa.int32())),
            "numbers": pa.array([r[4] for r in rows], pa.list_(pa.int64())),
            "ordinals": pa.array([r[5] for r in rows], pa.list_(pa.int32())),
            "parent_ordinals": pa.array([r[6] for r in rows],
                                        pa.list_(pa.int32())),
        },
        schema=FIELDS_SCHEMA,
    )


class TermProcessor:
    """normalize→stop→stem memo shared by build and query sides
    (query terms go through the same chain: ``Repository::processTerm``
    ref:src/Repository.cpp:1087-1112)."""

    _MISSING = object()

    def __init__(self, cfg: IndexConfig):
        self.stop = frozenset(cfg.stopwords)
        if cfg.stemmer == "krovetz":
            self.stemmer = KrovetzStemmer()
        elif cfg.stemmer == "porter":
            from ..porter import porter_stem

            class _Porter:
                stem = staticmethod(porter_stem)

            self.stemmer = _Porter()
        elif cfg.stemmer in (None, "none"):
            self.stemmer = None
        elif cfg.stemmer.startswith("arabic_"):
            # the Larkey stemmer family (ref:src/StemmerFactory.cpp:47-48
            # name="Arabic" → ArabicStemmerTransformation, mode param per
            # ref:src/Arabic_Stemmer_utf8.cpp:664-671)
            from ..arabic import ArabicStemmer

            self.stemmer = ArabicStemmer(cfg.stemmer)
        else:
            # extension seam: registry-provided stemmer (SURVEY.md §2.12,
            # the StemmerFactory analogue — ref:src/StemmerFactory.cpp:40-80)
            from ..registry import get_stemmer

            fn = get_stemmer(cfg.stemmer)
            if fn is None:
                raise ValueError(f"unknown stemmer {cfg.stemmer!r} "
                                 "(not built-in, not registered)")

            class _Custom:
                stem = staticmethod(fn)

            self.stemmer = _Custom()
        self._memo: dict[str, str | None] = {}
        # raw-token-bytes → final term (or None): one dict hop per token in
        # the hot ingest loop (normalize + stop + stem fused)
        self._raw_memo: dict[bytes, str | None] = {}

    # the reference's MemoryIndex skips empty words and words at/over the
    # keyfile limit, emitting termID 0 (position slot kept, no posting) —
    # ref:src/MemoryIndex.cpp:559-570,
    # ref:contrib/lemur/include/lemur/Keyfile.hpp:108 (MAX_KEY_LENGTH=512)
    MAX_TERM_BYTES = 511
    _MEMO_CAP = 500_000  # the reference caps its stem cache too (30013 slots)

    def process(self, term: str) -> str | None:
        """Tokenized+normalized term → indexed term, or None if stopped."""
        r = self._memo.get(term, TermProcessor._MISSING)
        if r is not TermProcessor._MISSING:
            return r
        if self.stop and term in self.stop:
            out = None
        elif self.stemmer is not None:
            out = self.stemmer.stem(term)
        else:
            out = term
        if out is not None and (
            out == "" or len(out.encode("utf-8")) >= TermProcessor.MAX_TERM_BYTES
        ):
            out = None  # termID-0 semantics: slot counts in dl, no posting
        if len(self._memo) > TermProcessor._MEMO_CAP:
            self._memo.clear()
        self._memo[term] = out
        return out

    def process_raw(self, raw: bytes) -> str | None:
        """Raw tokenizer output bytes → indexed term (memoized whole chain)."""
        r = self._raw_memo.get(raw, TermProcessor._MISSING)
        if r is not TermProcessor._MISSING:
            return r
        term = normalize_token(raw).decode("utf-8", errors="replace")
        out = self.process(term)
        if len(self._raw_memo) > TermProcessor._MEMO_CAP:
            self._raw_memo.clear()
        self._raw_memo[raw] = out
        return out


def _accumulate_chunk(
    all_raw: "list[bytes] | pa.Array",
    raw_lens: np.ndarray,
    proc: TermProcessor,
    pre_expanded: bool,
):
    """Vectorized chunk accumulation: flattened raw-token stream → per-doc
    stats + term-major flat postings arrays.

    Replaces the per-token Python loop (dict hop per token) with a
    dictionary-encode of the whole chunk's token stream: the normalize→stop→
    stem chain runs once per UNIQUE raw token, and postings grouping becomes
    numpy run-length ops over a stable sort.  Output ordering is identical to
    the reference accumulation (terms sorted by string; per term ascending
    doc_ids; per (term, doc) ascending positions — the MemoryIndex invariant,
    ref:src/MemoryIndex.cpp:560-651).

    ``pre_expanded`` is True when ``all_raw`` entries are final token slots
    (fields/char paths); False when they are raw scan matches needing
    :func:`expand_raw` (1:N for UTF-8 runs, applied per unique).

    Returns (dl_arr, uniq_arr, names_sorted, lens, doc_flat_local, tf_flat,
    dl_flat, p_s, run_starts, term_of_run): per-doc dl/unique counts, the
    sorted term list with per-term posting counts, the term-major flat
    (doc, tf, dl) posting arrays, and the sorted position stream with its
    per-(term, doc) run starts + term rank per run (the last three feed the
    positions encoder and the direct-index builder).
    """
    n = len(raw_lens)
    T = len(all_raw)
    e64 = np.empty(0, np.int64)
    if T == 0:
        return (np.zeros(n, np.int64), np.zeros(n, np.int64), [], e64,
                e64, e64.astype(np.int32), e64.astype(np.int32), e64, e64,
                e64)
    arr = (all_raw if isinstance(all_raw, pa.Array)
           else pa.array(all_raw, type=pa.large_binary()))
    enc = arr.dictionary_encode()
    # int32 throughout the per-slot streams: half the memory traffic of
    # int64 in the sort/gather hot path (the streams are chunk-local, so
    # every value is far below 2^31; doc ids are widened to int64 at return)
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int32, copy=False)
    uniq = enc.dictionary.to_pylist()
    nu = len(uniq)
    term_ids: dict[str, int] = {}
    process_raw = proc.process_raw
    if pre_expanded:
        tid_of_uniq = np.empty(nu, np.int32)
        for ui in range(nu):
            term = process_raw(uniq[ui])
            if term is None:
                tid_of_uniq[ui] = -1
            else:
                tid = term_ids.get(term)
                if tid is None:
                    tid = len(term_ids)
                    term_ids[term] = tid
                tid_of_uniq[ui] = tid
        tid_stream = tid_of_uniq[idx]
        total = T
        dl_arr = raw_lens.astype(np.int64)
        doc_exp_offsets = np.concatenate(([0], np.cumsum(dl_arr)))
    else:
        exp_offsets = np.empty(nu + 1, np.int64)
        exp_offsets[0] = 0
        exp_tids_list: list[int] = []
        for ui in range(nu):
            for s in expand_raw(uniq[ui]):
                term = process_raw(s)
                if term is None:
                    exp_tids_list.append(-1)
                else:
                    tid = term_ids.get(term)
                    if tid is None:
                        tid = len(term_ids)
                        term_ids[term] = tid
                    exp_tids_list.append(tid)
            exp_offsets[ui + 1] = len(exp_tids_list)
        exp_tids = np.asarray(exp_tids_list, np.int32)
        exp_counts = np.diff(exp_offsets)
        counts_tok = exp_counts[idx]
        total = int(counts_tok.sum())
        # ragged gather: token occurrence → its expansion slots
        seg_off = np.concatenate(([0], np.cumsum(counts_tok)[:-1]))
        within = np.arange(total, dtype=np.int64) - np.repeat(seg_off, counts_tok)
        tid_stream = exp_tids[np.repeat(exp_offsets[:-1][idx], counts_tok) + within]
        cum_counts = np.concatenate(([0], np.cumsum(counts_tok)))
        doc_tok_offsets = np.concatenate(([0], np.cumsum(raw_lens)))
        doc_exp_offsets = cum_counts[doc_tok_offsets]
        dl_arr = np.diff(doc_exp_offsets)
    # per-slot doc index and in-doc position — int32 when the chunk's slot
    # count allows (the normal case; half the sort/gather traffic), int64
    # otherwise: a silent int32 wrap would corrupt postings, so the dtype is
    # chosen by the actual total, never assumed
    slot_dt = np.int32 if total < 2**31 else np.int64
    doc_local = np.repeat(np.arange(n, dtype=slot_dt), dl_arr)
    pos_stream = np.arange(total, dtype=slot_dt) - np.repeat(
        doc_exp_offsets[:-1].astype(slot_dt, copy=False), dl_arr)
    mask = tid_stream >= 0
    t_v = tid_stream[mask]
    d_v = doc_local[mask]
    p_v = pos_stream[mask]
    names = list(term_ids)  # insertion order == tid order
    nt = len(names)
    order_ids = sorted(range(nt), key=names.__getitem__)
    rank = np.empty(nt, np.int32)
    rank[order_ids] = np.arange(nt, dtype=np.int32)
    names_sorted = [names[i] for i in order_ids]
    tr = rank[t_v] if nt else e64
    # stable sort on term rank: original order is (doc asc, pos asc), so
    # within each (term, doc) run positions stay ascending.  numpy's stable
    # sort is radix for <=16-bit ints (2 passes vs 8 for int64 — ~9× faster
    # on a chunk's token stream), so sort a uint16 view of the ranks when
    # the chunk vocabulary allows it (ranks are equal-valued either way)
    sort_key = tr.astype(np.uint16, copy=False) if nt <= 0xFFFF else tr
    sort_idx = np.argsort(sort_key, kind="stable")
    tr_s = tr[sort_idx]
    d_s = d_v[sort_idx]
    p_s = p_v[sort_idx]
    m = len(tr_s)
    if m:
        brk = np.flatnonzero((tr_s[1:] != tr_s[:-1]) | (d_s[1:] != d_s[:-1]))
        run_starts = np.concatenate(([0], brk + 1))
        run_ends = np.concatenate((brk + 1, [m]))
    else:
        run_starts = run_ends = e64
    tf_flat = (run_ends - run_starts).astype(np.int32)
    # widen back to int64: callers add 64-bit doc_id bases / use as indices
    doc_flat_local = d_s[run_starts].astype(np.int64)
    term_of_run = tr_s[run_starts]
    if len(term_of_run):
        tbrk = np.flatnonzero(term_of_run[1:] != term_of_run[:-1])
        lens = np.diff(np.concatenate(([0], tbrk + 1, [len(term_of_run)])))
    else:
        lens = e64
    dl_flat = dl_arr[doc_flat_local].astype(np.int32)
    uniq_arr = np.bincount(doc_flat_local, minlength=n).astype(np.int64)
    return (dl_arr, uniq_arr, names_sorted, lens, doc_flat_local, tf_flat,
            dl_flat, p_s, run_starts, term_of_run)


_PROCESS_WORKERS: dict[tuple, "IngestWorker"] = {}


def get_process_worker(out_dir: str, cfg_dict: dict,
                       losers_path: str | None,
                       registry_snapshot: dict | None = None) -> "IngestWorker":
    """Process-global IngestWorker for the plain-task ingest mode: Ray
    reuses warm worker processes across tasks, so the per-worker state
    (stemmer dictionary + caches) persists exactly as it would in an actor —
    without actor-pool spawn/dispatch overhead."""
    import json as _json

    key = (out_dir, _json.dumps(cfg_dict, sort_keys=True), losers_path)
    w = _PROCESS_WORKERS.get(key)
    if w is None:
        w = IngestWorker(out_dir, cfg_dict, losers_path, registry_snapshot)
        _PROCESS_WORKERS.clear()  # one live config per worker is enough
        _PROCESS_WORKERS[key] = w
    return w


class IngestWorker:
    """Stateful ingest worker: used as a Ray Data actor-pool UDF
    (``ingest_mode='actors'``) or via ``get_process_worker`` from plain Ray
    tasks (default mode)."""

    def __init__(self, out_dir: str, cfg_dict: dict,
                 losers_path: str | None = None,
                 registry_snapshot: dict | None = None):
        # driver-side extension registrations don't exist in fresh Ray
        # worker processes — restore the shipped snapshot BEFORE building
        # the term chain (see registry.snapshot)
        if registry_snapshot:
            from .. import registry as _registry

            _registry.restore(registry_snapshot)
        self.out_dir = out_dir
        self.cfg = IndexConfig.from_dict(cfg_dict)
        self.proc = TermProcessor(self.cfg)
        self.losers_path = losers_path
        self._bucket_memo: dict[str, int] = {}
        # offset-annotation side table: loaded ONCE per worker (the
        # broadcast-small-side join of ref:src/IndexEnvironment.cpp:88-129);
        # a docno-partitioned read is the seam if the table outgrows memory
        self._annotations: dict[str, list[tuple[str, int, int]]] | None = None
        if self.cfg.offset_annotations:
            from ..fields import load_annotation_table

            self._annotations = load_annotation_table(
                self.cfg.offset_annotations)

    def _losers_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Dedup losers (doc_ids to drop) intersecting [lo, hi) — row-group
        pruned read of the doc_id-sorted losers parquet."""
        if not self.losers_path:
            return np.empty(0, dtype=np.int64)
        import pyarrow.dataset as pads

        dset = pads.dataset(self.losers_path, format="parquet")
        t = dset.to_table(filter=(pads.field("doc_id") >= lo) & (pads.field("doc_id") < hi))
        return t.column("doc_id").to_numpy()

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_records = []
        for item in batch.to_pylist():
            out_records.append(self._process_chunk(Chunk(**{
                k: item[k] for k in ("file_path", "row_start", "row_end", "doc_id_base")
            })))
        return pa.Table.from_pylist(out_records)

    def _process_chunk(self, chunk: Chunk) -> dict:
        t0 = time.perf_counter()
        cid = chunk.chunk_id
        # fingerprint covers the input slice AND the processing config +
        # dedup losers source: a resumed build after a config change must
        # NOT reuse chunks ingested under the old semantics
        cfg_fp = hashlib.md5(
            repr(sorted(self.cfg.to_dict().items())).encode()
        ).hexdigest()[:12]
        st = os.stat(chunk.file_path)
        fingerprint = (
            f"{chunk.file_path}:{st.st_size}:{st.st_mtime_ns}"
            f":{chunk.row_start}:{chunk.row_end}"
            f":{cfg_fp}:{self.losers_path or ''}"
        )
        if lineage.is_done(self.out_dir, "ingest", cid, fingerprint):
            rec = lineage.read_record(self.out_dir, "ingest", cid)
            rec["skipped"] = True
            return rec

        t_read0 = time.perf_counter()
        tbl = read_chunk(chunk, columns=["repo", "path", "commit", "content"])
        # docno = repo/path@commit (SURVEY.md §1.3: docno is the implicit key)
        docnos = [
            f"{r}/{p}@{c}"
            for r, p, c in zip(
                tbl.column("repo").to_pylist(),
                tbl.column("path").to_pylist(),
                tbl.column("commit").to_pylist(),
            )
        ]
        # arrow stores UTF-8 already: cast to binary → python bytes directly,
        # skipping the str-decode + per-doc re-encode round trip (string
        # materialization is the parallel-ingest bandwidth ceiling)
        contents = tbl.column("content").cast(pa.large_binary()).to_pylist()
        n = len(contents)
        doc_ids = np.arange(chunk.doc_id_base, chunk.doc_id_base + n, dtype=np.int64)
        drop = self._losers_in_range(int(doc_ids[0]), int(doc_ids[-1]) + 1)
        drop_set = set(drop.tolist())

        shas = []
        store_direct = self.cfg.store_direct
        field_spec = self.cfg.fields
        f_rows: list[tuple[int, str, list, list, list]] = []
        # per-field [total_len, extent_count, doc_count] for the global
        # field-statistics pass (ref:src/MemoryIndex.cpp:605-612)
        f_stats: dict[str, list[int]] = {}
        # gather the whole chunk's raw token stream (C-speed scan per doc),
        # then accumulate in one vectorized pass — see _accumulate_chunk
        all_raw: list[bytes] = []
        raw_lens = np.zeros(n, np.int64)
        kept = np.ones(n, dtype=bool)
        tok_mode = self.cfg.tokenizer
        # non-word modes (char / registry tokenizers) emit final token slots
        pre_expanded = bool(field_spec) or tok_mode != "word"
        t_scan0 = time.perf_counter()
        all_tokens: "pa.Array | list[bytes]" = all_raw
        if not field_spec and tok_mode == "word":
            # vectorized whole-chunk scan: one classification pass over the
            # chunk's joined bytes, Arrow tokens straight from the buffer —
            # no per-token Python objects (tokenizer.scan_raw_chunk;
            # differentially tested ≡ per-doc scan_raw)
            from ..tokenizer import scan_raw_chunk

            for local_i in range(n):
                shas.append(hashlib.sha256(contents[local_i]).hexdigest())
                if int(doc_ids[local_i]) in drop_set:
                    kept[local_i] = False
            scan_inputs = [c if k else b"" for c, k in zip(contents, kept)]
            all_tokens, raw_lens = scan_raw_chunk(scan_inputs)
            t_kern0 = time.perf_counter()
            (dl_arr, uniq_arr, terms, lens, doc_flat_local, tf_flat, dl_flat,
             p_s, post_run_starts, term_of_run) = _accumulate_chunk(
                all_tokens, raw_lens, self.proc, pre_expanded)
            t_kern1 = time.perf_counter()
            return self._finish_chunk(
                chunk, cid, fingerprint, t0, t_read0, t_scan0, t_kern0,
                t_kern1, contents, docnos, doc_ids, shas, kept, dl_arr,
                uniq_arr, terms, lens, doc_flat_local, tf_flat, dl_flat,
                p_s, post_run_starts, term_of_run, f_rows, f_stats, n)
        for local_i in range(n):
            data = contents[local_i]
            shas.append(hashlib.sha256(data).hexdigest())
            did = int(doc_ids[local_i])
            if did in drop_set:
                kept[local_i] = False
                continue
            if field_spec:
                # field (tag) parsing is word-mode only
                from ..fields import extract_extents_tree, tokenize_bytes_events

                raw_tokens, tag_events = tokenize_bytes_events(data)
                if self._annotations is not None:
                    ann = self._annotations.get(docnos[local_i])
                    if ann:
                        from ..fields import merge_annotation_events

                        tag_events = merge_annotation_events(
                            tag_events, ann, len(raw_tokens))
                extmap = extract_extents_tree(
                    tag_events, len(raw_tokens), field_spec,
                    self.cfg.numeric_fields, self.cfg.date_fields, raw_tokens,
                )
                for fname, exts in sorted(extmap.items()):
                    f_rows.append((
                        did, fname,
                        [b for b, *_ in exts],
                        [e for _b, e, *_ in exts],
                        [num for _b, _e, num, *_ in exts],
                        [o for *_, o, _p in exts],
                        [p for *_, p in exts],
                    ))
                    st = f_stats.setdefault(fname, [0, 0, 0])
                    st[0] += sum(e - b for b, e, *_ in exts)
                    st[1] += len(exts)
                    st[2] += 1
            elif tok_mode == "word":
                raw_tokens = scan_raw(data)
            elif tok_mode == "char":
                raw_tokens = tokenize_bytes(data, tok_mode)
            else:
                # registry-provided tokenizer mode (SURVEY.md §2.12)
                from ..registry import get_tokenizer

                fn = get_tokenizer(tok_mode)
                if fn is None:
                    raise ValueError(f"unknown tokenizer {tok_mode!r} "
                                     "(not built-in, not registered)")
                raw_tokens = fn(data)
            all_raw += raw_tokens
            raw_lens[local_i] = len(raw_tokens)

        t_kern0 = time.perf_counter()
        (dl_arr, uniq_arr, terms, lens, doc_flat_local, tf_flat, dl_flat,
         p_s, post_run_starts, term_of_run) = _accumulate_chunk(
            all_raw, raw_lens, self.proc, pre_expanded)
        t_kern1 = time.perf_counter()
        return self._finish_chunk(
            chunk, cid, fingerprint, t0, t_read0, t_scan0, t_kern0, t_kern1,
            contents, docnos, doc_ids, shas, kept, dl_arr, uniq_arr, terms,
            lens, doc_flat_local, tf_flat, dl_flat, p_s, post_run_starts,
            term_of_run, f_rows, f_stats, n)

    def _finish_chunk(self, chunk, cid, fingerprint, t0, t_read0, t_scan0,
                      t_kern0, t_kern1, contents, docnos, doc_ids, shas,
                      kept, dl_arr, uniq_arr, terms, lens, doc_flat_local,
                      tf_flat, dl_flat, p_s, post_run_starts, term_of_run,
                      f_rows, f_stats, n) -> dict:
        """Encode + write a chunk's outputs (docs/partials/direct/fields)
        and commit its lineage record — shared by the vectorized word-mode
        path and the per-doc (fields / char / registry tokenizer) path."""
        field_spec = self.cfg.fields
        store_direct = self.cfg.store_direct
        doc_flat = doc_flat_local + chunk.doc_id_base

        docs_cols = {
            "doc_id": doc_ids[kept],
            "docno": pa.array(np.array(docnos, dtype=object)[kept].tolist(), pa.string()),
            "sha256": pa.array(np.array(shas, dtype=object)[kept].tolist(), pa.string()),
            "dl": pa.array(dl_arr[kept].astype(np.int32), pa.int32()),
            "unique_terms": pa.array(uniq_arr[kept].astype(np.int32), pa.int32()),
        }
        if self.cfg.store_content:
            # contents are utf-8 bytes; the docstore column stays string
            docs_cols["content"] = pa.array(
                [c.decode("utf-8") for c in np.array(contents, dtype=object)[kept]],
                pa.string(),
            )
            docs_tbl = pa.table(docs_cols, schema=DOCS_SCHEMA_WITH_CONTENT)
        else:
            docs_tbl = pa.table(docs_cols, schema=DOCS_SCHEMA)

        salt_span = self.cfg.salt_docs_per_group
        n_buckets = self.cfg.n_buckets
        store_pos = self.cfg.store_positions
        bucket_memo = self._bucket_memo
        n_terms = len(terms)

        total = int(lens.sum()) if n_terms else 0
        offsets = np.zeros(n_terms + 1, dtype=np.int32)
        if n_terms:
            np.cumsum(lens, out=offsets[1:])
        starts = offsets[:-1].astype(np.int64)
        ends = offsets[1:].astype(np.int64) - 1
        first_docs = doc_flat[starts] if total else np.empty(0, np.int64)
        last_docs = doc_flat[ends] if total else np.empty(0, np.int64)

        buckets = np.empty(n_terms, dtype=np.int32)
        for i, t in enumerate(terms):
            b = bucket_memo.get(t)
            if b is None:
                h = int.from_bytes(hashlib.md5(t.encode()).digest()[:4], "little")
                b = h % n_buckets
                if len(bucket_memo) > TermProcessor._MEMO_CAP:
                    bucket_memo.clear()
                bucket_memo[t] = b
            buckets[i] = b

        pos_bytes_col: list[bytes] = []
        blen_values: np.ndarray
        if store_pos and total:
            # positions vbyte-encoded ONCE here (per-doc delta with reset,
            # exactly the final block stream-B layout; merge only
            # byte-slices) — and encoded in ONE numpy pass for the whole
            # chunk instead of 4 numpy calls per term: per-term tiny-array
            # overhead was the chunk-processing ceiling
            pos_flat = p_s.astype(np.int64)  # already term-major flat
            run_lens = tf_flat.astype(np.int64)  # one run per (term, doc)
            deltas = segmented_delta(pos_flat, run_lens)
            sizes = vbyte_sizes(deltas.astype(np.uint64))
            big = vbyte_encode(deltas.astype(np.uint64))
            run_starts = np.concatenate(([0], np.cumsum(run_lens)[:-1]))
            blen_values = np.add.reduceat(sizes, run_starts).astype(np.int32)
            byte_ends = np.cumsum(blen_values, dtype=np.int64)
            term_byte_ends = byte_ends[offsets[1:] - 1]
            term_byte_starts = np.concatenate(([0], term_byte_ends[:-1]))
            pos_bytes_col = [
                big[s:e] for s, e in zip(term_byte_starts.tolist(),
                                         term_byte_ends.tolist())
            ]
            blen_offsets = offsets
        elif store_pos:  # chunk with zero postings
            pos_bytes_col = []
            blen_values = np.empty(0, np.int32)
            blen_offsets = offsets
        else:
            pos_bytes_col = [b""] * n_terms
            blen_values = np.empty(0, np.int32)
            blen_offsets = np.zeros(n_terms + 1, dtype=np.int32)

        partials_tbl = pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "bucket": pa.array(buckets, pa.int32()),
                "salt": pa.array(first_docs // salt_span, pa.int64()),
                "first_doc": pa.array(first_docs, pa.int64()),
                "last_doc": pa.array(last_docs, pa.int64()),
                "doc_ids": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), pa.array(doc_flat, pa.int64())),
                "tfs": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), pa.array(tf_flat, pa.int32())),
                "dls": pa.ListArray.from_arrays(
                    pa.array(offsets, pa.int32()), pa.array(dl_flat, pa.int32())),
                "pos_bytes": pa.array(pos_bytes_col, pa.large_binary()),
                "pos_byte_lens": pa.ListArray.from_arrays(
                    pa.array(blen_offsets, pa.int32()),
                    pa.array(blen_values, pa.int32())),
            },
            schema=PARTIALS_SCHEMA,
        )
        # sort by bucket (stable → stays term-sorted within bucket) and size
        # row groups ≈ one bucket each, so the merge worker's per-bucket read
        # prunes row groups instead of shuffling through the object store
        partials_tbl = partials_tbl.sort_by([("bucket", "ascending")])
        rg_size = max(256, partials_tbl.num_rows // max(1, n_buckets))

        t_write0 = time.perf_counter()
        docs_path = f"{self.out_dir}/docs/docs-{cid}.parquet"
        partials_path = f"{self.out_dir}/partials/partials-{cid}.parquet"
        os.makedirs(f"{self.out_dir}/docs", exist_ok=True)
        os.makedirs(f"{self.out_dir}/partials", exist_ok=True)
        # content docstores get SMALL row groups: snippet/doctext point
        # reads (IndexReader._point_read) decompress only the row groups
        # whose doc_id range holds a requested doc, ~256 rows per hit doc
        # instead of a whole chunk's content column; metadata-only
        # docstores stay single-group (doc_lens reads them in full anyway)
        if self.cfg.store_content:
            pq.write_table(docs_tbl, docs_path, row_group_size=256)
        else:
            pq.write_table(docs_tbl, docs_path)
        pq.write_table(partials_tbl, partials_path, row_group_size=rg_size)
        nbytes = docs_tbl.nbytes + partials_tbl.nbytes
        if store_direct:
            # per doc, terms in FIRST-OCCURRENCE order (the TermList invariant,
            # ref:include/indri/TermList.hpp:105-131): re-sort the (term, doc)
            # runs by (doc, first position) and ragged-gather their positions
            n_runs = len(post_run_starts)
            if n_runs:
                first_pos_run = p_s[post_run_starts]
                order2 = np.lexsort((first_pos_run, doc_flat_local))
                rs2 = post_run_starts[order2]
                rl2 = tf_flat[order2].astype(np.int64)
                tot2 = int(rl2.sum())
                seg2 = np.concatenate(([0], np.cumsum(rl2)[:-1]))
                within2 = np.arange(tot2, dtype=np.int64) - np.repeat(seg2, rl2)
                pos_direct = p_s[np.repeat(rs2, rl2) + within2].astype(np.int32)
                terms_direct = pa.array(
                    [terms[r] for r in term_of_run[order2]], pa.string())
                tfs_direct = tf_flat[order2]
            else:
                pos_direct = np.empty(0, np.int32)
                terms_direct = pa.array([], pa.string())
                tfs_direct = np.empty(0, np.int32)
            runs_per_doc = uniq_arr  # runs per doc == unique terms per doc
            run_off = np.zeros(n + 1, np.int64)
            np.cumsum(runs_per_doc, out=run_off[1:])
            pos_run_ends = np.concatenate(([0], np.cumsum(
                tfs_direct.astype(np.int64))))
            pos_off = pos_run_ends[run_off]
            direct_tbl = pa.table(
                {
                    "doc_id": pa.array(doc_ids, pa.int64()),
                    "terms": pa.ListArray.from_arrays(
                        pa.array(run_off.astype(np.int32), pa.int32()),
                        terms_direct),
                    "tfs": pa.ListArray.from_arrays(
                        pa.array(run_off.astype(np.int32), pa.int32()),
                        pa.array(tfs_direct, pa.int32())),
                    "positions": pa.ListArray.from_arrays(
                        pa.array(pos_off.astype(np.int32), pa.int32()),
                        pa.array(pos_direct, pa.int32())),
                },
                schema=DIRECT_SCHEMA,
            ).filter(pa.array(kept))
            os.makedirs(f"{self.out_dir}/direct", exist_ok=True)
            pq.write_table(direct_tbl, f"{self.out_dir}/direct/direct-{cid}.parquet")
            nbytes += direct_tbl.nbytes
        if field_spec:
            fields_tbl = fields_rows_to_table(f_rows)
            os.makedirs(f"{self.out_dir}/fields", exist_ok=True)
            pq.write_table(fields_tbl, f"{self.out_dir}/fields/fields-{cid}.parquet")
            nbytes += fields_tbl.nbytes
        wall = (time.perf_counter() - t0) * 1000
        rec = lineage.write_record(
            self.out_dir, "ingest", cid, fingerprint,
            rows=n, bytes_written=int(nbytes), wall_ms=wall,
            extra={
                "kept_docs": int(kept.sum()),
                "phase_ms": {
                    "read": round((t_scan0 - t_read0) * 1000, 1),
                    "scan": round((t_kern0 - t_scan0) * 1000, 1),
                    "kernel": round((t_kern1 - t_kern0) * 1000, 1),
                    "encode": round((t_write0 - t_kern1) * 1000, 1),
                    "write": round((time.perf_counter() - t_write0) * 1000, 1),
                },
                "total_term_slots": int(dl_arr[kept].sum()),
                "distinct_terms": len(terms),
                **({"field_stats": f_stats} if field_spec else {}),
            },
        )
        return rec


class ShaDedupScanner:
    """Phase-0 scanner for content-sha dedup: emits (doc_id, key) per row.

    The reference dedups at ingest by docno backward lookup
    (ref:src/IndexEnvironment.cpp:388-404); keying by sha256(content) is the
    exact-dedup generalization (SURVEY.md §2.8)."""

    def __init__(self, key: str):
        self.key = key  # "sha256" | "docno"

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.key == "sha256":
            keys = [
                hashlib.sha256(c.encode("utf-8")).hexdigest()
                for c in batch.column("content").to_pylist()
            ]
        else:
            keys = [
                f"{r}/{p}@{c}"
                for r, p, c in zip(
                    batch.column("repo").to_pylist(),
                    batch.column("path").to_pylist(),
                    batch.column("commit").to_pylist(),
                )
            ]
        return pa.table({"doc_id": batch.column("doc_id"), "key": pa.array(keys)})
