"""Postings merge: the groupby-term shuffle.

The Ray analogue of the reference's k-way heap merge over term-sorted partial
indexes (``IndexWriter::write``/``_mergeData``, ref:src/IndexWriter.cpp:810-879):
partial posting runs shuffled by (term, salt), concatenated in doc-id order
(doc ranges of partials are disjoint — docIDs are partition-ranged by
construction), cut into ~4 KB blocks of fixed-width Δdoc gaps and tfs plus
the ingest-encoded vbyte positions (``codec.cut_blocks_pre``) with block-max
metadata (the generalization of Indri's topdocs lists,
ref:src/IndexWriter.cpp:531-607),
and per-term cf/df summed exactly like ``termdata_merge``
(ref:include/indri/TermData.hpp:126-140).

Each bucket's rows go to one uncompressed Arrow IPC file,
``postings/postings-{bucket:05d}.arrow``, sorted by term then first_doc.
A query memory-maps it and reads a term's rows as one contiguous slice —
the inverted list at its ``(startOffset, length)`` of the reference's
``DiskTermData`` (ref:include/indri/DiskTermData.hpp:27-38), with the OS
page cache in the role of its ``ListCache``.

Skew handling (SURVEY.md §4): hot terms (license boilerplate, language
keywords) are *salted* by doc-id range — each (term, salt) group is an
independent merge task and an independent output row, so no single reducer
sees more than ``salt_docs_per_group`` docs' worth of one term's postings,
and very long posting lists are naturally split across rows.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa

from ..codec import cut_blocks_pre

PARTIALS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("bucket", pa.int32()),
        ("salt", pa.int64()),
        ("first_doc", pa.int64()),
        ("last_doc", pa.int64()),
        ("doc_ids", pa.list_(pa.int64())),
        ("tfs", pa.list_(pa.int32())),
        ("dls", pa.list_(pa.int32())),
        # positions pre-encoded at ingest: concatenated per-doc delta-vbyte
        # streams + per-doc byte lengths (sliced, never re-encoded, at merge)
        ("pos_bytes", pa.large_binary()),
        ("pos_byte_lens", pa.list_(pa.int32())),
    ]
)

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("bucket", pa.int32()),
        ("salt", pa.int64()),
        ("cf", pa.int64()),
        ("df", pa.int64()),
        ("first_doc", pa.int64()),
        ("last_doc", pa.int64()),
        ("postings", pa.large_binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_n_docs", pa.list_(pa.int32())),
        ("block_max_tf", pa.list_(pa.int32())),
        ("block_min_dl", pa.list_(pa.int32())),
        ("block_offset", pa.list_(pa.int64())),
        ("block_length", pa.list_(pa.int32())),
    ]
)

# The on-disk layout version, recorded in every manifest as
# ``format_version``; IndexReader refuses an index of any other version.
# 2: one memory-mapped Arrow IPC postings file per bucket.
# 3: one memory-mapped Arrow IPC docno map per docs file (``docnos/``).
# 4: fixed-width Δdoc/tf arrays per block, first gap from the block metadata.
INDEX_FORMAT = 4

DICTIONARY_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("cf", pa.int64()),
        ("df", pa.int64()),
    ]
)


_DATASET_CACHE: dict = {}


def cached_dataset(path: str, salt: str = ""):
    """Process-global pyarrow dataset handle keyed by the directory's file
    listing (name, size, mtime).  Warm Ray workers run many one-bucket merge
    tasks back to back; reusing the dataset object lets pyarrow's per-fragment
    metadata (parquet footers already read for row-group pruning) be loaded
    once per worker instead of once per task.  The listing fingerprint makes
    a rebuild in the same session (files rewritten) miss the cache; callers
    pass their build/plan fingerprint as ``salt`` to close the residual
    window of a same-size rewrite inside one mtime tick (coarse-granularity
    filesystems)."""
    import pyarrow.dataset as pads

    with os.scandir(path) as it:
        sig = tuple(sorted(
            (e.name, e.stat().st_size, e.stat().st_mtime_ns)
            for e in it if e.name.endswith(".parquet")
        ))
    key = (path, salt, sig)
    hit = _DATASET_CACHE.get(key)
    if hit is None:
        if len(_DATASET_CACHE) > 4:
            _DATASET_CACHE.clear()
        hit = pads.dataset(path, format="parquet")
        _DATASET_CACHE[key] = hit
    return hit


class MergeWorker:
    """Map-only merge reducer: one work item = one bucket.

    The shuffle is done by the FILESYSTEM, not the object store: ingest wrote
    partials bucket-sorted with bucket-aligned row groups, so each reducer's
    read is a predicate-pushdown scan of its bucket only.  Each bucket's
    output is one Arrow IPC postings file (rows sorted by term, then
    first_doc — the reader binary-searches a term's rows in the mapped
    file) plus its dictionary slice — a term hashes to exactly one bucket,
    so per-bucket term aggregation is already global.  A lineage record
    per bucket makes the merge phase independently resumable.
    """

    def __init__(self, out_dir: str, cfg_dict: dict, plan_fingerprint: str = "",
                 partials_dir: str | None = None):
        from ..config import IndexConfig

        self.out_dir = out_dir
        self.cfg = IndexConfig.from_dict(cfg_dict)
        self.plan_fingerprint = plan_fingerprint
        # reducers read from the (possibly consolidated) partials source —
        # every index writer bounds the file count per reducer (see
        # pipelines.build.merge_partials) so dataset discovery + footer
        # reads stay O(bounded), not O(chunks)
        self.partials_dir = partials_dir or f"{out_dir}/partials"

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time

        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        from ..state import lineage

        out_rows = []
        dset = cached_dataset(self.partials_dir, salt=self.plan_fingerprint)
        for bucket in batch.column("bucket").to_pylist():
            t0 = time.perf_counter()
            pid = f"{bucket:05d}"
            fingerprint = f"bucket:{bucket}:{self.plan_fingerprint}"
            postings_path = f"{self.out_dir}/postings/postings-{pid}.arrow"
            dict_path = f"{self.out_dir}/dictionary/dictionary-{pid}.parquet"
            if (
                lineage.is_done(self.out_dir, "merge", pid, fingerprint)
                and os.path.exists(postings_path)
                and os.path.exists(dict_path)
            ):
                rec = lineage.read_record(self.out_dir, "merge", pid)
                rec["skipped"] = True
                out_rows.append(rec)
                continue
            group = dset.to_table(filter=pads.field("bucket") == bucket, use_threads=False)
            merged = merge_bucket(group, self.cfg.store_positions, self.cfg.target_block_bytes)
            os.makedirs(f"{self.out_dir}/postings", exist_ok=True)
            os.makedirs(f"{self.out_dir}/dictionary", exist_ok=True)
            # one uncompressed record batch: the reader memory-maps the
            # file and slices a term's rows out of it without a copy.
            # Written aside, then renamed: a file a live reader has mapped
            # is replaced, never truncated under it
            with pa.ipc.new_file(postings_path + ".tmp", POSTINGS_SCHEMA) as w:
                w.write_table(merged)
            os.replace(postings_path + ".tmp", postings_path)
            # per-bucket dictionary: sum stats across a term's salt rows
            import polars as pl

            if merged.num_rows:
                d = (
                    pl.from_arrow(merged.select(["term", "cf", "df"]))
                    .group_by("term")
                    .agg(pl.col("cf").sum(), pl.col("df").sum())
                    .sort("term")
                    .to_arrow()
                )
            else:
                d = merged.select(["term", "cf", "df"])
            # term-sorted (cf, df) rows for the vocabulary readers
            # (dumpindex, wildcard expansion) — queries take their
            # statistics from the postings file; schema pinned because the
            # polars salt-merge branch yields large_string terms while the
            # single-salt branch yields string, and a dataset over every
            # bucket file needs them identical
            pq.write_table(d.cast(DICTIONARY_SCHEMA), dict_path)
            rec = lineage.write_record(
                self.out_dir, "merge", pid, fingerprint,
                rows=merged.num_rows, bytes_written=int(merged.nbytes),
                wall_ms=(time.perf_counter() - t0) * 1000,
                extra={"n_terms": d.num_rows},
            )
            out_rows.append(rec)
        return pa.Table.from_pylist(out_rows)


def write_partials(tbl: pa.Table, path: str, n_buckets: int) -> None:
    """The one partials layout: sorted by bucket (stable, so rows stay
    term-sorted within a bucket) with row groups of about one bucket, so
    each MergeWorker's bucket read prunes row groups instead of shuffling
    through the object store.  Partials are build scratch, read whole or
    by bucket, so they are written with zstd, without dictionary pages
    and with min/max statistics on ``bucket`` only (the merge's pushdown
    key): about 27% fewer bytes than snappy with dictionaries and
    statistics, at about the same write CPU."""
    import pyarrow.parquet as pq

    tbl = tbl.sort_by([("bucket", "ascending")])
    pq.write_table(tbl, path, compression="zstd", use_dictionary=False,
                   write_statistics=["bucket"],
                   row_group_size=max(256, tbl.num_rows // max(1, n_buckets)))


def write_docs(tbl: pa.Table, path: str) -> None:
    """The one doc_id-keyed table layout (docs, direct, fields).  Content
    docstores get 256-row groups: snippet/doctext point reads
    (IndexReader._point_read) decompress only the groups whose doc_id range
    holds a requested doc; tables without content stay one group (doc_lens
    reads them in full anyway).  A docs table (one with a ``docno``
    column) also gets its docno map, ``docnos/<stem>.arrow`` beside
    ``docs/`` (``write_docno_map``)."""
    import pyarrow.parquet as pq

    if "content" in tbl.column_names:
        pq.write_table(tbl, path, row_group_size=256)
    else:
        pq.write_table(tbl, path)
    if "docno" in tbl.column_names:
        p = Path(path)
        write_docno_map(tbl, str(p.parent.parent / "docnos" / f"{p.stem}.arrow"))


DOCNO_MAP_SCHEMA = pa.schema([("docno", pa.string())])


def write_docno_map(docs: pa.Table, path: str) -> None:
    """A docs table's query-side docno map: one uncompressed Arrow IPC
    ``docno`` column dense over the table's doc_id range ``[first,
    last]`` (slot ``d - first`` holds doc ``d``'s docno; ids the table
    lacks — dedup losers, dropped docs — are null), with ``first`` in the
    schema metadata.  The reader memory-maps it and answers a docno page
    with one ``take`` (the forward lookup of the reference's collection,
    ref:src/Repository.cpp:367-387).  An empty table gives a file with no
    record batch.  Written aside, then renamed, like the postings files."""
    ids = docs.column("doc_id").to_numpy()
    first = int(ids.min()) if len(ids) else 0
    slot = np.full(int(ids.max()) - first + 1 if len(ids) else 0, -1, np.int64)
    slot[ids - first] = np.arange(len(ids))
    docno = combine_column(docs, "docno").cast(pa.string()).take(
        pa.array(slot, mask=slot < 0))
    schema = DOCNO_MAP_SCHEMA.with_metadata({"first": str(first)})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with pa.ipc.new_file(path + ".tmp", schema) as w:
        w.write_table(pa.table([docno], schema=schema))
    os.replace(path + ".tmp", path)


def combine_column(tbl: pa.Table, name: str) -> pa.Array:
    """One contiguous Array for a (possibly chunked) table column."""
    col = tbl.column(name).combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else pa.concat_arrays(col.chunks)
    return col


def _flatten_list_column(tbl: pa.Table, name: str,
                         dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """List column → (flat values ndarray, per-row lengths). Zero-copy where
    arrow allows."""
    col = combine_column(tbl, name)
    flat = col.flatten().to_numpy(zero_copy_only=False)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    lengths = np.diff(offsets)
    return flat.astype(dtype, copy=False), lengths.astype(np.int64)


def merge_bucket(
    group: pa.Table, store_positions: bool, target_block_bytes: int
) -> pa.Table:
    """Merge ALL partial runs of one bucket → one merged output row per
    (term, salt).

    Operating at bucket granularity (not per term) amortizes per-group Python
    overhead across a whole reducer: a single sort + arrow flatten gives
    contiguous numpy runs per (term, salt), already concatenated in doc-id
    order. Reducer memory ≈ index_bytes / n_buckets — size ``n_buckets`` so a
    bucket fits a worker's heap (the scale knob; the reference's analogue is
    its merge-memory halving heuristic ref:src/Repository.cpp:824-872).
    """
    if group.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    group = group.sort_by(
        [("term", "ascending"), ("salt", "ascending"), ("first_doc", "ascending")]
    )
    terms = group.column("term").to_pylist()
    salts = group.column("salt").to_numpy()
    n_rows = len(terms)
    doc_flat, doc_lens_per_row = _flatten_list_column(group, "doc_ids")
    tf_flat, _ = _flatten_list_column(group, "tfs")
    dl_flat, _ = _flatten_list_column(group, "dls")
    if store_positions:
        pos_rows: list[bytes] = group.column("pos_bytes").to_pylist()
        blen_flat, _ = _flatten_list_column(group, "pos_byte_lens")
    row_starts = np.concatenate(([0], np.cumsum(doc_lens_per_row)))

    # group boundaries: rows where (term, salt) changes — dictionary-encoded
    # term codes make the scan one vectorized int comparison, not a Python
    # string loop over every partial row
    tcodes = combine_column(group, "term").dictionary_encode().indices.to_numpy(
        zero_copy_only=False)
    change = np.flatnonzero(
        (tcodes[1:] != tcodes[:-1]) | (salts[1:] != salts[:-1])) + 1
    bounds = np.concatenate(([0], change, [n_rows]))

    # ascending-docID invariant (the reference asserts this at write:
    # ref:src/IndexWriter.cpp:618) — checked in ONE pass over the flat doc
    # stream; only pairs straddling a (term, salt) group boundary may
    # legitimately descend
    d_ok = np.diff(doc_flat) > 0
    if len(d_ok):
        gb_val = row_starts[bounds[1:-1]]
        d_ok[gb_val[gb_val > 0] - 1] = True
        assert d_ok.all(), "posting doc_ids not strictly ascending in a group"

    cols: dict[str, list] = {f.name: [] for f in POSTINGS_SCHEMA}
    bucket_val = int(group.column("bucket")[0].as_py()) if n_rows else 0

    for gi in range(len(bounds) - 1):
        r0, r1 = bounds[gi], bounds[gi + 1]
        v0, v1 = row_starts[r0], row_starts[r1]
        doc_ids = doc_flat[v0:v1]
        tfs = tf_flat[v0:v1]
        dls = dl_flat[v0:v1]

        if store_positions:
            pos_payload = b"".join(pos_rows[r0:r1])
            pos_byte_lens = blen_flat[v0:v1]
        else:
            pos_payload, pos_byte_lens = None, None
        blocks = cut_blocks_pre(
            doc_ids, tfs, pos_payload, pos_byte_lens, target_bytes=target_block_bytes
        )
        payload = bytearray()
        b_last, b_n, b_maxtf, b_mindl, b_off, b_len = [], [], [], [], [], []
        cursor = 0
        dls_cursor = 0
        for _first_doc, last_doc, block_bytes, block_docs, block_tfs in blocks:
            nb = len(block_docs)
            block_dls = dls[dls_cursor : dls_cursor + nb]
            dls_cursor += nb
            b_last.append(int(last_doc))
            b_n.append(nb)
            b_maxtf.append(int(block_tfs.max()))
            b_mindl.append(int(block_dls.min()))
            b_off.append(cursor)
            b_len.append(len(block_bytes))
            payload.extend(block_bytes)
            cursor += len(block_bytes)

        cols["term"].append(terms[r0])
        cols["bucket"].append(bucket_val)
        cols["salt"].append(int(salts[r0]))
        cols["cf"].append(int(tfs.sum()))
        cols["df"].append(int(len(doc_ids)))
        cols["first_doc"].append(int(doc_ids[0]))
        cols["last_doc"].append(int(doc_ids[-1]))
        cols["postings"].append(bytes(payload))
        cols["block_last_doc"].append(b_last)
        cols["block_n_docs"].append(b_n)
        cols["block_max_tf"].append(b_maxtf)
        cols["block_min_dl"].append(b_mindl)
        cols["block_offset"].append(b_off)
        cols["block_length"].append(b_len)

    return pa.Table.from_pydict(cols, schema=POSTINGS_SCHEMA)
