"""Postings merge: the groupby-term shuffle.

The Ray analogue of the reference's k-way heap merge over term-sorted partial
indexes (``IndexWriter::write``/``_mergeData``, ref:src/IndexWriter.cpp:810-879):
partial posting runs shuffled by (term, salt), concatenated in doc-id order
(doc ranges of partials are disjoint — docIDs are partition-ranged by
construction), cut into ~4 KB blocks of fixed-width Δdoc gaps and tfs plus
the ingest-encoded vbyte positions with block-max metadata (the
generalization of Indri's topdocs lists, ref:src/IndexWriter.cpp:531-607),
and per-term cf/df summed exactly like ``termdata_merge``
(ref:include/indri/TermData.hpp:126-140).  Where the reference loops per
term, ``merge_bucket`` encodes every (term, salt) run of a bucket slice in
one ``codec.cut_blocks_pre`` call and builds the metadata and statistics
with ``reduceat`` and gathers over the flat arrays.

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

import hashlib
import os

import numpy as np
import pyarrow as pa

from ..codec import cut_blocks_pre

# Postings per ``cut_blocks_pre`` call: ``merge_bucket`` encodes a bucket
# in slices of whole (term, salt) groups of at most this many postings (a
# larger group is a slice of its own), so its temporaries stay O(slice).
MERGE_SLICE_POSTINGS = 1 << 15

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
# 5: one docno map per index dir (``docnos/docnos.arrow``), written by the
#    merge phase.
# 6: the map is doc-keyed: a ``dl`` column beside ``docno``.
INDEX_FORMAT = 6

DICTIONARY_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("cf", pa.int64()),
        ("df", pa.int64()),
    ]
)


def term_bucket(term: str, n_buckets: int) -> int:
    """The bucket of ``term``: the first four bytes of its UTF-8 md5,
    little-endian, modulo ``n_buckets``.  Ingest routes a term's partial
    rows by it and the reader finds the term's postings file by it."""
    return int.from_bytes(hashlib.md5(term.encode()).digest()[:4],
                          "little") % n_buckets


def parquet_listing(path: str) -> tuple:
    """(file, size, mtime) of every parquet file of the directory ``path``
    (or of ``path`` itself when it is a file), sorted: the fingerprint
    :func:`dir_index` is keyed by, so a rewritten directory misses it."""
    if not os.path.isdir(path):
        st = os.stat(path)
        return ((path, st.st_size, st.st_mtime_ns),)
    with os.scandir(path) as it:
        return tuple(sorted(
            (f"{path}/{e.name}", e.stat().st_size, e.stat().st_mtime_ns)
            for e in it if e.name.endswith(".parquet")
            and not e.name.startswith(("_", "."))))


def write_bucketed(tbl: pa.Table, path: str, bucket_col: str,
                   n_buckets: int, **parquet_opts) -> None:
    """Write a ``bucket_col``-sorted table as one parquet file whose row
    groups end on bucket boundaries: each group but the last holds at
    least ``max(256, rows // n_buckets)`` rows and then runs to the end of
    the bucket it reached, so no bucket spans two groups and a reducer's
    :func:`read_bucket` decodes only the groups of its own bucket.
    ``parquet_opts`` go to ``pq.ParquetWriter``."""
    import pyarrow.parquet as pq

    n = tbl.num_rows
    min_rows = max(256, n // max(1, n_buckets))
    keys = combine_column(tbl, bucket_col).to_numpy(zero_copy_only=False)
    ends = np.flatnonzero(keys[1:] != keys[:-1]) + 1  # bucket starts
    with pq.ParquetWriter(path, tbl.schema, **parquet_opts) as w:
        lo = 0
        while lo < n:
            i = np.searchsorted(ends, lo + min_rows)
            hi = int(ends[i]) if i < len(ends) else n
            w.write_table(tbl.slice(lo, hi - lo), row_group_size=hi - lo)
            lo = hi


def footer_index(files: list[str], key: str) -> list:
    """The footer index of parquet ``files`` keyed by the integer column
    ``key``: per file, (file, footer, per-row-group key min and max).  A
    group without statistics gets the whole int range, so every read
    decodes it."""
    import pyarrow.parquet as pq

    index = []
    for f in files:
        md = pq.read_metadata(f)
        # the parquet leaf column, not the arrow field: a nested column
        # before it has more than one leaf
        ci = [md.schema.column(i).path
              for i in range(md.num_columns)].index(key)
        lo = np.full(md.num_row_groups, np.iinfo(np.int64).min)
        hi = np.full(md.num_row_groups, np.iinfo(np.int64).max)
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(ci).statistics
            if st is not None and st.has_min_max:
                lo[g], hi[g] = st.min, st.max
        index.append((f, md, lo, hi))
    return index


_DIR_INDEX: dict = {}


def dir_index(path: str, key: str, salt: str = "") -> list:
    """:func:`footer_index` of the parquet files of ``path`` (a directory
    or one file), built once per process and listing: warm Ray workers
    reuse it, so the footers load once per worker, not once per task.
    Callers pass their build fingerprint as ``salt`` to close the residual
    window of a same-size rewrite inside one mtime tick (coarse-granularity
    filesystems).  At most 5 indexes are kept."""
    k = (path, key, salt, parquet_listing(path))
    hit = _DIR_INDEX.get(k)
    if hit is None:
        if len(_DIR_INDEX) > 4:
            _DIR_INDEX.clear()
        hit = _DIR_INDEX[k] = footer_index([f for f, _, _ in k[3]], key)
    return hit


def read_keyed(index: list, key: str, lo: int | None = None,
               hi: int | None = None, ids: list[int] | None = None,
               columns: list[str] | None = None) -> pa.Table:
    """The one keyed read of key-sorted parquet files: every row of the
    files of ``index`` (:func:`footer_index`) whose ``key`` lies in
    ``[lo, hi]`` (a bound left None is open) and, when ``ids`` is given,
    in that id set — in file order, then row order (the rows and order of
    the ``pads`` filter scan).  Decodes only the row groups whose key
    range can hold a wanted key.  A file whose read keys ascend is cut to
    the range with a zero-copy ``searchsorted`` slice; an id set, or a
    file whose keys do not ascend, is masked.  No file stays open between
    reads.  An empty index gives a table without columns."""
    import pyarrow.parquet as pq

    if not index:
        return pa.table({})
    lo = np.iinfo(np.int64).min if lo is None else lo
    hi = np.iinfo(np.int64).max if hi is None else hi
    schema = index[0][1].schema.to_arrow_schema()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    read = None if columns is None else list(dict.fromkeys([*columns, key]))
    if ids is not None:
        ids = np.unique(np.asarray(ids, np.int64))
        ids = ids[(ids >= lo) & (ids <= hi)]
        if not len(ids):
            return schema.empty_table()
        lo, hi = int(ids[0]), int(ids[-1])
    parts = []
    for f, md, glo, ghi in index:
        hit = (glo <= hi) & (ghi >= lo)
        if ids is not None:
            hit &= (np.searchsorted(ids, glo, "left")
                    < np.searchsorted(ids, ghi, "right"))
        groups = np.flatnonzero(hit).tolist()
        if not groups:
            continue
        with pq.ParquetFile(f, metadata=md) as pf:
            t = pf.read_row_groups(groups, columns=read, use_threads=False)
        k = combine_column(t, key).to_numpy(zero_copy_only=False)
        if (k[1:] >= k[:-1]).all():
            i = np.searchsorted(k, lo, "left")
            j = np.searchsorted(k, hi, "right")
            t, k = t.slice(i, j - i), k[i:j]
        else:
            keep = (k >= lo) & (k <= hi)
            t, k = t.filter(keep), k[keep]
        if ids is not None and len(k):
            t = t.filter(ids[np.minimum(np.searchsorted(ids, k),
                                        len(ids) - 1)] == k)
        t = t.select(schema.names)
        parts.append(t if t.schema == schema else t.cast(schema))
    return pa.concat_tables(parts) if parts else schema.empty_table()


def read_range(path: str, key: str, lo: int | None = None,
               hi: int | None = None, columns: list[str] | None = None,
               salt: str = "") -> pa.Table:
    """Every row of the ``key``-sorted parquet files of ``path`` (a
    directory or one file) whose key lies in ``[lo, hi]``: a
    :func:`read_keyed` over the per-process :func:`dir_index`."""
    return read_keyed(dir_index(path, key, salt), key, lo, hi,
                      columns=columns)


def read_bucket(path: str, bucket_col: str, b: int,
                columns: list[str] | None = None, salt: str = "") -> pa.Table:
    """Every row of bucket ``b`` from the ``bucket_col``-sorted parquet
    files of ``path``, in file-name then row order (the rows and order of
    ``pads.dataset(path).to_table(filter=field(bucket_col) == b)``): the
    range read ``[b, b]``, so a row group that straddles buckets (the
    layout before :func:`write_bucketed`) still reads right.  A directory
    without parquet files gives a table without columns."""
    return read_range(path, bucket_col, b, b, columns, salt)


class MergeWorker:
    """Map-only merge reducer: one work item = one bucket.

    The shuffle is done by the FILESYSTEM, not the object store: ingest wrote
    partials bucket-sorted with row groups that end on bucket boundaries
    (``write_partials``), so each reducer's ``read_bucket`` decodes only
    the row groups of its own bucket.  Each bucket's
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

        import pyarrow.parquet as pq

        from ..state import lineage

        out_rows = []
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
            group = read_bucket(self.partials_dir, "bucket", bucket,
                                salt=self.plan_fingerprint)
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
            # term-sorted (cf, df) rows for the vocabulary readers
            # (dumpindex, wildcard expansion) — queries take their
            # statistics from the postings file
            d = dictionary_rows(merged)
            pq.write_table(d, dict_path)
            rec = lineage.write_record(
                self.out_dir, "merge", pid, fingerprint,
                rows=merged.num_rows, bytes_written=int(merged.nbytes),
                wall_ms=(time.perf_counter() - t0) * 1000,
                extra={"n_terms": d.num_rows},
            )
            out_rows.append(rec)
        return pa.Table.from_pylist(out_rows)


def dictionary_rows(merged: pa.Table) -> pa.Table:
    """A bucket's dictionary rows from its ``merge_bucket`` rows, which
    are sorted by term: one row per term, its (cf, df) summed over the
    term's salt rows."""
    if not merged.num_rows:
        return merged.select(["term", "cf", "df"]).cast(DICTIONARY_SCHEMA)
    import pyarrow.compute as pc

    terms = combine_column(merged, "term")
    runs = np.flatnonzero(np.concatenate(([True], pc.not_equal(
        terms[1:], terms[:-1]).to_numpy(zero_copy_only=False))))
    return pa.table([terms.take(pa.array(runs))] + [
        pa.array(np.add.reduceat(merged.column(c).to_numpy(), runs))
        for c in ("cf", "df")], schema=DICTIONARY_SCHEMA)


def write_partials(tbl: pa.Table, path: str, n_buckets: int) -> None:
    """The one partials layout: sorted by bucket (stable, so rows stay
    term-sorted within a bucket) and written by ``write_bucketed``, so each
    MergeWorker's ``read_bucket`` decodes only its bucket's row groups
    instead of shuffling through the object store.  Partials are build
    scratch, read whole or by bucket, so they are written with zstd,
    without dictionary pages and with min/max statistics on ``bucket``
    only (the key of the reducers' row-group index): about 27% fewer
    bytes than snappy with dictionaries and statistics, at about the same
    write CPU."""
    write_bucketed(tbl.sort_by([("bucket", "ascending")]), path, "bucket",
                   n_buckets, compression="zstd", use_dictionary=False,
                   write_statistics=["bucket"])


def write_docs(tbl: pa.Table, path: str) -> None:
    """The one doc_id-keyed table layout (docs, direct, fields).  Content
    docstores get 256-row groups: snippet/doctext point reads
    (IndexReader._point_read) decompress only the groups whose doc_id range
    holds a requested doc; tables without content stay one group.  The
    query-side doc-keyed map (docnos and doc lengths) is not written here:
    the merge phase writes one per index dir from the whole ``docs/``
    (``write_docno_map``)."""
    import pyarrow.parquet as pq

    if "content" in tbl.column_names:
        pq.write_table(tbl, path, row_group_size=256)
    else:
        pq.write_table(tbl, path)


DOCNO_MAP_SCHEMA = pa.schema([("docno", pa.large_string()),
                              ("dl", pa.int32(), False)])
DOCNO_MAP = "docnos/docnos.arrow"


def write_docno_map(index_dir: str) -> int:
    """An index dir's doc-keyed map, ``docnos/docnos.arrow``: one
    uncompressed Arrow IPC batch dense over the doc_id range
    ``[first, last]`` of the dir's ``docs/`` (slot ``d - first`` holds doc
    ``d``), with ``first`` in the schema metadata.  ``docno`` is a
    ``large_string`` column, null at ids no docs row holds (dedup losers,
    dropped docs); ``dl`` is an int32 column without a validity bitmap,
    0 at those ids, so a reader maps it as a zero-copy numpy view (the
    reference's ``documentLengths`` file,
    ref:src/IndexWriter.cpp:1090-1093).  The reader memory-maps the file
    and answers a docno page with one ``take`` and a doc-length read with
    one gather (the forward lookup of the reference's collection,
    ref:src/Repository.cpp:367-387).  A ``docs/`` with no rows gives a map
    with no record batch.  Reads only ``doc_id, docno, dl``, so the same
    docs give the same bytes; written aside, then renamed, so a mapped
    file is never truncated.  Returns the number of docs mapped."""
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{index_dir}/docs",
                         columns=["doc_id", "docno", "dl"])
    ids = docs.column("doc_id").to_numpy()
    first = int(ids.min()) if len(ids) else 0
    slot = np.full(int(ids.max()) - first + 1 if len(ids) else 0, -1, np.int64)
    slot[ids - first] = np.arange(len(ids))
    docno = combine_column(docs, "docno").cast(pa.large_string()).take(
        pa.array(slot, mask=slot < 0))
    dl = np.zeros(len(slot), np.int32)
    dl[ids - first] = docs.column("dl").to_numpy()
    schema = DOCNO_MAP_SCHEMA.with_metadata({"first": str(first)})
    path = f"{index_dir}/{DOCNO_MAP}"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with pa.ipc.new_file(path + ".tmp", schema) as w:
        if len(docno):
            w.write_batch(pa.record_batch([docno, pa.array(dl)],
                                          schema=schema))
    os.replace(path + ".tmp", path)
    return len(ids)


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

    One sort + arrow flatten gives contiguous numpy runs per (term, salt),
    already concatenated in doc-id order; ``cut_blocks_pre`` encodes the
    runs of up to ``MERGE_SLICE_POSTINGS`` postings at a time (whole
    groups), and the block metadata, per-row statistics and output columns
    come from ``reduceat``/gathers over the flat arrays — no Python loop
    over terms or blocks.  Reducer memory ≈ index_bytes / n_buckets — size
    ``n_buckets`` so a bucket fits a worker's heap (the scale knob; the
    reference's analogue is its merge-memory halving heuristic
    ref:src/Repository.cpp:824-872).
    """
    if group.num_rows == 0:
        return POSTINGS_SCHEMA.empty_table()
    group = group.sort_by(
        [("term", "ascending"), ("salt", "ascending"), ("first_doc", "ascending")]
    )
    n_rows = group.num_rows
    salts = group.column("salt").to_numpy()
    doc_flat, doc_lens_per_row = _flatten_list_column(group, "doc_ids")
    tf_flat, _ = _flatten_list_column(group, "tfs", np.int32)
    dl_flat, _ = _flatten_list_column(group, "dls", np.int32)
    row_starts = np.concatenate(([0], np.cumsum(doc_lens_per_row)))

    # group boundaries: rows where (term, salt) changes — dictionary-encoded
    # term codes make the scan one vectorized int comparison, not a Python
    # string loop over every partial row
    tcodes = combine_column(group, "term").dictionary_encode().indices.to_numpy(
        zero_copy_only=False)
    change = np.flatnonzero(
        (tcodes[1:] != tcodes[:-1]) | (salts[1:] != salts[:-1])) + 1
    bounds = np.concatenate(([0], change, [n_rows]))
    heads = row_starts[bounds]  # each group's first doc index, then the end

    # ascending-docID invariant (the reference asserts this at write:
    # ref:src/IndexWriter.cpp:618) — checked in ONE pass over the flat doc
    # stream; only pairs straddling a (term, salt) group boundary may
    # legitimately descend
    d_ok = np.diff(doc_flat) > 0
    if len(d_ok):
        d_ok[heads[1:-1] - 1] = True
        assert d_ok.all(), "posting doc_ids not strictly ascending in a group"

    if store_positions:
        blen_flat, _ = _flatten_list_column(group, "pos_byte_lens", np.int32)
        pos = combine_column(group, "pos_bytes")
        _, pos_offsets, pos_data = pos.buffers()
        pos_offsets = np.frombuffer(pos_offsets, np.int64)[
            pos.offset:pos.offset + n_rows + 1][bounds]
        pos_data = np.frombuffer(pos_data or b"", np.uint8)
    payloads, n_blocks = [], []
    starts, offsets = [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    g0 = 0
    while g0 < len(bounds) - 1:
        g1 = max(g0 + 1, int(np.searchsorted(
            heads, heads[g0] + MERGE_SLICE_POSTINGS, "right")) - 1)
        v0, v1 = heads[g0], heads[g1]
        cut = cut_blocks_pre(
            doc_flat[v0:v1], tf_flat[v0:v1],
            pos_data[pos_offsets[g0]:pos_offsets[g1]] if store_positions else None,
            blen_flat[v0:v1] if store_positions else None,
            np.diff(heads[g0:g1 + 1]), target_bytes=target_block_bytes)
        starts.append(cut.starts[1:] + v0)
        offsets.append(cut.offsets[1:] + offsets[-1][-1])
        payloads.append(cut.payload)
        n_blocks.append(cut.n_blocks)
        g0 = g1
    # every block of the bucket: its first doc index and its byte offset,
    # each with the end appended; a row's blocks are one run of them
    starts, offsets = np.concatenate(starts), np.concatenate(offsets)
    lists = np.zeros(len(bounds), np.int32)
    np.cumsum(np.concatenate(n_blocks), out=lists[1:])
    row_offsets = offsets[lists]
    first = starts[:-1]

    def blocks(values):
        return pa.ListArray.from_arrays(pa.array(lists), pa.array(values))

    return pa.table({
        "term": combine_column(group, "term").take(pa.array(bounds[:-1])),
        "bucket": np.full(len(bounds) - 1, group.column("bucket")[0].as_py(),
                          np.int32),
        "salt": salts[bounds[:-1]],
        "cf": np.add.reduceat(tf_flat, heads[:-1], dtype=np.int64),
        "df": np.diff(heads),
        "first_doc": doc_flat[heads[:-1]],
        "last_doc": doc_flat[heads[1:] - 1],
        "postings": pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(bounds) - 1,
            [None, pa.py_buffer(row_offsets), pa.py_buffer(
                payloads[0] if len(payloads) == 1 else np.concatenate(payloads))]),
        "block_last_doc": blocks(doc_flat[starts[1:] - 1]),
        "block_n_docs": blocks(np.diff(starts).astype(np.int32)),
        "block_max_tf": blocks(np.maximum.reduceat(tf_flat, first)),
        "block_min_dl": blocks(np.minimum.reduceat(dl_flat, first)),
        "block_offset": blocks(offsets[:-1] - np.repeat(row_offsets[:-1],
                                                        np.diff(lists))),
        "block_length": blocks(np.diff(offsets).astype(np.int32)),
    }, schema=POSTINGS_SCHEMA)
