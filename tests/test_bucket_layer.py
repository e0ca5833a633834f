"""The bucket layer of ``stages.postings``: ``write_bucketed`` lays row
groups along bucket boundaries and ``read_bucket`` reads one bucket through
a per-process row-group index.  Checked against the dataset filter scan it
replaces, on both the aligned layout and the earlier one whose row groups
straddle buckets, and end to end: partials in the earlier layout resume to
the same postings and dictionary bytes, and every term of a built index
sits in the bucket file ``term_bucket`` names."""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

from indri_5_5_ray.stages.postings import (read_bucket, term_bucket,
                                           write_bucketed)

# nested columns before the bucket column: a struct has a parquet leaf per
# field, so the bucket column's leaf index is not its arrow field index
SCHEMA = pa.schema([("key", pa.string()), ("payload", pa.list_(pa.int32())),
                    ("pair", pa.struct([("a", pa.int64()), ("b", pa.int64())])),
                    ("bk", pa.int32()), ("v", pa.int64())])


def _table(rng: np.random.Generator, n: int, present: list[int]) -> pa.Table:
    bk = np.sort(rng.choice(present, n)).astype(np.int32) if n else \
        np.empty(0, np.int32)
    v = rng.integers(-5, 5, n)
    return pa.table({
        "key": pa.array([f"k{x}" for x in rng.integers(0, 50, n)]),
        "bk": pa.array(bk),
        "v": pa.array(v),
        "payload": pa.array([[int(x)] * int(x % 3) for x in v],
                            pa.list_(pa.int32())),
        "pair": pa.array([{"a": int(x), "b": -int(x)} for x in v],
                         SCHEMA.field("pair").type),
    }, schema=SCHEMA)


def _row_group_buckets(path: str) -> list[tuple[int, int, int]]:
    """(rows, min bucket, max bucket) of every row group of ``path``."""
    md = pq.read_metadata(path)
    ci = [md.schema.column(i).path
          for i in range(md.num_columns)].index("bk")
    return [(md.row_group(g).num_rows,
             md.row_group(g).column(ci).statistics.min,
             md.row_group(g).column(ci).statistics.max)
            for g in range(md.num_row_groups)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_buckets=st.integers(1, 12),
       sizes=st.lists(st.sampled_from([0, 1, 7, 90, 300, 700, 2500]),
                      min_size=1, max_size=5),
       aligned=st.lists(st.booleans(), min_size=5, max_size=5),
       old_group=st.sampled_from([3, 64, None]))
def test_read_bucket_equals_the_filter_scan(seed, n_buckets, sizes, aligned,
                                            old_group):
    """``read_bucket`` == ``pads.dataset(d).to_table(filter=bk == b)`` row
    for row, over files in either layout (the earlier one: fixed-size row
    groups, ``max(256, rows // n)`` when ``old_group`` is None), empty
    files, buckets no file holds and ``columns`` subsets; no bucket of a
    ``write_bucketed`` file spans two row groups, and every group but the
    last holds at least ``max(256, rows // n)`` rows."""
    rng = np.random.default_rng(seed)
    present = sorted(rng.choice(n_buckets, max(1, n_buckets // 2 + 1),
                                replace=False).tolist())
    d = tempfile.mkdtemp()
    try:
        for i, n in enumerate(sizes):
            t = _table(rng, n, present)
            f = f"{d}/part-{i:03d}.parquet"
            if aligned[i]:
                write_bucketed(t, f, "bk", n_buckets)
                groups = _row_group_buckets(f)
                floor = max(256, n // n_buckets)
                assert sum(r for r, _, _ in groups) == n
                assert all(r >= floor for r, _, _ in groups[:-1])
                assert all(a[2] < b[1] for a, b in zip(groups, groups[1:]))
            else:
                pq.write_table(t, f, row_group_size=old_group
                               or max(256, n // n_buckets))
        dset = pads.dataset(d, format="parquet")
        for columns in (None, ["v", "key"], ["payload", "pair"], ["bk", "v"]):
            for b in range(-1, n_buckets + 1):
                want = dset.to_table(filter=pads.field("bk") == b,
                                     columns=columns)
                got = read_bucket(d, "bk", b, columns=columns)
                assert got.schema == want.schema, (columns, b)
                assert got.equals(want), (columns, b)
    finally:
        shutil.rmtree(d)


def test_read_bucket_sees_a_rewritten_dir(tmp_path):
    """The row-group index is keyed by the directory listing: a file
    added or rewritten after a read is seen by the next read, and a
    directory without parquet files reads as a table without rows."""
    d = str(tmp_path)
    assert read_bucket(d, "bk", 0).num_rows == 0
    rng = np.random.default_rng(3)
    write_bucketed(_table(rng, 400, [0, 1]), f"{d}/a.parquet", "bk", 2)
    n0 = read_bucket(d, "bk", 0).num_rows
    write_bucketed(_table(rng, 300, [0]), f"{d}/b.parquet", "bk", 2)
    assert read_bucket(d, "bk", 0).num_rows == n0 + 300


def test_old_layout_partials_resume_to_identical_bytes(small_corpus_dir,
                                                       tmp_path):
    """An in-flight build whose partials were written with row groups that
    straddle buckets (the layout before ``write_bucketed``) resumes to the
    same ``postings/``, ``dictionary/`` and ``docnos/`` bytes as the
    build that wrote them."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256")
    out, ref = tmp_path / "idx", tmp_path / "ref"
    build_index(small_corpus_dir, str(out), cfg, resume=False)
    partials = sorted((out / "partials").glob("*.parquet"))
    for f in partials:
        # 50-row groups: many of them hold the end of one bucket and the
        # start of the next
        pq.write_table(pq.read_table(f), f, compression="zstd",
                       use_dictionary=False, write_statistics=["bucket"],
                       row_group_size=50)
        md = pq.read_metadata(f)
        ci = md.schema.to_arrow_schema().get_field_index("bucket")
        assert any(md.row_group(g).column(ci).statistics.min
                   != md.row_group(g).column(ci).statistics.max
                   for g in range(md.num_row_groups))
    written = [f.stat().st_mtime_ns for f in partials]
    subs = ("postings", "dictionary", "docnos")
    for sub in subs:
        shutil.move(out / sub, ref / sub)
    for rec in (out / "lineage").glob("merge-*.json"):
        rec.unlink()
    (out / "manifest.json").unlink()

    build_index(small_corpus_dir, str(out), cfg, resume=True)
    # every ingest chunk was skipped: the merge read the old layout
    assert [f.stat().st_mtime_ns for f in partials] == written
    for sub in subs:
        names = sorted(os.listdir(ref / sub))
        assert names == sorted(os.listdir(out / sub)), sub
        for name in names:
            assert ((ref / sub / name).read_bytes()
                    == (out / sub / name).read_bytes()), (sub, name)


def test_every_term_sits_in_its_term_bucket_file(built_index):
    """Every row of every postings and dictionary file of a built index
    hashes, by ``term_bucket``, to the bucket in the file's name (ingest
    routes by it and the reader finds a term's file by it)."""
    from indri_5_5_ray.pipelines.query import IndexReader

    src, _manifest = built_index
    n_buckets = IndexReader(src).cfg.n_buckets
    seen = 0
    for sub, ext in (("postings", ".arrow"), ("dictionary", ".parquet")):
        for f in sorted((Path(src) / sub).glob(f"*{ext}")):
            b = int(f.stem.rsplit("-", 1)[1])
            if ext == ".arrow":
                terms = pa.ipc.open_file(f).read_all().column("term")
            else:
                terms = pq.read_table(f, columns=["term"]).column("term")
            for t in terms.to_pylist():
                assert term_bucket(t, n_buckets) == b, (t, b)
                seen += 1
    assert seen > 100
