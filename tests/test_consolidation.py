"""Reducer fan-in bounding: with many ingest chunks, the merge must read
O(consolidated files), not O(chunks) — the per-reducer dataset discovery +
footer reads are what dominate at 10⁵+ chunks (see
pipelines.build._consolidate_partials)."""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from indri_5_5_ray.config import IndexConfig
from indri_5_5_ray.pipelines.build import _consolidate_partials
from indri_5_5_ray.stages.postings import PARTIALS_SCHEMA, MergeWorker

N_CHUNKS = 5000
N_BUCKETS = 4


def _write_partials(out_dir) -> None:
    (out_dir / "partials").mkdir(parents=True)
    for i in range(N_CHUNKS):
        term = f"t{i % 20:03d}"
        bucket = i % N_BUCKETS
        t = pa.table(
            {
                "term": pa.array([term], pa.string()),
                "bucket": pa.array([bucket], pa.int32()),
                "salt": pa.array([0], pa.int64()),
                "first_doc": pa.array([i], pa.int64()),
                "last_doc": pa.array([i], pa.int64()),
                "doc_ids": pa.array([[i]], pa.list_(pa.int64())),
                "tfs": pa.array([[1 + i % 3]], pa.list_(pa.int32())),
                "pos_bytes": pa.array([b""], pa.large_binary()),
                "pos_byte_lens": pa.array([[]], pa.list_(pa.int32())),
            },
            schema=PARTIALS_SCHEMA,
        )
        pq.write_table(t, out_dir / "partials" / f"partials-{i:06d}.parquet")


def _merge_bucket0(out_dir: str, partials_dir: str | None, tag: str):
    cfg = IndexConfig(store_positions=False, n_buckets=N_BUCKETS,
                      salt_docs_per_group=10**9)
    w = MergeWorker(out_dir, cfg.to_dict(), plan_fingerprint=tag,
                    partials_dir=partials_dir)
    t0 = time.perf_counter()
    w(pa.table({"bucket": pa.array([0, 1], pa.int32())}))
    wall = time.perf_counter() - t0
    got = pa.ipc.open_file(f"{out_dir}/postings/postings-00000.arrow").read_all()
    return wall, got.sort_by([("term", "ascending"), ("salt", "ascending")])


def test_consolidation_bounds_reducer_fan_in(tmp_path, monkeypatch):
    out = tmp_path / "idx"
    _write_partials(out)
    out_str = str(out)

    # raw: every reducer opens all N_CHUNKS files
    t_raw, merged_raw = _merge_bucket0(out_str, None, "raw")

    monkeypatch.setenv("INDRI55_MAX_REDUCER_FILES", "64")
    cfg = IndexConfig(store_positions=False, n_buckets=N_BUCKETS)
    src = _consolidate_partials(out_str, cfg)
    assert src.endswith("partials_c")
    n_consolidated = len(list((out / "partials_c").glob("*.parquet")))
    # the reducer-visible file count is bounded by the threshold (±1 group)
    assert n_consolidated <= 65, n_consolidated

    t_cons, merged_cons = _merge_bucket0(out_str, src, "cons")

    # identical merge output (same postings bytes, stats, blocks)
    assert merged_raw.equals(merged_cons)
    # wall-time scales with the bucket's data, not the chunk count: reading
    # ~64 consolidated files must beat reading 5000 footers
    assert t_cons < t_raw, (t_cons, t_raw)

    # idempotent resume: a second call skips via lineage records
    t0 = time.perf_counter()
    src2 = _consolidate_partials(out_str, cfg)
    assert src2 == src
    assert time.perf_counter() - t0 < t_raw


def test_consolidation_noop_below_threshold(tmp_path, monkeypatch):
    out = tmp_path / "idx"
    (out / "partials").mkdir(parents=True)
    t = PARTIALS_SCHEMA.empty_table()
    pq.write_table(t, out / "partials" / "partials-000000.parquet")
    monkeypatch.setenv("INDRI55_MAX_REDUCER_FILES", "64")
    cfg = IndexConfig(store_positions=False, n_buckets=N_BUCKETS)
    src = _consolidate_partials(str(out), cfg)
    assert src.endswith("partials")


def test_consolidation_rebuilds_on_rewritten_partials(tmp_path, monkeypatch):
    """A resumed build that re-ingests partials under the SAME file names
    must re-consolidate (content fingerprint = size+mtime, not names), and
    a smaller regrouping must prune the previous run's leftover files."""
    import os

    out = tmp_path / "idx"
    _write_partials(out)
    out_str = str(out)
    monkeypatch.setenv("INDRI55_MAX_REDUCER_FILES", "64")
    cfg = IndexConfig(store_positions=False, n_buckets=N_BUCKETS)
    src = _consolidate_partials(out_str, cfg)
    first = {p.name: p.stat().st_mtime_ns
             for p in (out / "partials_c").glob("*.parquet")}

    # unchanged partials → second call skips every group (no rewrites)
    _consolidate_partials(out_str, cfg)
    second = {p.name: p.stat().st_mtime_ns
              for p in (out / "partials_c").glob("*.parquet")}
    assert second == first

    # rewrite ONE partials file in place (same name, new content/mtime):
    # its group must be re-consolidated and reflect the new rows
    victim = sorted((out / "partials").glob("*.parquet"))[0]
    t = pq.read_table(victim)
    t = t.set_column(t.schema.get_field_index("tfs"),
                     "tfs", pa.array([[7]], pa.list_(pa.int32())))
    pq.write_table(t, victim)
    os.utime(victim, ns=(time.time_ns(), time.time_ns() + 10**6))
    src = _consolidate_partials(out_str, cfg)
    third = {p.name: p.stat().st_mtime_ns
             for p in (out / "partials_c").glob("*.parquet")}
    changed = [n for n in third if third[n] != first.get(n)]
    assert changed, "rewritten partials file did not trigger re-consolidation"
    import pyarrow.dataset as pads

    dset = pads.dataset(src, format="parquet")
    got = dset.to_table(filter=pads.field("first_doc") == 0)
    assert got.column("tfs").to_pylist() == [[7]]

    # smaller regrouping (larger fan budget → fewer groups) prunes leftovers
    monkeypatch.setenv("INDRI55_MAX_REDUCER_FILES", "8")
    # force regroup with a much larger per-group budget → fewer files
    src = _consolidate_partials(out_str, cfg)
    names = {p.name for p in (out / "partials_c").glob("*.parquet")}
    expected = {f"c-{g:05d}.parquet" for g in range(len(names))}
    assert names == expected  # contiguous, no stale high-numbered leftovers
    assert len(names) <= 9
