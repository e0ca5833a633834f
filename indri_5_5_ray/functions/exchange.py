"""The FILESYSTEM bucket exchange — the repo's shared map/reduce idiom for
key-grouped aggregation whose key cardinality scales with the corpus
(n-grams, span occurrences, the term vocabulary).

Why not ``Dataset.groupby``: a sort-based shuffle over O(total tokens) rows
costs the driver O(mappers × reducers) shuffle-lineage metadata — measured
gigabytes of driver RSS at 10M-doc soaks (BASELINE §1g) — and dispatches
per group.  Here the exchange is durable files:

* map (one task per corpus batch): the caller's kernel emits key rows with
  an int32 bucket column (key-hash % n_buckets); the wrapper sorts by
  bucket and writes ONE uniquely named part file per batch with
  bucket-aligned row groups, so a reducer's predicate-pushdown read
  prunes to its slice (the input needs no id column and its batches may
  share any values);
* reduce (one Ray task per bucket, ``num_cpus=0.9``): read the bucket's
  slice (every occurrence of a key lands in one bucket, so in-bucket
  aggregation is globally exact), run the caller's kernel, write the
  bucket's output shard, return an integer metric;
* the intermediate part files are deleted once the outputs are durable;
  the whole exchange lives in a content-keyed cache dir (a rerun with
  unchanged inputs is free) and the caller's result Dataset depends only
  on the written files, so Ray lineage reconstruction re-reads them.

Multi-node note: part/output files go through the cache root — on a real
cluster that root must be shared storage (object store/NFS), exactly like
the build's partials.  Per-task memory is one bucket; size ``n_buckets``
by input bytes (the callers use ~32 MB of compressed corpus per bucket).
"""

from __future__ import annotations

import os
import shutil
import uuid
from typing import Callable

import pyarrow as pa
import ray

from ..cachedir import ensure_cached_dir, source_key


def bucket_exchange(
    docs: "ray.data.Dataset",
    *,
    cache_root: str,
    source_path: str,
    version: str,
    n_buckets: int,
    bucket_col: str,
    map_kernel: Callable,          # pl.DataFrame(batch cols) -> pl.DataFrame
    map_columns: tuple[str, ...],  # batch columns handed to map_kernel
    reduce_columns: list[str],     # pushdown-read columns for reduce_kernel
    reduce_kernel: Callable,       # pl.DataFrame -> (pl.DataFrame|None, int)
    out_schema: pa.Schema,
    out_dirname: str,
    out_prefix: str,
    out_row_group: int = 16384,
    empty_name: str | None = None,
    meta_payload: Callable[[int | tuple], dict] | None = None,
) -> str:
    """Run (or cache-hit) the exchange; returns the cached spill dir, which
    holds ``{out_dirname}/`` shards and ``meta.json`` =
    ``meta_payload(sum of reduce metrics)`` (default ``{"rows": n}``).

    ``map_kernel`` receives a polars frame of ``map_columns`` and must
    return rows carrying ``bucket_col`` (int32, already reduced modulo
    ``n_buckets``); sorting and the part-file write are the wrapper's.
    ``reduce_kernel`` receives one bucket's rows and returns (output frame
    or None, metric); the output is cast to ``out_schema`` and written
    only when non-empty.  ``metric`` is an int or a tuple of ints — tuples
    are summed elementwise across buckets (for callers whose finalize
    needs several global constants, e.g. per-class token totals), and
    every bucket must return the same arity."""
    import json

    def build(tmp: str) -> None:
        keys_dir = f"{tmp}/keys"
        out_dir = f"{tmp}/{out_dirname}"
        os.makedirs(keys_dir)
        os.makedirs(out_dir)

        def part(batch: pa.Table) -> pa.Table:
            import polars as pl
            import pyarrow.parquet as pq

            if batch.num_rows == 0:
                return pa.table({"rows": pa.array([], pa.int64())})
            out = map_kernel(pl.from_arrow(batch.select(map_columns)))
            t = out.sort(bucket_col).to_arrow()
            pq.write_table(t, f"{keys_dir}/part-{uuid.uuid4().hex}.parquet",
                           row_group_size=max(256,
                                              t.num_rows // n_buckets))
            return pa.table({"rows": pa.array([t.num_rows], pa.int64())})

        docs.map_batches(part, batch_format="pyarrow").materialize()
        # zero-doc corpus: no part file was written, so the exchange
        # dataset has no schema — skip the reduce entirely
        have_parts = any(f.endswith(".parquet") for f in os.listdir(keys_dir))

        @ray.remote(num_cpus=0.9)
        def reduce_bucket(bucket: int) -> int:
            import polars as pl
            import pyarrow.dataset as pads
            import pyarrow.parquet as pq

            from ..stages.postings import cached_dataset

            t = cached_dataset(keys_dir, salt=tmp).to_table(
                filter=pads.field(bucket_col) == bucket,
                columns=reduce_columns, use_threads=False)
            if t.num_rows == 0:
                return 0
            out, metric = reduce_kernel(pl.from_arrow(t))
            if out is not None and out.height:
                pq.write_table(out.to_arrow().cast(out_schema),
                               f"{out_dir}/{out_prefix}{bucket:04d}.parquet",
                               row_group_size=out_row_group)
            return (tuple(int(x) for x in metric)
                    if isinstance(metric, tuple) else int(metric))

        if have_parts:
            metrics = ray.get([reduce_bucket.remote(b)
                               for b in range(n_buckets)])
            tups = [m for m in metrics if isinstance(m, tuple)]
            if tups:  # empty buckets' int 0 is the identity either way
                total = tuple(sum(m[i] for m in tups)
                              for i in range(len(tups[0])))
            else:
                total = sum(metrics)
        else:
            total = 0
        if not os.listdir(out_dir):  # keep the dataset readable when empty
            import pyarrow.parquet as pq

            pq.write_table(out_schema.empty_table(),
                           f"{out_dir}/{empty_name or out_prefix}"
                           f"empty.parquet")
        shutil.rmtree(keys_dir, ignore_errors=True)  # intermediate exchange
        with open(f"{tmp}/meta.json", "w") as f:
            json.dump(meta_payload(total) if meta_payload
                      else {"rows": total}, f)

    return ensure_cached_dir(cache_root, source_key(source_path, version),
                             build, marker="meta.json")
