"""The FILESYSTEM bucket exchange — the repo's shared map/reduce idiom for
key-grouped aggregation whose key cardinality scales with the corpus
(n-grams, span occurrences, the term vocabulary, event users and windows,
link targets).

Why not ``Dataset.groupby``: a sort-based shuffle over O(total tokens) rows
costs the driver O(mappers × reducers) shuffle-lineage metadata — measured
gigabytes of driver RSS at 10M-doc soaks (BASELINE §1g) — and dispatches
per group.  Here the exchange is durable files:

* map (one task per corpus batch): the caller's kernel emits key rows with
  an int32 bucket column (key-hash % n_buckets); the wrapper sorts by
  bucket and writes ONE part file per batch whose row groups end on bucket
  boundaries (``stages.postings.write_bucketed``), so a reducer's
  ``read_bucket`` decodes only its slice (the input needs no id column
  and its batches may share any values).  Parts
  are named by (map task id, batch ordinal): a retried map task
  overwrites its first attempt's parts instead of adding to them;
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
the build's partials.  Per-task memory is one bucket; every caller sizes
``n_buckets`` with :func:`bucket_count` — ~32 MB of compressed input per
bucket, at least two per cluster CPU.

:func:`pair_exchange` chains two exchanges for the near-dup pair
operators: key rows → capped pairs per key bucket → one combined row per
pair, per pair-hash bucket.
"""

from __future__ import annotations

import os
import shutil
from typing import Callable

import pyarrow as pa
import ray
import ray.data

from ..cachedir import ensure_cached_dir, source_key
from ..stages.postings import read_bucket, write_bucketed


def bucket_count(path: str) -> int:
    """Bucket count for an exchange over ``path``: ~32 MB of compressed
    input per bucket, at least two per cluster CPU (a small input pays no
    more reduce tasks than two waves)."""
    cpus = (int(ray.cluster_resources().get("CPU", 32))
            if ray.is_initialized() else 32)
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0
    return max(2 * cpus, int(size // (32 << 20)))


# [(task id, attempt), batches written] of the map task running in this worker
_PART_SEQ: list = [None, 0]


def _part_name() -> str:
    """``part-{task id}-{ordinal}``.  A retried map task re-runs its
    batches in the same order under the same task id, so it rewrites the
    same names; a random name would leave the first attempt's parts
    behind and the reduce would count them twice."""
    from ray._private.worker import global_worker

    tid = ray.get_runtime_context().get_task_id()
    attempt = (tid, global_worker.core_worker.get_current_task_attempt_number())
    if _PART_SEQ[0] != attempt:  # new task, or an in-process retry
        _PART_SEQ[:] = [attempt, 0]
    _PART_SEQ[1] += 1
    return f"part-{tid}-{_PART_SEQ[1]:06d}"


def bucket_exchange(
    docs: "ray.data.Dataset | Callable[[str], ray.data.Dataset]",
    *,
    cache_root: str,
    source_path: str,
    version: str,
    n_buckets: int,
    bucket_col: str,
    map_kernel: Callable,          # pl.DataFrame(batch cols) -> pl.DataFrame
    map_columns: tuple[str, ...],  # batch columns handed to map_kernel
    reduce_columns: list[str] | None,  # columns reduce_kernel reads (None: all)
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
    every bucket must return the same arity.

    ``docs`` may be a callable ``scratch_dir -> Dataset``: it runs only on
    a cache miss, and ``scratch_dir`` (inside this exchange's tmp dir) is
    deleted once the map phase is done — :func:`pair_exchange` builds its
    first exchange there.

    ``version`` carries every parameter the output depends on (n-gram
    size, thresholds applied in a reduce, pair cap, LSH seeds/tables/
    planes) and never ``n_buckets``: outputs are bucket-count invariant."""
    import json

    def build(tmp: str) -> None:
        keys_dir = f"{tmp}/keys"
        out_dir = f"{tmp}/{out_dirname}"
        os.makedirs(keys_dir)
        os.makedirs(out_dir)

        def part(batch: pa.Table) -> pa.Table:
            import polars as pl

            if batch.num_rows == 0:
                return pa.table({"rows": pa.array([], pa.int64())})
            out = map_kernel(pl.from_arrow(batch.select(map_columns)))
            t = out.sort(bucket_col).to_arrow()
            write_bucketed(t, f"{keys_dir}/{_part_name()}.parquet",
                           bucket_col, n_buckets)
            return pa.table({"rows": pa.array([t.num_rows], pa.int64())})

        src = docs(f"{tmp}/in") if callable(docs) else docs
        src.map_batches(part, batch_format="pyarrow").materialize()
        shutil.rmtree(f"{tmp}/in", ignore_errors=True)
        # zero-doc corpus: no part file was written, so the exchange
        # dataset has no schema — skip the reduce entirely
        have_parts = any(f.endswith(".parquet") for f in os.listdir(keys_dir))

        @ray.remote(num_cpus=0.9)
        def reduce_bucket(bucket: int) -> int:
            import polars as pl
            import pyarrow.parquet as pq

            t = read_bucket(keys_dir, bucket_col, bucket,
                            columns=reduce_columns, salt=tmp)
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


def read_exchange(spill: str, dirname: str,
                  schema: pa.Schema) -> "ray.data.Dataset":
    """An exchange's output shards as a Dataset.  A zero-row output is one
    explicit empty block: ``read_parquet`` over only-empty files keeps the
    schema, but ``to_pandas`` drops the columns."""
    import json

    with open(f"{spill}/meta.json") as f:
        if json.load(f)["rows"] == 0:
            return ray.data.from_arrow(schema.empty_table())
    return ray.data.read_parquet(f"{spill}/{dirname}")


def pair_exchange(
    keys: "ray.data.Dataset",
    *,
    cache_root: str,
    source_path: str,
    version: str,
    n_buckets: int,
    key_col: str,
    map_kernel: Callable,          # pl.DataFrame(batch cols) -> key rows
    map_columns: tuple[str, ...],
    pair_kernel: Callable,         # one key bucket -> pair rows
    pair_schema: pa.Schema,        # pair rows; the first two fields are the pair
    aggs: list,                    # polars aggregations per pair ([] = unique)
    out_schema: pa.Schema,
    finish: Callable | None = None,  # combined rows of one pair bucket -> kept
) -> "ray.data.Dataset":
    """The near-dup pair operators' shuffle: two chained exchanges, read
    back as a Dataset over the combined pair shards.

    * stage 1 buckets ``map_kernel``'s key rows by the hash of
      ``key_col``; every row of a key lands in one bucket, so
      ``pair_kernel`` (which may cap a hot key) sees the whole key;
    * stage 2 re-buckets those pairs by pair hash and runs
      ``group_by(pair).agg(aggs)`` then ``finish`` per bucket, so a pair
      emitted from several keys is combined exactly once (count, unique
      or max).

    Stage 1 is built inside stage 2's tmp dir and deleted before stage
    2's cache dir is renamed into place; a stage-2 cache hit runs
    neither.  Both stages use ``n_buckets`` (outputs do not depend on
    it)."""
    import polars as pl

    a, b = pair_schema.names[:2]

    def keyed(df: "pl.DataFrame") -> "pl.DataFrame":
        return map_kernel(df).with_columns(
            (pl.col(key_col).hash(seed=0) % n_buckets).cast(pl.Int32)
            .alias("kb"))

    def pairs(df: "pl.DataFrame"):
        out = pair_kernel(df).select(pair_schema.names)
        return out, out.height

    def stage1(scratch: str) -> "ray.data.Dataset":
        spill = bucket_exchange(
            keys, cache_root=scratch, source_path=source_path,
            version=version, n_buckets=n_buckets, bucket_col="kb",
            map_kernel=keyed, map_columns=map_columns,
            reduce_columns=None, reduce_kernel=pairs,
            out_schema=pair_schema, out_dirname="pairs",
            out_prefix="pairs-kb", empty_name="pairs-")
        return ray.data.read_parquet(f"{spill}/pairs")

    def pair_hashed(df: "pl.DataFrame") -> "pl.DataFrame":
        return df.with_columns(
            (pl.struct(a, b).hash(seed=0) % n_buckets).cast(pl.Int32)
            .alias("pb"))

    def combine(df: "pl.DataFrame"):
        out = df.group_by(a, b).agg(aggs)
        out = (finish(out) if finish else out).select(out_schema.names)
        return out, out.height

    spill = bucket_exchange(
        stage1, cache_root=cache_root, source_path=source_path,
        version=version, n_buckets=n_buckets, bucket_col="pb",
        map_kernel=pair_hashed, map_columns=tuple(pair_schema.names),
        reduce_columns=pair_schema.names, reduce_kernel=combine,
        out_schema=out_schema, out_dirname="pairs", out_prefix="pairs-pb",
        empty_name="pairs-")
    return read_exchange(spill, "pairs", out_schema)
