"""Distributed connected components over an edge list.

The near-dup clustering operators (``near_dup_clusters``,
``embedding_dup_clusters``) finish with connected components over the
verified pair list.  At bench scales the edge list is tiny and a
driver-side union-find is the right tool; at web scale duplication runs
30-50% of the corpus, so the verified edge list is O(corpus) and must
never be driver-resident.  This module is the scale path: a label-
propagation components algorithm from the hash-to-min family (Kiveris
et al., "Connected Components in MapReduce and Beyond", SoCC'14) run as
bucketed FILESYSTEM exchanges — the same idiom as the index build's
dedup phase and ``exchange.bucket_exchange`` (which every dedup
operator runs on): map tasks write bucket-
partitioned parquet, one reduce task per bucket reads its slice, the
driver holds only per-task COUNTS.  A ``Dataset.sort``/``groupby`` loop
here would cost the driver O(mappers × reducers × rounds) shuffle-
lineage metadata; the exchange's driver state is independent of both
the edge count and the round count.

Algorithm (per round, B node-hash buckets):

1. *message wave* — one task per bucket ``b`` joins the static directed
   edge slice (src ∈ b) plus the round's pointer edges (see below) with
   the label slice (node ∈ b, co-located by construction) and emits
   ``(dst, min candidate label)`` rows partitioned by ``hash(dst)``.
2. *update wave* — one task per bucket takes the per-node min of its
   incoming candidates, lowers its labels, writes the next label slice,
   and emits the next round's POINTER edges ``node ↔ label`` (both
   directions, bucket-partitioned).  Pointer edges are what turn plain
   neighbor propagation (O(diameter) rounds) into hash-to-min-style
   pointer doubling: a node learns its label's label each round, so
   chains collapse in O(log n) rounds.

Termination: a round with zero lowered labels is a fixpoint.  At a
fixpoint every graph edge (u,v) has lbl[u] == lbl[v] (each bounds the
other from below), labels only ever take node-id values reachable by
min-propagation, and the component minimum m keeps lbl[m] == m — so the
shared label IS the component min, matching the union-find contract
(``cluster_rep`` = component min).

Output: labels re-partitioned into NODE-RANGE shards (``final/``), so
the per-batch assignment join over the streaming corpus reads only the
shards overlapping the batch's id range — the same range-pruned-lookup
shape as the build's loser shards (stages/ingest.py).
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import shutil
import tempfile

import numpy as np
import polars as pl
import pyarrow as pa
import ray

from ..stages.postings import read_bucket, read_range, write_bucketed

logger = logging.getLogger(__name__)

# Fibonacci-hash bucket mix: doc/vec ids are usually dense, but label
# values cluster toward component minima as rounds progress, so a plain
# modulo would starve high buckets late in the run.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _bucket_of(ids: np.ndarray, n_buckets: int) -> np.ndarray:
    u = ids.astype(np.uint64)
    return (((u * _MIX) >> np.uint64(33)) % np.uint64(n_buckets)).astype(np.int32)


_EDGE_SCHEMA = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
_LABEL_SCHEMA = pa.schema([("node", pa.int64()), ("lbl", pa.int64())])


def _spill(df: pl.DataFrame, bucket_col: str, n_buckets: int,
                    path: str) -> None:
    """One task's rows as one ``bucket_col``-sorted parquet file with
    bucket-aligned row groups (``stages.postings.write_bucketed``): a
    reducer reads its bucket out of every task's file with
    :func:`_bucket_rows`."""
    write_bucketed(df.sort(bucket_col).to_arrow(), path, bucket_col,
                   n_buckets)


def _bucket_rows(dir_: str, bucket_col: str, bucket: int,
                 schema: pa.Schema) -> pl.DataFrame:
    """Bucket ``bucket``'s ``schema`` columns out of every file of
    ``dir_`` (``stages.postings.read_bucket``)."""
    t = read_bucket(dir_, bucket_col, bucket, columns=schema.names)
    return pl.from_arrow(t if t.num_columns else schema.empty_table())


def _owned_rows(path: str, schema: pa.Schema) -> pl.DataFrame:
    """A bucket's own slice file (labels, static edges); empty when the
    bucket wrote none."""
    import pyarrow.parquet as pq

    return pl.from_arrow(pq.read_table(path) if os.path.exists(path)
                         else schema.empty_table())


@ray.remote(num_cpus=0.9)
def _init_scatter(ref: pa.Table, a_col: str, b_col: str, work: str,
                  part: int, n_buckets: int) -> int:
    """One edge chunk → directed rows (both orientations), bucket-
    partitioned by hash(src).  Self-loops dropped (they never move a
    label)."""
    if a_col not in ref.column_names or ref.num_rows == 0:
        return 0  # empty blocks may arrive schema-less from map_groups
    a = ref.column(a_col).to_numpy().astype(np.int64)
    b = ref.column(b_col).to_numpy().astype(np.int64)
    keep = a != b
    a, b = a[keep], b[keep]
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    df = pl.DataFrame({"src": src, "dst": dst,
                       "sb": _bucket_of(src, n_buckets)})
    _spill(df, "sb", n_buckets,
                    f"{work}/edges_in/part-{part:05d}.parquet")
    return len(a)


@ray.remote(num_cpus=0.9)
def _init_bucket(work: str, bucket: int) -> tuple[int, int]:
    """Consolidate one src bucket: dedup directed edges, write the static
    edge slice and the initial label slice (lbl = self).  Returns
    (n_nodes, max_node) for the bucket."""
    import pyarrow.parquet as pq

    df = _bucket_rows(f"{work}/edges_in", "sb", bucket, _EDGE_SCHEMA)
    if df.height == 0:
        return 0, -1
    df = df.unique(["src", "dst"]).sort("src")
    pq.write_table(df.to_arrow().cast(_EDGE_SCHEMA),
                   f"{work}/edges/b{bucket:03d}.parquet")
    nodes = df["src"].unique().sort()
    lab = pl.DataFrame({"node": nodes, "lbl": nodes})
    pq.write_table(lab.to_arrow().cast(_LABEL_SCHEMA),
                   f"{work}/labels0/own-b{bucket:03d}.parquet")
    return lab.height, int(nodes.max())


@ray.remote(num_cpus=0.9)
def _message_wave(work: str, bucket: int, rnd: int, n_buckets: int) -> int:
    """Join labels onto the bucket's outgoing edges (static + pointer) and
    emit per-dst min-candidate rows partitioned by hash(dst)."""
    parts = [_owned_rows(f"{work}/edges/b{bucket:03d}.parquet",
                         _EDGE_SCHEMA)]
    ptr_dir = f"{work}/ptr{rnd}"
    if os.path.isdir(ptr_dir):
        parts.append(_bucket_rows(ptr_dir, "sb", bucket, _EDGE_SCHEMA))
    edges = pl.concat(parts)
    if edges.height == 0:
        return 0
    labels = _owned_rows(f"{work}/labels{rnd}/own-b{bucket:03d}.parquet",
                         _LABEL_SCHEMA)
    msgs = (edges.join(labels, left_on="src", right_on="node", how="inner")
            .group_by("dst").agg(pl.col("lbl").min().alias("cand")))
    if msgs.height == 0:
        return 0
    msgs = msgs.with_columns(
        pl.Series("db", _bucket_of(msgs["dst"].to_numpy(), n_buckets)))
    _spill(msgs, "db", n_buckets,
                    f"{work}/msg{rnd}/from-b{bucket:03d}.parquet")
    return msgs.height


@ray.remote(num_cpus=0.9)
def _update_wave(work: str, bucket: int, rnd: int, n_buckets: int) -> int:
    """Lower the bucket's labels by incoming candidates; write the next
    label slice and the next round's pointer edges.  Returns the number
    of labels that changed."""
    import pyarrow.parquet as pq

    labels = _owned_rows(f"{work}/labels{rnd}/own-b{bucket:03d}.parquet",
                         _LABEL_SCHEMA)
    if labels.height == 0:
        return 0
    msg_schema = pa.schema([("dst", pa.int64()), ("cand", pa.int64())])
    msgs = _bucket_rows(f"{work}/msg{rnd}", "db", bucket, msg_schema)
    if msgs.height:
        best = msgs.group_by("dst").agg(pl.col("cand").min())
        labels = (labels.join(best, left_on="node", right_on="dst", how="left")
                  .with_columns(pl.min_horizontal("lbl", "cand").alias("new")))
        changed = int((labels["new"] != labels["lbl"]).sum())
        labels = labels.select("node", pl.col("new").alias("lbl"))
    else:
        changed = 0
    pq.write_table(labels.sort("node").to_arrow().cast(_LABEL_SCHEMA),
                   f"{work}/labels{rnd + 1}/own-b{bucket:03d}.parquet")
    # pointer edges for the NEXT round: node ↔ lbl (skip settled self-labels)
    ptr = labels.filter(pl.col("node") != pl.col("lbl"))
    if ptr.height:
        fwd = ptr.select(pl.col("node").alias("src"), pl.col("lbl").alias("dst"))
        rev = ptr.select(pl.col("lbl").alias("src"), pl.col("node").alias("dst"))
        both = pl.concat([fwd, rev])
        both = both.with_columns(
            pl.Series("sb", _bucket_of(both["src"].to_numpy(), n_buckets)))
        _spill(both, "sb", n_buckets,
                        f"{work}/ptr{rnd + 1}/from-b{bucket:03d}.parquet")
    return changed


@ray.remote(num_cpus=0.9)
def _range_scatter(work: str, bucket: int, range_width: int,
                   n_ranges: int) -> int:
    """Final labels bucket → one node-sorted shard whose row groups end on
    node-RANGE boundaries (the assignment join's range read decodes only
    the groups overlapping a corpus batch's id range)."""
    labels = _owned_rows(f"{work}/labels_final/own-b{bucket:03d}.parquet",
                         _LABEL_SCHEMA)
    if labels.height == 0:
        return 0
    rb = np.minimum(labels["node"].to_numpy() // range_width,
                    n_ranges - 1).astype(np.int32)
    _spill(labels.with_columns(pl.Series("rb", rb)).sort("node"),
                    "rb", n_ranges, f"{work}/final/from-b{bucket:03d}.parquet")
    return labels.height


def connected_components_dist(
    edge_refs: list["ray.ObjectRef"],
    a_col: str,
    b_col: str,
    n_buckets: int = 32,
    n_ranges: int = 64,
    max_rounds: int = 64,
    work_dir: str | None = None,
) -> tuple[str, dict]:
    """Run distributed components over edge tables living in the object
    store.  Returns ``(final_dir, meta)`` where ``final_dir`` holds
    node-range-partitioned ``(node, lbl)`` parquet shards (lbl = component
    min; only nodes that appear in ≥1 edge are present — callers treat
    absent nodes as singletons) and ``meta`` records node/edge/round
    counts.  Driver state: per-task counts and the work-dir path — never
    an edge or label row.

    Work-dir lifetime: ``final_dir`` must outlive the caller's (lazy)
    assignment Dataset, so it is NOT deleted here.  Auto-created dirs are
    registered for atexit removal (a long-lived driver never strands
    label shards in /tmp past its own exit) and removed immediately when
    the run fails; pass ``work_dir`` to manage the lifetime explicitly."""
    auto_dir = work_dir is None
    work = work_dir or tempfile.mkdtemp(prefix="indri55-cc-")
    if auto_dir:
        _WORK_DIRS.append(work)
    try:
        return _cc_dist_run(work, edge_refs, a_col, b_col, n_buckets,
                            n_ranges, max_rounds)
    except BaseException:
        if auto_dir:
            shutil.rmtree(work, ignore_errors=True)
            _WORK_DIRS.remove(work)
        raise


_WORK_DIRS: list[str] = []


def _cleanup_work_dirs() -> None:
    for d in _WORK_DIRS:
        shutil.rmtree(d, ignore_errors=True)


atexit.register(_cleanup_work_dirs)


def _cc_dist_run(work: str, edge_refs: list["ray.ObjectRef"], a_col: str,
                 b_col: str, n_buckets: int, n_ranges: int,
                 max_rounds: int) -> tuple[str, dict]:
    for sub in ("edges_in", "edges", "labels0", "msg0", "ptr1", "final"):
        os.makedirs(f"{work}/{sub}", exist_ok=True)

    n_edges = sum(ray.get([
        _init_scatter.remote(r, a_col, b_col, work, i, n_buckets)
        for i, r in enumerate(edge_refs)]))
    init = ray.get([_init_bucket.remote(work, b) for b in range(n_buckets)])
    n_nodes = sum(c[0] for c in init)
    max_node = max((c[1] for c in init), default=-1)
    shutil.rmtree(f"{work}/edges_in", ignore_errors=True)

    rounds = 0
    if n_nodes:
        for rnd in range(max_rounds):
            os.makedirs(f"{work}/msg{rnd}", exist_ok=True)
            os.makedirs(f"{work}/labels{rnd + 1}", exist_ok=True)
            os.makedirs(f"{work}/ptr{rnd + 1}", exist_ok=True)
            ray.get([_message_wave.remote(work, b, rnd, n_buckets)
                     for b in range(n_buckets)])
            changed = sum(ray.get([
                _update_wave.remote(work, b, rnd, n_buckets)
                for b in range(n_buckets)]))
            rounds = rnd + 1
            # previous round's exchanges are dead; keep disk O(labels+edges)
            for sub in (f"msg{rnd}", f"ptr{rnd}", f"labels{rnd}"):
                shutil.rmtree(f"{work}/{sub}", ignore_errors=True)
            if changed == 0:
                break
        else:
            raise RuntimeError(
                f"connected_components_dist: no fixpoint in {max_rounds} "
                "rounds — raise max_rounds (components converge in "
                "O(log n) rounds under pointer doubling)")
        os.rename(f"{work}/labels{rounds}", f"{work}/labels_final")
        shutil.rmtree(f"{work}/ptr{rounds}", ignore_errors=True)
        range_width = max(1, (max_node + 1 + n_ranges - 1) // n_ranges)
        ray.get([_range_scatter.remote(work, b, range_width, n_ranges)
                 for b in range(n_buckets)])
        shutil.rmtree(f"{work}/labels_final", ignore_errors=True)
    shutil.rmtree(f"{work}/edges", ignore_errors=True)

    meta = {"n_nodes": n_nodes, "n_edges": n_edges, "max_node": max_node,
            "rounds": rounds}
    with open(f"{work}/meta.json", "w") as f:
        json.dump(meta, f)
    logger.info("connected_components_dist: %d nodes, %d edges, %d rounds",
                n_nodes, n_edges, rounds)
    return f"{work}/final", meta


def assign_from_labels_dir(final_dir: str, ids_ds: "ray.data.Dataset",
                           id_col: str) -> "ray.data.Dataset":
    """``(id_col, cluster_rep)`` for every row of ``ids_ds``: rep from the
    range-sharded label dir when present, else self (singleton).  Each
    batch range-reads ONLY the label rows of its id range
    (``stages.postings.read_range``; batches arrive as contiguous doc-id
    runs from the parquet read order), so per-task memory is
    O(batch ∩ labels), never O(labels)."""

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        reps = ids.copy()
        if len(ids):
            lab = read_range(final_dir, "node", int(ids.min()),
                             int(ids.max()), columns=["node", "lbl"])
            if lab.num_rows:
                keys = lab.column("node").to_numpy()
                vals = lab.column("lbl").to_numpy()
                order = np.argsort(keys, kind="stable")
                keys, vals = keys[order], vals[order]
                pos = np.searchsorted(keys, ids)
                pos_c = np.minimum(pos, len(keys) - 1)
                hit = keys[pos_c] == ids
                reps[hit] = vals[pos_c[hit]]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cluster_rep": pa.array(reps, pa.int64())})

    return ids_ds.map_batches(assign, batch_format="pyarrow")
