"""Offline N-way index merge — the ``Repository::merge`` analogue.

The reference merges independent repositories by validating compatible
configurations, rebasing docIDs by each repo's ``documentMaximum``, and
running the IndexWriter k-way merge over all source indexes
(ref:src/Repository.cpp:1365-1483, rebase ref:src/IndexWriter.cpp:308-317;
the ``dumpindex merge`` command, ref:dumpindex/dumpindex.cpp).

Ray shape: phase A copies each source index's persisted partials and doc
tables through one task per source file (embarrassingly parallel), dropping
deleted docs and adding the source's docID offset with vectorized arrow
arithmetic, and writes them in the build's partials/docs layout; phase B is
the build's own merge phase (``build.merge_partials``), so a merge bounds
reducer fan-in and declares merge memory exactly like a build.  Trim and
compaction (``repository.py``) run the same two phases.  Configs must match
(same tokenization pipeline), like the reference's stemmer/field validation.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from ..config import IndexConfig
from ..stages.postings import (PARTIALS_SCHEMA, _flatten_list_column,
                               write_docs, write_partials)
from .build import check_disjoint, merge_partials, sum_field_stats, write_manifest
from .query import load_deleted, read_manifest


def _set_column(t: pa.Table, name: str, arr: pa.Array) -> pa.Table:
    return t.set_column(t.column_names.index(name), name, arr)


@ray.remote(num_cpus=1)
def _copy_source_file(sub: str, src: str, dst: str, offset: int,
                      deleted: np.ndarray, cfg: IndexConfig) -> int:
    """Copy one source index file into the output index: drop the
    ``deleted`` docs (source id space), add ``offset`` to every doc id
    (recomputing each partials row's doc-range ``salt``) and write through
    the shared partials/docs layout."""
    t = pq.read_table(src)
    if sub != "partials":
        if len(deleted):
            t = t.filter(pa.array(~np.isin(t.column("doc_id").to_numpy(), deleted)))
        if offset:
            t = _set_column(t, "doc_id", pa.array(
                t.column("doc_id").to_numpy() + offset, pa.int64()))
        write_docs(t, dst)
        return t.num_rows
    if len(deleted):
        t = _filter_partials(t, deleted)
    if offset:
        flat, lengths = _flatten_list_column(t, "doc_ids")
        offs = np.concatenate(([0], np.cumsum(lengths))).astype(np.int32)
        t = _set_column(t, "doc_ids", pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), pa.array(flat + offset, pa.int64())))
        for col in ("first_doc", "last_doc"):
            t = _set_column(t, col, pa.array(
                t.column(col).to_numpy() + offset, pa.int64()))
    t = _set_column(t, "salt", pa.array(
        t.column("first_doc").to_numpy() // cfg.salt_docs_per_group, pa.int64()))
    write_partials(t, dst, cfg.n_buckets)
    return t.num_rows


def write_merged(index_dirs: list[str], out: Path, cfg: IndexConfig,
                 offsets: list[int], deleted: np.ndarray, plan_fp: str
                 ) -> tuple[int, dict[str, float]]:
    """Phase A + B into a fresh ``out``: copy every source's
    docs/partials/direct/fields file (source ``i`` shifted by
    ``offsets[i]``, ``deleted`` source ids dropped), then run the build's
    merge phase.  Returns (unique_terms, timings)."""
    t0 = time.perf_counter()
    del_ref = ray.put(np.asarray(deleted, dtype=np.int64))
    tasks = []
    for i, d in enumerate(index_dirs):
        for sub in ("docs", "partials", "direct", "fields"):
            src_dir = Path(d, sub)
            if not src_dir.exists():
                continue
            (out / sub).mkdir(parents=True, exist_ok=True)
            for f in sorted(src_dir.glob("*.parquet")):
                tasks.append(_copy_source_file.remote(
                    sub, str(f), str(out / sub / f"src{i}-{f.name}"),
                    offsets[i], del_ref, cfg))
    ray.get(tasks)
    timings = {"copy_s": time.perf_counter() - t0}
    unique_terms = merge_partials(str(out), cfg, plan_fp, timings)
    return unique_terms, timings


def merge_indexes(index_dirs: list[str], out_dir: str,
                  resume: bool = True) -> dict:
    """Merge N compatible indexes into one (docIDs rebased in input order)."""
    check_disjoint(index_dirs, out_dir, "merge_indexes")
    manifests = [read_manifest(d) for d in index_dirs]
    cfgs = [m["config"] for m in manifests]
    for c in cfgs[1:]:  # compatibility validation (like the reference's
        # stemmer/field check, ref:src/Repository.cpp:1365-1483) — layout
        # parameters must match too, or partials land in unmergeable buckets
        for key in ("tokenizer", "stemmer", "stopwords", "fields",
                    "numeric_fields", "date_fields", "store_positions",
                    "store_direct", "store_content", "n_buckets",
                    "salt_docs_per_group", "target_block_bytes"):
            if c.get(key) != cfgs[0].get(key):
                raise ValueError(f"incompatible indexes: {key} differs")
    cfg = IndexConfig.from_dict(cfgs[0])

    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if manifest_path.exists() and resume:
        return json.loads(manifest_path.read_text())
    # a merge without a manifest was interrupted: its outputs may belong to
    # a DIFFERENT source set (and its lineage records could make merge
    # buckets skip as already-done) — start fully clean
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # docID rebase offsets: cumulative documentMaximum (ref:IndexWriter.cpp:308-317)
    offsets = []
    base = 0
    for m in manifests:
        offsets.append(base)
        base += m["max_doc_id"] + 1

    # deleted lists ride along, rebased, so previously deleted docs stay
    # deleted in the merged index (the repository's compact path is the one
    # that physically drops them)
    del_parts = [(load_deleted(Path(d) / "deleted.parquet"), o)
                 for d, o in zip(index_dirs, offsets)]
    del_parts = [ids.astype(np.int64) + o for ids, o in del_parts if ids is not None]
    if del_parts:
        merged_del = np.unique(np.concatenate(del_parts))
        pq.write_table(pa.table({"doc_id": pa.array(merged_del, pa.int64())}),
                       out / "deleted.parquet")

    plan_fp = "merge:" + ":".join(str(m["max_doc_id"]) for m in manifests)
    unique_terms, timings = write_merged(
        index_dirs, out, cfg, offsets, np.empty(0, np.int64), plan_fp)
    # statistics are the source sums: deleted docs stay counted until
    # compaction (reference semantics)
    return write_manifest(
        out, cfg,
        doc_count=sum(m["doc_count"] for m in manifests),
        total_terms=sum(m["total_terms"] for m in manifests),
        min_doc_id=min(o + m.get("min_doc_id", 0)
                       for o, m in zip(offsets, manifests)),
        max_doc_id=base - 1, unique_terms=unique_terms,
        field_stats=sum_field_stats(m.get("field_stats") for m in manifests),
        timings=timings,
        merged_from=[str(d) for d in index_dirs],
        n_chunks=sum(m.get("n_chunks", 0) for m in manifests),
        n_ingested=sum(m.get("n_ingested", 0) for m in manifests))


def _filter_partials(t: pa.Table, deleted: np.ndarray) -> pa.Table:
    """Drop deleted docs from a partials table, vectorized.

    Detection is ONE flattened isin over every row's doc_ids; rows losing
    no docs pass through as a filter (``stages.postings.merge_bucket``
    sorts its bucket by (term, salt, first_doc) before it encodes it, so
    row order is free);
    only rows that actually lose docs are rebuilt (list slices + pos_bytes
    byte-range slices via pos_byte_lens)."""
    if t.num_rows == 0:
        return t
    flat, lengths = _flatten_list_column(t, "doc_ids")
    keep_flat = ~np.isin(flat, deleted)
    if keep_flat.all():
        return t
    offs = np.concatenate(([0], np.cumsum(lengths)))
    cum = np.concatenate(([0], np.cumsum(keep_flat)))
    kept_counts = cum[offs[1:]] - cum[offs[:-1]]
    full = kept_counts == lengths
    affected = (~full) & (kept_counts > 0)
    untouched = t.filter(pa.array(full))
    rows = np.flatnonzero(affected)
    if not len(rows):
        return untouched
    tf_flat = _flatten_list_column(t, "tfs")[0]
    dl_flat = _flatten_list_column(t, "dls")[0]
    blens_flat, blens_lengths = _flatten_list_column(t, "pos_byte_lens")
    boffs = np.concatenate(([0], np.cumsum(blens_lengths)))
    sub = t.take(pa.array(rows, pa.int64()))
    new_ids, new_tfs, new_dls = [], [], []
    new_first, new_last = [], []
    new_payloads, new_blens = [], []
    for ri, i in enumerate(rows.tolist()):
        a, b = offs[i], offs[i + 1]
        keep = keep_flat[a:b]
        kept_ids = flat[a:b][keep]
        new_ids.append(kept_ids.tolist())
        new_tfs.append(tf_flat[a:b][keep].tolist())
        new_dls.append(dl_flat[a:b][keep].tolist())
        new_first.append(int(kept_ids[0]))
        new_last.append(int(kept_ids[-1]))
        blens = blens_flat[boffs[i]:boffs[i + 1]]
        if len(blens):
            payload = sub.column("pos_bytes")[ri].as_py()
            starts = np.concatenate(([0], np.cumsum(blens)))
            new_payloads.append(b"".join(
                payload[starts[j]:starts[j + 1]] for j in np.nonzero(keep)[0]))
            new_blens.append(blens[keep].tolist())
        else:
            new_payloads.append(sub.column("pos_bytes")[ri].as_py())
            new_blens.append([])

    sub = _set_column(sub, "doc_ids", pa.array(new_ids, pa.list_(pa.int64())))
    sub = _set_column(sub, "tfs", pa.array(new_tfs, PARTIALS_SCHEMA.field("tfs").type))
    sub = _set_column(sub, "dls", pa.array(new_dls, PARTIALS_SCHEMA.field("dls").type))
    sub = _set_column(sub, "first_doc", pa.array(new_first, pa.int64()))
    sub = _set_column(sub, "last_doc", pa.array(new_last, pa.int64()))
    sub = _set_column(sub, "pos_bytes", pa.array(
        new_payloads, PARTIALS_SCHEMA.field("pos_bytes").type))
    sub = _set_column(sub, "pos_byte_lens", pa.array(
        new_blens, PARTIALS_SCHEMA.field("pos_byte_lens").type))
    return pa.concat_tables([untouched, sub.cast(PARTIALS_SCHEMA)])
