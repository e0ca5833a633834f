"""Index build orchestration — the Ray-Data pipeline.

Phases (SURVEY.md §7.2):

0. chunk planning — deterministic resumable work items with sequential docID
   bases (ingest-order docIDs like ``MemoryIndex::addDocument``
   ref:src/MemoryIndex.cpp:550, made deterministic under parallelism);
1. optional exact-dedup scan — (doc_id, key) pairs → groupby(key) → losers
   written doc_id-sorted for range-pruned lookup in ingest (the reference's
   ingest-time docno dedup, ref:src/IndexEnvironment.cpp:388-404);
2. ingest — one plain Ray task per work item with process-global worker
   state (stemmer dictionary + caches persist via Ray worker reuse), side
   outputs docs/ + partials/ parquet per chunk + lineage records;
3. postings merge — map-only reducers over term-hash buckets (the shuffle is
   done by the filesystem: ingest wrote bucket-sorted partials whose row
   groups end on bucket boundaries, each reducer reads the row groups of its
   bucket through ``read_bucket``) → block-encoded posting lists
   (fixed-width Δdoc/tf arrays, vbyte positions) with block-max metadata +
   per-bucket dictionary slices
   (the ``IndexWriter`` k-way merge, ref:src/IndexWriter.cpp:810-879), and
   beside them the dir's doc-keyed map (docno, dl) from docs/;
4. global statistics from lineage records → manifest.json (completion
   marker; stats are GLOBAL as required for rank-identity,
   ref:src/QueryEnvironment.cpp:957-970).

Phase 3 (``merge_partials``) and ``write_manifest`` also serve
``merge_indexes`` and ``Repository.trim``/``compact``.

Reruns skip ingest chunks whose lineage records match (kill-and-resume safe);
the merge restarts from persisted partials.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict
from pathlib import Path

import pyarrow as pa
import ray

from ..config import IndexConfig
from ..sources.corpus import Chunk, plan_chunks, read_chunk
from ..stages.postings import (INDEX_FORMAT, MergeWorker, read_bucket,
                               write_bucketed, write_docno_map, write_partials)

_DEDUP_BUCKETS = 32


def _mem_resource_cap() -> int:
    """A memory REQUEST above a node's memory resource would leave the
    task pending forever — cap every declaration at a third of the
    SMALLEST alive node's memory resource (not the cluster total, which
    exceeds any one node on multi-node clusters), so an over-estimate
    degrades to 3-way per-node concurrency instead of a scheduling
    deadlock.  Returns 0 (callers then declare NO memory) when the
    per-node resource can't be determined — an unknown bound must not
    become a deadlocking request."""
    try:
        per_node = [
            int(n.get("Resources", {}).get("memory", 0))
            for n in ray.nodes() if n.get("Alive")
        ]
        smallest = min((m for m in per_node if m > 0), default=0)
    except Exception:
        smallest = 0
    return smallest // 3


def _mem_opts(request: int) -> dict:
    """ray.remote option dict for a memory declaration; empty when the
    request is unbounded/unknown (see _mem_resource_cap)."""
    return {"memory": request} if request > 0 else {}


def _dedup_losers(chunk_dicts: list[dict], cfg: IndexConfig, out_dir: str,
                  corpus_sig: str = "") -> str | None:
    """Phase 1: find duplicate doc_ids to drop (keep first arrival = min
    doc_id, mirroring the reference's keep-first ingest dedup).

    Same filesystem-shuffle shape as the postings merge — scan tasks write
    (key, doc_id) pairs sorted by key-hash bucket (``write_bucketed``),
    reduce tasks read one bucket each (``read_bucket``) — so there is no
    object-store all-to-all and both phases are plain task pools on warm
    workers."""
    key = cfg.dedup_key

    def scan(batch: pa.Table) -> pa.Table:
        import hashlib

        out_rows = []
        for item in batch.to_pylist():
            chunk = Chunk(**{k: item[k] for k in ("file_path", "row_start", "row_end", "doc_id_base")})
            if key == "sha256":
                t = read_chunk(chunk, columns=["content"])
                # utf-8 bytes straight from arrow (no str round trip)
                ks = [hashlib.sha256(c).hexdigest()
                      for c in t.column("content").cast(pa.large_binary()).to_pylist()]
            else:
                t = read_chunk(chunk, columns=["repo", "path", "commit"])
                ks = [f"{r}/{p}@{c}" for r, p, c in zip(
                    t.column("repo").to_pylist(), t.column("path").to_pylist(),
                    t.column("commit").to_pylist())]
            kb = [int(k2[:4], 16) % _DEDUP_BUCKETS if key == "sha256"
                  else int(hashlib.md5(k2.encode()).hexdigest()[:4], 16) % _DEDUP_BUCKETS
                  for k2 in ks]
            tbl = pa.table(
                {
                    "kbucket": pa.array(kb, pa.int32()),
                    "key": pa.array(ks),
                    "doc_id": pa.array(
                        range(chunk.doc_id_base, chunk.doc_id_base + len(ks)), pa.int64()
                    ),
                }
            ).sort_by([("kbucket", "ascending")])
            os.makedirs(f"{out_dir}/dedup_keys", exist_ok=True)
            write_bucketed(
                tbl, f"{out_dir}/dedup_keys/keys-{chunk.chunk_id}.parquet",
                "kbucket", _DEDUP_BUCKETS)
            out_rows.append({"chunk_id": chunk.chunk_id, "rows": tbl.num_rows})
        return pa.Table.from_pylist(out_rows)

    def reduce_bucket(batch: pa.Table) -> int:
        """One key-hash bucket → its losers written DIRECTLY as a
        doc_id-sorted parquet shard (never returned to the driver: at
        web-scale duplication rates — 30-50% of a crawl — #losers is
        O(corpus), so the driver must only ever see per-task counts).
        8192-row groups keep ingest's doc-range read of its chunk's losers
        (``read_range``) to a few row groups per shard."""
        import polars as pl
        import pyarrow.parquet as pq

        out = []
        buckets = batch.column("kbucket").to_pylist()
        for b in buckets:
            t = read_bucket(f"{out_dir}/dedup_keys", "kbucket", b,
                            columns=["key", "doc_id"], salt=fingerprint)
            if t.num_rows == 0:
                continue
            df = pl.from_arrow(t)
            winners = df.group_by("key").agg(pl.col("doc_id").min().alias("keep"))
            losers = (
                df.join(winners, on="key")
                .filter(pl.col("doc_id") != pl.col("keep"))
                .select("doc_id")
            )
            out.append(losers.to_arrow())
        if not out:
            return 0
        tbl = pa.concat_tables(out).sort_by([("doc_id", "ascending")])
        if tbl.num_rows:
            pq.write_table(
                tbl, f"{losers_dir}/losers-b{min(buckets):02d}.parquet",
                row_group_size=8192)
        return tbl.num_rows

    import pyarrow.parquet as _pq

    from ..state import lineage as _lineage

    losers_dir = f"{out_dir}/dedup_losers"
    fingerprint = (f"{key}:{len(chunk_dicts)}"
                   f":{chunk_dicts[-1]['doc_id_base'] if chunk_dicts else 0}"
                   f":{corpus_sig}")

    def _count_rows() -> int:
        return sum(
            _pq.read_metadata(f).num_rows for f in Path(losers_dir).glob("*.parquet")
        )

    if _lineage.is_done(out_dir, "dedup", "all", fingerprint) and Path(losers_dir).exists():
        return losers_dir if _count_rows() else None

    t0 = time.perf_counter()
    shutil.rmtree(losers_dir, ignore_errors=True)
    shutil.rmtree(f"{out_dir}/dedup_keys", ignore_errors=True)
    import os as _os

    _os.makedirs(losers_dir, exist_ok=True)
    # plain Ray tasks: the work lists are fixed and all data moves through
    # the filesystem, so the Dataset streaming executor would only add
    # per-phase scheduling overhead here
    scan_t = ray.remote(num_cpus=1)(lambda item: scan(pa.Table.from_pylist([item])).num_rows)
    ray.get([scan_t.remote(c) for c in chunk_dicts])
    reduce_t = ray.remote(num_cpus=0.9)(
        lambda bs: reduce_bucket(pa.table({"kbucket": pa.array(bs, pa.int32())}))
    )
    # one bucket per task (dynamic packing; see the merge-phase comment);
    # each task WRITES its doc_id-sorted loser shard — ingest's range-pruned
    # lookup reads the directory, and the driver only sums counts
    n = sum(ray.get([reduce_t.remote([b]) for b in range(_DEDUP_BUCKETS)]))
    # the key parts are intermediate (nothing reads them once the loser
    # shards exist) — drop them before the record marks the phase done
    shutil.rmtree(f"{out_dir}/dedup_keys", ignore_errors=True)
    _lineage.write_record(
        out_dir, "dedup", "all", fingerprint, rows=n, bytes_written=0,
        wall_ms=(time.perf_counter() - t0) * 1000,
    )
    return losers_dir if n else None


def _consolidate_partials(out_dir: str, cfg: IndexConfig) -> str:
    """Bound the merge reducers' fan-in: when ingest produced more partials
    files than ``INDRI55_MAX_REDUCER_FILES`` (default 256), concatenate them
    into ~``target_group_bytes`` consolidated files (``write_partials``:
    bucket-sorted, bucket-aligned row groups, same schema).  Every merge
    reducer then indexes O(consolidated files), not O(chunks) — at 10⁵+
    chunks the per-reducer footer reads would otherwise dominate merge time.
    One extra streaming pass over the partials, fully parallel and
    lineage-resumable; returns the directory the merge should read."""
    import hashlib as _hl

    import pyarrow.parquet as _pq

    from ..state import lineage as _lineage

    max_fan = int(os.environ.get("INDRI55_MAX_REDUCER_FILES", "256"))
    partials_dir = Path(out_dir) / "partials"
    files = sorted(str(p) for p in partials_dir.glob("*.parquet"))
    if len(files) <= max_fan:
        return str(partials_dir)
    target_group_bytes = 256 << 20  # per-task input cap (compressed bytes)
    # content identity per input file (size + mtime): a re-ingested partials
    # file under the same name changes the group fingerprint, so a resumed
    # build re-consolidates instead of skipping on stale bytes
    stats = [os.stat(f) for f in files]
    sizes = [st.st_size for st in stats]
    file_sig = {f: f"{f}:{st.st_size}:{st.st_mtime_ns}"
                for f, st in zip(files, stats)}
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_bytes = 0
    per_group_files = max(2, (len(files) + max_fan - 1) // max_fan)
    for f, s in zip(files, sizes):
        if cur and (cur_bytes + s > target_group_bytes
                    or len(cur) >= per_group_files):
            groups.append(cur)
            cur, cur_bytes = [], 0
        cur.append(f)
        cur_bytes += s
    if cur:
        groups.append(cur)

    out_c = Path(out_dir) / "partials_c"
    out_c.mkdir(parents=True, exist_ok=True)
    n_buckets = cfg.n_buckets
    out_str = str(out_c)
    # prune leftovers from a previous grouping: fewer groups this run would
    # otherwise leave stale c-NNNNN files that the merge dataset reads as
    # duplicate postings
    expected = {f"c-{g:05d}.parquet" for g in range(len(groups))}
    for p in out_c.glob("*.parquet"):
        if p.name not in expected:
            p.unlink()
    group_fps = [
        _hl.md5("\n".join(file_sig[f] for f in grp).encode()).hexdigest()[:16]
        for grp in groups
    ]

    # memory declaration (same rationale as the merge tasks): a group is
    # read decompressed, concatenated and sort-copied — ~6× its compressed
    # bytes at peak; declaring it lets Ray throttle concurrency instead of
    # OOMing when groups run at the 256 MB target on a loaded node
    max_group_bytes = max(
        (sum(os.stat(f).st_size for f in grp) for grp in groups), default=0)
    cap = _mem_resource_cap()
    consolidate_mem = int(min(max(6 * max_group_bytes + (128 << 20),
                                  256 << 20), 16 << 30,
                              cap if cap else 16 << 30))

    @ray.remote(num_cpus=1, **_mem_opts(consolidate_mem if cap else 0))
    def _consolidate(gid: int, group: list[str], fp: str) -> None:
        pid = f"{gid:05d}"
        dest = f"{out_str}/c-{pid}.parquet"
        if _lineage.is_done(out_dir, "consolidate", pid, fp) and os.path.exists(dest):
            return
        import time as _time

        t0 = _time.perf_counter()
        t = pa.concat_tables([_pq.read_table(f) for f in group])
        write_partials(t, dest, n_buckets)
        _lineage.write_record(
            out_dir, "consolidate", pid, fp, rows=t.num_rows,
            bytes_written=int(t.nbytes),
            wall_ms=(_time.perf_counter() - t0) * 1000)

    ray.get([_consolidate.remote(g, grp, fp)
             for g, (grp, fp) in enumerate(zip(groups, group_fps))])
    return out_str


def merge_partials(out_dir: str, cfg: IndexConfig, plan_fp: str,
                   timings: dict[str, float]) -> int:
    """The merge phase of every index writer (build, merge, trim, compact):
    bound the reducers' fan-in (_consolidate_partials), then one MergeWorker
    task per bucket over ``out_dir``'s partials → postings/ + dictionary/,
    and beside them one task that writes the dir's doc-keyed map (docno,
    dl) from its docs/ (``write_docno_map``).
    Adds ``consolidate_s`` and ``merge_s`` to ``timings``; returns the
    unique-term count of the per-bucket merge records."""
    t0 = time.perf_counter()
    partials_src = _consolidate_partials(out_dir, cfg)
    timings["consolidate_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cfg_dict = cfg.to_dict()

    # per-task memory request: a reducer materializes one bucket's partials
    # (parquet → arrow lists → numpy runs → encoded payloads), ~12× the
    # bucket's compressed bytes at peak.  Declaring it lets Ray THROTTLE
    # merge concurrency when buckets are large (small-cluster safety: a
    # 10M-doc build with n_buckets sized for a smaller corpus OOM-killed
    # 30+ concurrent reducers; with the request Ray runs what fits).
    # n_buckets stays the real scale knob — size it so a bucket fits a
    # worker's heap — this is the backstop, not the plan.
    partials_bytes = sum(
        f.stat().st_size for f in Path(partials_src).glob("*.parquet"))
    est_bucket = partials_bytes / max(1, cfg.n_buckets)
    mcap = _mem_resource_cap()
    merge_mem = int(min(max(12 * est_bucket + (256 << 20), 512 << 20),
                        48 << 30, mcap if mcap else 48 << 30))

    @ray.remote(num_cpus=0.9, **_mem_opts(merge_mem if mcap else 0))
    def _merge_task(bucket: int) -> dict:
        # plain task: the work list is fixed and all IO goes through the
        # filesystem (read_bucket's row-group reads), so raw tasks avoid the
        # Dataset executor's per-phase overhead.  ONE bucket per task:
        # bucket sizes are skewed (hot-term buckets run ~2× the median), so
        # static bucket groups quantize the phase to the worst group — with
        # single-bucket tasks Ray packs them dynamically and the makespan
        # tracks sum/P + one bucket.  Worker-process spawn and parquet
        # footer reads are amortized by warm workers + read_bucket's index.
        t = MergeWorker(out_dir, cfg_dict, plan_fp, partials_dir=partials_src)(
            pa.table({"bucket": pa.array([bucket], pa.int32())})
        )
        return t.to_pylist()[0]

    # the dir's doc-keyed map, beside the bucket merges and shaped like
    # them (so a warm merge worker runs it): it reads only docs/ (doc_id,
    # docno, dl), ~100 B per doc at peak (ids, slots, docno copy, dl)
    import pyarrow.dataset as pads

    n_docs = pads.dataset(f"{out_dir}/docs", format="parquet").count_rows()
    docno_ref = ray.remote(num_cpus=0.9, **_mem_opts(
        min(100 * n_docs + (64 << 20), mcap)))(write_docno_map).remote(out_dir)
    records = ray.get([_merge_task.remote(b) for b in range(cfg.n_buckets)])
    ray.get(docno_ref)
    # the consolidated copy is merge input only, as large as partials/; a
    # later merge consolidates again (its lineage check needs the file)
    if Path(partials_src).name == "partials_c":
        shutil.rmtree(partials_src, ignore_errors=True)
    timings["merge_s"] = time.perf_counter() - t0
    return sum(r.get("n_terms", 0) for r in records)


_FIELD_STAT_KEYS = ("total_len", "extent_count", "doc_count")


def sum_field_stats(parts) -> dict[str, dict[str, int]]:
    """Sum per-field statistics — the fieldStatistics gather
    (ref:src/MemoryIndex.cpp:605-612, write ref:src/IndexWriter.cpp:503-505).
    Each part (None skips) maps field → (total_len, extent_count,
    doc_count) as a sequence (ingest/modify records) or a manifest dict."""
    out: dict[str, dict[str, int]] = {}
    for part in parts:
        for fname, st in (part or {}).items():
            if isinstance(st, dict):
                st = [st[k] for k in _FIELD_STAT_KEYS]
            agg = out.setdefault(fname, dict.fromkeys(_FIELD_STAT_KEYS, 0))
            for k, v in zip(_FIELD_STAT_KEYS, st):
                agg[k] += int(v)
    return out


def write_manifest(out_dir: str | Path, cfg: IndexConfig, *, doc_count: int,
                   total_terms: int, min_doc_id: int, max_doc_id: int,
                   unique_terms: int, field_stats: dict,
                   timings: dict[str, float], **extra) -> dict:
    """Atomically write (tmp file, then rename) and return ``manifest.json``,
    the completion marker of every index writer; ``extra`` carries the
    writer's own keys (``n_chunks``, ``merged_from``, ``compacted``, ...)."""
    manifest = {
        "format_version": INDEX_FORMAT,
        "config": cfg.to_dict(),
        "doc_count": int(doc_count),
        "total_terms": int(total_terms),
        "max_doc_id": int(max_doc_id),
        "min_doc_id": int(min_doc_id),
        "unique_terms": int(unique_terms),
        **extra,
        "field_stats": field_stats,
        "timings": {k: round(v, 3) for k, v in timings.items()},
    }
    path = Path(out_dir) / "manifest.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest, indent=2))
    tmp.replace(path)
    return manifest


def check_disjoint(sources: list[str], out_dir: str, who: str) -> None:
    """Refuse an ``out_dir`` equal to, inside, or containing a source
    index: writing it would destroy the source before it is read."""
    out = Path(out_dir).resolve()
    for s in sources:
        src = Path(s).resolve()
        if src == out or src in out.parents or out in src.parents:
            raise ValueError(f"{who}: out_dir {out} must be disjoint from "
                             f"the source index {src}")


# Everything build_index writes under out_dir (plus manifest.json).  Wipes
# target EXACTLY this set so user files co-located in an index dir (raw
# corpora, converted/ archives, notes) are never collateral damage.
BUILD_ARTIFACT_DIRS = ("docs", "docnos", "partials", "partials_c", "postings",
                       "dictionary", "priors", "direct", "fields", "lineage",
                       "dedup_losers", "dedup_keys")


def wipe_build_artifacts(out_dir: str | Path) -> None:
    """Remove every build artifact of ``out_dir`` — and nothing else."""
    out = Path(out_dir)
    (out / "manifest.json").unlink(missing_ok=True)
    for sub in BUILD_ARTIFACT_DIRS:
        shutil.rmtree(out / sub, ignore_errors=True)


def build_index(
    corpus: str | list[str],
    out_dir: str,
    cfg: IndexConfig | None = None,
    resume: bool = True,
    doc_id_base: int = 0,
) -> dict:
    """Build a full index from a Parquet corpus directory. Returns the manifest.

    ``doc_id_base`` offsets every docID — segment builds in a Repository get
    globally disjoint doc ranges (the reference's numbered partial indexes,
    ref:src/Repository.cpp:754-820)."""
    cfg = cfg or IndexConfig()
    out = Path(out_dir)
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        if resume:
            return json.loads(manifest_path.read_text())
    out.mkdir(parents=True, exist_ok=True)
    if not resume:
        wipe_build_artifacts(out)

    t_start = time.perf_counter()
    chunks = plan_chunks(corpus, max_chunk_docs=cfg.max_chunk_docs)
    if doc_id_base:
        chunks = [Chunk(c.file_path, c.row_start, c.row_end,
                        c.doc_id_base + doc_id_base) for c in chunks]
    chunk_dicts = [asdict(c) for c in chunks]
    timings: dict[str, float] = {}
    # corpus content identity (paths + sizes + mtimes): folded into the
    # dedup/merge lineage fingerprints and the worker dataset-cache salts so
    # an in-place corpus change with unchanged shape can neither resume-skip
    # a phase nor hit a stale cached dataset handle
    import hashlib as _hl

    def _fsig(f: str) -> str:
        st = os.stat(f)
        return f"{f}:{st.st_size}:{st.st_mtime_ns}"

    corpus_sig = _hl.md5("\n".join(
        _fsig(f) for f in sorted({c.file_path for c in chunks})).encode()
    ).hexdigest()[:12]

    # -- phase 1: dedup scan ------------------------------------------------
    t0 = time.perf_counter()
    losers_path = (_dedup_losers(chunk_dicts, cfg, str(out), corpus_sig)
                   if cfg.dedup_key else None)
    timings["dedup_s"] = time.perf_counter() - t0

    # -- phase 2: ingest (tokenize/stem/partial postings) -------------------
    t0 = time.perf_counter()
    out_str_i = str(out)
    cfg_dict_i = cfg.to_dict()
    from .. import registry as _registry

    reg_snap = _registry.snapshot()  # ship driver-side registrations
    # plain Ray tasks; per-worker state (stemmer dict + memo caches) lives
    # in a process-global via get_process_worker — the same state model as
    # an actor, minus pool spawn/dispatch overhead
    from ..stages.ingest import get_process_worker

    @ray.remote(num_cpus=1)
    def _ingest_task(chunk_dict: dict) -> dict:
        w = get_process_worker(out_str_i, cfg_dict_i, losers_path, reg_snap)
        return w._process_chunk(Chunk(**chunk_dict))

    records = ray.get([_ingest_task.remote(c) for c in chunk_dicts])
    timings["ingest_s"] = time.perf_counter() - t0

    # -- phase 3: postings merge (filesystem-shuffled, map-only) ------------
    plan_fp = (f"{len(chunks)}:{chunks[-1].doc_id_base if chunks else 0}"
               f":{corpus_sig}")
    unique_terms = merge_partials(str(out), cfg, plan_fp, timings)

    # -- phase 4: global stats → manifest -----------------------------------
    # corpus statistics come straight from the committed lineage records and
    # the merge outputs (no extra pass over the data)
    t0 = time.perf_counter()
    doc_count = sum(r.get("kept_docs", 0) for r in records)
    total_terms = sum(r.get("total_term_slots", 0) for r in records)
    max_doc_id = max(c.doc_id_base + (c.row_end - c.row_start) for c in chunks) - 1
    min_doc_id = min(c.doc_id_base for c in chunks) if chunks else doc_id_base
    field_stats = sum_field_stats(r.get("field_stats") for r in records)
    timings["stats_s"] = time.perf_counter() - t0
    timings["total_s"] = time.perf_counter() - t_start
    return write_manifest(
        out, cfg, doc_count=doc_count, total_terms=total_terms,
        min_doc_id=min_doc_id, max_doc_id=max_doc_id,
        unique_terms=unique_terms, field_stats=field_stats, timings=timings,
        n_chunks=len(chunks),
        n_ingested=sum(1 for r in records if r.get("status") == "ok"))
