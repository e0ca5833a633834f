"""Parallel query execution: warm-task fan-out over a query set.

The Ray analogue of IndriRunQuery's thread-per-query pool
(ref:runquery/IndriRunQuery.cpp:692-792): round-robin query slices run as
plain warm Ray tasks whose worker state (open index, mapped postings
files, doc-length caches, statistics memos) lives in a process global, so Ray's worker
reuse keeps it warm without actor-pool spawn/ramp/dispatch overhead (the
fixed work list makes the Dataset streaming executor pure overhead here;
same pattern as the ingest tasks).  At multi-node scale the same workers
score (query × doc-range shard) items and the driver merges with the
exact tie-break (ref:src/QueryEnvironment.cpp:985-988).  Every runner goes
through one worker (:class:`QueryWorker`), one fan-out (:func:`_scatter`)
and one merge (:func:`_merge_topk`).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import ray

from .query import BM25Scorer, IndexReader, process_query

_TYPES = {"qid": pa.string(), "rank": pa.int64(), "doc_id": pa.int64(),
          "begin": pa.int64(), "end": pa.int64(), "docno": pa.large_string(),
          "score": pa.float64(), "latency_ms": pa.float64()}
# run_queries' output, one row per (query, rank)
RESULT_SCHEMA = pa.schema([(c, _TYPES[c]) for c in (
    "qid", "rank", "doc_id", "docno", "score", "latency_ms")])


def _table(cols: dict[str, list]) -> pa.Table:
    return pa.table({c: pa.array(v, _TYPES[c]) for c, v in cols.items()})


def _reg_snapshot() -> dict:
    from .. import registry as _registry

    return _registry.snapshot()


# Process-global worker reuse for the plain-task query scatter: Ray reuses
# warm worker processes across tasks, so the per-worker state (open index,
# mapped postings and doc-keyed map files, statistics memos) persists as it
# would in an actor — without actor-pool spawn/ramp-up/dispatch overhead.
# Same state model as stages.ingest.get_process_worker; measured 3-7×
# faster than the autoscaling actor-pool map_batches on 100-query sets.
_PROCESS_QUERY_WORKERS: dict = {}


def _process_query_worker(key: tuple, ctor):
    w = _PROCESS_QUERY_WORKERS.get(key)
    if w is None:
        if len(_PROCESS_QUERY_WORKERS) >= 4:  # bound resident reader state
            _PROCESS_QUERY_WORKERS.clear()
        w = ctor()
        _PROCESS_QUERY_WORKERS[key] = w
    return w


def make_engine(reader, kind: str, method: str = "dirichlet",
                mu: float = 2500.0, lam: float = 0.4):
    """The scoring engine of a query ``kind``: "bm25" (okapi), "lm" and
    "rm3" (#combine / expanded #weight language model) or "structured"
    (full indriql).  ``method`` is the LM smoothing (dirichlet | jm | two)
    and must name one for every kind."""
    from .lm import LMScorer

    if method not in LMScorer._METHODS:
        raise ValueError(f"unknown smoothing method {method!r} "
                         f"(one of {LMScorer._METHODS})")
    if kind == "bm25":
        return BM25Scorer(reader)
    if kind in ("lm", "rm3"):
        return LMScorer(reader, method=method, mu=mu, lam=lam)
    if kind == "structured":
        from .indriql import StructuredQueryEngine

        return StructuredQueryEngine(reader, method=method, mu=mu, lam=lam)
    raise ValueError(f"unknown query kind {kind!r}")


def engine_topk(engine, kind: str, text: str, k: int,
                doc_range: tuple[int, int] | None = None,
                pruned: bool = False):
    """Top-k ``(doc_ids, scores)`` of query ``text`` on a
    :func:`make_engine` engine, optionally restricted to a doc range."""
    if kind == "bm25":
        terms = process_query(text, engine.r.cfg)
        return engine.score_exhaustive(terms, k=k, doc_range=doc_range)
    if kind == "lm":
        from .lm import process_query_lm

        return engine.score(process_query_lm(text, engine.r.cfg), k=k,
                            doc_range=doc_range)
    if kind == "structured":
        return engine.run(text, k=k, doc_range=doc_range, pruned=pruned)
    raise ValueError(f"query kind {kind!r} does not score query text")


class QueryWorker:
    """Batch retrieval on one worker process.

    A (qid, text) batch scores each query over the whole index and returns
    :data:`RESULT_SCHEMA` rows: ranks, one batched docno lookup and the
    per-query latency.  A batch with a ``shard`` column scores (query ×
    doc-range shard) items for a driver-side merge and returns (qid,
    doc_id, score); it needs ``n_shards`` (equal doc-id ranges).  The
    reference's distributed QueryEnvironment scatters every query type
    this way, because all scorers use collection-global statistics and
    doc-local evidence (ref:src/QueryEnvironment.cpp:111-122).  ``kind``
    and ``method`` pick the engine (see :func:`make_engine`); "rm3" scores
    the driver-expanded models installed by :meth:`apply_stats`."""

    def __init__(self, index_dir: str, k: int = 1000, method: str = "dirichlet",
                 registry_snapshot: dict | None = None, kind: str = "bm25",
                 mu: float = 2500.0, lam: float = 0.4,
                 n_shards: int | None = None, stats_memo: dict | None = None):
        if registry_snapshot:
            from .. import registry as _registry

            _registry.restore(registry_snapshot)
        if kind == "rm3" and n_shards is None:
            raise ValueError("rm3 needs the driver-side expansion of "
                             "run_queries_sharded")
        self.reader = IndexReader(index_dir)
        self.kind = kind
        self.k = k
        self.scorer = make_engine(self.reader, kind, method, mu, lam)
        self.pruned = False
        self.expansions: dict = {}
        if stats_memo:
            self.apply_stats(stats_memo)
        if n_shards is not None:
            span = (self.reader.manifest["max_doc_id"] + n_shards) // n_shards
            self.ranges = [(s * span, (s + 1) * span) for s in range(n_shards)]

    def apply_stats(self, stats_memo: dict | None) -> None:
        """Install driver-gathered statistics on a (possibly reused) worker:
        structured → node-statistics memo enabling range-pruned reads;
        rm3 → per-qid expanded models (replaced per call)."""
        if self.kind == "structured":
            if stats_memo:
                self.scorer._cf_memo.update(stats_memo)
                self.pruned = True
        elif self.kind == "rm3":
            self.expansions = stats_memo or {}

    def _score(self, text: str, qid: str | None = None,
               doc_range: tuple[int, int] | None = None):
        if self.kind == "rm3":
            expanded = self.expansions.get(qid)
            if not expanded:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            return self.scorer.score_weighted(
                [tuple(tw) for tw in expanded], k=self.k, doc_range=doc_range)
        return engine_topk(self.scorer, self.kind, text, self.k, doc_range,
                           self.pruned)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        shards = (batch.column("shard").to_pylist()
                  if "shard" in batch.column_names else None)
        qids = batch.column("qid").to_pylist() if shards is not None else None
        ids, scores, ms = [], [], []
        for i, text in enumerate(texts):
            t0 = time.perf_counter()
            if shards is None:
                d, s = self._score(text)
            else:
                d, s = self._score(text, qids[i], self.ranges[shards[i]])
            ms.append((time.perf_counter() - t0) * 1000)
            ids.append(d)
            scores.append(s)
        # the result columns straight from the per-query arrays (query i's
        # rows are its top-k in rank order); the empty heads fix the dtypes
        n = [len(d) for d in ids]
        qid = batch.column("qid")
        qid = pa.concat_arrays([pa.array([], pa.string())] + [
            pa.repeat(qid[i], k) for i, k in enumerate(n) if k])
        doc_id = np.concatenate([np.empty(0, np.int64), *ids])
        score = pa.array(np.concatenate([np.empty(0), *scores]))
        if shards is not None:
            return pa.Table.from_arrays([qid, pa.array(doc_id), score],
                                        names=["qid", "doc_id", "score"])
        rank = np.concatenate([np.empty(0, np.int64)]
                              + [np.arange(1, k + 1) for k in n])
        # one docno page for the whole batch: one take from the mapped map
        docno = self.reader.docnos(doc_id)
        return pa.Table.from_arrays(
            [qid, pa.array(rank), pa.array(doc_id), docno, score,
             pa.array(np.repeat(np.array(ms), n))], schema=RESULT_SCHEMA)


def _batch(items: list[tuple]) -> pa.Table:
    """(qid, text[, shard]) items → a :class:`QueryWorker` input batch."""
    cols = list(zip(*items))
    names = ("qid", "text", "shard")[:len(cols)]
    return pa.table({n: pa.array(c, pa.int32() if n == "shard" else pa.string())
                     for n, c in zip(names, cols)})


def _shard_items(queries: list[tuple[str, str]], n_shards: int) -> list[tuple]:
    return [(q, t, s) for q, t in queries for s in range(n_shards)]


def _scatter(wkey: tuple, ctor, items: list, concurrency: tuple[int, int] | int,
             fn) -> list:
    """``fn(worker, slice)`` over round-robin slices of ``items``, one warm
    Ray task per slice; ``worker`` is ``ctor()``, built once per worker
    process and ``wkey``.  Returns one result per non-empty slice."""

    @ray.remote(num_cpus=1)
    def _slice(sl: list[tuple]):
        return fn(_process_query_worker(wkey, ctor), sl)

    width = max(concurrency) if isinstance(concurrency, tuple) else int(concurrency)
    n_slices = max(1, min(len(items), 2 * width))
    slices = [items[i::n_slices] for i in range(n_slices)]
    return ray.get([_slice.remote(s) for s in slices if s])


def _merge_topk(tables: list[pa.Table], queries: list[tuple[str, str]],
                k: int, ties: tuple[str, ...]) -> pa.Table:
    """Driver merge of per-shard top-k rows: each query's top ``k`` in input
    query order, score desc then each ``ties`` column desc (the exact
    tie-break, ref:src/QueryEnvironment.cpp:985-988).  Returns (qid, rank,
    *ties, score)."""
    cols = (*ties, "score")
    out: dict[str, list] = {c: [] for c in ("qid", "rank", *cols)}
    tables = [t for t in tables if t.num_rows]
    if tables:
        allt = pa.concat_tables(tables)
        qids = np.array(allt.column("qid").to_pylist())
        vals = {c: allt.column(c).to_numpy() for c in cols}
        for qid, _text in queries:
            m = qids == qid
            sel = {c: v[m] for c, v in vals.items()}
            # lexsort's last key is the primary one
            order = np.lexsort([-sel[c] for c in reversed(("score", *ties))])[:k]
            out["qid"].extend([qid] * len(order))
            out["rank"].extend(range(1, len(order) + 1))
            for c in cols:
                out[c].extend(sel[c][order].tolist())
    return _table(out)


def _gather_structured_stats(
    index_dir: str,
    queries: list[tuple[str, str]],
    n_shards: int,
    concurrency: tuple[int, int] | int,
    method: str,
    mu: float,
    lam: float,
) -> dict:
    """Distributed statistics pass — the two-pass gather of
    ref:src/QueryEnvironment.cpp:228-260 ``_sumServerQuery``: each
    (query × shard) item yields the query's node statistics from
    RANGE-PRUNED reads only, and the driver sums them per node key (dedup
    per (key, shard) — two queries sharing a node report the same shard
    partial twice).  The driver itself never opens a posting list.  The
    pass has its own worker key: a worker whose ``_cf_memo`` was seeded
    by ``apply_stats`` would report memo values, not shard partials."""
    snap = _reg_snapshot()

    def _partials(w: QueryWorker, sl: list[tuple]) -> list[tuple]:
        rows = []
        for _qid, text, shard in sl:
            part, const = w.scorer.partial_stats(text, w.ranges[shard])
            rows += [(key, float(v), False, shard) for key, v in part.items()]
            rows += [(key, float(v), True, shard) for key, v in const.items()]
        return rows

    per_shard: dict[tuple, float] = {}
    consts: dict = {}
    for rows in _scatter(
            ("stats", index_dir, n_shards, method, mu, lam),
            lambda: QueryWorker(index_dir, method=method, registry_snapshot=snap,
                                kind="structured", mu=mu, lam=lam,
                                n_shards=n_shards),
            _shard_items(queries, n_shards), concurrency, _partials):
        for key, v, is_const, shard in rows:
            if is_const:
                consts[key] = v
            else:
                per_shard[(key, shard)] = v
    memo: dict = {}
    for (key, _shard), v in per_shard.items():
        memo[key] = memo.get(key, 0.0) + v
    for key, v in consts.items():
        memo.setdefault(key, v)
    return memo


def run_queries_sharded(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 1000,
    n_shards: int = 4,
    concurrency: tuple[int, int] | int = (1, 8),
    kind: str = "bm25",
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
    fb_docs: int = 10,
    fb_terms: int = 20,
    orig_weight: float = 0.5,
) -> pa.Table:
    """Distributed per-query scoring over doc-range shards; per-shard top-k
    then a driver merge with score desc → doc_id desc. Identical results to
    ``run_queries`` (global statistics; rank-safe shard merge).  ``kind``
    = "bm25" | "lm" | "structured" | "rm3" (see :class:`QueryWorker`; rm3
    expands on the driver and scatters the expanded model, fb_* control
    the feedback pass)."""
    stats_memo: dict | None = None
    if kind == "rm3":
        # both RM3 passes are distributed: the INITIAL retrieval is the
        # sharded LM scatter (bit-identical to LMScorer.score), then the
        # driver does only the cheap expansion math per query (feedback-doc
        # vectors are direct-index point reads) and ships the expanded
        # #weight model, normalized exactly as rm3_search normalizes, so
        # shard scores are bit-identical to the single-process run
        from .feedback import rm_expand

        first = run_queries_sharded(
            index_dir, queries, k=fb_docs + 40, n_shards=n_shards,
            concurrency=concurrency, kind="lm", method=method, mu=mu,
            lam=lam)
        f_qids = np.array(first.column("qid").to_pylist())
        f_ids = first.column("doc_id").to_numpy()
        f_scores = first.column("score").to_numpy()
        reader = IndexReader(index_dir)
        stats_memo = {}
        for qid, text in queries:
            m = f_qids == qid
            expanded = rm_expand(reader, text, fb_docs=fb_docs,
                                 fb_terms=fb_terms, orig_weight=orig_weight,
                                 method=method, mu=mu, lam=lam,
                                 first_pass=(f_ids[m], f_scores[m]))
            if expanded:
                wa = np.array([w for _, w in expanded], dtype=np.float64)
                wa /= wa.sum()
                stats_memo[qid] = list(zip([t for t, _ in expanded],
                                           wa.tolist()))
    if kind == "structured":
        # statistics pass DISTRIBUTED (the reference's two-pass: per-server
        # partial sums, ref:src/QueryEnvironment.cpp:228-260): each shard
        # computes its range-pruned partial node counts; the driver only
        # sums — it never decodes a posting list
        stats_memo = _gather_structured_stats(
            index_dir, queries, n_shards, concurrency, method, mu, lam)

    snap = _reg_snapshot()
    memo_ref = ray.put(stats_memo) if stats_memo else None

    def _score_items(w: QueryWorker, sl: list[tuple]) -> pa.Table:
        if memo_ref is not None:
            w.apply_stats(ray.get(memo_ref))
        return w(_batch(sl))

    tables = _scatter(
        ("sq", index_dir, k, n_shards, kind, method, mu, lam),
        lambda: QueryWorker(index_dir, k, method, snap, kind, mu, lam,
                            n_shards=n_shards),
        _shard_items(queries, n_shards), concurrency, _score_items)
    return _merge_topk(tables, queries, k, ("doc_id",))


def run_extents_sharded(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 1000,
    n_shards: int = 4,
    concurrency: tuple[int, int] | int = (1, 8),
    method: str = "dirichlet",
    mu: float = 2500.0,
    lam: float = 0.4,
) -> pa.Table:
    """Distributed ELEMENT-level retrieval over doc-range shards — the
    scatter/merge of :func:`run_queries_sharded` for
    :func:`~.extents.run_extents` results: each (query × shard) item
    scores its shard's extents with collection-global statistics, the
    driver merges with the exact ScoredExtentResult tie order (score desc
    → doc desc → begin desc → end desc).  Returns (qid, rank, doc_id,
    begin, end, score); bit-identical to a single-process run_extents
    (pytest-pinned)."""
    from .extents import run_extents

    snap = _reg_snapshot()
    cols = ("doc_id", "begin", "end", "score")

    def _extents(w: QueryWorker, sl: list[tuple]) -> pa.Table:
        out: dict[str, list] = {c: [] for c in ("qid", *cols)}
        for qid, text, shard in sl:
            res = run_extents(w.scorer, text, k=k, strict=False,
                              doc_range=w.ranges[shard])
            out["qid"].extend([qid] * len(res[0]))
            for c, v in zip(cols, res):
                out[c].extend(v.tolist())
        return _table(out)

    tables = _scatter(
        ("ext", index_dir, k, n_shards, method, mu, lam),
        lambda: QueryWorker(index_dir, k, method, snap, "structured", mu, lam,
                            n_shards=n_shards),
        _shard_items(queries, n_shards), concurrency, _extents)
    return _merge_topk(tables, queries, k, ("doc_id", "begin", "end"))


def run_queries(
    index_dir: str,
    queries: list[tuple[str, str]],
    k: int = 1000,
    method: str = "dirichlet",
    concurrency: tuple[int, int] = (1, 8),
    kind: str = "bm25",
) -> pa.Table:
    """Run (qid, text) queries in parallel; returns the full result table
    (docnos + per-query latency, :data:`RESULT_SCHEMA`) sorted by (qid,
    rank).  ``kind`` = "bm25" | "lm" | "structured" (see
    :class:`QueryWorker`).

    Plain warm tasks over round-robin query slices: the work list is fixed
    and per-worker state (open index + caches) lives in a process global,
    so raw tasks give actor semantics without pool spawn/ramp overhead."""
    snap = _reg_snapshot()
    tables = [t for t in _scatter(
        ("q", index_dir, k, method, kind),
        lambda: QueryWorker(index_dir, k=k, method=method, kind=kind,
                            registry_snapshot=snap),
        queries, concurrency, lambda w, sl: w(_batch(sl))) if t.num_rows]
    if not tables:
        return RESULT_SCHEMA.empty_table()
    return pa.concat_tables(tables).sort_by([("qid", "ascending"), ("rank", "ascending")])
