"""``QueryWorker`` result assembly: the columns it builds from the per-query
arrays must equal, column by column and type by type, the table the
list-built assembly gives — for batches of one and of many queries,
queries without hits (and batches where no query hits), k=10 and k=1000,
and a two-segment repository reader; the doc-range sharded branch must
equal its list-built (qid, doc_id, score) table too."""

from __future__ import annotations

import itertools
import types

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

MANY = ["merge buffer token", "zqxjw", "retry overflow", "int",
        "the the the value", "vbnmq kkxq", "running flies indexed",
        "return if else for while", "buffer", "token stream merge"]
BATCHES = {"one": MANY[:1], "many": MANY,
           "no_hits": ["zqxjw", "vbnmq kkxq"]}


@pytest.fixture(scope="module")
def index_dirs(built_index, tmp_path_factory):
    """name → what ``QueryWorker`` opens: one index dir, or the two
    segment dirs of a repository."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("query_worker")
    repo = Repository.create(str(d / "repo"), IndexConfig(
        max_chunk_docs=64, n_buckets=4, dedup_key="sha256"))
    for i in range(2):
        write_synthetic_corpus(str(d / f"c{i}"), 120, seed=60 + i,
                               rows_per_file=60)
        repo.add(str(d / f"c{i}"))
    assert len(repo.segment_dirs()) == 2
    return {"single": built_index[0], "repository": repo.segment_dirs()}


def _clock(monkeypatch, run_mod) -> None:
    """A deterministic ``time.perf_counter`` for the run module: call i
    reads i² ms, so every query gets its own latency."""
    calls = itertools.count()
    monkeypatch.setattr(run_mod, "time", types.SimpleNamespace(
        perf_counter=lambda: next(calls) ** 2 / 1000))


def _docno_truth(reader) -> dict[int, str]:
    t = pa.concat_tables([pq.read_table(f"{d}/docs", columns=["doc_id", "docno"])
                          for d in reader.index_dirs])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("docno").to_pylist()))


def _list_built(worker, run_mod, batch: pa.Table) -> pa.Table:
    """The list-built assembly: one Python list per column, extended per
    query, docnos looked up per id."""
    truth = _docno_truth(worker.reader)
    out = {c: [] for c in run_mod.RESULT_SCHEMA.names}
    for qid, text in zip(batch.column("qid").to_pylist(),
                         batch.column("text").to_pylist()):
        t0 = run_mod.time.perf_counter()
        ids, scores = worker._score(text)
        ms = (run_mod.time.perf_counter() - t0) * 1000
        n = len(ids)
        out["qid"].extend([qid] * n)
        out["rank"].extend(range(1, n + 1))
        out["doc_id"].extend(ids.tolist())
        out["score"].extend(scores.tolist())
        out["latency_ms"].extend([ms] * n)
    out["docno"] = [truth[d] for d in out["doc_id"]]
    return pa.table({c: pa.array(v, run_mod.RESULT_SCHEMA.field(c).type)
                     for c, v in out.items()})


@pytest.mark.parametrize("k", [10, 1000])
@pytest.mark.parametrize("which", ["single", "repository"])
@pytest.mark.parametrize("batch_name", sorted(BATCHES))
def test_result_table_equals_list_built(index_dirs, monkeypatch, k, which,
                                        batch_name):
    import indri_5_5_ray.pipelines.run as run_mod

    worker = run_mod.QueryWorker(index_dirs[which], k=k)
    texts = BATCHES[batch_name]
    batch = pa.table({"qid": [f"q{i}" for i in range(len(texts))],
                      "text": texts})
    _clock(monkeypatch, run_mod)
    got = worker(batch)
    _clock(monkeypatch, run_mod)
    want = _list_built(worker, run_mod, batch)
    assert got.schema == run_mod.RESULT_SCHEMA
    for c in run_mod.RESULT_SCHEMA.names:
        assert got.column(c).to_pylist() == want.column(c).to_pylist(), c
    assert got.equals(want)
    assert (got.num_rows == 0) == (batch_name == "no_hits")
    if batch_name == "many":  # several queries, each with its own latency
        assert len(set(got.column("latency_ms").to_pylist())) > 1


@pytest.mark.parametrize("which", ["single", "repository"])
def test_sharded_result_table_equals_list_built(index_dirs, which):
    import indri_5_5_ray.pipelines.run as run_mod

    worker = run_mod.QueryWorker(index_dirs[which], k=10, n_shards=3)
    items = [(f"q{i}", t, s) for i, t in enumerate(MANY) for s in range(3)]
    batch = run_mod._batch(items)
    got = worker(batch)
    out = {"qid": [], "doc_id": [], "score": []}
    for qid, text, shard in items:
        ids, scores = worker._score(text, qid, worker.ranges[shard])
        out["qid"].extend([qid] * len(ids))
        out["doc_id"].extend(ids.tolist())
        out["score"].extend(scores.tolist())
    want = pa.table({"qid": pa.array(out["qid"], pa.string()),
                     "doc_id": pa.array(out["doc_id"], pa.int64()),
                     "score": pa.array(out["score"], pa.float64())})
    assert got.num_rows and got.equals(want)
    none = worker(run_mod._batch([("z", "zqxjw", 0)]))
    assert none.num_rows == 0 and none.schema == want.schema
