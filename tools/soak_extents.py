"""Element-retrieval soak: build a field-bearing index at bench scale and
measure per-query extent-retrieval latency plus sharded bit-identity.

Wraps the bench corpus (default 400k docs) in ``<title>/<sec>`` markup —
title = the path, text split into two ``<sec>`` halves at the middle
whitespace — so every doc carries three extents, then:

* ``run_extents`` latency for a field query and a passage query (warm);
* document-level ``StructuredQueryEngine.run`` of the passage query
  (warm) and its identity: every doc's score equals the best of its
  ``run_extents`` windows, bit for bit;
* ``run_extents_wildcard`` latency (the INEX CO surface);
* ``run_extents_sharded`` equality vs the single-process run at n_shards=8.

Usage: ``python tools/soak_extents.py [n_docs]`` (default 400_000; the
corpus must already exist in the bench cache — run bench.py first — or a
smaller one is generated).
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    import pyarrow as pa

    import bench
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.extents import (
        run_extents,
        run_extents_wildcard,
    )
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.run import run_extents_sharded
    from indri_5_5_ray.stages.postings import INDEX_FORMAT

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 400_000
    corpus_dir = Path(bench.BENCH_CACHE) / f"corpus-{n_docs}"
    if not (corpus_dir / "_COMPLETE").exists():
        from indri_5_5_ray.sources.corpus import write_synthetic_corpus

        corpus_dir.mkdir(parents=True, exist_ok=True)
        write_synthetic_corpus(str(corpus_dir), n_docs, rows_per_file=5000)
        (corpus_dir / "_COMPLETE").touch()
    root = Path(bench.BENCH_CACHE) / f"extsoak-{n_docs}-f{INDEX_FORMAT}"
    tagged_dir = root / "corpus"
    index_dir = root / "index"
    if not (index_dir / "manifest.json").exists():
        import ray.data as rd

        tagged_dir.mkdir(parents=True, exist_ok=True)

        def tag(batch: pa.Table) -> pa.Table:
            contents = []
            for path, content in zip(batch.column("path").to_pylist(),
                                     batch.column("content").to_pylist()):
                mid = content.rfind(" ", 0, len(content) // 2 + 1)
                if mid <= 0:
                    mid = len(content) // 2
                contents.append(
                    f"<title> {path} </title> <sec> {content[:mid]} </sec>"
                    f" <sec> {content[mid:]} </sec>")
            return batch.set_column(
                batch.schema.get_field_index("content"), "content",
                pa.array(contents, pa.string()))

        (rd.read_parquet(str(corpus_dir))
         .map_batches(tag, batch_format="pyarrow")
         .write_parquet(str(tagged_dir)))
        cfg = IndexConfig(dedup_key=None, n_buckets=16, max_chunk_docs=4096,
                          fields=("title", "sec"))
        t0 = time.perf_counter()
        build_index(str(tagged_dir), str(index_dir), cfg)
        print(f"build: {time.perf_counter() - t0:.1f}s")
    reader = IndexReader(str(index_dir))
    qs = {
        "field": "#combine[sec](merge buffer)",
        "passage": "#combine[passage50:25](merge buffer)",
    }
    out = {}
    for name, q in qs.items():
        run_extents(reader, q, k=100)  # warm
        t0 = time.perf_counter()
        ids, bs, es, sc = run_extents(reader, q, k=100)
        out[name] = (round(time.perf_counter() - t0, 3), len(ids))
    everything = 1 << 62
    StructuredQueryEngine(reader).run(qs["passage"], k=everything)  # warm
    t0 = time.perf_counter()
    ids, sc = StructuredQueryEngine(reader).run(qs["passage"], k=everything)
    out["passage_doc"] = (round(time.perf_counter() - t0, 3), len(ids))
    best: dict[int, float] = {}
    wids, _bs, _es, wsc = run_extents(reader, qs["passage"], k=everything)
    for d, s in zip(wids.tolist(), wsc.tolist()):
        best[d] = max(best.get(d, s), s)
    assert dict(zip(ids.tolist(), sc.tolist())) == best
    print(f"doc score = best passage window over {len(best)} docs: OK")
    run_extents_wildcard(reader, "#combine(merge buffer)", k=100)
    t0 = time.perf_counter()
    ids, bs, es, sc = run_extents_wildcard(reader, "#combine(merge buffer)",
                                           k=100)
    out["wildcard"] = (round(time.perf_counter() - t0, 3), len(ids))
    t = run_extents_sharded(str(index_dir),
                            [("1", qs["field"]), ("2", qs["passage"])],
                            k=100, n_shards=8, concurrency=(2, 8))
    for qid, q in (("1", qs["field"]), ("2", qs["passage"])):
        ids1, bs1, es1, sc1 = run_extents(reader, q, k=100)
        m = [i for i, x in enumerate(t.column("qid").to_pylist()) if x == qid]
        assert [t.column("doc_id")[i].as_py() for i in m] == ids1.tolist(), qid
        assert [t.column("score")[i].as_py() for i in m] == sc1.tolist(), qid
    print("sharded(8) bit-identical: OK")
    print({"n_docs": n_docs, "warm_latency_s": out})
    ray.shutdown()


if __name__ == "__main__":
    main()
