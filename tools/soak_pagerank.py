"""Scale soak of the bucketed PageRank pipeline (functions/linkgraph.py).

Synthesizes an n-doc table (the synthetic link graph is a pure function
of doc_id: ~2 edges/doc), runs `pagerank_scores` end to end (edge spill
→ per-bucket contribution/apply exchanges, dangling mass redistributed),
and checks the two invariants that must hold at ANY scale:

1. every document scores (row count == n);
2. probability mass is conserved: Σ score == 1 (damped PR with dangling
   redistribution is a stochastic matrix — drift means a lost or
   double-counted bucket).

Driver RSS is sampled throughout: the driver must hold only file paths
and the per-iteration dangling-mass scalar, never a score vector.

Usage: python tools/soak_pagerank.py [--docs 10000000] [--cpus 32]
       [--iters 5] [--workdir /dev/shm/indri55_soak_pr]
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.soak_components import RssSampler  # noqa: E402


def make_documents(out_dir: str, n_docs: int,
                   rows_per_batch: int = 2_000_000) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    schema = pa.schema([("doc_id", pa.int64())])
    with pq.ParquetWriter(f"{out_dir}/documents.parquet", schema) as w:
        start = 0
        while start < n_docs:
            n = min(rows_per_batch, n_docs - start)
            w.write_table(pa.table({
                "doc_id": pa.array(np.arange(start, start + n), pa.int64()),
            }, schema=schema), row_group_size=100_000)
            start += n


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=10_000_000)
    ap.add_argument("--iters", type=int, default=5)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--workdir", default="/dev/shm/indri55_soak_pr")
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    from ray.data.aggregate import Max, Sum

    from indri_5_5_ray.functions.linkgraph import pagerank_scores

    wd = args.workdir
    shutil.rmtree(wd, ignore_errors=True)
    shutil.rmtree("/tmp/indri55_pagerank", ignore_errors=True)
    res: dict = {"docs": args.docs, "iters": args.iters, "cpus": args.cpus}

    t0 = time.perf_counter()
    make_documents(f"{wd}/sf", args.docs)
    res["gen_s"] = round(time.perf_counter() - t0, 1)

    t0 = time.perf_counter()
    with RssSampler() as s:
        scores = pagerank_scores(f"{wd}/sf", iters=args.iters)
        agg = scores.aggregate(Sum("score", alias_name="mass"),
                               Max("score", alias_name="top"))
        n = scores.count()
    res["pagerank_s"] = round(time.perf_counter() - t0, 1)
    res["rows"] = n
    res["mass"] = float(agg["mass"])
    res["top_score"] = float(agg["top"])
    res["rss_mb"] = {"start": round(s.samples[0], 1),
                     "peak": round(max(s.samples), 1),
                     "end": round(s.samples[-1], 1)}
    assert n == args.docs, (n, args.docs)
    assert abs(res["mass"] - 1.0) < 1e-9, res["mass"]
    assert res["top_score"] > 1.0 / args.docs  # the graph concentrates mass

    print(json.dumps(res))
    ray.shutdown()
    shutil.rmtree(wd, ignore_errors=True)


if __name__ == "__main__":
    main()
