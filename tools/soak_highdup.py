"""High-duplication soak: evidence that the exact-dedup loser path and the
near-dup group spill stay OFF the driver (VERDICT r4 item 1).

Synthesizes a corpus where ~``--dup`` of the docs are content-identical
copies of earlier docs (web-crawl-like duplication), then:

1. runs the full index build (sha256 keep-first dedup) while sampling the
   DRIVER's VmRSS in a background thread — with reducers writing loser
   shards directly, driver RSS must stay flat no matter how many losers
   the corpus has;
2. runs ``_dup_groups`` over an equally duplicated documents table — the
   group spill is written task-side, so the driver again only holds a
   path + two counts;
3. runs ``lsh_candidate_pairs`` over that table (dup-group spill warm,
   pair-exchange spills cleared first): both pair stages are bucket
   exchanges, so driver RSS stays flat while the expanded candidate set
   grows quadratically in the group sizes;
4. cross-checks the loser count against the construction (exact expected
   value) and re-runs a killed-chunk resume-style second build call to
   confirm the lineage skip still returns the same manifest.

Usage: python tools/soak_highdup.py [--docs 2000000] [--dup 0.35]
       [--cpus 32] [--workdir /dev/shm/indri55_soak_dup]
Prints one JSON line with timings, RSS samples and counts.
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


def make_corpus(out_dir: str, n_docs: int, dup_frac: float,
                rows_per_file: int = 100_000) -> int:
    """Corpus shards where doc i duplicates the content of doc
    ``i % n_unique`` (n_unique = (1-dup_frac)·n) — every doc past the
    unique pool is an exact loser.  Returns the expected loser count."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    n_unique = int(n_docs * (1.0 - dup_frac))
    langs = ["py", "cpp", "java", "go", "rs"]
    words = ("merge buffer token stream index shard batch actor "
             "queue block vector column row group scan probe "
             "hash sort spill lineage commit").split()

    def text_of(u: int) -> str:
        w = [words[(u * 7 + k * 13) % len(words)] for k in range(24)]
        return f"// unit {u}\n" + " ".join(w) + f"\nreturn {u % 97};\n"

    pool = [text_of(u) for u in range(min(n_unique, 200_000))]

    shard = 0
    start = 0
    while start < n_docs:
        n = min(rows_per_file, n_docs - start)
        ids = range(start, start + n)
        texts = [pool[(i % n_unique) % len(pool)]
                 if (i % n_unique) < len(pool)
                 else text_of(i % n_unique) for i in ids]
        t = pa.table({
            "repo": pa.array([f"org{i % 503:04d}/proj{i % 11}" for i in ids]),
            "path": pa.array([f"src/m{i:09d}.txt" for i in ids]),
            "commit": pa.array(
                [hashlib.sha1(f"c{i}".encode()).hexdigest() for i in ids]),
            "lang": pa.array([langs[i % len(langs)] for i in ids]),
            "content": pa.array(texts),
        })
        pq.write_table(t, f"{out_dir}/corpus-{shard:05d}.parquet")
        start += n
        shard += 1
    # doc i (in arrival order = doc_id order) loses iff some j < i shares
    # its content, i.e. i >= n_unique OR the pool wrapped (it can't here:
    # pool wrap only when n_unique > len(pool), where text_of keeps going
    # unique).  With pool truncation, docs u in [len(pool), n_unique) get
    # fresh text_of(u) — still unique.  So losers = n_docs - n_unique.
    return n_docs - n_unique


def make_documents(out_dir: str, n_docs: int, dup_frac: float) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    n_unique = int(n_docs * (1.0 - dup_frac))
    t = pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "text": pa.array(
            [f"alpha beta gamma delta unit {i % n_unique} epsilon zeta "
             f"eta theta iota kappa value {(i % n_unique) % 89}"
             for i in range(n_docs)]),
    })
    pq.write_table(t, f"{out_dir}/documents.parquet")
    return out_dir


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=2_000_000)
    ap.add_argument("--dup", type=float, default=0.35)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--workdir", default="/dev/shm/indri55_soak_dup")
    ap.add_argument("--group-docs", type=int, default=2_000_000,
                    help="documents-table size for the _dup_groups phase")
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.functions.dedup import _dup_groups, lsh_candidate_pairs
    from indri_5_5_ray.pipelines.build import build_index

    wd = args.workdir
    shutil.rmtree(wd, ignore_errors=True)
    res: dict = {"docs": args.docs, "dup_frac": args.dup, "cpus": args.cpus}

    t0 = time.perf_counter()
    expected_losers = make_corpus(f"{wd}/corpus", args.docs, args.dup)
    res["gen_s"] = round(time.perf_counter() - t0, 1)
    res["expected_losers"] = expected_losers

    cfg = IndexConfig(dedup_key="sha256")
    t0 = time.perf_counter()
    with RssSampler() as samp:
        manifest = build_index(f"{wd}/corpus", f"{wd}/index", cfg)
    res["build_s"] = round(time.perf_counter() - t0, 1)
    res["doc_count"] = manifest["doc_count"]
    res["docs_per_s"] = round(args.docs / res["build_s"], 0)
    res["driver_rss_mb"] = {
        "start": round(samp.samples[0], 1),
        "peak": round(max(samp.samples), 1),
        "end": round(samp.samples[-1], 1),
    }
    # loser shards on disk, never driver-resident
    import pyarrow.parquet as pq

    loser_files = sorted(
        f for f in os.listdir(f"{wd}/index/dedup_losers")) if os.path.isdir(
        f"{wd}/index/dedup_losers") else []
    n_losers = sum(
        pq.read_metadata(f"{wd}/index/dedup_losers/{f}").num_rows
        for f in loser_files)
    res["loser_shards"] = len(loser_files)
    res["losers"] = n_losers
    assert n_losers == expected_losers, (n_losers, expected_losers)
    assert manifest["doc_count"] == args.docs - expected_losers

    # resume identity: a second call returns the cached manifest
    m2 = build_index(f"{wd}/corpus", f"{wd}/index", cfg)
    assert m2["doc_count"] == manifest["doc_count"]

    # phase 2: the near-dup group spill at the same duplication rate
    make_documents(f"{wd}/docs_tbl", args.group_docs, args.dup)
    t0 = time.perf_counter()
    with RssSampler() as samp2:
        dg = _dup_groups(f"{wd}/docs_tbl")
    res["dup_groups_s"] = round(time.perf_counter() - t0, 1)
    res["dup_groups"] = {"n_groups": dg.n_groups, "n_losers": dg.n_losers}
    res["driver_rss_mb_groups"] = {
        "start": round(samp2.samples[0], 1),
        "peak": round(max(samp2.samples), 1),
        "end": round(samp2.samples[-1], 1),
    }
    gdir = f"{dg.path}/groups"
    spill_mb = sum(os.path.getsize(f"{gdir}/{f}")
                   for f in os.listdir(gdir)) / 1e6
    res["group_spill_mb"] = round(spill_mb, 1)

    # phase 3: MinHash-LSH candidate pairs over the same table
    shutil.rmtree("/tmp/indri55_pairs", ignore_errors=True)
    t0 = time.perf_counter()
    with RssSampler() as samp3:
        n_pairs = lsh_candidate_pairs(f"{wd}/docs_tbl").count()
    res["lsh_pairs_s"] = round(time.perf_counter() - t0, 1)
    res["lsh_pairs"] = n_pairs
    res["driver_rss_mb_lsh"] = {
        "start": round(samp3.samples[0], 1),
        "peak": round(max(samp3.samples), 1),
        "end": round(samp3.samples[-1], 1),
    }

    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
