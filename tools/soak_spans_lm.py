"""Scale soak of the round-5 span-dedup + unigram-LM operators.

Synthesizes a documents table where a configurable fraction of docs embed
a shared boilerplate span (web-crawl-like substring duplication — the
workload Lee et al. 2021 span removal targets), then:

1. the shared ``_dup_occ_spill`` filesystem exchange (timed on its own:
   both span operators are map-only passes over it), then
   ``dup_span_stats`` — the range-pruned interval-union pass, driver RSS
   sampled throughout;
2. ``remove_dup_spans`` — the range-pruned covered-slot expansion +
   anti-join clean pass over the same spill;
3. cross-check: Σ covered_tokens (stats) == Σ n_removed (transform), and
   BOTH equal the generator's closed-form expectation — the two
   operators take independent kernels after the shared exchange, and the
   closed form is independent of the engine entirely;
4. ``unigram_logprob`` + ``ccnet_buckets`` — the term-bucket exchange
   scoring + the distributed-ntile bucket assignment (bucket sizes must
   differ by ≤ 1).

Usage: python tools/soak_spans_lm.py [--docs 2000000] [--dup 0.35]
       [--cpus 32] [--workdir /dev/shm/indri55_soak_spans]
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

from tools.soak_highdup import RssSampler  # noqa: E402


BOILER = ("subscribe to our newsletter for updates and follow us on "
          "social media all rights reserved terms of service apply")


def make_documents(out_dir: str, n_docs: int, dup_frac: float,
                   rows_per_batch: int = 250_000) -> None:
    """doc i: 8 filler tokens WOVEN with doc-unique tokens so that every
    3-gram of the non-boilerplate part contains a token embedding ``i``
    (positions 2, 5, 7 — no 3 consecutive positions, including the
    boilerplate boundary, miss one), so NO filler 3-gram ever recurs
    across docs; every ``i % stride == 0`` doc appends the shared
    19-token boilerplate span.  Duplication is therefore EXACTLY the
    boilerplate: expected covered_tokens = n_dup_docs × 19 and
    dup_positions = n_dup_docs × (19 - n + 1) — the soak asserts both in
    closed form.  Three doc-unique tokens per doc (not 8) keep the
    unigram vocab at 3×docs — still a deliberate O(corpus)-vocab stress
    of the LM join's per-worker memo bound.  One streamed parquet file
    with 25k-row row groups, so Ray's read splits it into real blocks
    without a repartition."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    stride = max(1, round(1.0 / dup_frac))
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    with pq.ParquetWriter(f"{out_dir}/documents.parquet", schema) as w:
        start = 0
        while start < n_docs:
            n = min(rows_per_batch, n_docs - start)
            texts = []
            for i in range(start, start + n):
                base = (f"merge buffer u{i}a token stream u{i}b "
                        f"index u{i}c")
                texts.append(base + " " + BOILER if i % stride == 0 else base)
            w.write_table(pa.table({
                "doc_id": pa.array(range(start, start + n), pa.int64()),
                "text": pa.array(texts),
            }, schema=schema), row_group_size=25_000)
            start += n


def expected_span_stats(n_docs: int, dup_frac: float, n: int) -> tuple[int, int]:
    """Closed-form (covered_tokens, dup_positions) for make_documents."""
    stride = max(1, round(1.0 / dup_frac))
    n_dup_docs = (n_docs + stride - 1) // stride
    n_boiler = len(BOILER.split())
    return n_dup_docs * n_boiler, n_dup_docs * (n_boiler - n + 1)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=2_000_000)
    ap.add_argument("--dup", type=float, default=0.35)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--workdir", default="/dev/shm/indri55_soak_spans")
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    from ray.data.aggregate import Sum

    from indri_5_5_ray.functions.dedup import dup_span_stats, remove_dup_spans
    from indri_5_5_ray.functions.textstats import ccnet_buckets, unigram_logprob

    wd = args.workdir
    shutil.rmtree(wd, ignore_errors=True)
    shutil.rmtree("/tmp/indri55_dupocc", ignore_errors=True)
    shutil.rmtree("/tmp/indri55_unigcg", ignore_errors=True)
    res: dict = {"docs": args.docs, "dup_frac": args.dup, "cpus": args.cpus}

    t0 = time.perf_counter()
    make_documents(f"{wd}/sf", args.docs, args.dup)
    res["gen_s"] = round(time.perf_counter() - t0, 1)

    from indri_5_5_ray.functions.dedup import NGRAM_N, _dup_occ_spill

    exp_cov, exp_pos = expected_span_stats(args.docs, args.dup, NGRAM_N)

    t0 = time.perf_counter()
    with RssSampler() as s0:
        _dup_occ_spill(f"{wd}/sf", NGRAM_N)  # the ONE exchange, shared
    res["occ_spill_s"] = round(time.perf_counter() - t0, 1)
    res["rss_spill_mb"] = {"start": round(s0.samples[0], 1),
                           "peak": round(max(s0.samples), 1),
                           "end": round(s0.samples[-1], 1)}

    t0 = time.perf_counter()
    with RssSampler() as s1:
        stats = dup_span_stats(f"{wd}/sf").materialize()  # ONE execution
        agg = stats.aggregate(Sum("covered_tokens", alias_name="cov"),
                              Sum("dup_positions", alias_name="pos"))
        n_stats = stats.count()
    res["dup_span_stats_s"] = round(time.perf_counter() - t0, 1)
    res["rows"] = n_stats
    res["covered_tokens"] = int(agg["cov"])
    res["dup_positions"] = int(agg["pos"])
    res["rss_stats_mb"] = {"start": round(s1.samples[0], 1),
                           "peak": round(max(s1.samples), 1),
                           "end": round(s1.samples[-1], 1)}
    assert res["covered_tokens"] == exp_cov, (res["covered_tokens"], exp_cov)
    assert res["dup_positions"] == exp_pos, (res["dup_positions"], exp_pos)

    t0 = time.perf_counter()
    with RssSampler() as s2:
        cleaned = remove_dup_spans(f"{wd}/sf").materialize()  # ONE execution
        agg2 = cleaned.aggregate(Sum("n_removed", alias_name="rm"))
        n_clean = cleaned.count()
    res["remove_dup_spans_s"] = round(time.perf_counter() - t0, 1)
    res["n_removed"] = int(agg2["rm"])
    res["rss_remove_mb"] = {"start": round(s2.samples[0], 1),
                            "peak": round(max(s2.samples), 1),
                            "end": round(s2.samples[-1], 1)}
    assert n_clean == args.docs, (n_clean, args.docs)
    assert res["n_removed"] == res["covered_tokens"], (
        res["n_removed"], res["covered_tokens"])

    t0 = time.perf_counter()
    with RssSampler() as s3:
        n_lp = unigram_logprob(f"{wd}/sf").count()
    res["unigram_s"] = round(time.perf_counter() - t0, 1)
    res["rss_unigram_mb"] = {"start": round(s3.samples[0], 1),
                             "peak": round(max(s3.samples), 1),
                             "end": round(s3.samples[-1], 1)}
    assert n_lp == args.docs

    t0 = time.perf_counter()
    with RssSampler() as s4:
        buckets = ccnet_buckets(f"{wd}/sf")
        sizes = {r["bucket"]: r["count()"] for r in
                 buckets.groupby("bucket").count().take_all()}
    res["ccnet_buckets_s"] = round(time.perf_counter() - t0, 1)
    res["bucket_sizes"] = sizes
    res["rss_ccnet_mb"] = {"start": round(s4.samples[0], 1),
                           "peak": round(max(s4.samples), 1),
                           "end": round(s4.samples[-1], 1)}
    assert sum(sizes.values()) == args.docs
    assert max(sizes.values()) - min(sizes.values()) <= 1, sizes

    print(json.dumps(res))
    ray.shutdown()
    shutil.rmtree(wd, ignore_errors=True)


if __name__ == "__main__":
    main()
