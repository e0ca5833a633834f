"""Scale soak of the late-round-5 curation operators: pruned n-gram
statistics and domain-mixture sampling.

Reuses the span-soak fixture shape (tools/soak_spans_lm.py): doc i is
8 filler tokens WOVEN with doc-unique tokens (so no filler bigram ever
recurs across docs except two fixed pairs) plus, on every stride-th doc,
the shared 19-token boilerplate — which makes the PRUNED bigram table
closed-form: exactly 2 corpus-wide pairs ("merge buffer",
"token stream", cf = df = n_docs) + the 18 boilerplate bigrams
(cf = df = n_dup_docs); every other bigram contains a doc-unique token
and must be pruned.  This deliberately stresses the prune: the UNPRUNED
bigram space is ~7 × n_docs distinct grams, so survivors are ~0.00003%
of it — the reducer-side prune is what keeps the output (and the
driver) small.

mixture_sample gets a lang column (round-robin en/zh/fr/de/es;
gcd(stride,5)=1 spreads the boilerplate evenly) and is cross-checked
EXACTLY against DuckDB running the same integer-rate SQL as the driver
oracle — count, doc_id sum and token sum must all match, and the
clamped language must keep every one of its docs.

Usage: python tools/soak_mixture_ngrams.py [--docs 10000000]
       [--dup 0.35] [--cpus 32] [--workdir /dev/shm/indri55_soak_mix]
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
from tools.soak_spans_lm import BOILER  # noqa: E402

LANGS = ("en", "zh", "fr", "de", "es")


def make_documents(out_dir: str, n_docs: int, dup_frac: float,
                   rows_per_batch: int = 250_000) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    stride = max(1, round(1.0 / dup_frac))
    schema = pa.schema([("doc_id", pa.int64()), ("lang", pa.string()),
                        ("text", pa.string())])
    with pq.ParquetWriter(f"{out_dir}/documents.parquet", schema) as w:
        start = 0
        while start < n_docs:
            n = min(rows_per_batch, n_docs - start)
            texts, langs = [], []
            for i in range(start, start + n):
                base = (f"merge buffer u{i}a token stream u{i}b "
                        f"index u{i}c")
                texts.append(base + " " + BOILER if i % stride == 0 else base)
                langs.append(LANGS[i % 5])
            w.write_table(pa.table({
                "doc_id": pa.array(range(start, start + n), pa.int64()),
                "lang": pa.array(langs),
                "text": pa.array(texts),
            }, schema=schema), row_group_size=25_000)
            start += n


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=10_000_000)
    ap.add_argument("--dup", type=float, default=0.35)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--workdir", default="/dev/shm/indri55_soak_mix")
    args = ap.parse_args()

    import duckdb
    import ray

    shutil.rmtree(args.workdir, ignore_errors=True)
    t0 = time.perf_counter()
    make_documents(args.workdir, args.docs, args.dup)
    result = {"n_docs": args.docs, "gen_s": round(time.perf_counter() - t0, 2)}

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    from indri_5_5_ray.functions.sampling import mixture_sample
    from indri_5_5_ray.functions.textstats import ngram_counts

    stride = max(1, round(1.0 / args.dup))
    n_dup = (args.docs + stride - 1) // stride

    with RssSampler() as rss:
        # --- ngram_counts: closed-form pruned bigram table ---------------
        t0 = time.perf_counter()
        grams = {r["gram"]: (r["cf"], r["df"])
                 for r in ngram_counts(args.workdir, n=2,
                                       min_count=3).take_all()}
        result["ngram_s"] = round(time.perf_counter() - t0, 2)
        bt = BOILER.split()
        want = {"merge buffer": (args.docs, args.docs),
                "token stream": (args.docs, args.docs)}
        for a, b in zip(bt, bt[1:]):
            want[f"{a} {b}"] = (n_dup, n_dup)
        assert grams == want, (
            f"pruned gram table mismatch: {len(grams)} rows vs "
            f"{len(want)} expected")
        result["ngram_rows"] = len(grams)

        # --- mixture_sample: exact DuckDB cross-check ---------------------
        t0 = time.perf_counter()
        budget = args.docs * 5  # ~half the corpus tokens → zh clamps
        out = mixture_sample(args.workdir, budget_tokens=budget)

        import pyarrow as pa

        def digest(b: pa.Table) -> pa.Table:
            return pa.table({
                "n": pa.array([b.num_rows], pa.int64()),
                "sid": pa.array([int(b.column("doc_id").to_numpy().sum())],
                                pa.int64()),
                "stok": pa.array([int(b.column("n_tokens").to_numpy().sum())],
                                 pa.int64()),
                "zh": pa.array([int((pa.compute.equal(
                    b.column("lang"), "zh")).to_numpy(False).sum())],
                    pa.int64()),
            })

        parts = out.map_batches(digest, batch_format="pyarrow").take_all()
        got = {k: sum(p[k] for p in parts) for k in ("n", "sid", "stok", "zh")}
        result["mixture_s"] = round(time.perf_counter() - t0, 2)

        t0 = time.perf_counter()
        sys.path.insert(0, os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        import __ray_entry__ as entrymod

        sql = entrymod.oracle_sql()["mixture_sample"].replace(
            "* 8000 *", f"* {budget} *")
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{args.workdir}/documents.parquet')")
        oracle = con.execute(
            f"SELECT count(*), sum(doc_id), sum(n_tokens), "
            f"sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END) "
            f"FROM ({sql})").fetchone()
        result["oracle_s"] = round(time.perf_counter() - t0, 2)
        assert (got["n"], got["sid"], got["stok"], got["zh"]) == tuple(
            int(x) for x in oracle), f"{got} != {oracle}"
        # the clamped language keeps every doc
        zh_all = args.docs // 5 + (1 if args.docs % 5 >= 2 else 0)
        assert got["zh"] == zh_all, (got["zh"], zh_all)
        result["sampled_rows"] = got["n"]
        result["sampled_zh"] = got["zh"]

    result["rss_start_mb"] = round(rss.samples[0], 1)
    result["rss_peak_mb"] = round(max(rss.samples), 1)
    result["rss_end_mb"] = round(rss.samples[-1], 1)
    print(json.dumps(result))
    ray.shutdown()
    shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
