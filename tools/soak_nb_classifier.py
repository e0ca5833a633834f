"""Scale soak of the seed-trained NB quality classifier.

Synthesizes the woven O(corpus)-vocab documents table (the
soak_spans_lm.py trick: 3 doc-unique tokens per doc keep the vocab at
3×docs — a vocab no worker should have to hold) with a
deterministic language label (``de`` every 4th doc, else ``en``) and the
shared 19-token boilerplate on every 3rd doc, then runs
``nb_classifier_scores`` over it, RSS-sampled.

Verification is EXACT and engine-independent: with periodic labels and
periodic boilerplate every class count is a closed form (floor
arithmetic), so the expected ``nb_llr`` of each of the four doc types
(en/de × boiler/plain) is computable analytically; the soak pulls one
doc of each type out of the result and asserts equality to 1e-9, plus
Σ n_tokens == the closed-form token total over all docs.

Usage: python tools/soak_nb_classifier.py [--docs 2000000] [--cpus 32]
       [--workdir /dev/shm/indri55_soak_nb]
Prints one JSON line with timings, RSS samples and the sample scores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.soak_highdup import RssSampler  # noqa: E402
from tools.soak_spans_lm import BOILER  # noqa: E402

FILLER = ["merge", "buffer", "token", "stream", "index"]  # once per doc
LANG_PERIOD = 4     # doc i is "de" iff i % 4 == 0
BOIL_PERIOD = 3     # doc i carries BOILER iff i % 3 == 0


def make_documents(out_dir: str, n_docs: int,
                   rows_per_batch: int = 250_000) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                        ("lang", pa.string())])
    with pq.ParquetWriter(f"{out_dir}/documents.parquet", schema) as w:
        start = 0
        while start < n_docs:
            n = min(rows_per_batch, n_docs - start)
            texts, langs = [], []
            for i in range(start, start + n):
                base = (f"merge buffer u{i}a token stream u{i}b "
                        f"index u{i}c")
                texts.append(base + " " + BOILER
                             if i % BOIL_PERIOD == 0 else base)
                langs.append("de" if i % LANG_PERIOD == 0 else "en")
            w.write_table(pa.table({
                "doc_id": pa.array(range(start, start + n), pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(langs),
            }, schema=schema), row_group_size=25_000)
            start += n


def n_multiples(n_docs: int, p: int) -> int:
    """#{i in [0, n_docs) : i % p == 0}"""
    return (n_docs + p - 1) // p


def expected_scores(n_docs: int) -> dict:
    """Closed-form class counts and per-doc-type nb_llr."""
    n_de = n_multiples(n_docs, LANG_PERIOD)
    n_en = n_docs - n_de
    n_boil = n_multiples(n_docs, BOIL_PERIOD)
    n_boil_de = n_multiples(n_docs, LANG_PERIOD * BOIL_PERIOD
                            // math.gcd(LANG_PERIOD, BOIL_PERIOD))
    n_boil_en = n_boil - n_boil_de
    boiler_toks = BOILER.split()
    n_b = len(boiler_toks)  # 19, all distinct, disjoint from FILLER
    # token totals per class: 8 per doc + n_b per boilerplate doc
    tp = 8 * n_en + n_b * n_boil_en
    tn = 8 * n_de + n_b * n_boil_de
    v = len(FILLER) + n_b + 3 * n_docs
    ln = math.log
    const = ln(tn + v) - ln(tp + v)
    prior = ln((n_en + 1) / (n_de + 1))

    def llr(cf_pos: int, cf_neg: int) -> float:
        return ln(cf_pos + 1) - ln(cf_neg + 1) + const

    filler_en, filler_de = llr(n_en, n_de), llr(n_en, n_de)
    boil = llr(n_boil_en, n_boil_de)
    uniq_en, uniq_de = llr(1, 0), llr(0, 1)
    out = {"n_en": n_en, "n_de": n_de, "vsize": v,
           "total_pos": tp, "total_neg": tn,
           "sum_tokens": 8 * n_docs + n_b * n_boil}
    # doc types: (lang, boiler) — 5 filler + 3 unique (+ 19 boiler)
    out["en_plain"] = prior + 5 * filler_en + 3 * uniq_en
    out["en_boil"] = out["en_plain"] + n_b * boil
    out["de_plain"] = prior + 5 * filler_de + 3 * uniq_de
    out["de_boil"] = out["de_plain"] + n_b * boil
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=2_000_000)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--workdir", default="/dev/shm/indri55_soak_nb")
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    from ray.data.aggregate import Sum

    from indri_5_5_ray.functions.classifier import nb_classifier_scores

    wd = args.workdir
    shutil.rmtree(wd, ignore_errors=True)
    shutil.rmtree("/tmp/indri55_nbcg", ignore_errors=True)
    res: dict = {"docs": args.docs, "cpus": args.cpus}

    t0 = time.perf_counter()
    make_documents(f"{wd}/sf", args.docs)
    res["gen_s"] = round(time.perf_counter() - t0, 1)

    exp = expected_scores(args.docs)

    t0 = time.perf_counter()
    with RssSampler() as s:
        scored = nb_classifier_scores(f"{wd}/sf").materialize()
        agg = scored.aggregate(Sum("n_tokens", alias_name="nt"))
        n = scored.count()
    res["nb_s"] = round(time.perf_counter() - t0, 1)
    res["rss_mb"] = {"start": round(s.samples[0], 1),
                     "peak": round(max(s.samples), 1),
                     "end": round(s.samples[-1], 1)}
    assert n == args.docs, (n, args.docs)
    assert int(agg["nt"]) == exp["sum_tokens"], (int(agg["nt"]), exp)
    res["sum_tokens"] = int(agg["nt"])

    # exact per-doc-type checks: docs 0 (de+boil), 1 (en+plain),
    # 3 (en+boil), 4 (de+plain) — requires docs > 4
    want = {0: exp["de_boil"], 1: exp["en_plain"],
            3: exp["en_boil"], 4: exp["de_plain"]}
    def pick(batch):
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch.column("doc_id"),
                                     value_set=pa.array([0, 1, 3, 4])))

    import pyarrow as pa

    got = {r["doc_id"]: r["nb_llr"]
           for r in scored.map_batches(
               pick, batch_format="pyarrow").take_all()}
    for d, w in want.items():
        assert abs(got[d] - w) < 1e-9, (d, got[d], w)
    res["sample_llr"] = {str(d): round(got[d], 6) for d in sorted(got)}

    # the exchange's tuple metric carried the exact global constants
    with open(glob_meta()) as f:
        meta = json.load(f)
    for k in ("total_pos", "total_neg", "vsize"):
        assert meta[k] == exp[k], (k, meta[k], exp[k])

    print(json.dumps(res))
    ray.shutdown()
    shutil.rmtree(wd, ignore_errors=True)


def glob_meta() -> str:
    import glob

    hits = glob.glob("/tmp/indri55_nbcg/*/meta.json")
    assert len(hits) == 1, hits
    return hits[0]


if __name__ == "__main__":
    main()
