"""Seeded inputs of the benchmark: corpus size and the two query streams.

Pure Python with no engine or Ray import, so the unit tests beside this file
run without either.  Everything here is a function of the seed and of the
index dictionary the seed's corpus produced.
"""

from __future__ import annotations

import itertools
import math
import random

# Corpus: one synthetic_corpus(N_ROWS, seed) table written as N_ROWS /
# ROWS_PER_FILE parquet files.  MAX_CHUNK_DOCS is chosen so that docs/ holds
# 48 files, well over the 32-fragment point where IndexReader._point_read
# switches from per-row-group reads to one dataset-wide scan: k=1000 pages
# take the wide path and k=10 pages the per-row-group path.  At 2,048 docs a
# chunk, 48 files would need ~80k rows and a run would not fit its time; at
# 256, fixed per-chunk costs (Ray task, parquet open and write, lineage
# record) weigh 8x more in the build metrics.
N_ROWS = 12_000
ROWS_PER_FILE = 4_000
MAX_CHUNK_DOCS = 256

# The query stream runs until MIN_QUERIES untraced queries ran, as p99
# needs at least ten samples beyond it.  MAX_QUERY_SECONDS only keeps a
# stalled run inside its time limit; a stream it cuts short fails a check.
MIN_QUERIES = 1_000
MAX_QUERY_SECONDS = 90.0

# queries in the one timed run_queries call of a traced run
RUN_QUERIES_BATCH = 200

INTERACTIVE_K = 10
INTERACTIVE_WARM = 100
INTERACTIVE_POOL = 6_000

TREC_K = 1_000  # IndriRunQuery's default result count
TREC_WARM = 100
TREC_BATCH = 200  # topics per batch, run as 16 slices
TREC_HEAD = 32  # terms counted as head terms; every other term is used once
TREC_HEAD_P = 0.25  # chance that a query term is a head term


def zipf_cum_weights(n: int, s: float = 1.0) -> list[float]:
    """Cumulative Zipf weights 1/r^s for ranks 1..n."""
    return list(itertools.accumulate(1.0 / (r ** s) for r in range(1, n + 1)))


def interactive_queries(vocab: list[str], seed: int, n_warm: int = INTERACTIVE_WARM,
                        n_timed: int = INTERACTIVE_POOL) -> tuple[list[str], list[str]]:
    """(warm-up, timed) query texts of 1-4 terms drawn Zipf-weighted by
    ``vocab`` rank (most frequent first).  Both sets are distinct texts and
    no timed text occurs in the warm-up set, so head terms arrive cached and
    tail terms arrive first-touch."""
    rng = random.Random(f"interactive:{seed}")
    cum = zipf_cum_weights(len(vocab))
    warm: list[str] = []
    timed: list[str] = []
    seen: set[str] = set()
    while len(timed) < n_timed:
        text = " ".join(rng.choices(vocab, cum_weights=cum, k=rng.randint(1, 4)))
        if text in seen:
            continue
        seen.add(text)
        (warm if len(warm) < n_warm else timed).append(text)
    return warm, timed


def trec_queries(vocab: list[str], seed: int, n_warm: int = TREC_WARM
                 ) -> tuple[list[str], list[str]]:
    """(warm-up, timed) topic texts for the TREC batch: 1-4 terms, each a
    head term (one of the ``TREC_HEAD`` most frequent) with probability
    ``TREC_HEAD_P`` and otherwise a tail term that no other topic of either
    set uses.  The timed set takes every tail term left after the warm-up."""
    rng = random.Random(f"trec:{seed}")
    head, tail = vocab[:TREC_HEAD], list(vocab[TREC_HEAD:])
    rng.shuffle(tail)
    fresh = iter(tail)
    out: list[str] = []
    while True:
        terms = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < TREC_HEAD_P:
                terms.append(rng.choice(head))
            else:
                t = next(fresh, None)
                if t is None:
                    return out[:n_warm], out[n_warm:]
                terms.append(t)
        out.append(" ".join(terms))


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_vals:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100 * len(sorted_vals))
    return sorted_vals[min(len(sorted_vals), max(1, rank)) - 1]
