"""Same-process, interleaved A/B of BM25 query CPU between two checkouts.

Run from the repository root, naming a second checkout (e.g. the parent
commit unpacked with ``git archive``):

    python3 tools/ab_query_cpu.py --base ../parent --seed 0 --queries 4000

The second checkout's ``indri_5_5_ray`` is loaded under an alias beside
this tree's package (the package imports itself only relatively), so both
run in one process on one index: the seed's benchmark corpus
(``perfbench/run.py`` ``write_corpus``), built once by this tree.  Both
sides' ``QueryWorker`` then run call by call over ``perfbench/workload.py``'s
two streams, the side that goes first alternating from call to call, so
host drift between separate processes does not enter the comparison.

Per workload and side it prints the p50 and p99 CPU-ms of a query (a
``query_interactive`` call; a ``trec_batch`` topic's scoring, as
perfbench times it), queries per CPU-second of the calls, and the p50 by
the number of words in the query.  It exits 1 if any result row (qid,
rank, doc_id, docno, score) differs between the sides.  Both sides must
read this tree's index format.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALIAS = "indri_5_5_ray_base"
COLUMNS = ["qid", "rank", "doc_id", "docno", "score"]


def load_base(checkout: Path):
    """``pipelines.run`` of the package in ``checkout``, imported as
    ``ALIAS``."""
    init = checkout / "indri_5_5_ray" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        ALIAS, init, submodule_search_locations=[str(init.parent)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[ALIAS] = mod
    spec.loader.exec_module(mod)
    return importlib.import_module(f"{ALIAS}.pipelines.run")


def build(seed: int, work: Path, nproc: int) -> None:
    """The seed's benchmark corpus and its index, built by this tree."""
    import ray

    import run as bench
    import workload as W
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    shutil.rmtree(work / "corpus", ignore_errors=True)
    bench.write_corpus(seed, str(work / "corpus"))
    ray.init(num_cpus=nproc, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR")
    try:
        build_index(str(work / "corpus"), str(work / "index"),
                    IndexConfig(dedup_key="sha256",
                                max_chunk_docs=W.MAX_CHUNK_DOCS),
                    resume=False)
    finally:
        ray.shutdown()


class Side:
    """One checkout's ``QueryWorker``: the CPU of every call and of every
    topic's scoring."""

    def __init__(self, name: str, run_mod, index: Path, k: int):
        self.name = name
        self.worker = run_mod.QueryWorker(str(index), k=k)
        self.topic_cpu: list[float] = []
        self.call_cpu: list[float] = []
        self.topics = 0
        score = self.worker._score

        def timed(*a, **kw):
            c0 = time.process_time()
            out = score(*a, **kw)
            self.topic_cpu.append(time.process_time() - c0)
            return out

        self.worker._score = timed

    def call(self, batch, record: bool):
        mark = len(self.topic_cpu)
        c0 = time.process_time()
        out = self.worker(batch)
        cpu = time.process_time() - c0
        if record:
            self.call_cpu.append(cpu)
            self.topics += batch.num_rows
        else:
            del self.topic_cpu[mark:]
        return out


def run_workload(workload: str, index: Path, seed: int, base_run, head_run,
                 n_queries: int) -> bool:
    """Both sides over one workload's stream → True when every row
    matched."""
    import pyarrow as pa

    import run as bench
    import workload as W

    vocab = bench.index_vocab(index)
    if workload == "query_interactive":
        k = W.INTERACTIVE_K
        warm, timed = W.interactive_queries(vocab, seed)
        warm_calls = [[(f"w{i}", t)] for i, t in enumerate(warm)]
        calls = bench.interactive_calls(timed[:n_queries])
        per_call = True
    else:
        k = W.TREC_K
        warm, timed = W.trec_queries(vocab, seed)
        warm_calls = [[(f"w{i}", t) for i, t in enumerate(warm)]]
        calls = bench.trec_calls(timed[:n_queries])
        per_call = False
    sides = [Side("base", base_run, index, k), Side("head", head_run, index, k)]

    def batch(qs):
        return pa.table({"qid": pa.array([q for q, _ in qs], pa.string()),
                         "text": pa.array([t for _, t in qs], pa.string())})

    for qs in warm_calls:
        for s in sides:
            s.call(batch(qs), record=False)
    words: list[int] = []
    bad = 0
    for i, qs in enumerate(calls):
        b = batch(qs)
        outs = {}
        for s in (sides if i % 2 == 0 else sides[::-1]):
            outs[s.name] = s.call(b, record=True).select(COLUMNS)
        if not outs["base"].equals(outs["head"]):
            bad += 1
            if bad <= 3:
                print(f"{workload}: rows differ for {qs[0][0]} {qs[0][1]!r}",
                      file=sys.stderr)
        words += [len(t.split()) for _, t in qs]
    print(f"{workload}: {sides[0].topics} queries, k={k}, rows differ in "
          f"{bad} calls")
    p50 = []
    for s in sides:
        ms = [x * 1000 for x in (s.call_cpu if per_call else s.topic_cpu)]
        by_n = {}
        for n, x in zip(words, ms):
            by_n.setdefault(min(n, 4), []).append(x)
        ms.sort()
        p50.append(W.percentile(ms, 50))
        print(f"  {s.name:4s} p50 {p50[-1]:.3f} ms  "
              f"p99 {W.percentile(ms, 99):.3f} ms  "
              f"{s.topics / sum(s.call_cpu):.1f} queries/cpu-s  p50 by words: "
              + "  ".join(f"{n}:{statistics.median(v):.3f}"
                          for n, v in sorted(by_n.items())))
    print(f"  head/base p50 {100 * (p50[1] / p50[0] - 1):+.1f}%")
    return bad == 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, type=Path,
                    help="the other checkout (its root directory)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--queries", type=int, default=2000,
                    help="timed queries per workload")
    ap.add_argument("--workload", choices=("query_interactive", "trec_batch"),
                    action="append", help="default: both")
    ap.add_argument("--workdir", type=Path,
                    help="keep the corpus and index here, and reuse them "
                         "when present (default: a temporary directory)")
    ap.add_argument("--cpus", type=int, default=2, help="Ray CPUs of the build")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "perfbench")]
    base_run = load_base(args.base.resolve())
    head_run = importlib.import_module("indri_5_5_ray.pipelines.run")
    work = args.workdir or Path(tempfile.mkdtemp(prefix="ab_query_cpu-"))
    index = work / "index"
    try:
        if not (index / "manifest.json").exists():
            t0 = time.perf_counter()
            build(args.seed, work, args.cpus)
            print(f"built the seed-{args.seed} index in "
                  f"{time.perf_counter() - t0:.1f} s")
        ok = True
        for wl in args.workload or ["query_interactive", "trec_batch"]:
            ok &= run_workload(wl, index, args.seed, base_run, head_run,
                               args.queries)
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
