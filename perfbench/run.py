"""Benchmark of the index build and BM25 retrieval, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload query_interactive --seed 1 --seconds 10 --trace 0

Every run builds an index from a seeded synthetic corpus, simulates a crash
after ingest and resumes the build, then runs the workload's query stream
for ``--seconds`` and until ``workload.MIN_QUERIES`` queries ran.  A traced
run then times one ``run_queries`` call, the Ray path.  Outputs are checked
against an exhaustive BM25 reference and the docs/ table.  Then the
index is built once more, and the crash and resume run again.
Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  The line
before it holds host facts and run details.  RATIONALE.md explains the
workloads and metrics, and why query timings are CPU time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workload as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
GOLDEN_QUERIES = 50
WORKLOADS = ("query_interactive", "trec_batch")
# Ray gets the CPUs this process may run on, at most this many, so a large
# host still runs few worker processes.
MAX_RAY_CPUS = 4
# The build runs once before the query stream and once more after the
# checks, and the faster run is reported: other tenants of the host only
# slow a run down, and their slow spells last seconds, so runs half a
# minute apart rarely share one.  The crash-and-resume runs this many times
# on each side, and the median of all is reported, since one resume spreads
# by up to 40% on a shared host.
RESUME_REPEATS = 3
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets ~64
# bytes below its temp dir, so a deep checkout falls back to Ray's default.
RAY_SOCKET_SUFFIX = 64


# -- processes ---------------------------------------------------------------------


def proc_stat(pid: int | str) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 onward)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def descendants(pid: int) -> set[int]:
    """PIDs of every live process below ``pid`` in the process tree."""
    parent_of = {}
    for d in os.listdir("/proc"):
        if d.isdigit() and (st := proc_stat(d)) is not None:
            parent_of[int(d)] = int(st[1])
    out: set[int] = set()
    frontier = {pid}
    while frontier:
        frontier = {c for c, p in parent_of.items() if p in frontier} - out
        out |= frontier
    return out


def alive(pid: int) -> bool:
    st = proc_stat(pid)
    return st is not None and st[0] != "Z"


def start_ray(nproc: int, run_dir: Path) -> None:
    import ray

    env_path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (str(ROOT) if not env_path
                                else f"{ROOT}{os.pathsep}{env_path}")
    temp = ROOT / ".br"
    kw = {}
    if len(str(temp)) + RAY_SOCKET_SUFFIX <= 107:
        kw["_temp_dir"] = str(temp)
    ray.init(num_cpus=nproc, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", object_store_memory=256 << 20,
             _plasma_directory=str(run_dir), **kw)


def stop_ray(started: set[int]) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    session = None
    try:
        session = ray._private.worker._global_node.get_session_dir_path()
    except AttributeError:
        pass
    ray.shutdown()
    deadline = time.monotonic() + 20
    while any(alive(p) for p in started) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in started:
        if alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while any(alive(p) for p in started) and time.monotonic() < deadline + 10:
        time.sleep(0.1)
    if session and Path(session).resolve().is_relative_to(ROOT):
        shutil.rmtree(session, ignore_errors=True)


# -- host facts ---------------------------------------------------------------


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            vals = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (vals[7] if len(vals) > 7 else 0), sum(vals)


def steal_since(before: tuple[int, int]) -> float:
    steal, total = cpu_jiffies()
    return (steal - before[0]) / max(1, total - before[1])


def fastest_run(runs: list[dict]) -> tuple[dict, list[float]]:
    """→ (the run with the least "wall", every run's wall seconds)."""
    return min(runs, key=lambda r: r["wall"]), [r["wall"] for r in runs]


def host_facts(nproc: int) -> dict:
    import pyarrow
    import ray

    commit = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = p.stdout.strip() or None
    # the benchmark checkout is not a git repository: identify the engine by
    # the digest of its sources instead
    h = hashlib.sha256()
    for p in sorted((ROOT / "indri_5_5_ray").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "ray_cpus": nproc,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": sys.version.split()[0], "git_commit": commit,
            "engine_sha256": h.hexdigest()[:16]}


# -- corpus and index -------------------------------------------------------------


def write_corpus(seed: int, corpus_dir: str) -> None:
    """Write the seed's corpus table as ROWS_PER_FILE-row parquet files."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.sources.corpus import synthetic_corpus

    table = synthetic_corpus(W.N_ROWS, seed=seed)
    Path(corpus_dir).mkdir(parents=True)
    for i in range(0, W.N_ROWS, W.ROWS_PER_FILE):
        pq.write_table(table.slice(i, W.ROWS_PER_FILE),
                       Path(corpus_dir) / f"corpus-{i // W.ROWS_PER_FILE:05d}.parquet")


def start_corpus_writer(seed: int, corpus_dir: Path) -> subprocess.Popen:
    """Run write_corpus in a child process, so that it overlaps Ray's start."""
    path = [str(HERE), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.Popen(
        [sys.executable, "-c", f"import run; run.write_corpus({seed}, {str(corpus_dir)!r})"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})


def warm_workers(nproc: int) -> None:
    """Import the engine in every Ray worker so the build starts warm."""
    import ray

    @ray.remote(num_cpus=1)
    def _import_engine() -> None:
        import polars  # noqa: F401

        import indri_5_5_ray.pipelines.query  # noqa: F401
        import indri_5_5_ray.stages.ingest  # noqa: F401
        import indri_5_5_ray.stages.postings  # noqa: F401

        time.sleep(0.2)  # hold the CPU so each task lands on its own worker

    ray.get([_import_engine.remote() for _ in range(nproc)])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def distinct_content_count(corpus_dir: Path) -> int:
    """Distinct content sha256s in the corpus files, counted without the engine."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    col = pq.read_table(corpus_dir, columns=["content"]).column("content")
    col = col.cast(pa.large_binary()).to_pylist()
    return len({hashlib.sha256(c).digest() for c in col})


def build_layers(index_dir: Path, manifest: dict, nproc: int) -> dict:
    """Build layers from the manifest timings and the lineage records."""
    from indri_5_5_ray.state.lineage import all_records

    recs = all_records(str(index_dir))
    ingest = sorted(r["wall_ms"] for r in recs if r["stage"] == "ingest")
    merge = sorted(r["wall_ms"] for r in recs if r["stage"] == "merge")
    t = manifest["timings"]
    busy_s = (sum(ingest) + sum(merge)) / 1000 / nproc
    return {
        "build.dedup_s": t["dedup_s"],
        "build.ingest_s": t["ingest_s"],
        "build.merge_s": t["merge_s"],
        "build.sched_overhead_s": t["ingest_s"] + t["merge_s"] - busy_s,
        "ingest.chunk_ms.p50": statistics.median(ingest),
        "ingest.chunk_ms.max": ingest[-1],
        "merge.bucket_ms.max_over_median": merge[-1] / statistics.median(merge),
    }


def traced_build_sample(corpus_dir: Path, index_dir: Path, cfg, scratch: Path) -> dict:
    """Run every 4th ingest chunk and merge bucket in-process, traced, into
    ``scratch``; the merge reads the real build's partials."""
    from dataclasses import asdict

    import pyarrow as pa
    import pyarrow.parquet as pq

    import indri_5_5_ray.stages.ingest as ingest_mod
    import indri_5_5_ray.stages.postings as postings_mod
    import indri_5_5_ray.tokenizer as tokenizer_mod
    from indri_5_5_ray.sources.corpus import plan_chunks

    losers = index_dir / "dedup_losers"
    losers_path = str(losers) if any(losers.glob("*.parquet")) else None
    chunks = plan_chunks(str(corpus_dir), max_chunk_docs=cfg.max_chunk_docs)[::4]
    ingest_worker = ingest_mod.IngestWorker(str(scratch), cfg.to_dict(), losers_path)
    merge_worker = postings_mod.MergeWorker(
        str(scratch), cfg.to_dict(), "traced-sample",
        partials_dir=str(index_dir / "partials"))
    tr = spans.Tracer()
    tr.wrap(ingest_mod, "read_chunk", "corpus.read_chunk")
    tr.wrap(tokenizer_mod, "scan_raw_chunk", "tokenizer.scan")
    tr.wrap(ingest_mod, "_accumulate_chunk", "ingest.term_process")
    tr.wrap(postings_mod, "cut_blocks_pre", "codec.cut_blocks")
    tr.wrap(pq, "write_table", "parquet.write")
    tr.wrap(pq.ParquetWriter, "write_table", "parquet.write")
    try:
        ingest_worker(pa.Table.from_pylist([asdict(c) for c in chunks]))
        merge_worker(pa.table({"bucket": pa.array(range(0, cfg.n_buckets, 4), pa.int32())}))
    finally:
        tr.unwrap_all()
    tot = tr.totals()
    return {f"{name}.s": tot.get(name, 0.0) for name in (
        "corpus.read_chunk", "tokenizer.scan", "ingest.term_process",
        "codec.cut_blocks", "parquet.write")}


def index_vocab(index_dir: Path) -> list[str]:
    """Dictionary terms, most documents first (ties by term)."""
    import pyarrow.parquet as pq

    t = pq.read_table(index_dir / "dictionary", columns=["term", "df"])
    t = t.sort_by([("df", "descending"), ("term", "ascending")])
    return t.column("term").to_pylist()


# -- query tracing ------------------------------------------------------------------


def install_query_tracer(tr: spans.Tracer) -> None:
    import pyarrow.compute as pc

    import indri_5_5_ray.pipelines.query as q
    import indri_5_5_ray.pipelines.run as run_mod

    tr.wrap(run_mod, "process_query", "query.process_query")
    tr.wrap(q.IndexReader, "term_stats", "query.term_stats")
    tr.wrap(q.IndexReader, "term_rows", "query.term_rows", lambda a, out: {
        "blocks_fetched": pc.sum(pc.list_value_length(
            out.column("block_offset"))).as_py() or 0})
    # the parquet fetch behind term_rows' per-reader cache: bytes read cold
    tr.wrap(q.IndexReader, "_read_term_rows", None, lambda a, out: {
        "term_rows_bytes": pc.sum(pc.binary_length(
            out.column("postings"))).as_py() or 0})
    tr.wrap(q, "decode_doc_tf_batch", "codec.decode",
            lambda a, out: {"blocks_decoded": len(a[1])})
    tr.wrap(q, "decode_block", "codec.decode",
            lambda a, out: {"blocks_decoded": 1})
    tr.wrap(q.BM25Scorer, "score_blockmax", "query.score")
    tr.wrap(q, "_topk", "query.topk", lambda a, out: {"topk_candidates": len(a[0])})
    tr.wrap(q.IndexReader, "docnos", "query.docnos",
            lambda a, out: {"docno_ids": len(a[1])})


def query_layers(tr: spans.Tracer, n_queries: int, traced_ms: list[float],
                 untraced_ms: list[float]) -> dict:
    """Per-query means of the traced calls' layer times and counts."""
    tot, own, c = tr.totals(), tr.self_totals(), tr.counts
    n = max(1, n_queries)
    fetched = c.get("blocks_fetched", 0)
    return {
        "query.process_query.ms": tot.get("query.process_query", 0.0) * 1000 / n,
        "query.term_stats.ms": tot.get("query.term_stats", 0.0) * 1000 / n,
        "query.term_rows.ms": tot.get("query.term_rows", 0.0) * 1000 / n,
        "query.term_rows.bytes": c.get("term_rows_bytes", 0) / n,
        "codec.decode.ms": tot.get("codec.decode", 0.0) * 1000 / n,
        "codec.decode.blocks": c.get("blocks_decoded", 0) / n,
        "query.blocks_decoded_ratio": c.get("blocks_decoded", 0) / max(1, fetched),
        "query.score.self_ms": own.get("query.score", 0.0) * 1000 / n,
        "query.topk.ms": tot.get("query.topk", 0.0) * 1000 / n,
        "query.topk.candidates": c.get("topk_candidates", 0) / n,
        "query.docnos.ms": tot.get("query.docnos", 0.0) * 1000 / n,
        "query.docnos.ids": c.get("docno_ids", 0) / n,
        "trace.overhead_p50_ms": (statistics.median(traced_ms)
                                  - statistics.median(untraced_ms)),
    }


# -- query streams -------------------------------------------------------------------


class Results:
    """Timed query outputs, reduced between calls to what the correctness
    check needs: (qid, text, doc_ids, scores, docnos match docs/)."""

    def __init__(self, index_dir: Path) -> None:
        import numpy as np
        import pyarrow.parquet as pq

        docs = pq.read_table(index_dir / "docs", columns=["doc_id", "docno"])
        ids = docs.column("doc_id").to_numpy()
        self.docno_of = np.empty(int(ids.max()) + 1, dtype=object)
        self.docno_of[ids] = np.array(docs.column("docno").to_pylist(), dtype=object)
        self.rows: list[tuple] = []

    def add(self, qid: str, text: str, table) -> None:
        """``table`` holds one query's rows, or None for no rows."""
        import numpy as np

        if table is None:
            ids, scores, ok = np.empty(0, np.int64), np.empty(0, np.float64), True
        else:
            ids = table.column("doc_id").to_numpy()
            scores = table.column("score").to_numpy()
            docnos = np.array(table.column("docno").to_pylist(), dtype=object)
            ok = np.array_equal(docnos, self.docno_of[ids])
        self.rows.append((qid, text, ids, scores, ok))


def split_by_qid(table) -> dict:
    """qid → that query's rows of a QueryWorker result."""
    import numpy as np

    table = table.sort_by([("qid", "ascending"), ("rank", "ascending")])
    qids = table.column("qid").to_numpy(zero_copy_only=False)
    if not len(qids):
        return {}
    cuts = np.flatnonzero(qids[1:] != qids[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(qids)]))
    return {str(qids[s]): table.slice(s, e - s) for s, e in zip(starts, ends)}


class Stream:
    """Runs one in-process QueryWorker over a query stream and records the
    CPU time of every call and of every topic's scoring."""

    def __init__(self, index_dir: Path, k: int, tracer: spans.Tracer | None) -> None:
        from indri_5_5_ray.pipelines.run import QueryWorker

        self.worker = QueryWorker(str(index_dir), k=k)
        self.tracer = tracer
        self.topic_cpu: list[float] = []
        score = self.worker._score

        def timed_score(text):
            c0 = time.process_time()
            out = score(text)
            self.topic_cpu.append(time.process_time() - c0)
            return out

        self.worker._score = timed_score

    def call(self, qs: list[tuple[str, str]], traced: bool = False):
        """One QueryWorker call → (CPU seconds, result table or None)."""
        import pyarrow as pa

        batch = pa.table({"qid": pa.array([q for q, _ in qs], pa.string()),
                          "text": pa.array([t for _, t in qs], pa.string())})
        if traced:
            install_query_tracer(self.tracer)
            self.tracer.request = qs[0][0]
        c0 = time.process_time()
        try:
            out = self.worker(batch)
        except Exception as e:  # a failed query is counted, not fatal
            print(f"perfbench: query {qs[0][0]} failed: {e!r}", file=sys.stderr)
            out = None
        cpu = time.process_time() - c0
        if traced:
            self.tracer.unwrap_all()
        return cpu, out


def interactive_calls(timed: list[str]):
    """One call per query: closed loop, one client."""
    for i, text in enumerate(timed):
        yield [(f"q{i}", text)]


def trec_calls(timed: list[str]):
    """Batches of TREC_BATCH topics, each as the 16 round-robin slices
    run_queries forms with its default pool width."""
    for b in range(0, len(timed), W.TREC_BATCH):
        qs = [(f"t{b + j}", t) for j, t in enumerate(timed[b:b + W.TREC_BATCH])]
        n = min(len(qs), 16)
        for i in range(n):
            yield qs[i::n]


def run_stream(index_dir: Path, k: int, warm_calls: list, calls, seconds: float,
               call_latency: bool, tracer: spans.Tracer | None) -> dict:
    """Warm up, then make QueryWorker(k) calls until ``seconds`` have passed
    and MIN_QUERIES untraced queries ran (at most MAX_QUERY_SECONDS).  A
    query's latency is the CPU time of its call (``call_latency``) or of its
    scoring.  With a tracer, every other call is traced and the stream stops
    after MIN_QUERIES queries."""
    t_setup = time.perf_counter()
    s = Stream(index_dir, k, tracer)
    for c in warm_calls:
        s.call(c)
    setup_s = time.perf_counter() - t_setup

    lat_traced: list[float] = []
    lat_untraced: list[float] = []
    results = Results(index_dir)
    failed = n_calls = 0
    untraced_cpu = 0.0
    t_start = time.perf_counter()
    jiffies = cpu_jiffies()
    for sl in calls:
        elapsed = time.perf_counter() - t_start
        done = len(lat_untraced) if tracer is None else len(results.rows)
        enough = done >= W.MIN_QUERIES
        if elapsed >= W.MAX_QUERY_SECONDS or (enough and elapsed >= seconds):
            break
        traced = tracer is not None and n_calls % 2 == 0
        n_calls += 1
        mark = len(s.topic_cpu)
        cpu, out = s.call(sl, traced)
        if out is None:
            failed += len(sl)
            continue
        lat = [cpu] if call_latency else s.topic_cpu[mark:]
        if traced:
            lat_traced += lat
        else:
            lat_untraced += lat
            untraced_cpu += cpu
        rows = split_by_qid(out)
        for qid, text in sl:
            # a topic without result rows is checked against an empty reference
            results.add(qid, text, rows.get(qid))
    wall = time.perf_counter() - t_start
    return {"setup_s": setup_s, "wall_s": wall, "steal_pct": 100 * steal_since(jiffies),
            "untraced_cpu_s": untraced_cpu,
            "traced_latencies": lat_traced, "untraced_latencies": lat_untraced,
            "results": results.rows, "attempted": len(results.rows) + failed,
            "failed": failed}


def time_run_queries(index_dir: Path, k: int, warm: list[str], timed: list[str]) -> dict:
    """One run_queries(k) call over ``warm`` to give the Ray workers their
    query state, then one timed call over ``timed``.  This is the path the
    in-process stream leaves out: slicing, task dispatch, warm-worker reuse,
    concat and sort.  Returns queries per wall second and the timed call's
    rows for the checks."""
    from indri_5_5_ray.pipelines.run import run_queries

    qs = [(f"r{i}", t) for i, t in enumerate(timed)]
    try:
        run_queries(str(index_dir), [(f"rw{i}", t) for i, t in enumerate(warm)], k=k)
        t0 = time.perf_counter()
        out = run_queries(str(index_dir), qs, k=k)
        wall = time.perf_counter() - t0
    except Exception as e:  # counted as failed, like a failed stream call
        print(f"perfbench: run_queries failed: {e!r}", file=sys.stderr)
        return {"qps": 0.0, "wall_s": 0.0, "results": [], "failed": len(qs)}
    results = Results(index_dir)
    rows = split_by_qid(out)
    for qid, text in qs:
        results.add(qid, text, rows.get(qid))
    return {"qps": len(qs) / wall, "wall_s": wall, "results": results.rows, "failed": 0}


# -- correctness ----------------------------------------------------------------------


def exhaustive_refs(index_dir: Path, texts: list[str], k: int, nproc: int) -> dict:
    """text → BM25Scorer.score_exhaustive top-k, computed in parallel Ray
    tasks with a fresh IndexReader each."""
    import ray

    index = str(index_dir)

    @ray.remote(num_cpus=1)
    def _refs(part: list[str]) -> list[tuple]:
        from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query

        reader = IndexReader(index)
        scorer = BM25Scorer(reader)
        return [scorer.score_exhaustive(process_query(t, reader.cfg), k=k) for t in part]

    uniq = sorted(set(texts))
    parts = [uniq[i::nproc] for i in range(nproc)]
    outs = ray.get([_refs.remote(p) for p in parts])
    return {t: ref for part, out in zip(parts, outs) for t, ref in zip(part, out)}


def check_results(index_dir: Path, k: int, rows: list, nproc: int) -> tuple[int, str]:
    """Count results whose (doc_id, score) list differs from
    BM25Scorer.score_exhaustive or whose docnos differ from the docs/ table.
    Returns (incorrect count, digest of the first GOLDEN_QUERIES results)."""
    import numpy as np

    refs = exhaustive_refs(index_dir, [r[1] for r in rows], k, nproc)
    bad = 0
    digest = hashlib.sha256()
    for n, (qid, text, ids, scores, docnos_ok) in enumerate(rows):
        ref = refs[text]
        if not (docnos_ok and np.array_equal(ids, ref[0])
                and np.array_equal(scores, ref[1])):
            bad += 1
            if bad <= 3:
                print(f"perfbench: wrong result for {qid} {text!r}", file=sys.stderr)
        if n < GOLDEN_QUERIES:
            for d, sc in zip(ids.tolist(), scores.tolist()):
                digest.update(f"{n}\t{d}\t{sc:.9f}\n".encode())
    return bad, digest.hexdigest()


# -- one run -------------------------------------------------------------------------


def run(args) -> tuple[dict, dict, dict]:
    """One benchmark run → (result without metrics, details, metrics)."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    nproc = min(MAX_RAY_CPUS, len(os.sched_getaffinity(0)))
    jiffies = cpu_jiffies()
    run_dir = ROOT / ".br" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    corpus_dir, index_dir = run_dir / "corpus", run_dir / "index"
    cfg = IndexConfig(dedup_key="sha256", max_chunk_docs=W.MAX_CHUNK_DOCS)
    tracer = spans.Tracer() if args.trace else None
    checks: dict[str, bool] = {}
    m: dict[str, float] = {}
    wall: dict = {}
    started: set[int] = set()
    try:
        t0 = time.perf_counter()
        writer = start_corpus_writer(args.seed, corpus_dir)
        try:
            start_ray(nproc, run_dir)
            started = descendants(os.getpid()) - {writer.pid}
            warm_workers(nproc)
            started |= descendants(os.getpid()) - {writer.pid}
        finally:
            code = writer.wait()
        if code != 0:
            raise RuntimeError(f"the corpus writer exited with code {code}")
        wall["ray_corpus_warm"] = time.perf_counter() - t0

        # cold builds in a warm Ray session
        def build():
            t0 = time.perf_counter()
            manifest = build_index(str(corpus_dir), str(index_dir), cfg, resume=False)
            return {"wall": time.perf_counter() - t0, "manifest": manifest,
                    "layers": build_layers(index_dir, manifest, nproc)}

        builds = [build()]
        manifest = builds[0]["manifest"]
        checks["doc_count"] = manifest["doc_count"] == distinct_content_count(corpus_dir)
        corpus_bytes = dir_bytes(corpus_dir)
        m["index_bytes_per_corpus_byte"] = dir_bytes(index_dir) / corpus_bytes
        for sub in ("partials", "postings", "docs", "dictionary"):
            m[f"bytes.{sub}_per_corpus_byte"] = dir_bytes(index_dir / sub) / corpus_bytes

        # crash after ingest: the merge outputs and the completion marker are lost
        merged = {sub: tree_digest(index_dir / sub) for sub in ("postings", "dictionary")}

        def crash_and_resume():
            (index_dir / "manifest.json").unlink()
            for sub in merged:
                shutil.rmtree(index_dir / sub)
            t0 = time.perf_counter()
            timings = build_index(str(corpus_dir), str(index_dir), cfg, resume=True)["timings"]
            out = {"wall": time.perf_counter() - t0, "timings": timings}
            checks["resume_identical"] = checks.get("resume_identical", True) and all(
                tree_digest(index_dir / sub) == d for sub, d in merged.items())
            return out

        resumes = [crash_and_resume() for _ in range(RESUME_REPEATS)]

        if args.trace:
            m.update(traced_build_sample(corpus_dir, index_dir, cfg,
                                         run_dir / "traced_build"))

        vocab = index_vocab(index_dir)
        if args.workload == "query_interactive":
            warm, timed = W.interactive_queries(vocab, args.seed)
            k = W.INTERACTIVE_K
            q = run_stream(index_dir, k, [[(f"w{i}", t)] for i, t in enumerate(warm)],
                           interactive_calls(timed), args.seconds, True, tracer)
        else:
            warm, timed = W.trec_queries(vocab, args.seed)
            k = W.TREC_K
            q = run_stream(index_dir, k, [[(f"w{i}", t) for i, t in enumerate(warm)]],
                           trec_calls(timed), args.seconds, False, tracer)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall["query_warm"], wall["query_timed"] = q["setup_s"], q["wall_s"]
        lat = sorted(q["untraced_latencies"])
        if tracer is None:
            # p99 needs at least ten samples beyond it
            checks["p99_samples"] = len(lat) >= W.MIN_QUERIES
        m["query_cpu_p50_ms"] = W.percentile(lat, 50) * 1000
        m["query_cpu_p99_ms"] = W.percentile(lat, 99) * 1000
        # on trec_batch the CPU of a call covers its slice's topics and docnos
        m["queries_per_cpu_s"] = len(lat) / q["untraced_cpu_s"]

        rq = {"results": [], "failed": 0}
        if args.trace:
            rq = time_run_queries(index_dir, k, warm, timed[:W.RUN_QUERIES_BATCH])
            m["run_queries.qps"] = rq["qps"]
            wall["run_queries_timed"] = rq["wall_s"]

        t0 = time.perf_counter()
        # the run_queries rows come after the stream's, so the golden digest
        # covers the stream alone
        wrong, digest = check_results(index_dir, k, q["results"] + rq["results"], nproc)
        wall["check"] = time.perf_counter() - t0
        # the checks are done with the index, so the second build and the
        # rest of the resumes may rewrite it
        builds.append(build())
        checks["rebuild_identical"] = all(
            tree_digest(index_dir / sub) == d for sub, d in merged.items())
        built, wall["builds"] = fastest_run(builds)
        m["build_docs_per_s"] = manifest["doc_count"] / built["wall"]
        m.update(built["layers"])
        m["setup_s"] = (wall["ray_corpus_warm"] + statistics.median(wall["builds"])
                        + wall["query_warm"])
        resumes += [crash_and_resume() for _ in range(RESUME_REPEATS)]
        wall["resumes"] = [r["wall"] for r in resumes]
        m["resume_s"] = statistics.median(wall["resumes"])
        # the resume layers come from the run at (or just below) the median
        resumed = sorted(resumes, key=lambda r: r["wall"])[(len(resumes) - 1) // 2]
        m["resume.ingest_s"] = resumed["timings"]["ingest_s"]
        m["resume.merge_s"] = resumed["timings"]["merge_s"]
        if args.seed == GOLDEN_SEED:
            checks["golden"] = json.loads(GOLDEN.read_text()).get(args.workload) == digest
        if tracer is not None:
            m.update(query_layers(tracer, len(q["traced_latencies"]),
                                  [x * 1000 for x in q["traced_latencies"]],
                                  [x * 1000 for x in q["untraced_latencies"]]))
            tracer.dump(str(ROOT / ".br" / f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        if started:
            stop_ray(started)
        shutil.rmtree(run_dir, ignore_errors=True)

    failed_checks = [name for name, ok in checks.items() if not ok]
    # every build, resume and query, plus each whole-index check
    attempted = (len(builds) + len(resumes) + q["attempted"]
                 + len(rq["results"]) + rq["failed"] + len(checks))
    failed = q["failed"] + rq["failed"] + wrong + len(failed_checks)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": {**host_facts(nproc),
                 "steal_pct": 100 * steal_since(jiffies)},
        "doc_count": manifest["doc_count"], "queries": q["attempted"],
        "incorrect": wrong,
        "failed_checks": failed_checks, "golden_digest": digest,
        "wall_s": wall,
        "latency_samples": len(lat), "query_steal_pct": q["steal_pct"],
        "ray_temp_in_checkout": len(str(ROOT / ".br")) + RAY_SOCKET_SUFFIX <= 107,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}, details, m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    try:
        import indri_5_5_ray
    except ImportError as e:
        print(f"perfbench: the engine package is not in {ROOT}: {e}", file=sys.stderr)
        return 2
    if not Path(indri_5_5_ray.__file__).resolve().is_relative_to(ROOT):
        print(f"perfbench: imported the engine from {indri_5_5_ray.__file__}, "
              f"not from {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    result, details, m = run(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [x["name"] for x in wanted if x["name"] not in m]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps(details), flush=True)
    result["metrics"] = {x["name"]: {"value": m[x["name"]], "unit": x["unit"]}
                         for x in wanted}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
