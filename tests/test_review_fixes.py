"""Regression tests for the code-review findings."""

from __future__ import annotations

import numpy as np
import pytest


def test_empty_and_overlong_terms_get_termid0_semantics():
    """ref:src/MemoryIndex.cpp:559-570 — empty words and words ≥
    MAX_KEY_LENGTH-1 bytes emit termID 0: the position slot counts toward
    dl but no posting exists."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.stages.ingest import TermProcessor

    proc = TermProcessor(IndexConfig(stemmer=None))
    assert proc.process("") is None
    assert proc.process("a" * 511) is None
    assert proc.process("a" * 510) == "a" * 510
    # the "'''" token normalizes to empty → dropped from postings
    assert proc.process_raw(b"'") is None


def test_term_rows_are_views_of_the_mapped_file(built_index):
    """term_rows copies no payload and keeps no per-term state: the rows'
    payload bytes lie inside the mapped bucket files, a repeated fetch is
    equal, and a reader holds at most one map per bucket however many
    terms it looks up."""
    import pyarrow.parquet as pq

    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    r = IndexReader(out)
    rows = r.term_rows(["merge", "token"])
    assert set(rows.column("term").to_pylist()) == {"merge", "token"}
    spans = [(b.address, b.address + b.size) for bf in r._maps.values()
             for b in [bf.rows.column("postings").chunk(0).buffers()[2]]]
    for chunk in rows.column("postings").chunks:
        data = chunk.buffers()[2]
        assert any(lo <= data.address < hi for lo, hi in spans)
    assert r.term_rows(["token", "merge"]).equals(rows)
    vocab = pq.read_table(f"{out}/dictionary", columns=["term"]).column(
        "term").to_pylist()
    r.term_stats(vocab)
    assert len(r._maps) == r.cfg.n_buckets


def test_resume_rejects_config_change(small_corpus_dir, tmp_path):
    """A config change must invalidate previously-ingested chunk lineage."""
    import json
    from pathlib import Path

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.state.lineage import all_records

    out = str(tmp_path / "idx")
    cfg1 = IndexConfig(stemmer=None, max_chunk_docs=64, n_buckets=4, dedup_key=None)
    build_index(small_corpus_dir, out, cfg1, resume=False)
    # simulate crash after ingest, then resume with a DIFFERENT stemmer
    (Path(out) / "manifest.json").unlink()
    import shutil

    shutil.rmtree(Path(out) / "postings")
    shutil.rmtree(Path(out) / "dictionary")
    cfg2 = IndexConfig(stemmer="porter", max_chunk_docs=64, n_buckets=4, dedup_key=None)
    m = build_index(small_corpus_dir, out, cfg2, resume=True)
    # chunks were re-ingested under the new config (no stale kstem/None mix):
    # porter vocabulary present
    import pyarrow.parquet as pq

    vocab = set(pq.read_table(f"{out}/dictionary", columns=["term"]).column("term").to_pylist())
    assert "merg" in vocab  # porter stem — proves re-ingest happened


def test_sharded_dense_memory_is_span_sized(built_index):
    """doc_range scoring must not allocate over the full doc space."""
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query

    out, _ = built_index
    r = IndexReader(out)
    sc = BM25Scorer(r)
    terms = process_query("merge token", r.cfg)
    full_ids, full_scores = sc.score_exhaustive(terms, k=1000)
    lo, hi = 100, 164
    part_ids, part_scores = sc.score_exhaustive(terms, k=1000, doc_range=(lo, hi))
    assert ((part_ids >= lo) & (part_ids < hi)).all()
    full = dict(zip(full_ids.tolist(), full_scores.tolist()))
    for d, s in zip(part_ids.tolist(), part_scores.tolist()):
        assert full[d] == s


def test_topk_nan_scores_fall_back_to_full_sort():
    """A NaN at the argpartition boundary must not wipe the result set —
    finite-scored docs still rank (score desc, doc_id desc), NaNs last."""
    from indri_5_5_ray.pipelines.query import _topk

    n = 100
    ids = np.arange(n, dtype=np.int64)
    scores = np.linspace(1.0, 2.0, n)
    scores[90:] = np.nan  # NaNs occupy the top of an argpartition
    top_ids, top_s = _topk(ids, scores, k=5)
    assert len(top_ids) == 5
    assert not np.isnan(top_s).any()
    assert list(top_ids) == [89, 88, 87, 86, 85]


def test_topk_prune_matches_full_sort_with_ties():
    """Pruned top-k == full lexsort top-k, including boundary ties broken
    by doc_id desc (fuzz over random tie-heavy inputs)."""
    from indri_5_5_ray.pipelines.query import _topk

    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(10, 3000))
        ids = rng.permutation(n).astype(np.int64)
        scores = rng.integers(0, 7, n).astype(np.float64)  # heavy ties
        k = int(rng.integers(1, 50))
        got_i, got_s = _topk(ids, scores, k)
        order = np.lexsort((-ids, -scores))[:k]
        assert np.array_equal(got_i, ids[order])
        assert np.array_equal(got_s, scores[order])
    # just above TOPK_BOUND_ROWS·k rows the chunk-max bound drops rows
    # first; k=100 at n=6,401 is where ceil-sized chunks (65 rows) would
    # give only 99 chunks, too few to bound the 100th score
    from indri_5_5_ray.pipelines.query import TOPK_BOUND_ROWS

    for k, n in ((1, 65), (7, 449), (100, 6_401), (1000, 64_001),
                 (100, 6_499), (7, 1_000)):
        assert n > TOPK_BOUND_ROWS * k
        for kind in ("ties", "negative", "inf", "nan"):
            ids = rng.permutation(n).astype(np.int64)
            if kind == "ties":
                scores = rng.integers(0, 7, n).astype(np.float64)
            else:  # negative BM25 scores (common terms) and a few ties
                scores = np.round(rng.normal(-1.0, 2.0, n), 1)
            if kind == "inf":
                scores[rng.choice(n, 3, replace=False)] = np.inf
                scores[rng.choice(n, n // 3, replace=False)] = -np.inf
            if kind == "nan":  # a few NaNs, all inside one chunk
                at = int(rng.integers(0, n - 5))
                scores[at:at + 3] = np.nan
            got_i, got_s = _topk(ids, scores, k)
            order = np.lexsort((-ids, -scores))[:k]
            assert np.array_equal(got_i, ids[order]), (k, n, kind)
            assert np.array_equal(got_s, scores[order], equal_nan=True)
        # one high row at the head of every 65-row chunk and a lower one
        # inside the first: the least of those fewer-than-k chunk maxima
        # would drop a row of the top k
        scores = np.zeros(n)
        heads = np.arange(0, n, 65)
        scores[heads] = 10.0 + np.arange(len(heads))
        scores[1] = 5.0
        ids = np.arange(n, dtype=np.int64)
        got_i, got_s = _topk(ids, scores, k)
        order = np.lexsort((-ids, -scores))[:k]
        assert np.array_equal(got_i, ids[order]), (k, n, "chunk heads")


def test_sparse_docid_base_scores_equal_and_accumulator_bounded(
        small_corpus_dir, tmp_path):
    """The same corpus built at doc_id base 0 and at base 50M scores
    identically, ids shifted by exactly 50M, and the scorer's own peak
    allocation stays window-sized: the dense accumulator spans the decoded
    doc ids, never [0, max_doc_id]."""
    import tracemalloc

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import (BM25Scorer, IndexReader,
                                               process_query)

    base = 50_000_000
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key=None)
    out0, out1 = str(tmp_path / "base0"), str(tmp_path / "sparse")
    build_index(small_corpus_dir, out0, cfg, resume=False)
    build_index(small_corpus_dir, out1, cfg, resume=False, doc_id_base=base)
    r0, r1 = IndexReader(out0), IndexReader(out1)
    terms = process_query("merge buffer token", r0.cfg)
    ids0, s0 = BM25Scorer(r0).score_exhaustive(terms, k=10)
    sc = BM25Scorer(r1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ids1, s1 = sc.score_exhaustive(terms, k=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids0) == 10
    assert np.array_equal(ids1, ids0 + base)
    assert np.array_equal(s1, s0)
    assert peak < 16 << 20, f"scorer peak {peak / 2**20:.1f} MB"


@pytest.fixture(scope="module")
def two_segment_repo(tmp_path_factory):
    """A two-segment repository (disjoint docID ranges) with tiny posting
    blocks, so hot terms span many blocks in each segment."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("two_seg")
    write_synthetic_corpus(str(d / "a"), 80, seed=31, rows_per_file=40)
    write_synthetic_corpus(str(d / "b"), 60, seed=32, rows_per_file=30)
    repo = Repository.create(str(d / "repo"), IndexConfig(
        dedup_key=None, n_buckets=4, max_chunk_docs=32, target_block_bytes=64))
    repo.add(str(d / "a"))
    repo.add(str(d / "b"))
    return repo


def _block_walk(index_dirs, terms, doc_range=None, doc_set=None,
                positions=False):
    """Reference for read_postings: every block of every posting file,
    decoded one at a time with decode_block, kept when it overlaps
    ``doc_range`` / holds a ``doc_set`` id, docs masked to ``doc_range``."""
    from pathlib import Path

    import pyarrow as pa

    from indri_5_5_ray.codec import decode_block

    lo, hi = doc_range or (0, 1 << 62)
    want = None if doc_set is None else set(doc_set)
    out: dict[str, list] = {}
    for index_dir in index_dirs:
        rows = pa.concat_tables([
            pa.ipc.open_file(f).read_all()
            for f in sorted(Path(index_dir, "postings").glob("*.arrow"))
        ]).sort_by([("term", "ascending"), ("first_doc", "ascending")]).to_pylist()
        for row in rows:
            if row["term"] not in terms:
                continue
            first = row["first_doc"]
            for off, ln, last, nb in zip(row["block_offset"],
                                         row["block_length"],
                                         row["block_last_doc"],
                                         row["block_n_docs"]):
                b_first, first = first, last + 1
                if last < lo or b_first >= hi:
                    continue
                if want is not None and not any(b_first <= x <= last
                                                for x in want):
                    continue
                d, tf, pos = decode_block(row["postings"][off:off + ln],
                                          b_first, nb, positions)
                cur = 0
                for did, n in zip(d.tolist(), tf.tolist()):
                    if lo <= did < hi:
                        out.setdefault(row["term"], []).append(
                            (did, n, pos[cur:cur + n].tolist()
                             if positions else None))
                    cur += n
    return out


def test_read_postings_matches_block_walk(built_index, two_segment_repo):
    """read_postings == a per-block decode_block walk over the raw posting
    files, for one index and a two-segment repository, with no range, a
    doc_range, a doc_set, and positions on and off: the zero-copy payload
    views must pair every block with its own row's bytes."""
    from indri_5_5_ray.pipelines.query import IndexReader, read_postings

    out, _ = built_index
    multi = two_segment_repo.reader()
    assert multi.index_dirs == two_segment_repo.segment_dirs()
    assert len(multi.index_dirs) == 2
    terms = ["merge", "token", "buffer", "int", "return", "zzzznotaterm"]
    for reader, dirs in ((IndexReader(out), [out]),
                         (multi, two_segment_repo.segment_dirs())):
        hi_doc = reader.manifest["max_doc_id"] + 1
        for kw in ({}, {"doc_range": (hi_doc // 3, 2 * hi_doc // 3)},
                   {"doc_set": [1, 7, hi_doc // 2, hi_doc - 1]}):
            for positions in (False, True):
                got = read_postings(reader, terms, positions=positions, **kw)
                want = _block_walk(dirs, terms, positions=positions, **kw)
                assert sorted(got) == sorted(want), kw
                for t, (d, tf, pos, starts) in got.items():
                    ref = want[t]
                    assert d.tolist() == [x[0] for x in ref], (t, kw)
                    assert tf.tolist() == [x[1] for x in ref], (t, kw)
                    if not positions:
                        assert pos is None and starts is None
                        continue
                    assert [pos[starts[i]:starts[i + 1]].tolist()
                            for i in range(len(d))] == [x[2] for x in ref]


def test_point_read_multi_index_reader(built_index):
    """Regression: _doc_texts moved onto reader._point_read, which the
    repository reader once lacked; a reader opened on a dir list reads
    like one opened on the dir."""
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = built_index
    single = IndexReader(out)
    multi = IndexReader([out])
    ids = single.docnos([0, 5, 17])
    t1 = single._point_read("docs", [0, 5, 17], ["doc_id", "dl"])
    t2 = multi._point_read("docs", [0, 5, 17], ["doc_id", "dl"])
    assert t1.sort_by("doc_id").equals(t2.sort_by("doc_id"))
    assert len(ids) == 3


@pytest.mark.parametrize("method", ["blockmax", "exhaustive"])
def test_bm25_has_no_scorer_method(built_index, method):
    """BM25 has one scorer: the old scorer names are refused as a
    ``method`` (which names only an LM smoothing) by the worker, the
    sharded runner and the daemon, and the default QueryWorker ranks like
    score_exhaustive."""
    import pyarrow as pa

    from indri_5_5_ray.pipelines.indrid import _QueryDaemon
    from indri_5_5_ray.pipelines.query import (BM25Scorer, IndexReader,
                                               process_query)
    from indri_5_5_ray.pipelines.run import QueryWorker, run_queries_sharded

    out, _ = built_index
    with pytest.raises(ValueError, match="smoothing"):
        QueryWorker(out, k=5, method=method)
    with pytest.raises(ValueError, match="smoothing"):
        run_queries_sharded(out, [("q", "merge buffer")], k=5, n_shards=2,
                            concurrency=2, method=method)
    with pytest.raises(ValueError, match="no method"):
        _QueryDaemon(out).run_query("merge buffer", k=5, method=method)
    got = QueryWorker(out, k=5)(pa.table({"qid": ["q"],
                                          "text": ["merge buffer"]}))
    r = IndexReader(out)
    ids, scores = BM25Scorer(r).score_exhaustive(
        process_query("merge buffer", r.cfg), k=5)
    assert got.column("doc_id").to_pylist() == ids.tolist()
    assert got.column("score").to_pylist() == scores.tolist()


def test_dxcount_skips_deleted_docs(built_index, tmp_path, capsys):
    """dumpindex dxcount counts only live documents: deleting one matching
    document lowers the count by one."""
    import shutil

    from indri_5_5_ray import cli
    from indri_5_5_ray.pipelines.query import IndexReader, read_postings

    out, _ = built_index
    idx = str(tmp_path / "idx")
    shutil.copytree(out, idx)
    cli.main([idx, "dxcount", "merge"])
    before = int(capsys.readouterr().out.split()[-1])
    victim = int(read_postings(IndexReader(idx), ["merge"])["merge"][0][0])
    cli.main([idx, "delete", str(victim)])
    capsys.readouterr()
    cli.main([idx, "dxcount", "merge"])
    assert int(capsys.readouterr().out.split()[-1]) == before - 1 > 0


def test_cli_scans_work_on_a_repository(two_segment_repo, capsys):
    """validate, vocabulary and stats read every segment of a repository
    reader: validate finds no errors, a term's vocabulary line sums its
    segments' dictionary rows, and stats reports the summed doc count."""
    import json

    from indri_5_5_ray import cli

    r = two_segment_repo.reader()
    cli.cmd_validate(r)
    assert capsys.readouterr().out.strip().endswith(" 0 errors")
    cli.cmd_vocabulary(r, "100000")
    vocab = {ln.split("\t")[0]: ln.split("\t")[1:]
             for ln in capsys.readouterr().out.splitlines()}
    cf, df = r.term_stats(["merge"])["merge"]
    assert vocab["merge"] == [f"cf={cf}", f"df={df}"]
    cli.cmd_stats(r)
    assert json.loads(capsys.readouterr().out)["doc_count"] == r.doc_count


def test_validate_reports_a_corrupt_width_byte(built_index, tmp_path, capsys):
    """validate checks each block's width byte and length against the
    block layout: a width byte naming no width, and one naming another
    valid width (so the block's length no longer fits), are each
    reported as an error."""
    import shutil
    from pathlib import Path

    import pyarrow as pa

    from indri_5_5_ray import cli
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.stages.postings import POSTINGS_SCHEMA

    idx = tmp_path / "idx"
    shutil.copytree(built_index[0], idx)
    path = sorted(Path(idx, "postings").glob("*.arrow"))[0]
    t = pa.ipc.open_file(str(path)).read_all()
    payloads = t.column("postings").to_pylist()
    first_blocks = [offs[0] for offs in t.column("block_offset").to_pylist()]
    terms = t.column("term").to_pylist()
    for ri, width in ((0, lambda w: 0xFF),
                      (1, lambda w: (w & 0xF0) | (4 if w & 15 != 4 else 2))):
        b = bytearray(payloads[ri])
        b[first_blocks[ri]] = width(b[first_blocks[ri]])
        payloads[ri] = bytes(b)
    t = t.set_column(t.column_names.index("postings"), "postings",
                     pa.array(payloads, pa.large_binary()))
    with pa.ipc.new_file(str(path), POSTINGS_SCHEMA) as w:
        w.write_table(t)
    with pytest.raises(SystemExit):
        cli.cmd_validate(IndexReader(str(idx)))
    out = capsys.readouterr().out
    assert f"ERROR {terms[0]}: bad width byte 0xff" in out
    assert f"ERROR {terms[1]}: block length" in out
