"""doc_id point reads (``IndexReader._point_read`` and everything built on
it: docnos, doc_vectors, snippets' docstore reads, repository readers) equal a
brute-force read of the whole ``docs/`` table — on an index with more than
32 docs files, on a store_content docstore with 256-row groups, and across
two repository segments."""

from __future__ import annotations

import random

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def wide_index(tmp_path_factory):
    """300 docs with sha256 dedup in 8-doc chunks: ~38 docs files, and the
    dedup losers leave gaps in the doc_id space."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("wide")
    write_synthetic_corpus(str(d / "corpus"), 300, seed=5, rows_per_file=100)
    out = str(d / "idx")
    cfg = IndexConfig(max_chunk_docs=8, n_buckets=4, dedup_key="sha256")
    build_index(str(d / "corpus"), out, cfg, resume=False)
    return out


@pytest.fixture(scope="module")
def content_index(tmp_path_factory):
    """store_content docstore: 2 chunks of 300 docs, each written as 256-row
    groups, so a point read picks single row groups inside a file."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("content")
    write_synthetic_corpus(str(d / "corpus"), 600, seed=6, rows_per_file=300)
    out = str(d / "idx")
    cfg = IndexConfig(max_chunk_docs=300, n_buckets=4, dedup_key="sha256",
                      store_content=True)
    build_index(str(d / "corpus"), out, cfg, resume=False)
    return out


def _brute(index_dir: str, columns: list[str]) -> dict[int, tuple]:
    t = pq.read_table(f"{index_dir}/docs", columns=["doc_id", *columns])
    cols = [t.column(c).to_pylist() for c in columns]
    return {d: tuple(c[i] for c in cols)
            for i, d in enumerate(t.column("doc_id").to_pylist())}


def _id_sets(all_ids: list[int], max_doc_id: int) -> list[list[int]]:
    """k ∈ {1, 10, 100, all} over live ids, plus unsorted duplicates, ids
    past max_doc_id and the gaps left by dedup losers."""
    rng = random.Random(0)
    live = set(all_ids)
    gaps = [d for d in range(max_doc_id + 1) if d not in live]
    sets = [rng.sample(all_ids, min(k, len(all_ids))) for k in (1, 10, 100)]
    sets.append(list(all_ids))
    picks = rng.sample(all_ids, 10)
    sets.append(picks + picks[::-1] + [max_doc_id + 1, max_doc_id + 500])
    sets.append(gaps + rng.sample(all_ids, 5))
    sets.append([max_doc_id + 1])
    return sets


def _check_reader(reader, brute: dict[int, tuple], columns: list[str],
                  max_doc_id: int):
    for ids in _id_sets(sorted(brute), max_doc_id):
        t = reader._point_read("docs", ids, ["doc_id", *columns])
        got_ids = t.column("doc_id").to_pylist()
        want_ids = sorted({d for d in ids if d in brute})
        assert got_ids == want_ids  # doc_id order, once per id
        cols = [t.column(c).to_pylist() for c in columns]
        got = {d: tuple(c[i] for c in cols) for i, d in enumerate(got_ids)}
        assert got == {d: brute[d] for d in want_ids}
        assert reader.docnos(ids).to_pylist() == [
            brute[d][0] if d in brute else "" for d in ids]


def test_wide_docs_point_read_equals_bruteforce(wide_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    r = IndexReader(wide_index)
    assert len(list((r._dset("docs")).get_fragments())) > 32
    brute = _brute(wide_index, ["docno", "dl"])
    max_doc_id = r.manifest["max_doc_id"]
    assert len(brute) < max_doc_id + 1  # dedup losers left gaps
    _check_reader(r, brute, ["docno", "dl"], max_doc_id)
    # columns without doc_id keep the requested shape
    t = r._point_read("docs", [5, 3], ["docno"])
    assert t.column_names == ["docno"]
    assert r._point_read("docs", [], ["doc_id", "docno"]).num_rows == 0


def test_content_docstore_point_read_equals_bruteforce(content_index):
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.snippets import _doc_texts

    r = IndexReader(content_index)
    md = pq.read_metadata(sorted(r._dset("docs").files)[0])
    assert md.num_row_groups > 1
    assert max(md.row_group(i).num_rows
               for i in range(md.num_row_groups)) == 256
    brute = _brute(content_index, ["docno", "content"])
    _check_reader(r, brute, ["docno", "content"], r.manifest["max_doc_id"])
    ids = [599, 3, 257, 255, 256]
    assert _doc_texts(r, ids) == {d: brute[d][1] for d in ids if d in brute}


def test_multi_index_reader_point_read_equals_bruteforce(tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    write_synthetic_corpus(str(tmp_path / "a"), 90, seed=7, rows_per_file=45)
    write_synthetic_corpus(str(tmp_path / "b"), 70, seed=8, rows_per_file=35)
    repo = Repository.create(
        str(tmp_path / "repo"),
        IndexConfig(max_chunk_docs=16, n_buckets=4, dedup_key="sha256"))
    repo.add(str(tmp_path / "a"))
    repo.add(str(tmp_path / "b"))
    segs = repo.segment_dirs()
    assert len(segs) == 2
    brute: dict[int, tuple] = {}
    for s in segs:
        brute.update(_brute(s, ["docno", "dl"]))
    reader = repo.reader()
    _check_reader(reader, brute, ["docno", "dl"],
                  reader.manifest["max_doc_id"])


@pytest.mark.parametrize("names", [("a", "c"), ("a", "b", "c")])
def test_point_read_overlapping_and_statless_row_groups(tmp_path, names):
    """Row groups whose doc_id ranges overlap (an unsorted file) and files
    written without statistics are still found: the running-max ``reach``
    of the row-group index keeps every group that can hold an id."""
    import pyarrow as pa

    from indri_5_5_ray.pipelines.query import IndexReader

    layout = {"a": ([5, 1, 9, 3, 40, 2], True),   # groups [1,5] [3,9] [2,40]
              "b": ([12, 20, 11], False),           # no statistics
              "c": ([30, 31, 32, 33], True)}
    (tmp_path / "docs").mkdir()
    brute = {}
    for name in names:
        ids, stats = layout[name]
        t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "docno": [f"d{i}" for i in ids]})
        pq.write_table(t, str(tmp_path / "docs" / f"{name}.parquet"),
                       row_group_size=2, write_statistics=stats)
        brute.update({i: f"d{i}" for i in ids})
    r = IndexReader.__new__(IndexReader)
    r.index_dirs = [str(tmp_path)]
    r._dsets, r._doc_index = {}, {}
    for ids in ([3], [40], [2, 9, 40], [11, 4, 33, 20], list(range(45)),
                [100]):
        t = r._point_read("docs", ids, ["doc_id", "docno"])
        got = dict(zip(t.column("doc_id").to_pylist(),
                       t.column("docno").to_pylist()))
        assert got == {d: brute[d] for d in ids if d in brute}
        assert t.num_rows == len(got)


def test_repository_reader_reads_each_footer_once(tmp_path, monkeypatch):
    """A reader over 3 segments builds its doc_id footer index once:
    repeated ``_point_read`` calls read each ``docs/`` footer exactly
    once."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    repo = Repository.create(
        str(tmp_path / "repo"),
        IndexConfig(max_chunk_docs=16, n_buckets=4, dedup_key="sha256"))
    for i, n in enumerate((40, 30, 35)):
        write_synthetic_corpus(str(tmp_path / f"c{i}"), n, seed=20 + i,
                               rows_per_file=n)
        repo.add(str(tmp_path / f"c{i}"))
    segs = repo.segment_dirs()
    assert len(segs) == 3
    files = sorted(str(f) for s in segs for f in (tmp_path / s / "docs")
                   .glob("*.parquet"))
    assert len(files) >= 3
    brute: dict[int, tuple] = {}
    for s in segs:
        brute.update(_brute(s, ["docno"]))
    reader = repo.reader()
    reads: list[str] = []
    real = pq.read_metadata
    monkeypatch.setattr(pq, "read_metadata",
                        lambda f, *a, **k: reads.append(str(f)) or real(
                            f, *a, **k))
    rng = random.Random(1)
    for _ in range(6):
        ids = rng.sample(sorted(brute), 7)
        t = reader._point_read("docs", ids, ["doc_id", "docno"])
        assert dict(zip(t.column("doc_id").to_pylist(),
                        t.column("docno").to_pylist())) == {
            d: brute[d][0] for d in ids}
    assert sorted(reads) == files
