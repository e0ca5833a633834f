"""Docno maps: ``docnos/<docs file stem>.arrow``, one memory-mapped docno
column per docs file, dense over its doc_id range.  ``IndexReader.docnos``
must equal a brute-force doc_id → docno dict of ``docs/`` on every index
writer's output (build, merge, compact, repository segments), the maps
must be byte-identical after a crash-and-resume and after a rebuild, and
the CLI's docno commands read them over every segment."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def _truth(reader) -> dict[int, str]:
    """doc_id → docno of every dir's ``docs/`` table."""
    t = pa.concat_tables([pq.read_table(f"{d}/docs", columns=["doc_id", "docno"])
                          for d in reader.index_dirs])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("docno").to_pylist()))


@pytest.fixture(scope="module")
def readers(small_corpus_dir, tmp_path_factory):
    """name → (reader, brute-force docno dict, ids without a docs row)."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.query import IndexReader
    from indri_5_5_ray.pipelines.repository import Repository, compact_index
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("docno_maps")
    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256")
    single = str(d / "single")
    build_index(small_corpus_dir, single, cfg, resume=False)
    merged = str(d / "merged")
    merge_indexes([single, single], merged, resume=False)
    victim = str(d / "victim")
    shutil.copytree(single, victim)
    pq.write_table(pa.table({"doc_id": pa.array([0, 7, 64, 65, 150], pa.int64())}),
                   f"{victim}/deleted.parquet")
    compacted = str(d / "compacted")
    compact_index(victim, compacted)
    repo = Repository.create(str(d / "repo"), cfg)
    for i in range(3):
        corpus = str(d / f"corpus{i}")
        write_synthetic_corpus(corpus, 90, seed=30 + i, rows_per_file=45)
        repo.add(corpus)

    out = {}
    for name, r in (("single", IndexReader(single)),
                    ("merged", IndexReader(merged)),
                    ("compacted", IndexReader(compacted)),
                    ("repository", repo.reader())):
        truth = _truth(r)
        holes = sorted(set(range(r.manifest["max_doc_id"] + 1)) - set(truth))
        out[name] = (r, truth, holes)
    # the inputs the property needs: dedup losers, dropped ids, segments
    assert out["single"][2] and out["merged"][2] and out["compacted"][2]
    assert len(out["repository"][0].index_dirs) == 3
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_docnos_equal_docs_table_property(readers, data):
    name = data.draw(st.sampled_from(sorted(readers)))
    reader, truth, holes = readers[name]
    top = reader.manifest["max_doc_id"]
    ids = data.draw(st.lists(st.one_of(
        st.integers(-3, top + 40),
        st.sampled_from(holes or [top + 1]),
        st.sampled_from(sorted(truth))), max_size=40))
    assert reader.docnos(ids) == [truth.get(i, "") for i in ids]
    assert reader.docnos(np.asarray(ids, np.int64)) == reader.docnos(ids)


def test_doc_ids_of_scans_every_segment(readers):
    reader, truth, _ = readers["repository"]
    by_docno: dict[str, list[int]] = {}
    for i, dn in truth.items():
        by_docno.setdefault(dn, []).append(i)
    last = max(truth)
    want = sorted(by_docno[truth[last]] + by_docno[truth[0]])
    assert reader.doc_ids_of([truth[last], truth[0], "no/such@doc"]).tolist() == want
    assert reader.doc_ids_of([]).tolist() == []


def _tree_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.glob("*"))}


def test_docno_maps_identical_after_resume_and_rebuild(small_corpus_dir, tmp_path):
    """A crash between a chunk's maps and its lineage record (the chunk's
    record lost, its map half-written) resumes to the same bytes; so does
    a rebuild over the old dir and a build into a fresh one."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    cfg = IndexConfig(max_chunk_docs=64, n_buckets=4, dedup_key="sha256")
    a = tmp_path / "a"
    build_index(small_corpus_dir, str(a), cfg, resume=False)
    want = _tree_bytes(a / "docnos")
    assert len(want) == len(list((a / "docs").glob("*.parquet")))

    (a / "manifest.json").unlink()
    for sub in ("postings", "dictionary"):
        shutil.rmtree(a / sub)
    victim = sorted((a / "docnos").glob("*.arrow"))[1]
    cid = victim.stem.removeprefix("docs-")
    (a / "lineage" / f"ingest-{cid}.json").unlink()
    victim.rename(str(victim) + ".tmp")
    Path(str(victim) + ".tmp").write_bytes(b"torn")
    build_index(small_corpus_dir, str(a), cfg, resume=True)
    assert _tree_bytes(a / "docnos") == want

    build_index(small_corpus_dir, str(a), cfg, resume=False)
    assert _tree_bytes(a / "docnos") == want
    build_index(small_corpus_dir, str(tmp_path / "b"), cfg, resume=False)
    assert _tree_bytes(tmp_path / "b" / "docnos") == want


@pytest.fixture(scope="module")
def two_segments(tmp_path_factory):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.repository import Repository
    from indri_5_5_ray.sources.corpus import write_synthetic_corpus

    d = tmp_path_factory.mktemp("docno_cli")
    repo = Repository.create(str(d / "repo"), IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=32,
        store_content=True))
    for i in range(2):
        write_synthetic_corpus(str(d / f"c{i}"), 50, seed=40 + i, rows_per_file=50)
        repo.add(str(d / f"c{i}"))
    return repo


def test_cli_docno_commands_read_every_segment(two_segments, capsys):
    from indri_5_5_ray import cli

    repo = two_segments
    reader = repo.reader()
    last = reader.manifest["max_doc_id"]
    docno = reader.docnos([last])[0]
    assert docno and last >= 50  # a doc of the second segment
    capsys.readouterr()
    cli.main([str(repo.dir), "documentid", docno])
    cli.main([str(repo.dir), "documentname", str(last)])
    cli.main([str(repo.dir), "documenttext", str(last)])
    lines = capsys.readouterr().out.splitlines()
    text = pq.read_table(f"{reader.index_dirs[1]}/docs",
                         columns=["doc_id", "content"]).to_pylist()
    content = {r["doc_id"]: r["content"] for r in text}[last]
    assert lines[0] == str(last)
    assert lines[1] == docno
    assert "\n".join(lines[2:]) == content


def test_cli_opens_a_repository(two_segments, capsys):
    import json

    from indri_5_5_ray import cli

    repo = two_segments
    capsys.readouterr()
    cli.main([str(repo.dir), "stats"])
    stats = json.loads(capsys.readouterr().out)
    assert stats["doc_count"] == repo.reader().doc_count == 100
    cli.main([str(repo.dir), "validate"])
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "100 docs, 0 errors")


def test_cli_delete_on_a_repository_uses_its_deleted_list(two_segments, tmp_path):
    """``delete`` of a second-segment docno lands in the repository's
    deleted list (the one ``Repository.compact`` drops); ``compact`` and
    ``merge`` refuse a repository instead of rewriting its first segment."""
    import shutil

    from indri_5_5_ray import cli
    from indri_5_5_ray.pipelines.repository import Repository

    repo_dir = tmp_path / "repo"
    shutil.copytree(two_segments.dir, repo_dir)
    repo = Repository(str(repo_dir))
    last = repo.reader().manifest["max_doc_id"]
    cli.main([str(repo_dir), "delete", repo.reader().docnos([last])[0]])
    assert repo.deleted().tolist() == [last]
    assert repo.reader().keep_mask(np.array([last])).tolist() == [False]
    for cmd in ("compact", "merge"):
        with pytest.raises(SystemExit):
            cli.main([str(repo_dir), cmd, str(tmp_path / cmd)])
        assert not (tmp_path / cmd).exists()


def test_null_slot_reads_empty_whatever_its_bytes(tmp_path):
    """A null slot reads ``""`` even when its offsets span bytes: Arrow
    leaves a null's segment undefined, so the validity bit decides."""
    from indri_5_5_ray.pipelines.query import _DocnoMap

    col = pa.StringArray.from_buffers(
        3, pa.py_buffer(np.array([0, 3, 6, 9], np.int32).tobytes()),
        pa.py_buffer(b"aaabbbccc"), pa.py_buffer(bytes([0b101])), null_count=1)
    schema = pa.schema([("docno", pa.string())], metadata={"first": "10"})
    with pa.ipc.new_file(str(tmp_path / "m.arrow"), schema) as w:
        w.write_table(pa.table([col], schema=schema))
    m = _DocnoMap(tmp_path / "m.arrow")
    assert m.first == 10
    assert [m.at(i) for i in range(4)] == ["aaa", "", "ccc", ""]
