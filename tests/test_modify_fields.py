"""ModifyFields analogue: add/remove indexed fields without re-indexing
(pipelines/modify.py vs ref:modifyfields/ModifyFields.cpp).  Both paths
are pinned EQUAL to a fresh build with the target field spec: extent
tables (incl. renumbered ordinals/parents under nesting), per-field
stats, and field-query scores."""

from __future__ import annotations

import json
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

DOCS = [
    "<sec><title>alpha beta</title> alpha gamma</sec> <size> 10 </size>",
    "<title>beta gamma</title> delta delta <size> 20 </size>",
    "alpha beta no markup here <size> 30 </size>",
    "<sec><title>alpha alpha</title> epsilon "
    "<date> 15 January 2004 </date></sec> <size> 15 </size>",
    "gamma delta <sec>inner words</sec> <size> 5 </size>",
    # nested same-field tags with DISTINCT spans
    "<sec>outer <sec>alpha beta</sec> tail</sec> <size> 7 </size>",
    # nested same-field tags with the SAME span (close order is reverse
    # open order — exercises the remove path's ordinal tie-break)
    "<sec><sec>alpha beta</sec></sec> <size> 8 </size>",
]

SMALL = ("title", "size")
FULL = ("title", "size", "sec", "date")


def _write_corpus(d: Path) -> str:
    corpus = d / "corpus"
    corpus.mkdir()
    t = pa.table({
        "repo": ["r"] * len(DOCS),
        "path": [f"d{i}.txt" for i in range(len(DOCS))],
        "commit": [f"c{i}" for i in range(len(DOCS))],
        "lang": ["txt"] * len(DOCS),
        "content": DOCS,
    })
    pq.write_table(t, corpus / "corpus.parquet")
    return str(corpus)


def _build(corpus: str, out: str, fields: tuple[str, ...]):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=2,
        store_content=True, fields=fields,
        numeric_fields=tuple(f for f in ("size",) if f in fields),
        date_fields=tuple(f for f in ("date",) if f in fields),
    )
    return build_index(corpus, out, cfg, resume=False)


def _fields_rows(index_dir: str) -> list[tuple]:
    rows = []
    for f in sorted(Path(index_dir).glob("fields/*.parquet")):
        t = pq.read_table(str(f))
        rows.extend(sorted(zip(*[t.column(c).to_pylist()
                                 for c in t.column_names])))
    return sorted(rows)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    d = tmp_path_factory.mktemp("modfields")
    corpus = _write_corpus(d)
    small = str(d / "small")
    full = str(d / "full")
    _build(corpus, small, SMALL)
    _build(corpus, full, FULL)
    return d, corpus, small, full


def test_add_fields_equals_fresh_build(built):
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, _corpus, small, full = built
    out = str(d / "small_plus")
    m = modify_fields(small, out, add_fields=("sec", "date"),
                      date_fields=("date",))
    assert _fields_rows(out) == _fields_rows(full)
    want = json.loads((Path(full) / "manifest.json").read_text())
    assert m["field_stats"] == want["field_stats"]
    assert tuple(m["config"]["fields"]) == FULL
    assert m["config"]["date_fields"] == ["date"]
    assert m["config"]["numeric_fields"] == ["size"]


def test_remove_fields_equals_fresh_build(built):
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, _corpus, small, full = built
    out = str(d / "full_minus")
    m = modify_fields(full, out, remove_fields=("sec", "date"))
    assert _fields_rows(out) == _fields_rows(small)
    want = json.loads((Path(small) / "manifest.json").read_text())
    assert m["field_stats"] == want["field_stats"]
    assert tuple(m["config"]["fields"]) == SMALL
    assert m["config"]["date_fields"] == []


def test_modified_index_answers_field_queries(built):
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.modify import modify_fields
    from indri_5_5_ray.pipelines.query import IndexReader

    d, _corpus, small, full = built
    out = str(d / "small_plus_q")
    modify_fields(small, out, add_fields=("sec", "date"),
                  date_fields=("date",))
    eng_out = StructuredQueryEngine(IndexReader(out))
    eng_full = StructuredQueryEngine(IndexReader(full))
    for q in ("#combine[sec](alpha)", "alpha.(title)",
              "#between(date 12400 12500)"):
        gi, gs = eng_out.run(q, k=10)
        wi, ws = eng_full.run(q, k=10)
        assert gi.tolist() == wi.tolist(), q
        assert gs.tolist() == ws.tolist(), q
        assert len(gi), q  # the queries actually match documents
    # postings/docstore are untouched: plain retrieval identical too
    gi, gs = eng_out.run("alpha beta", k=10)
    wi, ws = StructuredQueryEngine(IndexReader(small)).run("alpha beta", k=10)
    assert gi.tolist() == wi.tolist() and gs.tolist() == ws.tolist()


def test_add_with_offset_annotations(built):
    """modify-time annotation join == build-time cfg.offset_annotations."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, corpus, small, _full = built
    ann_path = str(d / "ann.parquet")
    pq.write_table(pa.table({
        "docno": ["r/d0.txt@c0", "r/d2.txt@c2"],
        "field": ["mark", "mark"],
        "begin": [0, 2],
        "end": [2, 5],
    }), ann_path)

    fresh = str(d / "fresh_ann")
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=2,
        store_content=True, fields=SMALL + ("mark",),
        numeric_fields=("size",), offset_annotations=ann_path,
    )
    build_index(corpus, fresh, cfg, resume=False)

    out = str(d / "small_plus_ann")
    m = modify_fields(small, out, add_fields=("mark",),
                      annotations=ann_path)
    assert _fields_rows(out) == _fields_rows(fresh)
    want = json.loads((Path(fresh) / "manifest.json").read_text())
    assert m["field_stats"] == want["field_stats"]


def test_modify_fields_errors(built, tmp_path):
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, corpus, small, _full = built
    with pytest.raises(ValueError, match="unindexed"):
        modify_fields(small, str(tmp_path / "x"), remove_fields=("nope",))

    # adding to a metadata-only index (no content) is refused
    nostore = str(d / "nostore")
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    build_index(corpus, nostore, IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=2,
        fields=SMALL, numeric_fields=("size",)), resume=False)
    with pytest.raises(ValueError, match="store_content"):
        modify_fields(nostore, str(tmp_path / "y"), add_fields=("sec",))


def test_cli_modifyfields(built, capsys):
    from indri_5_5_ray.cli import main

    d, _corpus, small, full = built
    out = str(d / "cli_out")
    main([small, "modifyfields", out, "addField=sec,date",
          "dateField=date"])
    got = json.loads(capsys.readouterr().out.strip())
    assert tuple(got["fields"]) == FULL
    assert _fields_rows(out) == _fields_rows(full)


def test_modify_same_dir_refused(built, tmp_path):
    from indri_5_5_ray.pipelines.modify import modify_fields

    _d, _corpus, small, _full = built
    with pytest.raises(ValueError, match="disjoint"):
        modify_fields(small, small, remove_fields=("size",))
    with pytest.raises(ValueError, match="disjoint"):
        modify_fields(small, str(Path(small) / "nested"),
                      remove_fields=("size",))


def test_modify_preserves_annotation_fields_and_nested_dirs(built):
    """Adding a tag field keeps annotation-derived extents from the
    SOURCE's build-time offset_annotations, and nested aux dirs (priors)
    survive the hard-link copy."""
    import shutil

    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, corpus, _small, _full = built
    ann_path = str(d / "ann2.parquet")
    pq.write_table(pa.table({
        "docno": ["r/d1.txt@c1"], "field": ["mark"],
        "begin": [1], "end": [3],
    }), ann_path)

    base = str(d / "ann_base")
    build_index(corpus, base, IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=2,
        store_content=True, fields=("title", "mark"),
        offset_annotations=ann_path), resume=False)
    # fake nested aux dir (the priors/<name>/ shape)
    (Path(base) / "priors" / "length").mkdir(parents=True)
    (Path(base) / "priors" / "length" / "p.parquet").write_bytes(b"x")

    fresh = str(d / "ann_fresh")
    build_index(corpus, fresh, IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=2,
        store_content=True, fields=("title", "mark", "sec"),
        offset_annotations=ann_path), resume=False)

    out = str(d / "ann_mod")
    m = modify_fields(base, out, add_fields=("sec",))  # no annotations arg
    assert _fields_rows(out) == _fields_rows(fresh)
    assert m["field_stats"]["mark"]["extent_count"] == 1
    assert (Path(out) / "priors" / "length" / "p.parquet").exists()


def test_modify_merged_index(built):
    """modify_fields works on merged indexes (src{i}- shard names)."""
    from indri_5_5_ray.pipelines.merge import merge_indexes
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, corpus, small, full = built
    fa = str(d / "m_full_a"); fb = str(d / "m_full_b")
    _build(corpus, fa, FULL)
    _build(corpus, fb, FULL)
    merged = str(d / "m_full")
    merge_indexes([fa, fb], merged, resume=False)

    sa = str(d / "m_small_a"); sb = str(d / "m_small_b")
    _build(corpus, sa, SMALL)
    _build(corpus, sb, SMALL)
    merged_small = str(d / "m_small")
    merge_indexes([sa, sb], merged_small, resume=False)

    out = str(d / "m_mod")
    m = modify_fields(merged, out, remove_fields=("sec", "date"))
    assert _fields_rows(out) == _fields_rows(merged_small)
    assert m["field_stats"], "merged shards must be rewritten, not skipped"

    out2 = str(d / "m_mod_add")
    modify_fields(merged_small, out2, add_fields=("sec", "date"),
                  date_fields=("date",))
    assert _fields_rows(out2) == _fields_rows(merged)


def test_remove_keeps_nested_same_field(built):
    """Removing an unrelated field renumbers KEPT equal-span nested
    same-field extents in fresh-build order (the close-order tie-break)."""
    from indri_5_5_ray.pipelines.modify import modify_fields

    d, corpus, _small, full = built
    fresh = str(d / "no_date")
    _build(corpus, fresh, ("title", "size", "sec"))
    out = str(d / "full_minus_date")
    modify_fields(full, out, remove_fields=("date",))
    assert _fields_rows(out) == _fields_rows(fresh)


def test_modified_index_keeps_docno_map(built):
    """The docno maps ride along into a field-modified copy: docno and
    docID lookups on it match its source."""
    from indri_5_5_ray.pipelines.modify import modify_fields
    from indri_5_5_ray.pipelines.query import IndexReader

    d, _corpus, small, _full = built
    out = str(d / "small_docnos")
    modify_fields(small, out, add_fields=("sec",))
    src, mod = IndexReader(small), IndexReader(out)
    ids = list(range(-1, len(DOCS) + 2))
    want = [f"r/d{i}.txt@c{i}" if 0 <= i < len(DOCS) else "" for i in ids]
    assert src.docnos(ids) == mod.docnos(ids) == want
    assert mod.doc_ids_of(["r/d3.txt@c3"]).tolist() == [3]
