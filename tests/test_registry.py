"""Extension registry (SURVEY.md §2.12): pluggable stemmer / tokenizer
resolved by name through config, mirroring the reference's
StemmerFactory seam."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from indri_5_5_ray import registry
from indri_5_5_ray.config import IndexConfig
from indri_5_5_ray.sources.corpus import Chunk
from indri_5_5_ray.stages.ingest import IngestWorker, TermProcessor


def _write_corpus(tmp_path, texts):
    t = pa.table({
        "repo": ["r"] * len(texts),
        "path": [f"f{i}" for i in range(len(texts))],
        "commit": ["c" * 40] * len(texts),
        "lang": ["txt"] * len(texts),
        "content": texts,
    })
    p = str(tmp_path / "c.parquet")
    pq.write_table(t, p)
    return p


def test_custom_stemmer_used_in_ingest(tmp_path):
    registry.register_stemmer("firstchar", lambda term: term[:1])
    p = _write_corpus(tmp_path, ["alpha beta", "gamma alpha"])
    out = str(tmp_path / "idx")
    w = IngestWorker(out, IndexConfig(stemmer="firstchar").to_dict(), None)
    w._process_chunk(Chunk(file_path=p, row_start=0, row_end=2, doc_id_base=0))
    part = pq.read_table(f"{out}/partials")
    assert sorted(part.column("term").to_pylist()) == ["a", "b", "g"]


def test_unknown_stemmer_raises():
    with pytest.raises(ValueError, match="unknown stemmer"):
        TermProcessor(IndexConfig(stemmer="nope-not-registered"))


def test_builtin_stemmer_not_shadowable():
    with pytest.raises(ValueError, match="shadow"):
        registry.register_stemmer("krovetz", lambda t: t)


def test_custom_tokenizer_used_in_ingest(tmp_path):
    registry.register_tokenizer("commas", lambda data: data.split(b","))
    p = _write_corpus(tmp_path, ["a,b,c", "x,a"])
    out = str(tmp_path / "idx")
    cfg = IndexConfig(tokenizer="commas", stemmer="none")
    w = IngestWorker(out, cfg.to_dict(), None)
    w._process_chunk(Chunk(file_path=p, row_start=0, row_end=2, doc_id_base=0))
    docs = pq.read_table(f"{out}/docs").sort_by("doc_id")
    assert docs.column("dl").to_pylist() == [3, 2]
    part = pq.read_table(f"{out}/partials").sort_by("term")
    assert part.column("term").to_pylist() == ["a", "b", "c", "x"]
    assert part.column("doc_ids")[0].as_py() == [0, 1]  # 'a' in both docs


def test_custom_file_class(ray_session, tmp_path):
    from indri_5_5_ray.sources.trectext import add_file_class, read_tagged

    add_file_class("lines", lambda text: [
        (f"L{i}", ln) for i, ln in enumerate(text.splitlines()) if ln.strip()
    ])
    f = tmp_path / "x.txt"
    f.write_text("alpha beta\n\ngamma\n")
    rows = sorted(read_tagged(str(f), file_class="lines").take_all(),
                  key=lambda r: r["docno"])
    assert [r["docno"] for r in rows] == ["L0", "L2"]
    assert rows[1]["content"] == "gamma"
    import pytest as _pytest
    with _pytest.raises(ValueError, match="shadow"):
        add_file_class("html", lambda t: [])


def test_registered_stemmer_ships_to_ray_workers(ray_session, tmp_path):
    """Driver-side registrations must reach Ray worker processes (the
    build ships a registry snapshot in the task closure)."""
    from indri_5_5_ray.pipelines.build import build_index

    registry.register_stemmer("firstتwo", lambda term: term[:2])
    p = _write_corpus(tmp_path, ["alpha beta gamma", "delta alpha"])
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path), idx,
                IndexConfig(stemmer="firstتwo", dedup_key=None, n_buckets=2))
    part = pq.read_table(f"{idx}/partials")
    assert sorted(set(part.column("term").to_pylist())) == ["al", "be", "de", "ga"]
