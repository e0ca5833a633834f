"""The buildindex app (IndriBuildIndex analogue / ray-job entrypoint):
flag parsing, parquet + file-class builds, resume semantics."""

from __future__ import annotations

import pytest

from indri_5_5_ray.buildindex import parse_args, run


def test_parse_args_reference_style():
    a = parse_args(["-index=/tmp/i", "-corpus.path=/a", "-corpus.path=/b",
                    "-stopper.word=the", "-stopper.word=a",
                    "-field.name=title", "-stemmer.name=porter",
                    "-storeDocs=true", "-norestart"])
    assert a["corpus.path"] == ["/a", "/b"]
    assert a["stopper.word"] == ["the", "a"]
    assert a["field.name"] == ["title"]
    assert a["norestart"] is True
    with pytest.raises(SystemExit):
        parse_args(["-corpus.path=/a"])  # missing -index
    with pytest.raises(SystemExit):
        parse_args(["-index=/tmp/i"])  # missing corpus
    with pytest.raises(SystemExit):
        parse_args(["-index=/tmp/i", "oops"])  # not -key=value


def test_build_from_parquet_and_query(small_corpus_dir, tmp_path):
    m = run(parse_args([f"-index={tmp_path}/idx",
                        f"-corpus.path={small_corpus_dir}",
                        "-stemmer.name=none", "-dedup=sha256"]))
    assert m["doc_count"] > 0
    from indri_5_5_ray.pipelines.query import (
        BM25Scorer,
        IndexReader,
        process_query,
    )

    r = IndexReader(f"{tmp_path}/idx")
    terms = process_query("merge buffer", r.cfg)
    ids, scores = BM25Scorer(r).score_exhaustive(terms, k=5)
    assert len(ids) > 0
    # a second run with the same -index resumes to the identical manifest
    m2 = run(parse_args([f"-index={tmp_path}/idx",
                         f"-corpus.path={small_corpus_dir}",
                         "-stemmer.name=none", "-dedup=sha256"]))
    assert m2 == m


def test_build_from_trectext_class(tmp_path):
    raw = tmp_path / "docs.trectext"
    raw.write_text(
        "<DOC>\n<DOCNO>A1</DOCNO>\nalpha beta gamma merge\n</DOC>\n"
        "<DOC>\n<DOCNO>A2</DOCNO>\nbeta delta merge buffer\n</DOC>\n")
    m = run(parse_args([f"-index={tmp_path}/idx",
                        f"-corpus.path={raw}", "-corpus.class=trectext",
                        "-stemmer.name=none", "-storeDocs=true"]))
    assert m["doc_count"] == 2
    import pyarrow.parquet as pq

    t = pq.read_table(f"{tmp_path}/idx/docs",
                      columns=["doc_id", "docno", "content"])
    # converted corpora take the standard shape: docno = repo/path@commit
    # with path = the source docno (sources/trectext.py dataset_to_corpus)
    by_docno = {dn.split("/")[1].split("@")[0]: c for dn, c in zip(
        t.column("docno").to_pylist(), t.column("content").to_pylist())}
    assert sorted(by_docno) == ["A1", "A2"]
    assert "alpha" in by_docno["A1"]


def test_fileclass_rerun_and_norestart(tmp_path):
    """Conversion is idempotent (marker-skipped on unchanged input — a
    rerun must NOT append-double the converted corpus) and -norestart
    wipes BEFORE converting (the wipe used to delete the fresh
    conversion, crashing the rebuild)."""
    import pyarrow.parquet as pq

    raw = tmp_path / "docs.trectext"
    raw.write_text(
        "<DOC>\n<DOCNO>A1</DOCNO>\nalpha beta gamma merge\n</DOC>\n"
        "<DOC>\n<DOCNO>A2</DOCNO>\nbeta delta merge buffer\n</DOC>\n")
    flags = [f"-index={tmp_path}/idx", f"-corpus.path={raw}",
             "-corpus.class=trectext", "-stemmer.name=none"]
    m = run(parse_args(flags))
    assert m["doc_count"] == 2
    conv = tmp_path / "idx" / "converted"
    files0 = sorted(conv.glob("*.parquet"))
    # rerun: conversion skipped (same files, not appended), manifest reused
    m2 = run(parse_args(flags))
    assert m2 == m
    assert sorted(conv.glob("*.parquet")) == files0
    assert sum(pq.read_metadata(f).num_rows for f in files0) == 2
    # -norestart: full wipe-and-rebuild works and still counts 2 docs
    m3 = run(parse_args(flags + ["-norestart"]))
    assert m3["doc_count"] == 2
    assert sum(pq.read_metadata(f).num_rows
               for f in conv.glob("*.parquet")) == 2
    # changed input invalidates the marker → re-converted, 3 docs
    raw.write_text(raw.read_text()
                   + "<DOC>\n<DOCNO>A3</DOCNO>\nepsilon merge\n</DOC>\n")
    m4 = run(parse_args(flags + ["-norestart"]))
    assert m4["doc_count"] == 3
    # changed input WITHOUT -norestart must also invalidate: the old
    # manifest would otherwise short-circuit resume to the stale index
    raw.write_text(raw.read_text()
                   + "<DOC>\n<DOCNO>A4</DOCNO>\nzeta merge\n</DOC>\n")
    m5 = run(parse_args(flags))
    assert m5["doc_count"] == 4


def test_wipe_never_touches_user_files(tmp_path):
    """Invalidation (changed corpus, and -norestart) removes build
    artifacts ONLY — a raw corpus or any user file living under the index
    dir must survive (the old everything-except-converted rmtree deleted
    the raw corpus before conversion could read it)."""
    idx = tmp_path / "idx"
    rawdir = idx / "raw"
    rawdir.mkdir(parents=True)
    raw = rawdir / "docs.trectext"
    raw.write_text(
        "<DOC>\n<DOCNO>A1</DOCNO>\nalpha beta gamma merge\n</DOC>\n"
        "<DOC>\n<DOCNO>A2</DOCNO>\nbeta delta merge buffer\n</DOC>\n")
    notes = idx / "notes.txt"
    notes.write_text("user file, hands off")
    flags = [f"-index={idx}", f"-corpus.path={raw}",
             "-corpus.class=trectext", "-stemmer.name=none"]
    m = run(parse_args(flags))
    assert m["doc_count"] == 2
    # changed raw corpus UNDER the index dir: the rerun must re-read it
    # (the old wipe deleted idx/raw first → FileNotFoundError + data loss)
    raw.write_text(raw.read_text()
                   + "<DOC>\n<DOCNO>A3</DOCNO>\nepsilon merge\n</DOC>\n")
    m2 = run(parse_args(flags))
    assert m2["doc_count"] == 3
    assert raw.exists() and notes.read_text() == "user file, hands off"
    # -norestart full rebuild: same guarantee
    m3 = run(parse_args(flags + ["-norestart"]))
    assert m3["doc_count"] == 3
    assert raw.exists() and notes.read_text() == "user file, hands off"
