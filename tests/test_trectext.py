"""TREC-text reader → corpus → index end-to-end."""

from __future__ import annotations

import pytest

TREC_SAMPLE = """
<DOC>
<DOCNO> WSJ870324-0001 </DOCNO>
<HL> Some headline </HL>
<TEXT>
The quick brown fox jumps over the lazy dog.
</TEXT>
</DOC>
<DOC>
<DOCNO>WSJ870324-0002</DOCNO>
<TEXT>
First text section here.
</TEXT>
<TEXT>
Second text section here.
</TEXT>
</DOC>
<DOC>
<DOCNO>NOTEXT-1</DOCNO>
Body without a TEXT tag at all.
</DOC>
"""


def test_parse_trectext():
    from indri_5_5_ray.sources.trectext import parse_trectext

    docs = parse_trectext(TREC_SAMPLE)
    assert [d for d, _ in docs] == ["WSJ870324-0001", "WSJ870324-0002", "NOTEXT-1"]
    assert docs[0][1] == "The quick brown fox jumps over the lazy dog."
    assert "First text section" in docs[1][1] and "Second text section" in docs[1][1]
    assert "Body without a TEXT tag" in docs[2][1]
    assert "<HL>" not in docs[0][1]  # TEXT extraction drops other fields


def test_trectext_to_index(tmp_path):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query
    from indri_5_5_ray.sources.trectext import read_trectext, trectext_to_corpus

    f = tmp_path / "sample.trectext"
    f.write_text(TREC_SAMPLE)
    ds = read_trectext(str(f))
    assert ds.count() == 3

    corpus = trectext_to_corpus(str(f), str(tmp_path / "corpus"))
    out = str(tmp_path / "idx")
    build_index(corpus, out, IndexConfig(max_chunk_docs=32, n_buckets=2,
                                         dedup_key=None), resume=False)
    r = IndexReader(out)
    ids, scores = BM25Scorer(r).score_exhaustive(
        process_query("quick fox", r.cfg), k=3)
    assert len(ids) >= 1
    assert r.docnos(ids).to_pylist()[0] == "trec/WSJ870324-0001@" + __import__("hashlib").sha1(b"WSJ870324-0001").hexdigest()


def test_trecweb_and_html_classes(tmp_path):
    from indri_5_5_ray.sources.trectext import parse_trecweb, read_tagged

    data = """<DOC>
<DOCNO> WEB-1 </DOCNO>
<DOCHDR>
http://example.org/a
Content-Type: text/html
</DOCHDR>
<html><title>Hello Page</title><body>some body text</body></html>
</DOC>
<DOC>
<DOCNO> WEB-2 </DOCNO>
<DOCHDR>ignored</DOCHDR>
plain body
</DOC>"""
    docs = parse_trecweb(data)
    assert [d for d, _ in docs] == ["WEB-1", "WEB-2"]
    assert "Content-Type" not in docs[0][1]
    assert "<title>Hello Page</title>" in docs[0][1]  # markup kept for tokenizer
    assert docs[1][1] == "plain body"

    f = tmp_path / "web.trecweb"
    f.write_text(data)
    ds = read_tagged(str(f), file_class="trecweb")
    assert ds.count() == 2
    h = tmp_path / "page.html"
    h.write_text("<html><body>word</body></html>")
    ds2 = read_tagged(str(h), file_class="html")
    row = ds2.take(1)[0]
    assert row["docno"].endswith("page.html")


def test_working_set_restriction(built_index):
    import numpy as np

    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import BM25Scorer, IndexReader, process_query

    index_dir, _ = built_index
    r = IndexReader(index_dir)
    q = process_query("merge buffer token", r.cfg)
    full_ids, full_s = BM25Scorer(r).score_exhaustive(q, k=30)
    ws = full_ids[::2].tolist()  # every other result as the working set
    ids, s = BM25Scorer(r).score_exhaustive(q, k=30, doc_set=ws)
    assert set(ids.tolist()) <= set(ws)
    # scores unchanged (global statistics)
    lookup = dict(zip(full_ids.tolist(), full_s.tolist()))
    for d, sc in zip(ids.tolist(), s.tolist()):
        assert sc == lookup[d]
    eng = StructuredQueryEngine(r)
    ids1, s1 = eng.run("#combine(merge buffer)", k=30)
    ids2, s2 = eng.run("#combine(merge buffer)", k=30, doc_set=ids1[:5].tolist())
    assert set(ids2.tolist()) == set(ids1[:5].tolist())


def test_cli_inspection_commands(built_index, capsys):
    from indri_5_5_ray import cli

    index_dir, _ = built_index
    cli.main([index_dir, "xcount", "merge"])
    n1 = int(capsys.readouterr().out.strip())
    assert n1 > 0
    cli.main([index_dir, "dxcount", "#od1(merge buffer)"])
    out = capsys.readouterr().out.strip()
    assert int(out) >= 0
    cli.main([index_dir, "invlist", "merge"])
    out = capsys.readouterr().out
    assert "block last=" in out and "row salt=" in out


def test_parse_html_spec():
    """html file class: comments + excluded tag content dropped, markup
    kept for field indexing, absolute URLs harvested (incl. from regions
    excluded afterwards) — ref HTMLParser/file-class tag specs."""
    from indri_5_5_ray.sources.trectext import parse_html

    html = (
        "<html><head><title>My Page</title>"
        "<script>var hidden = 'javascriptsecret';\n"
        "fetch('https://api.example.com/x')</script>"
        "<style>.c { color: red }</style></head>"
        "<!-- commentsecret -->"
        "<body><h1>Header Words</h1>"
        "<a href='https://example.org/page'>anchor text</a>"
        "<a href='/relative/path'>rel</a>"
        "<img src=\"https://img.example.net/i.png\">"
        "body words</body></html>"
    )
    content, urls = parse_html(html)
    assert "javascriptsecret" not in content
    assert "commentsecret" not in content
    assert "color" not in content
    for kept in ("My Page", "Header Words", "anchor text", "body words",
                 "<title>", "<h1>"):
        assert kept in content
    # href/src absolute URLs only (the fetch() literal is not an attribute);
    # relative hrefs are skipped
    assert urls == ["https://example.org/page",
                    "https://img.example.net/i.png"]


def test_read_tagged_html(tmp_path):
    from indri_5_5_ray.sources.trectext import read_tagged

    f = tmp_path / "page.html"
    f.write_text("<html><script>skip me</script>"
                 "<title>T</title><a href='http://u.example/'>x</a></html>")
    rows = read_tagged(str(tmp_path), file_class="html").take_all()
    assert len(rows) == 1
    assert rows[0]["docno"].endswith("page.html")
    assert "skip" not in rows[0]["content"]
    assert rows[0]["urls"] == "http://u.example/"


def test_binary_file_classes_are_documented_stubs(ray_session, tmp_path):
    # pdf/doc/ppt plumbing is real (worker-side read, one row per file);
    # decode raises a clear NotImplementedError in this codec-less container
    import ray

    from indri_5_5_ray.sources.trectext import (
        _extract_binary,
        add_file_class,
        read_tagged,
    )

    f = tmp_path / "x.pdf"
    f.write_bytes(b"%PDF-1.4 fake")
    ds = read_tagged(str(tmp_path), file_class="pdf")
    with pytest.raises(ray.exceptions.RayTaskError, match="pdf"):
        ds.take_all()
    for cls in ("pdf", "doc", "ppt"):
        with pytest.raises(NotImplementedError, match=cls):
            _extract_binary(b"", cls)
        with pytest.raises(ValueError, match="shadow"):
            add_file_class(cls, lambda d: [])
