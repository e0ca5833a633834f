"""Link graph + PageRank (functions/linkgraph.py) — the harvestlinks /
PageRank.cpp analogue: anchor extraction, inlink aggregation, the
filesystem-bucketed power iteration (incl. dangling-node redistribution),
and the #prior integration seam."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from indri_5_5_ray.functions.linkgraph import (
    DAMPING,
    ITERS,
    N_BUCKETS,
    anchor_counts,
    extract_links,
    harvest_links,
    pagerank,
    pagerank_scores,
)

HTML = """<html><body>
<p>intro text</p>
<a href="http://a.example/x">first <b>anchor</b></a>
<A HREF='http://b.example/y?q=1'>second
anchor text</A>
<a name="no-href">not a link</a>
<a href="">empty target skipped</a>
<a href="rel/path.html">relative ok</a>
</body></html>"""


def test_extract_links_anchors_and_hrefs():
    out = extract_links("http://src.example/", HTML)
    assert [(d, a) for _, d, a in out] == [
        ("http://a.example/x", "first anchor"),
        ("http://b.example/y?q=1", "second anchor text"),
        ("rel/path.html", "relative ok"),
    ]
    assert all(s == "http://src.example/" for s, _, _ in out)


def _pages(tmp_path, pages, n_blocks):
    """Write (url, content) pages to a parquet file and read them back as
    ``n_blocks`` blocks; returns (path, dataset)."""
    import ray.data

    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({"url": [u for u, _ in pages],
                             "content": [c for _, c in pages]}), path)
    docs = ray.data.read_parquet(path).repartition(n_blocks).materialize()
    assert docs.num_blocks() == n_blocks
    return path, docs


def test_harvest_and_anchor_counts(tmp_path):
    path, docs = _pages(tmp_path, [
        ("http://s1/", HTML),
        ("http://s2/", '<a href="http://a.example/x">again</a>'
                       '<a href="http://a.example/x">twice same pair</a>'),
    ], 1)
    links = harvest_links(docs).to_pandas()
    assert len(links) == 5
    counts = anchor_counts(harvest_links(docs), source_path=path,
                           version="test").to_pandas().set_index("dst")
    # a.example/x: 1 link from s1 + 2 from s2 = 3 inlinks, 2 distinct srcs
    assert counts.loc["http://a.example/x", "n_inlinks"] == 3
    assert counts.loc["http://a.example/x", "n_distinct_src"] == 2
    assert counts.loc["rel/path.html", "n_inlinks"] == 1


def test_anchor_counts_pair_split_across_batches(tmp_path):
    """One (dst, src) pair harvested in two map batches (a recrawled page)
    reaches the reduce as two partial rows; it is still one distinct
    source."""
    path, docs = _pages(tmp_path, [
        ("http://s3/", '<a href="http://z/">first crawl</a>'),
        ("http://s3/", '<a href="http://z/">recrawl</a>'),
        ("http://s4/", '<a href="http://z/">other</a>'),
    ], 3)
    counts = anchor_counts(harvest_links(docs), source_path=path,
                           version="test").to_pandas().set_index("dst")
    assert counts.loc["http://z/", "n_inlinks"] == 3
    assert counts.loc["http://z/", "n_distinct_src"] == 2


def _run_pagerank_on_edges(tmp_path, edges, n_docs, iters=20):
    """Drive the bucketed primitive on a hand-built edge list."""
    edges_dir = tmp_path / "edges"
    doclist_dir = tmp_path / "doclists"
    work = tmp_path / "work"
    edges_dir.mkdir()
    doclist_dir.mkdir()
    work.mkdir()
    src = np.array([e[0] for e in edges], np.int64)
    dst = np.array([e[1] for e in edges], np.int64)
    w = np.array([e[2] for e in edges], np.float64)
    t = pa.table({
        "sbucket": pa.array((src % N_BUCKETS).astype(np.int32), pa.int32()),
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
        "w": pa.array(w, pa.float64()),
    }).sort_by([("sbucket", "ascending")])
    pq.write_table(t, edges_dir / "e.parquet")
    doclists = []
    for b in range(N_BUCKETS):
        ids = np.arange(b, n_docs, N_BUCKETS, dtype=np.int64)
        f = doclist_dir / f"d-b{b:02d}.parquet"
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), f)
        doclists.append(str(f))
    shards = pagerank(str(edges_dir), doclists, n_docs, str(work),
                      iters=iters)
    parts = pa.concat_tables([pq.read_table(s) for s in shards])
    out = np.zeros(n_docs)
    out[parts.column("doc_id").to_numpy()] = parts.column("score").to_numpy()
    return out


def test_pagerank_dangling_mass_conserved(ray_session, tmp_path):
    """Node 2 has NO out-edges: its mass redistributes uniformly and the
    total stays 1; scores match a direct dense-matrix power iteration."""
    n = 5
    edges = [(0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.5), (3, 2, 1.0), (4, 0, 1.0)]
    got = _run_pagerank_on_edges(tmp_path, edges, n, iters=30)
    # dense reference with the same per-iteration rounding
    s = np.full(n, 1.0 / n)
    for _ in range(30):
        nxt = np.zeros(n)
        for a, b, w in edges:
            nxt[b] += w * s[a]
        dangling = s[2]  # the only dangling node
        s = np.round(((1 - DAMPING) / n
                      + DAMPING * (nxt + dangling / n)) * n, 12) / n
    np.testing.assert_array_equal(got, s)
    assert abs(got.sum() - 1.0) < 1e-9  # mass conserved


def test_pagerank_all_dangling_graph(ray_session, tmp_path):
    """ZERO edges (every node dangling, e.g. a linkless harvested corpus):
    no contribution files are written at all, and the uniform dangling
    redistribution must still produce the stationary uniform vector."""
    n = 7
    got = _run_pagerank_on_edges(tmp_path, [], n, iters=3)
    # s = (1-d)/n + d*(0 + dangling/n) with dangling = 1 each iteration
    np.testing.assert_allclose(got, np.full(n, 1.0 / n), atol=1e-9)
    assert abs(got.sum() - 1.0) < 1e-9


def test_pagerank_scores_properties(ray_session):
    sf = "/root/testdata/sf0.001"
    df = pagerank_scores(sf).to_pandas()
    n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    assert len(df) == n
    assert abs(df.score.sum() - 1.0) < 1e-8  # stochastic vector
    assert (df.score > 0).all()
    # cached second call returns identical values
    df2 = pagerank_scores(sf).to_pandas()
    assert np.array_equal(df.sort_values("doc_id").score.values,
                          df2.sort_values("doc_id").score.values)


def test_pagerank_prior_feeds_structured_query(ray_session, tmp_path):
    """build_pagerank_prior writes a #prior(name)-loadable table — the
    PriorFactory seam the reference feeds with PageRank output."""
    from indri_5_5_ray.functions.linkgraph import build_pagerank_prior
    from indri_5_5_ray.pipelines.priors import load_prior

    sf = "/root/testdata/sf0.001"
    index_dir = str(tmp_path / "idx")
    import os

    os.makedirs(index_dir)
    out = build_pagerank_prior(sf, index_dir)
    ids, lps = load_prior(index_dir, "pagerank")
    n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    assert len(ids) == n
    assert (lps < 0).all()  # log of probabilities
    scores = pagerank_scores(sf).to_pandas().sort_values("doc_id")
    np.testing.assert_allclose(np.exp(lps), scores.score.values, rtol=1e-12)
    assert out.endswith("priors/pagerank")
