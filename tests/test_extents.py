"""Element-level (per-extent) retrieval and the INEX surface
(pipelines/extents.py): ScoredExtentResult semantics
(ref:include/indri/ScoredExtentResult.hpp), per-extent dirichlet scoring
under #op[f] / #op[passageN:M] roots, DocumentStructure findLeaf/path
element naming (ref:src/DocumentStructure.cpp:261-330) and the
<inex-submission> format (ref:runquery/IndriRunQuery.cpp:467-478)."""
from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

MU = 2500.0

DOCS = [
    "<sec> alpha beta </sec> <sec> alpha gamma delta </sec>",
    "<sec> beta beta alpha </sec>",
    "alpha outside",
    "<article><sec> alpha </sec><sec> beta </sec></article>",
    "<sec> epsilon </sec> <sec> epsilon </sec>",
]
# token slots: doc0 [alpha beta alpha gamma delta], doc1 [beta beta alpha],
# doc2 [alpha outside], doc3 [alpha beta], doc4 [epsilon epsilon]
SEC_EXTS = {0: [(0, 2), (2, 5)], 1: [(0, 3)], 3: [(0, 1), (1, 2)],
            4: [(0, 1), (1, 2)]}


def _dir(c, dl, cf, total):
    p_c = cf / total if cf > 0 else 1.0 / (2.0 * total)
    return math.log((c + MU * p_c) / (dl + MU))


@pytest.fixture(scope="module")
def ext_index(tmp_path_factory):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("extidx")
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
    out = str(d / "idx")
    cfg = IndexConfig(stemmer=None, dedup_key=None, n_buckets=4,
                      max_chunk_docs=64, fields=("article", "sec"),
                      store_content=True)
    build_index(str(corpus), out, cfg, resume=False)
    return out


def _reader(ext_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    return IndexReader(ext_index)


def _rows(res):
    ids, bs, es, sc = res
    return list(zip(ids.tolist(), bs.tolist(), es.tolist(), sc.tolist()))


def test_field_extent_scores_hand_computed(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    sec_total = float(r.field_stats("sec")["total_len"])
    assert sec_total == (2 + 3) + 3 + (1 + 1) + (1 + 1)  # docs 0, 1, 3, 4
    rows = _rows(run_extents(r, "#combine[sec](alpha)", k=100))
    # candidates: docs with alpha anywhere AND carrying sec → 0, 1, 3
    # cf(alpha within sec) = doc0: 2, doc1: 1, doc2 (no sec): 0, doc3: 1 → 4
    # doc3's second extent has NO match → skipped (the hasMatch gate,
    # ref:src/ExtentRestrictionNode.cpp:58-69)
    want = {
        (0, 0, 2): _dir(1, 2, 4.0, sec_total),
        (0, 2, 5): _dir(1, 3, 4.0, sec_total),
        (1, 0, 3): _dir(1, 3, 4.0, sec_total),
        (3, 0, 1): _dir(1, 1, 4.0, sec_total),
    }
    assert {k: pytest.approx(v, abs=1e-12) for k, v in want.items()} == {
        (d, b, e): s for d, b, e, s in rows}


def test_extent_ranking_and_tiebreak(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    # epsilon: doc 4 only; both extents identical (c=1, dl=1) → equal
    # scores; ScoredExtentResult::score_greater orders begin DESC
    rows = _rows(run_extents(r, "#combine[sec](epsilon)", k=10))
    assert [(d, b, e) for d, b, e, _s in rows] == [(4, 1, 2), (4, 0, 1)]
    assert rows[0][3] == rows[1][3]


def test_single_extent_doc_matches_document_path_bitwise(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

    r = _reader(ext_index)
    eng = StructuredQueryEngine(r)
    ids, scores = eng.run("#combine[sec](alpha beta)", k=10)
    doc_level = dict(zip(ids.tolist(), scores.tolist()))
    rows = _rows(run_extents(r, "#combine[sec](alpha beta)", k=100))
    # doc 1 has ONE sec extent spanning the whole field → the extent score
    # must equal the document-path score EXACTLY (same floats, same ops)
    ext1 = [s for d, b, e, s in rows if d == 1]
    assert len(ext1) == 1
    assert ext1[0] == doc_level[1]


def test_window_node_inside_extent(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    rows = _rows(run_extents(r, "#combine[sec](#1(alpha beta))", k=100))
    by_ext = {(d, b, e): s for d, b, e, s in rows}
    # ordered window alpha→beta: only doc0 (0,2); doc3's spans cross the
    # two 1-token extents (not contained in either); extents without a
    # window match are skipped entirely (hasMatch gate)
    sec_total = float(r.field_stats("sec")["total_len"])
    assert set(by_ext) == {(0, 0, 2)}
    assert by_ext[(0, 0, 2)] == pytest.approx(
        _dir(1, 2, 1.0, sec_total), abs=1e-12)


def test_passage_extents_match_document_best_passage(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

    r = _reader(ext_index)
    eng = StructuredQueryEngine(r)
    for q in ("#combine[passage2:1](alpha beta)",
              "#combine[passage3:1](#od1(alpha beta) gamma)",
              "#combine[passage3:1](#syn(alpha gamma) delta)",
              "#combine[passage2:1](#not(beta) alpha)"):
        ids, scores = eng.run(q, k=10)
        doc_best = dict(zip(ids.tolist(), scores.tolist()))
        rows = _rows(run_extents(r, q, k=1000))
        got_best: dict[int, float] = {}
        for d, _b, _e, s in rows:
            got_best[d] = max(got_best.get(d, -math.inf), s)
        # doc score = best passage, bit for bit
        assert got_best == doc_best, q
    # window geometry: doc2 (len 2, width 2 stride 1) slides (0,2) and
    # (1,2); only (0,2) contains a match ('alpha outside' has alpha at 0)
    rows = _rows(run_extents(r, "#combine[passage2:1](alpha beta)", k=1000))
    d2 = sorted((b, e) for d, b, e, _s in rows if d == 2)
    assert d2 == [(0, 2)]


def test_passage_filreq_is_per_document(tmp_path):
    """#filreq inside a passage filters whole DOCUMENTS (FilterRequireNode
    wraps the scored node): doc 0's gamma lies outside its best alpha
    window, yet that window still scores — on the document path exactly
    as in the per-window results."""
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    docs = ["alpha alpha x gamma", "alpha gamma y z", "beta beta"]
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    pq.write_table(pa.table({
        "repo": ["r"] * 3, "path": [f"d{i}.txt" for i in range(3)],
        "commit": [f"c{i}" for i in range(3)], "lang": ["txt"] * 3,
        "content": docs}), corpus / "corpus.parquet")
    out = str(tmp_path / "idx")
    build_index(str(corpus), out, IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=64),
        resume=False)
    r = IndexReader(out)
    q = "#combine[passage2:1](#filreq(gamma alpha))"
    ids, scores = StructuredQueryEngine(r).run(q, k=10)
    doc_best = dict(zip(ids.tolist(), scores.tolist()))
    got_best: dict[int, float] = {}
    for d, _b, _e, s in _rows(run_extents(r, q, k=1000)):
        got_best[d] = max(got_best.get(d, -math.inf), s)
    assert set(doc_best) == {0, 1}
    assert doc_best == got_best
    # doc 0's best window is (0, 2): two alphas, no gamma
    total = sum(len(d.split()) for d in docs)
    assert doc_best[0] == pytest.approx(_dir(2, 2, 3.0, total), abs=1e-12)
    assert doc_best[0] > doc_best[1]


def test_doc_level_fallback_zero_extents(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

    r = _reader(ext_index)
    eng = StructuredQueryEngine(r)
    ids, bs, es, sc = run_extents(r, "#combine(alpha beta)", k=10)
    ids2, sc2 = eng.run("#combine(alpha beta)", k=10)
    assert ids.tolist() == ids2.tolist()
    assert sc.tolist() == sc2.tolist()
    assert not bs.any() and not es.any()  # begin = end = 0 (doc-level)


def test_unsupported_inner_ops_raise(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    with pytest.raises(ValueError, match="does not support"):
        run_extents(r, "#combine[sec](#combine[article](alpha))", k=10)


def test_element_paths(ext_index):
    from indri_5_5_ray.pipelines.extents import element_paths

    r = _reader(ext_index)
    paths = element_paths(
        r,
        [0, 0, 3, 3, 1],
        [0, 2, 0, 1, 0],
        [2, 5, 1, 2, 3],
    )
    # doc0 secs are top-level (doc0's first top-level node is sec[1], the
    # greedy walk finds sec[2] only if the FIRST root contains it — it
    # does not, so [2,5) resolves to "" exactly like the reference's
    # uninitialized branch is documented to)
    assert paths[0] == "/sec[1]"
    assert paths[1] == ""
    assert paths[2] == "/article[1]/sec[1]"
    assert paths[3] == "/article[1]/sec[2]"
    assert paths[4] == "/sec[1]"


def test_format_inex_golden():
    from indri_5_5_ray.pipelines.extents import format_inex

    xml = format_inex(
        [("42", [("DOC-1", "/article[1]/sec[2]", -3.25)])],
        participant_id="7", run_id="indri55ray", description="test run")
    assert xml == (
        '<inex-submission participant-id="7" run-id="indri55ray" '
        'task="CO.Thorough" query="automatic" topic-part="T">\n'
        "  <description>\n"
        "test run\n"
        "  </description>\n"
        '  <topic topic-id="42">\n'
        "    <collections>\n"
        "      <collection>ieee</collection>\n"
        "    </collections>\n"
        "    <result>\n"
        "      <file>DOC-1</file>\n"
        "      <path>/article[1]/sec[2]</path>\n"
        "      <rsv>-3.25</rsv>\n"
        "    </result>\n"
        "  </topic>\n"
        "</inex-submission>\n")


def test_cli_runquery_inex_and_plain(ext_index, tmp_path, capsys):
    from indri_5_5_ray.cli import cmd_runquery

    r = _reader(ext_index)
    qf = tmp_path / "q.txt"
    qf.write_text("9\t#combine[sec](alpha)\n")
    cmd_runquery(r, str(qf), "3", "indri", "false", "false", "inex", "7")
    out = capsys.readouterr().out
    assert out.startswith('<inex-submission participant-id="7" ')
    assert '<topic topic-id="9">' in out
    assert "<path>/article[1]/sec[1]</path>" in out
    assert out.endswith("</inex-submission>\n")

    cmd_runquery(r, str(qf), "2", "indri", "false", "false", "plain")
    out = capsys.readouterr().out
    rows = [ln.split("\t") for ln in out.strip().splitlines()]
    assert len(rows) == 2
    # score \t docno \t begin \t end (ref:runquery/IndriRunQuery.cpp:476-481)
    assert all(len(rr) == 4 for rr in rows)
    assert [int(rr[2]) for rr in rows] == [0, 0]  # top extents begin at 0


def test_wildcard_syn_band_in_extents(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    sec_total = float(r.field_stats("sec")["total_len"])
    # wildcard alp* → syn(alpha): identical to the plain-term query
    w = _rows(run_extents(r, "#combine[sec](alp*)", k=100))
    t = _rows(run_extents(r, "#combine[sec](alpha)", k=100))
    assert w == t
    # #syn(alpha gamma) in doc0: sec1 has alpha (1), sec2 alpha+gamma (2)
    rows = _rows(run_extents(r, "#combine[sec](#syn(alpha gamma))", k=100))
    by_ext = {(d, b, e): s for d, b, e, s in rows}
    # cf = union occurrences within sec over union docs: doc0 3, doc1 1,
    # doc3 1 → 5
    assert by_ext[(0, 0, 2)] == pytest.approx(
        _dir(1, 2, 5.0, sec_total), abs=1e-12)
    assert by_ext[(0, 2, 5)] == pytest.approx(
        _dir(2, 3, 5.0, sec_total), abs=1e-12)
    # #band(alpha beta): 1 where both present in the extent, else 0
    rows = _rows(run_extents(r, "#combine[sec](#band(alpha beta))", k=100))
    by_ext = {(d, b, e): s for d, b, e, s in rows}
    # FOREGROUND is per-extent — only extents CONTAINING a band match
    # survive the hasMatch gate (doc0 sec1 and doc1's extent); the band
    # STATISTIC is doc-level over the sec union (the engine's two-pass
    # node statistics): docs 0, 1 AND 3 (alpha in sec[1], beta in
    # sec[2]) → cf = 3
    assert set(by_ext) == {(0, 0, 2), (1, 0, 3)}
    assert by_ext[(0, 0, 2)] == pytest.approx(
        _dir(1, 2, 3.0, sec_total), abs=1e-12)
    assert by_ext[(1, 0, 3)] == pytest.approx(
        _dir(1, 3, 3.0, sec_total), abs=1e-12)


def test_filreq_masks_whole_doc(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    # require gamma (only doc0 has it): other docs' extents are excluded,
    # doc0 keeps BOTH extents (doc-level filter, FilterRequireNode wraps
    # the scored node)
    rows = _rows(run_extents(r, "#filreq(gamma #combine[sec](alpha))",
                             k=100))
    # filreq root is not a ctx root → doc-level fallback (begin=end=0)
    assert all(b == 0 and e == 0 for _d, b, e, _s in rows)
    rows2 = _rows(run_extents(r, "#combine[sec](#filreq(gamma alpha))",
                              k=100))
    assert {d for d, _b, _e, _s in rows2} == {0}
    assert [(b, e) for _d, b, e, _s in rows2] == [(0, 2), (2, 5)]


def test_nexi_element_results(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.nexi import run_nexi, run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(r, "//sec[about(., alpha)]", k=100)
    # NEXI CO/CAS target → per-sec-extent ranking, same as the dialect form
    ids2, bs2, es2, sc2 = run_extents(r, "#combine[sec](#combine(alpha))",
                                      k=100)
    assert ids.tolist() == ids2.tolist()
    assert bs.tolist() == bs2.tolist() and es.tolist() == es2.tolist()
    assert sc.tolist() == sc2.tolist()
    assert max(es.tolist()) > 0  # real element extents

    # support-path CAS target now evaluates per extent: no sec extent has
    # an article DESCENDANT, so every anchored path comes up empty and the
    # MaxNode yields no results at all (ref:include/indri/MaxNode.hpp:
    # 89-95 — empty child results → empty list)
    q = "//sec[about(.//article, alpha)]"
    ids3, bs3, es3, sc3 = run_nexi_extents(r, q, k=10)
    assert len(ids3) == 0

    # a genuinely element-unsupported inner shape (nested plain-field
    # restriction, dialect-only) still degrades to document results
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine

    q2 = "#combine[sec](#combine[article](alpha))"
    ids4, bs4, es4, sc4 = run_extents(r, q2, k=10, strict=False)
    idsd, scd = StructuredQueryEngine(r).run(q2, k=10)
    assert ids4.tolist() == idsd.tolist()
    assert sc4.tolist() == scd.tolist()
    assert not bs4.any() and not es4.any()


def test_two_restriction_form(ext_index):
    from indri_5_5_ray.pipelines.extents import run_nested_extents
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    # //article[about(., alpha)]//sec[about(., beta)]: doc3 is the only
    # doc with both fields; article extent E=(0,2); sec extents inside:
    # (0,1) has no beta (c2 hasMatch gate drops it), (1,2) has beta
    ids, bs, es, sc = run_nexi_extents(
        r, "//article[about(., alpha)]//sec[about(., beta)]", k=10)
    assert (ids.tolist(), bs.tolist(), es.tolist()) == ([3], [1], [2])
    art_total = float(r.field_stats("article")["total_len"])
    sec_total = float(r.field_stats("sec")["total_len"])
    # score = c1 belief at E (article-context stats: cf(alpha in article)
    # = 1) + c2 belief at the sec extent (cf(beta in sec) = 4)
    want = _dir(1, 2, 1.0, art_total) + _dir(1, 1, 4.0, sec_total)
    assert sc[0] == pytest.approx(want, abs=1e-12)
    # the direct API agrees with the NEXI routing
    ids2, bs2, es2, sc2 = run_nested_extents(
        r, "article", "#combine(alpha)", "sec", "#combine(beta)", k=10)
    assert ids2.tolist() == ids.tolist() and sc2.tolist() == sc.tolist()


def test_path_target_element_results(ext_index):
    # //article//sec[c]: NestedExtentInsideNode chain — result elements
    # are the INNERMOST (sec) extents contained in an article extent;
    # clause statistics are ContextCountAccumulator counts over the
    # surviving extent LIST (ref:include/indri/
    # ExtentRestrictionModelAnnotatorCopier.hpp:59-66): context size =
    # Σ surviving lengths, cf = occurrences within the collapsed list
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//article//sec[about(., alpha)]", k=10)
    # survivors: doc3's sec (0,1) and (1,2) only; alpha within the list
    # cf = 1, context size = 1 + 1 = 2; the hasMatch gate drops (1,2)
    assert (ids.tolist(), bs.tolist(), es.tolist()) == ([3], [0], [1])
    assert sc[0] == pytest.approx(_dir(1, 1, 1.0, 2.0), abs=1e-12)


def test_path_self_containment_matches_single_restriction(ext_index):
    # //sec//sec[c] ≡ //sec[c]: NestedExtentInsideNode containment is
    # weak (Extent::contains uses ≤/≥), so every sec extent contains
    # itself and the chain's surviving list IS the sec extent list —
    # same extents, same statistics (Σ lengths = field total, collapsed
    # occurrences = field-union occurrences), bitwise-equal scores
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    a = run_nexi_extents(r, "//sec//sec[about(., alpha)]", k=100)
    b = run_extents(r, "#combine[sec](alpha)", k=100)
    for x, y in zip(a, b):
        assert x.tolist() == y.tolist()


def test_path_chain_steps_need_not_nest(ext_index):
    # //sec//article//sec[c]: each chain level tests the same INNERMOST
    # extent — doc3's sec extents are inside an article extent AND
    # inside a sec extent (themselves), even though no article is inside
    # any sec.  The nested lowering is a conjunction of per-step
    # containments, NOT XPath ancestry (ref:src/NestedExtentInsideNode.
    # cpp:47-103 pairs (…(sn in s(n-1))…) in s1 against sn's extents)
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//sec//article//sec[about(., beta)]", k=10)
    assert (ids.tolist(), bs.tolist(), es.tolist()) == ([3], [1], [2])
    assert sc[0] == pytest.approx(_dir(1, 1, 1.0, 2.0), abs=1e-12)


def test_path_alternative_list_innermost_step(ext_index):
    # //article//(sec|article)[c]: the innermost step is an alternative
    # list; survivors in doc3 = article(0,2) (self-contained), sec(0,1),
    # sec(1,2); context size = 2+1+1 = 4, collapsed outermost = (0,2) →
    # cf(beta) = 1; hasMatch keeps article(0,2) and sec(1,2)
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//article//(sec|article)[about(., beta)]", k=10)
    got = {(d, b, e): s for d, b, e, s in
           zip(ids.tolist(), bs.tolist(), es.tolist(), sc.tolist())}
    want = {
        (3, 1, 2): _dir(1, 1, 1.0, 4.0),
        (3, 0, 2): _dir(1, 2, 1.0, 4.0),
    }
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)
    # the smaller element outranks the larger at equal counts
    assert (ids[0], bs[0], es[0]) == (3, 1, 2)


def test_path_target_absent_field_empty(ext_index):
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    for q in ("//nosuch//sec[about(., alpha)]",
              "//sec//nosuch[about(., alpha)]"):
        ids, bs, es, sc = run_nexi_extents(r, q, k=10)
        assert len(ids) == 0


def test_path_target_support_clause_doc_fallback(ext_index):
    # a support path anchored under the chain context cannot score at
    # element granularity (the anchored walk needs a field-restriction
    # root) — the route degrades to document results through the nested
    # dialect translation, exactly like run_extents(strict=False)
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.nexi import parse_nexi, run_nexi_extents

    r = _reader(ext_index)
    q = "//article//sec[about(.//sec, alpha)]"
    ids, bs, es, sc = run_nexi_extents(r, q, k=10)
    assert not bs.any() and not es.any()
    idsd, scd = StructuredQueryEngine(r).run(parse_nexi(q), k=10)
    assert ids.tolist() == idsd.tolist()
    assert sc.tolist() == scd.tolist()


def test_path_target_sharded_bit_identity(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents_path
    from indri_5_5_ray.pipelines.query import IndexReader

    r = IndexReader(ext_index)
    steps = (("article",), ("sec", "article"))
    full = run_extents_path(r, steps, "#combine(alpha beta)", k=100)
    parts = [run_extents_path(r, steps, "#combine(alpha beta)", k=100,
                              doc_range=dr)
             for dr in ((0, 2), (2, 4), (4, 6))]
    d = np.concatenate([p[0] for p in parts])
    b = np.concatenate([p[1] for p in parts])
    e = np.concatenate([p[2] for p in parts])
    s = np.concatenate([p[3] for p in parts])
    order = np.lexsort((-e, -b, -d, -s))[:100]
    assert d[order].tolist() == full[0].tolist()
    assert b[order].tolist() == full[1].tolist()
    assert e[order].tolist() == full[2].tolist()
    assert s[order].tolist() == full[3].tolist()


def test_two_restriction_path_second_restriction(ext_index):
    # //article[c1]//article//sec[c2]: the second restriction is a PATH
    # — its extents are the chain survivors (doc3's secs), its clause
    # statistics the chain-list context (size 2, cf(beta)=1); the first
    # restriction keeps plain article field statistics
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//article[about(., alpha)]//article//sec[about(., beta)]",
        k=10)
    assert (ids.tolist(), bs.tolist(), es.tolist()) == ([3], [1], [2])
    art_total = float(r.field_stats("article")["total_len"])
    want = _dir(1, 2, 1.0, art_total) + _dir(1, 1, 1.0, 2.0)
    assert sc[0] == pytest.approx(want, abs=1e-12)


def test_two_restriction_extentor_first_restriction(ext_index):
    # //(article|sec)[c1]//sec[c2]: the enforcement side is an
    # alternative list — its extents are BOTH fields' extents and c1
    # draws ContextCountAccumulator statistics over them (summed field
    # sizes, outermost-collapsed occurrence counts).  c1 is NOT
    # hasMatch-gated: doc3's alpha-free sec(1,2) still scores as an
    # enclosing extent (background), and the same b extent inside two
    # a extents yields one result PER enclosing extent
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//(article|sec)[about(., alpha)]//sec[about(., beta)]", k=10)
    total_ctx = 14.0  # article 2 + sec 12
    sec_total = float(r.field_stats("sec")["total_len"])
    rows = sorted(zip(ids.tolist(), bs.tolist(), es.tolist(),
                      sc.tolist()))
    # doc0: E=sec(0,2) ⊇ b=(0,2); doc1: E=(0,3) ⊇ b=(0,3);
    # doc3: b=(1,2) inside article(0,2) AND itself → two results
    want = sorted([
        (0, 0, 2, _dir(1, 2, 4.0, total_ctx) + _dir(1, 2, 4.0, sec_total)),
        (1, 0, 3, _dir(1, 3, 4.0, total_ctx) + _dir(2, 3, 4.0, sec_total)),
        (3, 1, 2, _dir(1, 2, 4.0, total_ctx) + _dir(1, 1, 4.0, sec_total)),
        (3, 1, 2, _dir(0, 1, 4.0, total_ctx) + _dir(1, 1, 4.0, sec_total)),
    ])
    assert len(rows) == len(want)
    for (d, b, e, s), (dw, bw, ew, sw) in zip(rows, want):
        assert (d, b, e) == (dw, bw, ew)
        assert s == pytest.approx(sw, abs=1e-12)


def test_two_restriction_support_path_clause(ext_index):
    # a support path INSIDE a two-restriction clause must keep its .//
    # anchor lead through translation (review fix): c1 =
    # about(.//sec, alpha) at E = article(0,2) walks the anchored path —
    # best sec descendant with alpha is (0,1), scored with the path's
    # last-step (sec) context; c2 = beta at the enclosed sec extent
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//article[about(.//sec, alpha)]//sec[about(., beta)]", k=10)
    assert (ids.tolist(), bs.tolist(), es.tolist()) == ([3], [1], [2])
    sec_total = float(r.field_stats("sec")["total_len"])
    # cf(alpha within article→sec path extents) = 1 (doc3 only)
    want = _dir(1, 1, 1.0, sec_total) + _dir(1, 1, 4.0, sec_total)
    assert sc[0] == pytest.approx(want, abs=1e-12)


def test_two_restriction_or_of_one_matches_plain_field(ext_index):
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    a = run_nexi_extents(
        r, "//(article)[about(., alpha)]//sec[about(., beta)]", k=10)
    b = run_nexi_extents(
        r, "//article[about(., alpha)]//sec[about(., beta)]", k=10)
    for x, y in zip(a, b):
        assert x.tolist() == y.tolist()


def test_shrinkage_extent_scores(ext_index):
    # //sec[about(., alpha)] in shrinkage mode (no rules, pw=dw=0,
    # linear lam=0.4): base recovers the node MLE, down = base, and the
    # !queryLevelCombine transform gives score = log(0.6·MLE + 0.4·p_c).
    # EVERY sec node of a tree containing alpha matches (down != 0 — the
    # reference's "matches elsewhere in the document" comment), so doc3's
    # alpha-free second sec is kept at the pure-background value.
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(r, "//sec[about(., alpha)]",
                                       shrinkage=True, k=100)
    p_c = 5.0 / r.total_terms  # cf(alpha)=5, total=14
    def s(mle):
        return math.log(0.6 * mle + 0.4 * p_c)
    want = {
        (0, 0, 2): s(1 / 2),
        (0, 2, 5): s(1 / 3),
        (1, 0, 3): s(1 / 3),
        (3, 0, 1): s(1.0),
        (3, 1, 2): s(0.0),
    }
    got = {(d, b, e): v for d, b, e, v in
           zip(ids.tolist(), bs.tolist(), es.tolist(), sc.tolist())}
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)
    # ranking: MLE 1.0 first, background last
    assert (ids[0], bs[0], es[0]) == (3, 0, 1)
    assert (ids[-1], bs[-1], es[-1]) == (3, 1, 2)


def test_wildcard_field_elements_co_query(ext_index):
    # NEXI bare term list = INEX CO: ExtentRestriction(c, FieldWildcard)
    # → every extent of every indexed field is a result element, term
    # backgrounds drawn from occurrences inside the OUTERMOST field
    # extents over the summed field context size
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_nexi_extents(r, "alpha beta", k=100)
    total = (float(r.field_stats("article")["total_len"])
             + float(r.field_stats("sec")["total_len"]))  # 2 + 12
    # cf within context: alpha → doc0:2 doc1:1 doc3:1 = 4; beta → 4
    def s(ca, cb, ln):
        return (_dir(ca, ln, 4.0, total) + _dir(cb, ln, 4.0, total)) / 2
    want = {
        (0, 0, 2): s(1, 1, 2),
        (0, 2, 5): s(1, 0, 3),
        (1, 0, 3): s(1, 2, 3),
        (3, 0, 2): s(1, 1, 2),  # the article element itself
        (3, 0, 1): s(1, 0, 1),
        (3, 1, 2): s(0, 1, 1),
    }
    got = {(d, b, e): v for d, b, e, v in
           zip(ids.tolist(), bs.tolist(), es.tolist(), sc.tolist())}
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_alternative_field_list_elements(ext_index):
    # //(article|sec)[about(., ...)] names every indexed field of this
    # corpus, so its element results must equal the CO (FieldWildcard) run
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents

    r = _reader(ext_index)
    a = run_nexi_extents(r, "//(article|sec)[about(., alpha beta)]", k=100)
    b = run_nexi_extents(r, "alpha beta", k=100)
    for x, y in zip(a, b):
        assert x.tolist() == y.tolist()
    # restricting to sec only drops the article element and its length
    # from the context statistics
    s = run_nexi_extents(r, "//(sec)[about(., alpha beta)]", k=100)
    sec_total = float(r.field_stats("sec")["total_len"])
    got = {(d, bb, ee): v for d, bb, ee, v in
           zip(s[0].tolist(), s[1].tolist(), s[2].tolist(), s[3].tolist())}
    assert (3, 0, 2) not in got  # no article element
    # cf within sec context: alpha 4, beta 4 (doc0 1, doc1 2, doc3 1)
    assert got[(0, 0, 2)] == pytest.approx(
        (_dir(1, 2, 4.0, sec_total) + _dir(1, 2, 4.0, sec_total)) / 2,
        abs=1e-12)


def test_sharded_extents_bit_identical(ext_index):
    from indri_5_5_ray.pipelines.extents import run_extents
    from indri_5_5_ray.pipelines.run import run_extents_sharded

    r = _reader(ext_index)
    queries = [("1", "#combine[sec](alpha)"),
               ("2", "#combine[passage2:1](alpha beta)"),
               ("3", "#combine(alpha beta)")]  # doc-level fallback
    t = run_extents_sharded(ext_index, queries, k=50, n_shards=3,
                            concurrency=(1, 2))
    for qid, text in queries:
        ids, bs, es, sc = run_extents(r, text, k=50, strict=False)
        m = [i for i, q in enumerate(t.column("qid").to_pylist()) if q == qid]
        assert [t.column("doc_id")[i].as_py() for i in m] == ids.tolist()
        assert [t.column("begin")[i].as_py() for i in m] == bs.tolist()
        assert [t.column("end")[i].as_py() for i in m] == es.tolist()
        assert [t.column("score")[i].as_py() for i in m] == sc.tolist()


def test_cli_runquery_print_passages(ext_index, tmp_path, capsys):
    from indri_5_5_ray.cli import cmd_runquery

    r = _reader(ext_index)
    qf = tmp_path / "q.txt"
    qf.write_text("1\t#combine[sec](gamma)\n")
    cmd_runquery(r, str(qf), "3", "indri", "false", "false", "plain",
                 "1", "indri55ray", "true")
    out = capsys.readouterr().out.splitlines()
    # only doc0's second sec extent (2,5) matches gamma; the passage line
    # is the byte slice of token slots [2,5) = "alpha gamma delta"
    assert len(out) == 2
    assert out[0].endswith("\t2\t5")
    assert out[1] == "alpha gamma delta"


def test_build_snippets_empty_results_and_doc_set_filter(ext_index):
    # regression: _fetch_postings(doc_set=[]) crashed on the empty sorted
    # id array (numpy & evaluates both operands eagerly)
    from indri_5_5_ray.pipelines.snippets import build_snippets

    r = _reader(ext_index)
    assert build_snippets(r, "alpha", []) == {}
    # and the block filter keeps results identical for non-empty lists
    snips = build_snippets(r, "alpha", [0, 3])
    assert "ALPHA" in snips[0].upper()


PATH_DOCS = [
    "<sec><title> alpha beta </title> gamma </sec>",
    "<sec> alpha </sec> <title> alpha </title>",
    "<sec><title> beta </title></sec> <sec><title> alpha gamma </title></sec>",
]


@pytest.fixture(scope="module")
def path_ext_index(tmp_path_factory):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("pathextidx")
    corpus = d / "corpus"
    corpus.mkdir()
    t = pa.table({
        "repo": ["r"] * len(PATH_DOCS),
        "path": [f"d{i}.txt" for i in range(len(PATH_DOCS))],
        "commit": [f"c{i}" for i in range(len(PATH_DOCS))],
        "lang": ["txt"] * len(PATH_DOCS),
        "content": PATH_DOCS,
    })
    pq.write_table(t, corpus / "corpus.parquet")
    out = str(d / "idx")
    cfg = IndexConfig(stemmer=None, dedup_key=None, n_buckets=4,
                      max_chunk_docs=64, fields=("sec", "title"))
    build_index(str(corpus), out, cfg, resume=False)
    return out


def test_path_support_clause_elements(path_ext_index):
    # //sec[about(.//title, alpha)] — the MaxNode over the path-restricted
    # inner: each sec extent scores as the BEST title descendant with an
    # alpha match; secs without one yield nothing
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents
    from indri_5_5_ray.pipelines.query import IndexReader

    r = IndexReader(path_ext_index)
    ids, bs, es, sc = run_nexi_extents(r, "//sec[about(.//title, alpha)]",
                                       k=10)
    # stats: cf(alpha in title-under-sec) = doc0 1 + doc2 1 = 2;
    # total = title total_len = 2 + 1 + 1 + 2 = 6
    title_total = float(r.field_stats("title")["total_len"])
    assert title_total == 6.0
    want = _dir(1, 2, 2.0, title_total)
    got = list(zip(ids.tolist(), bs.tolist(), es.tolist()))
    # doc1's title is OUTSIDE its sec; doc2's first sec's title has no
    # alpha (inner hasMatch gate) — tie doc desc puts doc2 first
    assert got == [(2, 1, 3), (0, 0, 3)]
    assert sc[0] == pytest.approx(want, abs=1e-12)
    assert sc[1] == pytest.approx(want, abs=1e-12)


def test_mixed_support_path_and_plain_clause(path_ext_index):
    # //sec[about(.//title, alpha) AND about(., gamma)]: the combiner
    # normalizes over children that produced results (WeightedAndNode
    # sumWeight counts |w|·size), so a sec whose path side is empty
    # scores on the plain side alone — and drops entirely only when NO
    # child scored AND no leaf matched (the restriction gate)
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents
    from indri_5_5_ray.pipelines.query import IndexReader

    r = IndexReader(path_ext_index)
    ids, bs, es, sc = run_nexi_extents(
        r, "//sec[about(.//title, alpha) AND about(., gamma)]", k=10)
    got = {(d, b, e): v for d, b, e, v in
           zip(ids.tolist(), bs.tolist(), es.tolist(), sc.tolist())}
    title_total = 6.0
    sec_total = float(r.field_stats("sec")["total_len"])  # 3+1+1+2 = 7
    path_side = _dir(1, 2, 2.0, title_total)
    # cf(gamma within sec) = doc0:1 + doc2:1 = 2
    g0 = _dir(1, 3, 2.0, sec_total)   # doc0 sec (0,3)
    g2 = _dir(1, 2, 2.0, sec_total)   # doc2 sec (1,3)
    # doc1's sec and doc2's first sec: no gamma, no surviving path → gone
    assert set(got) == {(0, 0, 3), (2, 1, 3)}
    assert got[(0, 0, 3)] == pytest.approx((path_side + g0) / 2, abs=1e-12)
    assert got[(2, 1, 3)] == pytest.approx((path_side + g2) / 2, abs=1e-12)


def test_extent_query_on_absent_field(ext_index):
    # regression: a restriction on a field with no extents crashed with
    # IndexError (empty CSR + non-short-circuiting numpy &) instead of
    # returning empty results
    from indri_5_5_ray.pipelines.extents import run_extents

    r = _reader(ext_index)
    ids, bs, es, sc = run_extents(r, "#combine[nosuchfield](alpha)", k=10)
    assert len(ids) == 0


NUM_DOCS = [
    "<sec> alpha <size> 3 </size> </sec>",
    "<sec> alpha <size> 9 </size> </sec>",
    "<sec> alpha </sec> <size> 2 </size>",
]


def test_numeric_predicate_elements(tmp_path_factory):
    # //sec[.//size < 5] → #combine[sec](#max(#less(size 5))): per sec
    # extent, count = satisfying size extents CONTAINED in it; doc2's
    # satisfying size sits outside its sec (gate drops it), doc1's value
    # fails the predicate
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index
    from indri_5_5_ray.pipelines.nexi import run_nexi_extents
    from indri_5_5_ray.pipelines.query import IndexReader

    d = tmp_path_factory.mktemp("numextidx")
    corpus = d / "corpus"
    corpus.mkdir()
    t = pa.table({
        "repo": ["r"] * len(NUM_DOCS),
        "path": [f"d{i}.txt" for i in range(len(NUM_DOCS))],
        "commit": [f"c{i}" for i in range(len(NUM_DOCS))],
        "lang": ["txt"] * len(NUM_DOCS),
        "content": NUM_DOCS,
    })
    pq.write_table(t, corpus / "corpus.parquet")
    out = str(d / "idx")
    cfg = IndexConfig(stemmer=None, dedup_key=None, n_buckets=4,
                      max_chunk_docs=64, fields=("sec", "size"),
                      numeric_fields=("size",))
    build_index(str(corpus), out, cfg, resume=False)
    r = IndexReader(out)
    ids, bs, es, sc = run_nexi_extents(r, "//sec[.//size < 5]", k=10)
    assert list(zip(ids.tolist(), bs.tolist(), es.tolist())) == [(0, 0, 2)]
    sec_total = float(r.field_stats("sec")["total_len"])  # 2 + 2 + 1
    # cf = GLOBAL satisfying count (2: docs 0 and 2), total = sec context
    assert sc[0] == pytest.approx(_dir(1, 2, 2.0, sec_total), abs=1e-12)


def test_multisec_corpus_builder(tmp_path):
    from indri_5_5_ray.sources.corpus import corpus_from_documents_multisec

    docs = pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": ["Alpha beta GAMMA delta epsilon"],
        "source": ["s"], "lang": ["en"],
        "n_chars": pa.array([30], pa.int64()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")
    t = corpus_from_documents_multisec(str(tmp_path))
    c = t.column("content").to_pylist()[0]
    # 5 tokens → h = 3: halves [alpha beta gamma] / [delta epsilon]
    assert c == ("<title> alpha beta gamma delta epsilon </title>"
                 " <sec> alpha beta gamma </sec> <sec> delta epsilon </sec>"
                 " <size> 30 </size>")
