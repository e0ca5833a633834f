"""Field indexing + field/extent query operators, end to end: tag parsing at
ingest, extent lists + global field statistics, restriction semantics
(``term.f``, ``term.(f)``, ``#op[f]``), ``#any:f``, numeric/date predicates,
``#filreq``/``#filrej``, ``#wsyn`` and ``#sum`` — checked against
hand-computed dirichlet beliefs."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

MU = 2500.0

DOCS = [
    "<title>alpha beta</title> alpha gamma <size> 10 </size>",
    "<title>beta gamma</title> delta delta <size> 20 </size>",
    "alpha beta no title here <size> 30 </size>",
    "<title>alpha alpha</title> epsilon <date> 15 January 2004 </date> <size> 15 </size>",
    "gamma delta <size> 5 </size>",
]

# token streams (tags consume no slots)
TOKS = [
    ["alpha", "beta", "alpha", "gamma", "10"],
    ["beta", "gamma", "delta", "delta", "20"],
    ["alpha", "beta", "no", "title", "here", "30"],
    ["alpha", "alpha", "epsilon", "15", "january", "2004", "15"],
    ["gamma", "delta", "5"],
]
TITLE = {0: (0, 2), 1: (0, 2), 3: (0, 2)}  # doc → title extent
SIZES = {0: 10, 1: 20, 2: 30, 3: 15, 4: 5}


@pytest.fixture(scope="module")
def field_index(tmp_path_factory):
    from indri_5_5_ray.config import IndexConfig
    from indri_5_5_ray.pipelines.build import build_index

    d = tmp_path_factory.mktemp("fieldidx")
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
    cfg = IndexConfig(
        stemmer=None, dedup_key=None, n_buckets=4, max_chunk_docs=64,
        fields=("title", "size", "date"),
        numeric_fields=("size",), date_fields=("date",),
    )
    manifest = build_index(str(corpus), out, cfg, resume=False)
    return out, manifest


def _dir(c, dl, cf, total):
    p_c = cf / total if cf > 0 else 1.0 / (2.0 * total)
    return math.log((c + MU * p_c) / (dl + MU))


TOTAL = sum(len(t) for t in TOKS)
DL = [len(t) for t in TOKS]


def _engine(field_index):
    from indri_5_5_ray.pipelines.indriql import StructuredQueryEngine
    from indri_5_5_ray.pipelines.query import IndexReader

    out, _ = field_index
    return StructuredQueryEngine(IndexReader(out))


def _scores(eng, q, k=10) -> dict[int, float]:
    ids, sc = eng.run(q, k=k)
    return dict(zip(ids.tolist(), sc.tolist()))


def test_extents_and_stats(field_index):
    from indri_5_5_ray.pipelines.query import IndexReader

    out, manifest = field_index
    r = IndexReader(out)
    t = r.field_extents("title")
    got = {d: (b[0], e[0]) for d, b, e in zip(
        t.column("doc_id").to_pylist(), t.column("begins").to_pylist(),
        t.column("ends").to_pylist())}
    assert got == TITLE
    s = r.field_extents("size")
    nums = {d: n[0] for d, n in zip(s.column("doc_id").to_pylist(),
                                    s.column("numbers").to_pylist())}
    assert nums == SIZES
    fs = manifest["field_stats"]
    assert fs["title"] == {"total_len": 6, "extent_count": 3, "doc_count": 3}
    assert fs["size"]["doc_count"] == 5
    # date field parsed to a day serial (15 January 2004)
    import datetime
    want_days = (datetime.date(2004, 1, 15) - datetime.date(1970, 1, 1)).days
    dt = r.field_extents("date")
    assert dt.column("numbers").to_pylist()[0][0] == want_days


def test_term_field_restriction_doc_context(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "alpha.title")
    # counts in title: doc0=1, doc3=2; cf restricted = 3; doc context
    cands = {0: 1, 2: 0, 3: 2}  # candidates = docs containing alpha
    want = {d: _dir(c, DL[d], 3.0, TOTAL) for d, c in cands.items()}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_term_field_context(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "alpha.(title)")
    # field context: dl_f = title length (2 or 0), total_f = 6, cf = 3
    dlf = {0: 2, 2: 0, 3: 2}
    cnt = {0: 1, 2: 0, 3: 2}
    want = {d: _dir(cnt[d], dlf[d], 3.0, 6.0) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_combine_bracket_ctx(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "#combine[title](alpha beta)")
    # both leaves in title context
    a = {0: 1, 1: 0, 2: 0, 3: 2}
    b = {0: 1, 1: 1, 2: 0, 3: 0}
    dlf = {0: 2, 1: 2, 2: 0, 3: 2}
    want = {d: 0.5 * (_dir(a[d], dlf[d], 3.0, 6.0) + _dir(b[d], dlf[d], 2.0, 6.0))
            for d in a}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_any_field(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "#any:title")
    # count = #extents (1 for docs 0,1,3), cf = 3 extents, doc context
    want = {d: _dir(1, DL[d], 3.0, TOTAL) for d in (0, 1, 3)}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_numeric_predicates(field_index):
    eng = _engine(field_index)
    # sizes: 10,20,30,15,5 → less 20: docs 0,3,4 ; cf = 3
    got = _scores(eng, "#less(size 20)")
    want = {d: _dir(1, DL[d], 3.0, TOTAL) for d in (0, 3, 4)}
    assert set(got) == set(want)
    # between [10, 20): docs 0,3
    got = _scores(eng, "#between(size 10 20)")
    assert set(got) == {0, 3}
    # equals
    got = _scores(eng, "#equals(size 30)")
    assert set(got) == {2}
    # dates
    got = _scores(eng, "#dateafter(date 2004-01-01)")
    assert set(got) == {3}
    got = _scores(eng, "#datebefore(date 2004-01-01)")
    assert set(got) == set()


def test_field_leaves_ignore_an_enclosing_restriction(field_index):
    """Pins an unverified choice (docs/SPEC.md §7): under
    ``#combine[title](…)`` a term counts only inside ``title``, but
    ``#any:size`` and ``#less(size v)`` count every ``size`` extent of the
    doc, and so do their statistics (cf); only the scoring context (title
    length, title total) comes from the restriction.  No ``size`` extent
    lies inside a title, so a restricting rule would count 0 everywhere."""
    eng = _engine(field_index)
    dlf = {0: 2, 1: 2, 2: 0, 3: 2, 4: 0}  # title length per doc
    for q, cnt, cf in (("#combine[title](#any:size)", dict.fromkeys(range(5), 1), 5.0),
                       ("#combine[title](#less(size 20))", dict.fromkeys((0, 3, 4), 1), 3.0)):
        got = _scores(eng, q)
        want = {d: _dir(c, dlf[d], cf, 6.0) for d, c in cnt.items()}
        assert set(got) == set(want), q
        for d in want:
            assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12), (q, d)


def test_filreq_filrej(field_index):
    eng = _engine(field_index)
    # alpha docs = {0,2,3}; size<20 docs = {0,3,4}; the filter only
    # RESTRICTS the scored node's candidates (no doc 4)
    got = _scores(eng, "#filreq(#less(size 20) alpha)")
    base = _scores(eng, "alpha")
    assert set(got) == {0, 3}
    for d in (0, 3):
        assert got[d] == pytest.approx(base[d], abs=1e-12)
    got = _scores(eng, "#filrej(#less(size 20) alpha)")
    assert set(got) == {2}
    # scoreif alias
    assert _scores(eng, "#scoreif(#less(size 20) alpha)") == _scores(
        eng, "#filreq(#less(size 20) alpha)")


def test_wsyn_and_sum(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "#wsyn(2.0 alpha 1.0 beta)")
    # normalized weights 2/3, 1/3; counts = weighted member tfs
    a = {0: 2, 1: 0, 2: 1, 3: 2, 4: 0}
    b = {0: 1, 1: 1, 2: 1, 3: 0, 4: 0}
    cands = {d for d in a if a[d] or b[d]}
    cf = sum(2 / 3 * a[d] + 1 / 3 * b[d] for d in cands)
    want = {d: _dir(2 / 3 * a[d] + 1 / 3 * b[d], DL[d], cf, TOTAL) for d in cands}
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)
    # #sum = equal-weight #wsum
    s1 = _scores(eng, "#sum(alpha beta)")
    s2 = _scores(eng, "#wsum(1.0 alpha 1.0 beta)")
    for d in s1:
        assert s1[d] == pytest.approx(s2[d], abs=1e-12)


def test_window_restriction(field_index):
    eng = _engine(field_index)
    # od1(alpha beta): matches doc0 [0,2), doc2 [0,2); restricted to title →
    # only doc0 (doc2 has no title)
    got = _scores(eng, "#od1(alpha beta).title")
    counts = {d: c for d, c in {0: 1, 2: 0}.items()}
    # candidates = docs with alpha ∪ beta
    cands = {0, 1, 2, 3}
    want = {d: _dir(counts.get(d, 0), DL[d], 1.0, TOTAL) for d in cands}
    assert set(got) == cands
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_band_and_syn_restricted(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "#combine[title](#syn(alpha gamma))")
    # syn positions in title: doc0 {0}, doc1 {1}, doc3 {0,1}
    cnt = {0: 1, 1: 1, 3: 2, 2: 0, 4: 0}
    dlf = {0: 2, 1: 2, 2: 0, 3: 2, 4: 0}
    cf = 4.0
    want = {d: _dir(cnt[d], dlf[d], cf, 6.0) for d in cnt}
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_passage_retrieval(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "#combine[passage3:2](alpha)")
    # alpha positions per doc: d0 {0,2}, d2 {0}, d3 {0,1}
    pos = {0: [0, 2], 2: [0], 3: [0, 1]}
    cf = 5.0  # global cf of alpha
    want = {}
    for d in (0, 2, 3):
        best = -1e99
        start = 0
        while start < DL[d]:
            c = sum(1 for p in pos[d] if start <= p < start + 3)
            dlp = min(DL[d] - start, 3)
            if c > 0:  # no-match windows are skipped (hasMatch gate)
                best = max(best, _dir(c, dlp, cf, TOTAL))
            start += 2
        want[d] = best
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_passage_multi_term(field_index):
    eng = _engine(field_index)
    got = _scores(eng, "#combine[passage2:1](alpha beta)")
    posa = {0: [0, 2], 1: [], 2: [0], 3: [0, 1], 4: []}
    posb = {0: [1], 1: [0], 2: [1], 3: [], 4: []}
    cfa, cfb = 5.0, 3.0
    want = {}
    for d in (0, 1, 2, 3):  # candidates: docs with alpha or beta
        best = -1e99
        start = 0
        while start < DL[d]:
            ca = sum(1 for p in posa[d] if start <= p < start + 2)
            cb = sum(1 for p in posb[d] if start <= p < start + 2)
            dlp = min(DL[d] - start, 2)
            if ca + cb > 0:  # no-match windows are skipped (hasMatch gate)
                best = max(best, 0.5 * (_dir(ca, dlp, cfa, TOTAL) + _dir(cb, dlp, cfb, TOTAL)))
            start += 1
        want[d] = best
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


# alpha positions inside each doc's title extent
ALPHA_IN_TITLE = {0: [0], 1: [], 2: [], 3: [0, 1], 4: []}
TITLE_LEN = {d: (TITLE[d][1] - TITLE[d][0]) if d in TITLE else 0
             for d in range(len(DOCS))}


def _best_passage(d, width, stride, leaves):
    """Best window score of doc d: ``leaves`` maps a window (start, dlp)
    to per-leaf ``(count, belief)`` pairs; no-match windows are skipped
    and the window score is the mean of the leaf beliefs."""
    best = None
    start = 0
    while start < DL[d]:
        parts = leaves(start, min(DL[d] - start, width))
        if any(c > 0 for c, _b in parts):
            s = sum(b for _c, b in parts) / len(parts)
            best = s if best is None else max(best, s)
        start += stride
    return best


def _in_window(positions, start, width):
    return sum(1 for p in positions if start <= p < start + width)


def test_passage_restricted_term(field_index):
    """alpha.title inside a passage: counts are the title's alpha
    positions within the window, the background is alpha's cf inside
    title over the COLLECTION size, the length is the window's."""
    eng = _engine(field_index)
    got = _scores(eng, "#combine[passage2:1](alpha.title beta)")
    posb = {0: [1], 1: [0], 2: [1], 3: [], 4: []}
    cf_at, cfb = 3.0, 3.0
    want = {}
    for d in (0, 1, 2, 3):  # candidates: docs with alpha or beta
        def leaves(start, dlp, d=d):
            ca = _in_window(ALPHA_IN_TITLE[d], start, 2)
            cb = _in_window(posb[d], start, 2)
            return [(ca, _dir(ca, dlp, cf_at, TOTAL)),
                    (cb, _dir(cb, dlp, cfb, TOTAL))]
        want[d] = _best_passage(d, 2, 1, leaves)
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_passage_field_context_term(field_index):
    """alpha.(title) inside a passage scores in title's context: the
    smoothing length is the doc's title length and the background is
    alpha's cf inside title over the title total length."""
    eng = _engine(field_index)
    got = _scores(eng, "#combine[passage2:1](alpha.(title) beta)")
    posb = {0: [1], 1: [0], 2: [1], 3: [], 4: []}
    want = {}
    for d in (0, 1, 2, 3):
        def leaves(start, dlp, d=d):
            ca = _in_window(ALPHA_IN_TITLE[d], start, 2)
            cb = _in_window(posb[d], start, 2)
            return [(ca, _dir(ca, TITLE_LEN[d], 3.0, 6.0)),
                    (cb, _dir(cb, dlp, 3.0, TOTAL))]
        want[d] = _best_passage(d, 2, 1, leaves)
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_passage_over_field_restriction(field_index):
    """#combine[title](alpha) inside a passage: counts are title ∩
    window, scored in title's context; doc 2 (no title) never matches
    and drops out."""
    eng = _engine(field_index)
    got = _scores(eng, "#combine[passage3:2](#combine[title](alpha))")
    want = {}
    for d in (0, 3):
        def leaves(start, dlp, d=d):
            c = _in_window(ALPHA_IN_TITLE[d], start, 3)
            return [(c, _dir(c, TITLE_LEN[d], 3.0, 6.0))]
        want[d] = _best_passage(d, 3, 2, leaves)
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_passage_any_counts_contained_extents(field_index):
    """#any:f inside a passage counts the f extents CONTAINED in the
    window (the predicate rule), not the doc's whole extent count: only
    the window [0, 2) holds a title."""
    eng = _engine(field_index)
    got = _scores(eng, "#combine[passage2:1](#any:title gamma)")
    posg = {0: [3], 1: [1], 3: [], 4: [0]}
    want = {}
    for d in (0, 1, 3, 4):  # candidates: docs with a title or gamma
        def leaves(start, dlp, d=d):
            ca = int(d in TITLE and start <= TITLE[d][0]
                     and TITLE[d][1] <= start + dlp)
            cg = _in_window(posg[d], start, 2)
            return [(ca, _dir(ca, dlp, 3.0, TOTAL)),
                    (cg, _dir(cg, dlp, 3.0, TOTAL))]
        want[d] = _best_passage(d, 2, 1, leaves)
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_window_members_restrict_and_wildcard(field_index):
    """#odN members that are NOT plain terms must not enter the flat batch
    kernel: a restrict-wrapped member uses its field-masked positions, a
    wildcard member its expansion union (regression: the kernel used to
    stem the FIELD NAME as a term and silently mis-score)."""
    eng = _engine(field_index)
    # alpha-restricted-to-title followed directly by beta: only doc0 matches
    got = _scores(eng, "#combine(#od1(alpha.title beta))")
    cnt = {0: 1, 1: 0, 2: 0, 3: 0}
    want = {d: _dir(cnt[d], DL[d], 1.0, TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)

    # wildcard member: de* expands to {delta}
    got = _scores(eng, "#combine(#od1(gamma de*))")
    cnt = {0: 0, 1: 1, 4: 1}
    want = {d: _dir(cnt[d], DL[d], 2.0, TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_syn_members_restrict_and_wildcard(field_index):
    """#syn members: restrict-wrapped members take the per-doc fallback
    (field-masked positions), wildcard members flatten into their expansion
    terms ahead of the flat kernel."""
    eng = _engine(field_index)
    got = _scores(eng, "#combine(#syn(alpha.title gamma))")
    cnt = {0: 2, 1: 1, 2: 0, 3: 2, 4: 1}
    want = {d: _dir(cnt[d], DL[d], 6.0, TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)

    got = _scores(eng, "#combine(#syn(de* gamma))")
    cnt = {0: 1, 1: 3, 4: 2}
    want = {d: _dir(cnt[d], DL[d], 6.0, TOTAL) for d in cnt}
    assert set(got) == set(want)
    for d in want:
        assert got[d] == pytest.approx(want[d], rel=0, abs=1e-12)


def test_wsyn_zero_weights_raises(field_index):
    eng = _engine(field_index)
    with pytest.raises(ValueError, match="wsyn"):
        eng.run("#combine(#wsyn(0 alpha 0 beta))", k=5)


def test_event_tokenizer_fast_path_equivalence():
    """The segmented zap+findall fast path must reproduce the one-pass
    scanner loop exactly (tokens AND tag-event positions)."""
    import random

    from indri_5_5_ray.fields import (
        _tokenize_bytes_events_scanner, tokenize_bytes_events)

    rng = random.Random(11)
    pieces = ["alpha", "Beta.", "U.S.A.", "-3.14", "naïve", "don't", "42",
              "<title>", "</title>", "<sec id=3>", "</sec>", "<p>", "</p>",
              "<!-- <b>hid</b> -->", "<!DOCTYPE html>", "&amp;", "&#65;",
              "a&b", "<% pct %>", "<?xml version='1'?>", " ", "\n", "...",
              "<", ">", "&", "</>", "<9bad>", "中文", "ＡＢ", "<!--open"]
    for _ in range(500):
        s = "".join(rng.choice(pieces)
                    for _ in range(rng.randrange(0, 25))).encode("utf-8")
        assert tokenize_bytes_events(s) == _tokenize_bytes_events_scanner(s), s
