"""Codec unit tests: RVL vbyte round-trip + format pins + posting blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indri_5_5_ray.codec import (
    cut_blocks_pre,
    decode_block,
    decode_doc_tf_batch,
    decode_full_batch,
    fold_negatives,
    segmented_cumsum,
    segmented_delta,
    unfold_negatives,
    vbyte_decode,
    vbyte_encode,
    vbyte_sizes,
)


def test_vbyte_format_pins():
    # single-byte value: terminator bit set (ref:RVLCompress.hpp:99-110)
    assert vbyte_encode(np.array([0])) == bytes([0x80])
    assert vbyte_encode(np.array([1])) == bytes([0x81])
    assert vbyte_encode(np.array([127])) == bytes([0xFF])
    # two bytes: low 7 bits first (little-endian groups), high bit on last
    assert vbyte_encode(np.array([128])) == bytes([0x00, 0x81])
    assert vbyte_encode(np.array([300])) == bytes([300 & 0x7F, 0x80 | (300 >> 7)])


def test_vbyte_sizes():
    vals = np.array([0, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) - 1, 1 << 21])
    assert vbyte_sizes(vals).tolist() == [1, 1, 2, 2, 3, 3, 4]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_vbyte_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    assert vbyte_decode(vbyte_encode(arr)).tolist() == values


def test_fold_negatives():
    # ref:RVLCompress.hpp:65-75
    v = np.array([0, -1, 1, -2, 2, -(10**12), 10**12])
    assert unfold_negatives(fold_negatives(v)).tolist() == v.tolist()
    assert fold_negatives(np.array([-1])).tolist() == [1]
    assert fold_negatives(np.array([1])).tolist() == [2]


def test_segmented_cumsum_delta_roundtrip():
    vals = np.array([3, 5, 9, 1, 2, 7, 7, 8], dtype=np.int64)
    lens = np.array([3, 2, 3])
    d = segmented_delta(vals, lens)
    assert segmented_cumsum(d, lens).tolist() == vals.tolist()
    # with bases, segment i's sums start from bases[i]
    bases = np.array([100, -7, 2**40])
    assert segmented_cumsum(d, lens, bases).tolist() == (
        vals + np.repeat(bases, lens)).tolist()
    # zero-length segments (np.add.reduceat reads one as a one-value
    # segment) hold nothing and shift nothing, at the ends and inside
    lens0 = np.array([0, 3, 0, 0, 2, 3, 0])
    bases0 = np.array([5, 100, 6, 7, -7, 2**40, 8])
    assert segmented_cumsum(d, lens0).tolist() == vals.tolist()
    assert segmented_cumsum(d, lens0, bases0).tolist() == (
        vals + np.repeat(bases0, lens0)).tolist()
    assert segmented_cumsum(np.empty(0, np.int64), [0, 0], [1, 2]).tolist() == []
    # random layouts against a per-segment cumsum; the input is not written
    rng = np.random.default_rng(3)
    for _ in range(200):
        lens = rng.integers(0, 5, rng.integers(1, 8))
        deltas = rng.integers(0, 2**16, int(lens.sum())).astype(np.uint16)
        bases = rng.integers(-2**40, 2**40, len(lens))
        before = deltas.copy()
        cuts = np.cumsum(lens)[:-1]
        want = [np.cumsum(seg.astype(np.int64)) + b
                for seg, b in zip(np.split(deltas, cuts), bases)]
        got = segmented_cumsum(deltas, lens, bases)
        assert got.dtype == np.int64
        assert got.tolist() == np.concatenate(want).tolist()
        assert segmented_cumsum(deltas, lens).tolist() == np.concatenate(
            [w - b for w, b in zip(want, bases)]).tolist()
        assert np.array_equal(deltas, before)


def _pos_stream(positions, tfs):
    """Positions as ingest stores them: per-doc delta-vbyte streams,
    concatenated, and each doc's stream length in bytes."""
    tfs = np.asarray(tfs, np.int64)
    deltas = segmented_delta(np.asarray(positions, np.int64), tfs).astype(np.uint64)
    starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
    return vbyte_encode(deltas), np.add.reduceat(vbyte_sizes(deltas), starts)


def _row_blocks(doc_ids, tfs, pos_payload, pos_byte_lens, target_bytes):
    """cut_blocks_pre over one posting row → ``(first_doc, last_doc,
    payload, doc_slice, tf_slice)`` per block."""
    c = cut_blocks_pre(doc_ids, tfs, pos_payload, pos_byte_lens, [len(doc_ids)],
                       target_bytes=target_bytes)
    assert c.n_blocks.tolist() == [len(c.starts) - 1]
    return [(int(doc_ids[s]), int(doc_ids[e - 1]), c.payload[a:b].tobytes(),
             doc_ids[s:e], tfs[s:e])
            for s, e, a, b in zip(c.starts[:-1], c.starts[1:], c.offsets[:-1],
                                  c.offsets[1:])]


def _cut(doc_ids, tfs, positions=None, target_bytes=4096):
    """cut_blocks_pre over one posting row → (blocks, payload, offsets,
    lengths, n_docs, first): the row's concatenated payload and its block
    metadata, each block's ``first`` as ``posting_blocks`` derives it."""
    pos = (None, None) if positions is None else _pos_stream(positions, tfs)
    blocks = _row_blocks(np.asarray(doc_ids), np.asarray(tfs), *pos,
                         target_bytes)
    lengths = [len(b[2]) for b in blocks]
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(int).tolist()
    n_docs = [len(b[3]) for b in blocks]
    first = [blocks[0][0]] + [b[1] + 1 for b in blocks[:-1]]
    return (blocks, b"".join(b[2] for b in blocks), offsets, lengths, n_docs,
            first)


def test_block_layout_pins():
    """One width byte (low nibble gap width, high nibble tf - 1 width),
    little-endian gaps with the first taken from the block's first, then
    tf - 1 — none when every tf is 1 — then the positions stream."""
    (blk,), *_ = _cut(np.array([5, 9, 12, 300]), np.array([1, 1, 1, 1]))
    assert blk[2] == bytes([0x02]) + np.array([0, 4, 3, 288], "<u2").tobytes()
    (blk,), *_ = _cut(np.array([5, 9]), np.array([1, 300]))
    assert blk[2] == bytes([0x21, 0, 4]) + np.array([0, 299], "<u2").tobytes()
    (blk,), *_ = _cut(np.array([5, 9]), np.array([1, 3]), [3, 0, 2, 7])
    assert blk[2] == bytes([0x11, 0, 4, 0, 2]) + vbyte_encode(np.array([3, 0, 2, 5]))
    # a later block's first gap counts from the previous block's last + 1
    blocks, *_ = _cut(np.arange(0, 20, 2), np.ones(10, np.int64), target_bytes=8)
    assert [b[2][:3] for b in blocks] == [bytes([1, 0, 2]), bytes([1, 1, 2])]


def test_block_roundtrip_with_positions():
    doc_ids = np.array([5, 9, 12, 100, 101])
    tfs = np.array([2, 1, 3, 1, 2])
    positions = np.array([0, 7, 3, 1, 5, 9, 0, 2, 6])
    (blk,), *_ = _cut(doc_ids, tfs, positions)
    d, t, p = decode_block(blk[2], 5, 5, has_positions=True)
    assert d.tolist() == doc_ids.tolist()
    assert t.tolist() == tfs.tolist()
    assert p.tolist() == positions.tolist()


def test_block_roundtrip_no_positions():
    doc_ids = np.array([0, 1, 2, 50])
    tfs = np.array([1, 4, 2, 9])
    (blk,), *_ = _cut(doc_ids, tfs)
    d, t, p = decode_block(blk[2], 0, 4, has_positions=False)
    assert d.tolist() == doc_ids.tolist()
    assert t.tolist() == tfs.tolist()
    assert p is None


def test_cut_blocks_boundaries_and_roundtrip():
    n = 5000
    rng = np.random.default_rng(7)
    doc_ids = np.cumsum(rng.integers(1, 5, n))
    tfs = rng.integers(1, 8, n)
    positions = np.concatenate([np.sort(rng.choice(10000, size=tf, replace=False)) for tf in tfs])
    blocks, _, _, _, n_docs, first = _cut(doc_ids, tfs, positions, target_bytes=512)
    assert len(blocks) > 1
    all_d, all_t, all_p = [], [], []
    for (b_first, last, payload, bd, bt), nb, f in zip(blocks, n_docs, first):
        d, t, p = decode_block(payload, f, nb, has_positions=True)
        assert d[0] == b_first and d[-1] == last
        all_d.append(d)
        all_t.append(t)
        all_p.append(p)
    assert np.concatenate(all_d).tolist() == doc_ids.tolist()
    assert np.concatenate(all_t).tolist() == tfs.tolist()
    assert np.concatenate(all_p).tolist() == positions.tolist()


def test_cut_blocks_pre_roundtrip():
    """cut_blocks_pre's blocks cover the row in order, each block's
    (first_doc, last_doc, doc/tf slices) match its payload, and the
    payload is the width byte + fixed-width arrays + the row's position
    bytes sliced at the block's docs, with or without positions."""
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 400))
        doc_ids = np.cumsum(rng.integers(1, 2000, n)).astype(np.int64)
        tfs = rng.integers(1, 300, n).astype(np.int64)
        # fake per-doc position streams of varying byte lengths
        blens = rng.integers(0, 9, n).astype(np.int64)
        payload = bytes(rng.integers(0, 255, int(blens.sum()), dtype=np.uint8))
        tb = int(rng.choice([64, 256, 4096]))
        bs = np.concatenate(([0], np.cumsum(blens)))
        for pos in ((payload, blens), (None, None)):
            cursor, first = 0, int(doc_ids[0])
            for b_first, last, pl, bd, bt in _row_blocks(
                    doc_ids, tfs, *pos, target_bytes=tb):
                end = cursor + len(bd)
                assert b_first == doc_ids[cursor] and last == doc_ids[end - 1]
                assert (bd == doc_ids[cursor:end]).all()
                assert (bt == tfs[cursor:end]).all()
                gw, tw = pl[0] & 15, pl[0] >> 4
                body = 1 + len(bd) * (gw + tw)
                assert pl[body:] == (payload[bs[cursor]:bs[end]]
                                     if pos[0] is not None else b"")
                d, t, _ = decode_block(pl[:body], first, len(bd), False)
                assert (d == doc_ids[cursor:end]).all()
                assert (t == tfs[cursor:end]).all()
                cursor, first = end, last + 1
            assert cursor == n


def test_decode_full_batch_equivalence():
    """decode_full_batch == per-block decode_block across block boundaries
    (positions deltas reset per doc, so concatenated streams decode
    identically)."""
    rng = np.random.default_rng(5)
    n = 500
    doc_ids = np.cumsum(rng.integers(1, 9, n)).astype(np.int64)
    tfs = rng.integers(1, 6, n).astype(np.int64)
    positions = np.concatenate(
        [np.sort(rng.choice(1000, size=t, replace=False)) for t in tfs]
    ).astype(np.int64)
    blocks, payload, offsets, lengths, ndocs, first = _cut(
        doc_ids, tfs, positions, target_bytes=256)
    ref_d, ref_t, ref_p = [], [], []
    for blk, nb, f in zip(blocks, ndocs, first):
        d, t, p = decode_block(blk[2], f, nb, True)
        ref_d.append(d)
        ref_t.append(t)
        ref_p.append(p)
    d, t, p = decode_full_batch(payload, offsets, lengths, ndocs, first)
    assert np.array_equal(d, np.concatenate(ref_d))
    assert np.array_equal(t, np.concatenate(ref_t))
    assert np.array_equal(p, np.concatenate(ref_p))
    assert np.array_equal(d, doc_ids) and np.array_equal(p, positions)


_GAP = st.one_of(  # one strategy per gap width class
    st.integers(1, 2**8 - 1), st.integers(2**8, 2**16 - 1),
    st.integers(2**16, 2**32 - 1), st.integers(2**32, 2**40))


@settings(max_examples=150, deadline=None)
@given(gaps=st.lists(_GAP, min_size=1, max_size=120),
       start=st.integers(0, 2**20), tf_kind=st.sampled_from(["ones", "mixed"]),
       with_positions=st.booleans(), target=st.sampled_from([16, 64, 512]),
       shift=st.integers(-2**20, 2**30), seed=st.integers(0, 2**16))
@example(gaps=[3] * 8 + [300] * 8 + [70000] * 8 + [2**33] * 8, start=0,
         tf_kind="mixed", with_positions=True, target=16, shift=7, seed=0)
@example(gaps=[3] * 8 + [300] * 8 + [70000] * 8 + [2**33] * 8, start=5,
         tf_kind="ones", with_positions=False, target=16, shift=-5, seed=1)
def test_block_layout_property(gaps, start, tf_kind, with_positions, target,
                               shift, seed):
    """Over random ascending doc ids whose gaps cross the 2^8, 2^16 and
    2^32 width classes: a batch decode of the row's mixed-width blocks
    equals the per-block decodes, and both equal the input; and adding Δ
    to ``first_doc`` and ``block_last_doc`` (payload bytes untouched)
    shifts every decoded doc id by exactly Δ — no payload holds an
    absolute doc id."""
    import pyarrow as pa

    from indri_5_5_ray.pipelines.query import posting_blocks

    rng = np.random.default_rng(seed)
    doc_ids = start + np.cumsum(np.asarray(gaps, np.int64)) - gaps[0]
    n = len(doc_ids)
    if tf_kind == "ones":
        tfs = np.ones(n, np.int64)
    elif with_positions:
        tfs = rng.choice([1, 2, 40, 300], n).astype(np.int64)
    else:  # tf - 1 crossing the 1/2/4-byte classes
        tfs = rng.choice([1, 2, 300, 70000, 2**20], n).astype(np.int64)
    positions = (np.concatenate([np.cumsum(rng.integers(0, 2**15, t))
                                 for t in tfs.tolist()])
                 if with_positions else None)
    blocks, payload, offsets, lengths, n_docs, first = _cut(
        doc_ids, tfs, positions, target_bytes=target)
    per = [decode_block(b[2], f, nb, with_positions)
           for b, f, nb in zip(blocks, first, n_docs)]
    if with_positions:
        d, t, p = decode_full_batch(payload, offsets, lengths, n_docs, first)
        assert np.array_equal(p, np.concatenate([x[2] for x in per]))
        assert np.array_equal(p, positions)
    else:
        d, t = decode_doc_tf_batch(payload, offsets, n_docs, first)
    assert np.array_equal(d, np.concatenate([x[0] for x in per]))
    assert np.array_equal(t, np.concatenate([x[1] for x in per]))
    assert np.array_equal(d, doc_ids) and np.array_equal(t, tfs)

    def row(delta):
        return pa.table({
            "term": ["t"], "first_doc": [int(doc_ids[0]) + delta],
            "postings": pa.array([payload], pa.large_binary()),
            "block_last_doc": [[b[1] + delta for b in blocks]],
            "block_n_docs": [n_docs], "block_offset": [offsets],
            "block_length": [lengths]})

    pb = posting_blocks(row(0))
    shifted = posting_blocks(row(shift))
    all_blocks = np.arange(len(blocks))
    d0, t0, p0 = pb.decode(all_blocks, with_positions)
    d1, t1, p1 = shifted.decode(all_blocks, with_positions)
    assert np.array_equal(d0, doc_ids)
    assert np.array_equal(d1, doc_ids + shift)
    assert np.array_equal(t1, t0)
    if with_positions:
        assert np.array_equal(p1, p0)
