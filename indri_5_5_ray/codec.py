"""RVL variable-byte codec, delta coding and the posting-block layout,
numpy-vectorized.

Format parity with the reference (ref:contrib/lemur/include/lemur/RVLCompress.hpp):

* values are split into 7-bit groups, least-significant group first;
* the high bit (0x80) is SET on the FINAL byte of each value and clear on
  continuation bytes (``RVLCompress::decompress_int`` terminator test,
  ref:contrib/lemur/include/lemur/RVLCompress.hpp:99-110);
* signed values fold negatives as ``2*-n-1`` / ``2*n``
  (``foldNegatives``, ref:RVLCompress.hpp:65-75).

Posting-list layout (one term), derived from the in-memory builder
(ref:src/DocListMemoryBuilder.cpp:181-230) and the disk layout comment
(ref:src/DiskDocListIterator.cpp:21-56): per document ``(Δ doc_id, tf,
Δ positions…)``, cut into blocks at document boundaries (the reference
cuts per 4 KB skip batch, ref:src/IndexWriter.cpp:527), each decodable
from its own bytes plus its block metadata — the property that enables
doc-range-sliced scoring and block-granular doc-set reads.  Positions are
RVL vbyte, Δ-coded per document, as in the reference.  Deviation for
vectorized decode: a block stores its Δdoc gaps and its ``tf - 1`` values
as two fixed-width little-endian arrays, each sized for the block's
largest value by one width byte, ahead of the positions stream instead of
interleaved with it.  One encoder, ``cut_blocks_pre``, cuts and encodes
the blocks of many posting rows at once (the merge passes a slice of a
bucket's rows per call; one row is a one-group call), as the batch
decoders decode many blocks at once.  A block's first gap is
taken from the block's first doc id in the metadata, so no payload holds
an absolute doc id.  Decoded values and their order equal the
reference's; only the byte layout differs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TARGET_BLOCK_BYTES = 4096  # ref:src/IndexWriter.cpp:527 skip interval

# ---------------------------------------------------------------------------
# vbyte
# ---------------------------------------------------------------------------


def vbyte_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value (uint64 in)."""
    v = np.asarray(values, dtype=np.uint64)
    sizes = np.ones(len(v), dtype=np.int64)
    threshold = 1 << 7
    while True:
        over = v >= np.uint64(threshold)
        if not over.any():
            break
        sizes[over] += 1
        if threshold >= (1 << 63):
            break
        threshold <<= 7
    return sizes


def vbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized vbyte encode of a uint64 array."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b""
    sizes = vbyte_sizes(v)
    total = int(sizes.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    shifted = v.copy()
    for pos in range(int(sizes.max())):
        mask = sizes > pos
        out[starts[mask] + pos] = (shifted[mask] & np.uint64(0x7F)).astype(np.uint8)
        shifted >>= np.uint64(7)
    out[starts + sizes - 1] |= 0x80  # terminator bit on final byte of each value
    return out.tobytes()


def vbyte_decode(buf: bytes | np.ndarray) -> np.ndarray:
    """Vectorized decode of a whole vbyte stream → uint64 array."""
    arr = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    term_mask = (arr & 0x80) != 0
    if term_mask.all():  # fast path: every value fits 7 bits
        return (arr & 0x7F).astype(np.uint64)
    ends = np.nonzero(term_mask)[0]
    n_values = len(ends)
    group = np.zeros(len(arr), dtype=np.int64)  # value index each byte belongs to
    group[1:] = np.cumsum(term_mask[:-1])
    starts_of_group = np.concatenate(([0], ends[:-1] + 1))
    pos_in_group = (np.arange(len(arr)) - starts_of_group[group]).astype(np.uint64)
    payload = (arr & 0x7F).astype(np.uint64) << (np.uint64(7) * pos_in_group)
    if int(pos_in_group.max()) < 4:
        # values < 2^28 → per-byte weights < 2^28, so a running uint64
        # cumsum cannot overflow for any realistic stream length; value =
        # segment sum = cumsum difference at group ends (much faster than
        # the unbuffered np.add.at)
        cum = np.cumsum(payload)
        out = np.empty(n_values, dtype=np.uint64)
        out[0] = cum[ends[0]]
        np.subtract(cum[ends[1:]], cum[ends[:-1]], out=out[1:])
        return out
    out = np.zeros(n_values, dtype=np.uint64)
    np.add.at(out, group, payload)
    return out


def fold_negatives(values: np.ndarray) -> np.ndarray:
    """Signed → unsigned zig-zag fold (ref:RVLCompress.hpp:65-75)."""
    v = np.asarray(values, dtype=np.int64)
    return np.where(
        v < 0,
        (np.uint64(2) * (-v).astype(np.uint64)) - np.uint64(1),
        np.uint64(2) * v.astype(np.uint64),
    )


def unfold_negatives(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.uint64)
    neg = (v & np.uint64(1)) != 0
    return np.where(
        neg,
        -(((v + np.uint64(1)) // np.uint64(2)).astype(np.int64)),
        (v // np.uint64(2)).astype(np.int64),
    ).astype(np.int64)


# ---------------------------------------------------------------------------
# delta helpers
# ---------------------------------------------------------------------------


def segmented_cumsum(deltas: np.ndarray, seg_lengths: np.ndarray,
                     bases: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sum restarting at each segment start; with ``bases``,
    segment i's sums start from ``bases[i]`` instead of 0.

    One ``np.add.reduceat`` gives every segment's last value; taking the
    previous segment's last value out of each segment's first delta makes
    one in-place running ``cumsum`` restart at every segment, so a
    segment's sums depend only on its own deltas and base."""
    out = np.array(deltas, dtype=np.int64)
    if not len(out):
        return out
    lens = np.asarray(seg_lengths, dtype=np.int64)
    base = (np.zeros(len(lens), np.int64) if bases is None
            else np.array(bases, dtype=np.int64))
    if not lens.all():  # reduceat reads a zero-length segment as one value
        base, lens = base[lens > 0], lens[lens > 0]
    starts = np.cumsum(lens) - lens
    last = np.add.reduceat(out, starts)
    last += base
    base[1:] -= last[:-1]
    out[starts] += base
    return np.cumsum(out, out=out)


def segmented_delta(values: np.ndarray, seg_lengths: np.ndarray) -> np.ndarray:
    """Inverse of segmented_cumsum: per-segment delta, first of segment absolute."""
    v = np.asarray(values, dtype=np.int64)
    lens = np.asarray(seg_lengths, dtype=np.int64)
    if len(v) == 0:
        return v
    out = np.empty_like(v)
    out[0] = v[0]
    np.subtract(v[1:], v[:-1], out=out[1:])
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    out[starts] = v[starts]
    return out


# ---------------------------------------------------------------------------
# posting-list blocks
# ---------------------------------------------------------------------------

GAP_WIDTHS = (1, 2, 4, 8)  # Δdoc gap bytes, by the block's largest gap
TF_WIDTHS = (0, 1, 2, 4)   # ``tf - 1`` bytes; 0: every tf in the block is 1
_UINT = {1: np.dtype("u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"),
         8: np.dtype("<u8")}


def _narrowest(maxima: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Per value, the narrowest of ``widths`` (ascending, in bytes) that
    holds it (width 0 holds only 0)."""
    limits = [1 << (8 * w) for w in widths[:-1]]
    return np.asarray(widths)[np.searchsorted(limits, maxima, "right")]


class BlockCut(NamedTuple):
    """The blocks of a run of posting groups (``cut_blocks_pre``)."""

    payload: np.ndarray   # uint8: every block's bytes, block after block
    starts: np.ndarray    # int64, blocks + 1: each block's first doc index, then n
    offsets: np.ndarray   # int64, blocks + 1: each block's byte offset, then the end
    n_blocks: np.ndarray  # int64, per group: its number of blocks


def _scatter(out: np.ndarray, at: np.ndarray, width: np.ndarray,
             values: np.ndarray, widths: tuple[int, ...]) -> None:
    """Write ``values[i]`` little-endian at ``out[at[i]:at[i] + width[i]]``,
    one width class of ``widths`` at a time."""
    for w in widths:
        sel = np.flatnonzero(width == w)
        if len(sel):
            dst = at[sel]
            if w > 1:
                dst = (dst[:, None] + np.arange(w)).ravel()
            out[dst] = values[sel].astype(_UINT[w]).view(np.uint8)


def cut_blocks_pre(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    pos_payload: bytes | np.ndarray | None,
    pos_byte_lens: np.ndarray | None,
    group_lens: np.ndarray,
    target_bytes: int = TARGET_BLOCK_BYTES,
) -> BlockCut:
    """The one block encoder: cut a run of posting groups (one group per
    output row, ``group_lens[g]`` docs each, laid end to end in
    ``doc_ids``/``tfs``) into encoded blocks of about ``target_bytes`` at
    document boundaries (ref 4 KB skip interval, ref:src/IndexWriter.cpp:527),
    all groups at once with a fixed number of numpy calls.

    Positions come pre-encoded: ``pos_payload`` is the concatenation of
    per-doc delta-vbyte streams and ``pos_byte_lens[i]`` the byte length of
    doc i's stream; blocks copy it, never decode or re-encode it.  A group
    of ``n`` docs and ``p`` position bytes gets blocks of
    ``max(8, int(target_bytes / (4.0 + p / n)))`` docs (``4.0`` without
    positions), its last block the rest.

    A block's payload is one width byte (low nibble: the Δdoc gap width
    in ``GAP_WIDTHS``; high nibble: the ``tf - 1`` width in
    ``TF_WIDTHS``), then ``n`` little-endian gaps, then ``n`` values of
    ``tf - 1`` (none at width 0), then the positions stream.  A block's
    first gap is taken from its ``first`` in the row metadata — the row's
    ``first_doc`` for the head block, the previous block's last + 1
    otherwise — so no payload holds an absolute doc id."""
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tf1 = np.asarray(tfs, dtype=np.int64) - 1  # int32 tfs: 4 bytes hold any
    lens = np.asarray(group_lens, dtype=np.int64)
    n = len(doc_ids)
    if n == 0:
        e = np.zeros(1, np.int64)
        return BlockCut(np.empty(0, np.uint8), e, e, np.zeros(len(lens), np.int64))
    heads = np.cumsum(lens) - lens
    has_pos = pos_payload is not None
    per_doc = np.full(len(lens), 4.0)
    if has_pos:
        byte_starts = np.zeros(n + 1, np.int64)
        np.cumsum(pos_byte_lens, out=byte_starts[1:])
        per_doc += (byte_starts[heads + lens] - byte_starts[heads]) / lens
    docs_per_block = np.maximum(8, (target_bytes / per_doc).astype(np.int64))
    n_blocks = -(-lens // docs_per_block)
    # the k-th block of group g starts k * docs_per_block[g] docs into g
    block_group = np.repeat(np.arange(len(lens)), n_blocks)
    k = np.arange(len(block_group)) - np.repeat(np.cumsum(n_blocks) - n_blocks,
                                                 n_blocks)
    starts = np.empty(len(block_group) + 1, np.int64)
    np.multiply(k, docs_per_block[block_group], out=starts[:-1])
    starts[:-1] += heads[block_group]
    starts[-1] = n
    first, n_docs = starts[:-1], np.diff(starts)

    gaps = np.empty(n, dtype=np.int64)
    gaps[0] = 0
    np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    gaps[first] -= 1  # later blocks start at the previous last + 1
    gaps[heads] = 0   # a head block's first is the row's first_doc itself
    gw = _narrowest(np.maximum.reduceat(gaps, first), GAP_WIDTHS)
    tw = _narrowest(np.maximum.reduceat(tf1, first), TF_WIDTHS)
    head_len = 1 + n_docs * (gw + tw)
    pos_len = (byte_starts[starts[1:]] - byte_starts[first] if has_pos
               else np.zeros_like(head_len))
    offsets = np.zeros(len(starts), np.int64)
    np.cumsum(head_len + pos_len, out=offsets[1:])
    out = np.empty(int(offsets[-1]), np.uint8)
    out[offsets[:-1]] = gw | tw << 4

    # doc i is the rank-th doc of block doc_block[i]
    doc_block = np.repeat(np.arange(len(first)), n_docs)
    rank = np.arange(n) - first[doc_block]
    at = offsets[:-1] + 1
    w = gw[doc_block]
    _scatter(out, at[doc_block] + rank * w, w, gaps, GAP_WIDTHS)
    at += n_docs * gw
    w = tw[doc_block]
    _scatter(out, at[doc_block] + rank * w, w, tf1, TF_WIDTHS[1:])
    if has_pos:
        # the position bytes keep their source order: one masked copy
        in_pos = np.repeat(np.tile((False, True), len(first)),
                           np.column_stack((head_len, pos_len)).ravel())
        out[in_pos] = np.frombuffer(pos_payload, dtype=np.uint8)
    return BlockCut(out, starts, offsets, n_blocks)


def _blocks_in(payload, n: int) -> list:
    """``n`` per-block byte buffers: ``payload`` is one buffer holding
    every block, or already a list with block i's buffer at i (indexing
    one gives an int: a ``bytes`` or a ``uint8`` memoryview)."""
    if isinstance(payload, list):
        return payload
    return [memoryview(np.frombuffer(payload, dtype=np.uint8))] * n


def _doc_tf(bufs: list, offsets, n_docs, first):
    """(doc_ids, tfs, per-block end of the gap/tf arrays) of the blocks at
    ``offsets``, block i at ``offsets[i]`` of ``bufs[i]``: one typed view
    per array, then one segmented cumsum from each block's ``first``."""
    n = np.asarray(n_docs, dtype=np.int64)
    gaps, tf1, ends = [], [], []
    for buf, off, nb in zip(bufs, offsets, n.tolist()):
        w = buf[off]
        gw, tw = w & 15, w >> 4
        a = off + 1 + nb * gw
        gaps.append(np.frombuffer(buf, _UINT[gw], nb, off + 1))
        tf1.append(np.frombuffer(buf, _UINT[tw], nb, a) if tw
                   else np.zeros(nb, np.uint8))
        ends.append(a + nb * tw)
    tfs = np.concatenate(tf1, dtype=np.int64)
    tfs += 1
    return segmented_cumsum(np.concatenate(gaps), n, first), tfs, ends


def decode_doc_tf_batch(
    payload: bytes | np.ndarray | list,
    offsets: list[int] | np.ndarray,
    n_docs: list[int] | np.ndarray,
    first: list[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the (doc_id, tf) pairs of MANY blocks (positions skipped) —
    the hot path of exhaustive/LM scoring.  Block i starts at
    ``offsets[i]`` of ``payload`` (one buffer, or a list of one buffer
    per block, so blocks of several files decode in one call);
    ``n_docs`` and ``first`` per block come from the block metadata."""
    if len(offsets) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    d, tf, _ = _doc_tf(_blocks_in(payload, len(offsets)), offsets, n_docs,
                       first)
    return d, tf


def decode_full_batch(
    payload: bytes | np.ndarray | list,
    offsets: list[int] | np.ndarray,
    lengths: list[int] | np.ndarray,
    n_docs: list[int] | np.ndarray,
    first: list[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode (doc_id, tf, positions) of MANY blocks — the positional
    analogue of :func:`decode_doc_tf_batch` (``payload`` likewise one
    buffer or one per block): the blocks' position streams are
    concatenated and vbyte-decoded once (vbyte is self-delimiting, and
    position deltas reset per DOC, so the per-doc segmented cumsum is
    block-boundary-agnostic)."""
    if len(offsets) == 0:
        e = np.empty(0, np.int64)
        return e, e, e
    bufs = _blocks_in(payload, len(offsets))
    d, tf, ends = _doc_tf(bufs, offsets, n_docs, first)
    pos_deltas = vbyte_decode(np.frombuffer(b"".join([
        buf[b:off + ln] for buf, b, off, ln in zip(bufs, ends, offsets, lengths)]),
        dtype=np.uint8))
    return d, tf, segmented_cumsum(pos_deltas, tf)


def decode_block(
    buf: bytes | memoryview | np.ndarray, first: int, n_docs: int,
    has_positions: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Decode one block → (doc_ids, tfs, positions|None): the batch
    decoders over that one block, whose metadata gives ``first`` and
    ``n_docs``."""
    if n_docs == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), None
    if has_positions:
        arr = np.frombuffer(buf, dtype=np.uint8)
        return decode_full_batch(arr, [0], [len(arr)], [n_docs], [first])
    d, tf = decode_doc_tf_batch(buf, [0], [n_docs], [first])
    return d, tf, None


def block_layout_error(buf: bytes | np.ndarray, n_docs: int,
                       has_positions: bool) -> str | None:
    """Why one block's bytes do not fit the block layout, or None: the
    width byte must name a width in ``GAP_WIDTHS`` and ``TF_WIDTHS``, and
    the block must be exactly ``1 + n_docs·(gap width + tf width)`` bytes
    plus, with positions, a vbyte stream of exactly ``sum(tf)`` values."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    if n_docs < 1 or not len(arr):
        return f"empty block ({n_docs} docs, {len(arr)} bytes)"
    w = int(arr[0])
    gw, tw = w & 15, w >> 4
    if gw not in GAP_WIDTHS or tw not in TF_WIDTHS:
        return f"bad width byte 0x{w:02x}"
    body = 1 + n_docs * (gw + tw)
    if len(arr) < body or (not has_positions and len(arr) != body):
        return f"block length {len(arr)}, widths give {body}"
    if has_positions:
        _, tf, _ = _doc_tf(_blocks_in(arr, 1), [0], [n_docs], [0])
        pos = arr[body:]
        n_values = int(np.count_nonzero(pos & 0x80))
        if n_values != int(tf.sum()) or (len(pos) and not pos[-1] & 0x80):
            return (f"block length {len(arr)}: {len(pos)} position bytes "
                    f"hold {n_values} values, tfs sum to {int(tf.sum())}")
    return None
