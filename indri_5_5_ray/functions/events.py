"""Event-stream operators over the ``events`` table (ts, user_id,
event_type, value).

The reference is batch-only (SURVEY.md §2.11: no windows/watermarks); these
are the training-data-pipeline time-series extensions.  Every operator is
ONE filesystem :func:`.exchange.bucket_exchange` (:func:`_event_exchange`):

* tumbling / hopping windows — keyed by ``window_start``: the map side
  fans each event out to its windows and pre-aggregates per batch, the
  reduce sums a bucket's partials;
* sessionization / rollups / as-of — keyed by ``user_id``: every event of
  a user lands in one bucket, and the reduce runs ONE vectorized
  polars/numpy kernel over the bucket's ~thousands of users, never one
  Python call per user (per-user groups measured 70 s for 1M events /
  200k users).

Timestamps are emitted as epoch seconds (int64) so DuckDB oracles compare
exactly.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import polars as pl
import pyarrow as pa
import ray.data

SESSION_GAP_S = 1800  # 30 min

# layout version of every event spill under /tmp/indri55_events
_EVENTS_VERSION = "v1"

_SESSION_SCHEMA = pa.schema([("user_id", pa.int64()),
                             ("session_start", pa.int64()),
                             ("n_events", pa.int64()),
                             ("duration_s", pa.int64())])
_ACTIVITY_SCHEMA = pa.schema([("user_id", pa.int64()),
                              ("n_events", pa.int64()),
                              ("n_types", pa.int64()),
                              ("first_ts", pa.int64()),
                              ("last_ts", pa.int64())])
_ASOF_SCHEMA = pa.schema([("event_id", pa.int64()),
                          ("user_id", pa.int64()),
                          ("ts_s", pa.int64()),
                          ("prev_view_value", pa.float64())])


def _ts_s() -> pl.Expr:
    return pl.col("ts").dt.epoch("s").alias("ts_s")


def _event_exchange(sf_dir: str, version: str, columns: list[str],
                    key: str, map_kernel: Callable, reduce_kernel: Callable,
                    schema: pa.Schema) -> ray.data.Dataset:
    """``events.parquet[columns]`` → ``map_kernel`` per batch → rows
    bucketed by the hash of ``key`` → ``reduce_kernel`` per bucket, read
    back as a Dataset of ``schema``.  Every row of a key lands in one
    bucket, so a per-key computation in the reduce is globally exact.
    ``version`` names the operator and every parameter its output depends
    on (the spill's cache key)."""
    from .exchange import bucket_count, bucket_exchange, read_exchange
    from .textstats import read_spread

    path = f"{sf_dir}/events.parquet"
    n_b = bucket_count(path)

    def keyed(df: pl.DataFrame) -> pl.DataFrame:
        return map_kernel(df).with_columns(
            (pl.col(key).hash(seed=0) % n_b).cast(pl.Int32).alias("eb"))

    def reduce(df: pl.DataFrame):
        out = reduce_kernel(df)
        return out, out.height

    spill = bucket_exchange(
        read_spread(path, columns), cache_root="/tmp/indri55_events",
        source_path=path, version=f"{_EVENTS_VERSION}-{version}",
        n_buckets=n_b, bucket_col="eb",
        map_kernel=keyed, map_columns=tuple(columns),
        reduce_columns=None, reduce_kernel=reduce,
        out_schema=schema, out_dirname="out", out_prefix="ev-b",
        empty_name="ev-")
    return read_exchange(spill, "out", schema)


def tumbling_counts(sf_dir: str) -> ray.data.Dataset:
    """(hour_start, event_type, n_events, sum_value) — 1-hour tumbling
    windows; hour_start = epoch seconds, sum_value rounded to 6 decimals.
    :func:`hopping_counts` with the hop equal to the width."""
    return _window_counts(sf_dir, 3600, 3600, "hour_start")


def sessionize(sf_dir: str, gap_s: int = SESSION_GAP_S) -> ray.data.Dataset:
    """(user_id, session_start, n_events, duration_s) — gap-based sessions
    per user; session_start = epoch seconds of the first event, a gap of
    more than ``gap_s`` seconds starts a new session.

    One user-keyed exchange; the per-bucket kernel sorts by
    (user_id, ts) and splits sessions with one vectorized boundary scan
    (user change OR gap) over the whole bucket — no per-user dispatch."""

    def sessions_of_bucket(df: pl.DataFrame) -> pl.DataFrame:
        df = df.sort(["user_id", "ts_s"])
        ts = df["ts_s"].to_numpy()
        uid = df["user_id"].to_numpy()
        new_sess = np.ones(len(ts), dtype=bool)
        new_sess[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_s)
        starts = np.nonzero(new_sess)[0]
        ends = np.concatenate((starts[1:], [len(ts)]))
        return pl.DataFrame({"user_id": uid[starts],
                             "session_start": ts[starts],
                             "n_events": ends - starts,
                             "duration_s": ts[ends - 1] - ts[starts]})

    return _event_exchange(
        sf_dir, f"sessionize-gap{gap_s}", ["user_id", "ts"], "user_id",
        lambda df: df.select("user_id", _ts_s()), sessions_of_bucket,
        _SESSION_SCHEMA)


def user_activity(sf_dir: str) -> ray.data.Dataset:
    """(user_id, n_events, n_types, first_ts, last_ts) relational rollup.

    One user-keyed exchange computes all five columns — no driver-side
    collection or join; the per-bucket kernel is a single vectorized
    polars group_by over ~thousands of users."""

    def rollup(df: pl.DataFrame) -> pl.DataFrame:
        return df.group_by("user_id").agg(
            pl.len().alias("n_events"),
            pl.col("event_type").n_unique().alias("n_types"),
            pl.col("ts_s").min().alias("first_ts"),
            pl.col("ts_s").max().alias("last_ts"))

    return _event_exchange(
        sf_dir, "activity", ["user_id", "event_type", "ts"], "user_id",
        lambda df: df.select("user_id", "event_type", _ts_s()), rollup,
        _ACTIVITY_SCHEMA)


def hopping_counts(sf_dir: str, window_s: int = 3600,
                   hop_s: int = 900) -> ray.data.Dataset:
    """(window_start, event_type, n_events, sum_value) — HOPPING (sliding)
    windows of ``window_s`` advancing every ``hop_s``: each event lands in
    ``window_s // hop_s`` overlapping windows; sum_value rounded to 6
    decimals.

    The fan-out by window membership happens map-side (a small cross join
    with the offset list inside the batch) followed by a per-batch partial
    aggregate, so the window-keyed exchange moves pre-aggregated
    (window, type) rows, multiplied only by the overlap factor; the
    reduce sums them."""
    return _window_counts(sf_dir, window_s, hop_s, "window_start")


def _window_counts(sf_dir: str, window_s: int, hop_s: int,
                   start: str) -> ray.data.Dataset:
    """:func:`hopping_counts` with its window-start column named
    ``start`` by the exchange itself, so an empty result keeps it."""
    # a timestamp is covered by ceil(window_s / hop_s) hop-aligned starts at
    # most; fan out that many candidates and keep the contained ones (when
    # hop_s divides window_s the filter is vacuous, but e.g. window 3600 /
    # hop 1000 needs 4 candidates of which the oldest may fall out)
    k = -(-window_s // hop_s)

    def partial(df: pl.DataFrame) -> pl.DataFrame:
        base = df.with_columns(_ts_s()).with_columns(
            (pl.col("ts_s") // hop_s * hop_s).alias("hop_start"))
        return (
            base.join(pl.DataFrame({"j": list(range(k))}), how="cross")
            .with_columns(
                (pl.col("hop_start") - pl.col("j") * hop_s).alias(start))
            .filter((pl.col("ts_s") >= pl.col(start))
                    & (pl.col("ts_s") < pl.col(start) + window_s))
            .group_by([start, "event_type"])
            .agg(pl.len().alias("n_events"),
                 pl.col("value").sum().alias("sum_value"))
        )

    def total(df: pl.DataFrame) -> pl.DataFrame:
        return df.group_by([start, "event_type"]).agg(
            pl.col("n_events").sum(), pl.col("sum_value").sum().round(6))

    schema = pa.schema([(start, pa.int64()), ("event_type", pa.string()),
                        ("n_events", pa.int64()),
                        ("sum_value", pa.float64())])
    return _event_exchange(
        sf_dir, f"{start}-w{window_s}-h{hop_s}", ["ts", "event_type", "value"],
        start, partial, total, schema)


def asof_join_events(sf_dir: str, left_type: str = "click",
                     right_type: str = "view") -> ray.data.Dataset:
    """(event_id, user_id, ts_s, prev_view_value) — as-of join: each
    ``left_type`` event gets the value of the latest STRICTLY-PRECEDING
    ``right_type`` event of the same user (ordering key (ts, event_id), so
    ties are deterministic); INNER semantics — left events with no prior
    match are dropped (keeps the output NULL-free for exact comparison).

    Ray shape: one user-keyed exchange (the same shape as sessionize),
    then a vectorized sort + forward-fill/shift ``over(user_id)`` across
    the whole bucket — no driver-side state, no per-user Python dispatch;
    per-task memory is one bucket's filtered events."""

    def prep(df: pl.DataFrame) -> pl.DataFrame:
        return (df.filter(pl.col("event_type").is_in([left_type, right_type]))
                .select("event_id", "user_id", "event_type", _ts_s(),
                        "value"))

    def per_bucket(df: pl.DataFrame) -> pl.DataFrame:
        return (
            df.sort(["user_id", "ts_s", "event_id"])
            .with_columns(
                pl.when(pl.col("event_type") == right_type)
                .then(pl.col("value")).otherwise(None)
                .alias("rv"))
            .with_columns(
                pl.col("rv").forward_fill().shift(1).over("user_id")
                .round(6).alias("prev_view_value"))
            .filter((pl.col("event_type") == left_type)
                    & pl.col("prev_view_value").is_not_null())
            .select("event_id", "user_id", "ts_s", "prev_view_value")
        )

    return _event_exchange(
        sf_dir, f"asof-{left_type}-{right_type}",
        ["event_id", "user_id", "event_type", "ts", "value"], "user_id",
        prep, per_bucket, _ASOF_SCHEMA)
