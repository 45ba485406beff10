"""Join operators — the general equi-join (:func:`hash_join`,
broadcast + partitioned-shuffle plans) and the temporal as-of join over
the ``events`` table — that neither the reference nor Ray Data 2.49
provides natively (SURVEY.md §2.9; prompt custom-operator recipe (a): a
composition of map_batches + groupby().map_groups, with the
partitioning assumption documented).

``asof_join``: for every LEFT event (e.g. each ``purchase``), the most
recent RIGHT event (e.g. the preceding ``click``) of the SAME user with
``r.ts <= l.ts``; ties on ts break by highest event_id (deterministic —
SQL ``ASOF JOIN`` leaves the tie unspecified, so the oracle uses an
explicit row_number formulation instead).

Scale notes: ONE shuffle (groupby user_id); per-user matching is a
vectorized searchsorted over that user's time-sorted right side — the
documented partitioning assumption is that a single user's events fit a
task (the same assumption as session_windows; a hot user needs
time-range salting with boundary carry-over of the last right event per
salt range).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum as RaySum

LEFT_TYPE = "purchase"
RIGHT_TYPE = "click"


def asof_join(
    ds: rd.Dataset,
    left_type: str = LEFT_TYPE,
    right_type: str = RIGHT_TYPE,
) -> rd.Dataset:
    """(event_id, ts, user_id, value, prior_event_id, prior_ts,
    prior_value) — left rows keep NULL prior_* when no right event
    precedes them (left-outer as-of)."""

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(
            b.column("event_type"),
            value_set=pa.array([left_type, right_type], pa.string()),
        )
        return (
            b.filter(keep)
            .select(["event_id", "ts", "user_id", "event_type", "value"])
            .replace_schema_metadata(None)
        )

    def match(group: pa.Table) -> pa.Table:
        et = group.column("event_type")
        left = group.filter(pc.equal(et, left_type))
        right = group.filter(pc.equal(et, right_type))
        if left.num_rows == 0:
            return _ASOF_SCHEMA.empty_table()
        # right sorted by (ts, event_id): searchsorted picks the
        # greatest event_id among equal-ts candidates
        r_ts = right.column("ts").cast(pa.int64()).to_numpy()
        r_id = right.column("event_id").to_numpy()
        r_val = right.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((r_id, r_ts))
        r_ts, r_id, r_val = r_ts[order], r_id[order], r_val[order]
        l_ts = left.column("ts").cast(pa.int64()).to_numpy()
        pos = np.searchsorted(r_ts, l_ts, side="right") - 1
        has = pos >= 0
        posc = np.clip(pos, 0, max(0, len(r_ts) - 1))
        return pa.table(
            {
                "event_id": left.column("event_id"),
                "ts": left.column("ts"),
                "user_id": left.column("user_id"),
                "value": left.column("value"),
                "prior_event_id": pa.array(
                    np.where(has, r_id[posc] if len(r_ts) else 0, 0),
                    pa.int64(),
                    mask=~has,
                ),
                "prior_ts": pa.array(
                    np.where(has, r_ts[posc] if len(r_ts) else 0, 0),
                    pa.int64(),
                    mask=~has,
                ).cast(pa.timestamp("us")),
                "prior_value": pa.array(
                    np.where(has, r_val[posc] if len(r_ts) else 0.0, 0.0),
                    pa.float64(),
                    mask=~has,
                ),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(match, batch_format="pyarrow")
    )


def asof_join_salted(
    ds: rd.Dataset,
    left_type: str = LEFT_TYPE,
    right_type: str = RIGHT_TYPE,
    salt_hours: int = 24,
) -> rd.Dataset:
    """Hot-user-safe as-of join — the time-range-salted scale path the
    ``asof_join`` docstring promises. Pass 1 shuffles on
    ``(user_id, time bucket)`` and matches within the bucket; it emits
    (a) resolved left rows, (b) UNRESOLVED left rows (no in-bucket
    prior — their true prior lives in an earlier bucket), and (c) one
    per-bucket summary row: the bucket's LAST right event. Pass 2 is a
    user-keyed groupby over only (b) + (c): each unresolved left takes
    the latest summary from any earlier bucket. Row count of pass 2 is
    O(unresolved lefts + users x buckets) ≪ events when right events
    are common; when they are rare the right side is small anyway.
    Output pinned exactly equal to ``asof_join`` (shared SQL oracle)."""
    salt_us = salt_hours * 3_600 * 1_000_000

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(
            b.column("event_type"),
            value_set=pa.array([left_type, right_type], pa.string()),
        )
        b = b.filter(keep)
        bucket = pc.divide(b.column("ts").cast(pa.int64()), salt_us)
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "ts": b.column("ts"),
                "user_id": b.column("user_id"),
                "bucket": bucket,
                "event_type": b.column("event_type"),
                "value": b.column("value"),
            }
        ).replace_schema_metadata(None)

    # pass-1 output: kind 0 = resolved left, 1 = unresolved left,
    # 2 = bucket's last-right summary (prior_* carry the right event)
    def match_bucket(group: pa.Table) -> pa.Table:
        et = group.column("event_type")
        left = group.filter(pc.equal(et, left_type))
        right = group.filter(pc.equal(et, right_type))
        parts = []
        r_ts = right.column("ts").cast(pa.int64()).to_numpy()
        r_id = right.column("event_id").to_numpy()
        r_val = right.column("value").to_numpy(zero_copy_only=False)
        order = np.lexsort((r_id, r_ts))
        r_ts, r_id, r_val = r_ts[order], r_id[order], r_val[order]
        if left.num_rows:
            l_ts = left.column("ts").cast(pa.int64()).to_numpy()
            pos = np.searchsorted(r_ts, l_ts, side="right") - 1
            has = pos >= 0
            posc = np.clip(pos, 0, max(0, len(r_ts) - 1))
            parts.append(
                pa.table(
                    {
                        "kind": pa.array(np.where(has, 0, 1).astype(np.int8), pa.int8()),
                        "bucket": left.column("bucket"),
                        "event_id": left.column("event_id"),
                        "ts": left.column("ts"),
                        "user_id": left.column("user_id"),
                        "value": left.column("value"),
                        "prior_event_id": pa.array(
                            np.where(has, r_id[posc] if len(r_ts) else 0, 0),
                            pa.int64(), mask=~has,
                        ),
                        "prior_ts": pa.array(
                            np.where(has, r_ts[posc] if len(r_ts) else 0, 0),
                            pa.int64(), mask=~has,
                        ),
                        "prior_value": pa.array(
                            np.where(has, r_val[posc] if len(r_ts) else 0.0, 0.0),
                            pa.float64(), mask=~has,
                        ),
                    }
                )
            )
        if len(r_ts):
            parts.append(
                pa.table(
                    {
                        "kind": pa.array([np.int8(2)], pa.int8()),
                        "bucket": pa.array([group.column("bucket")[0].as_py()], pa.int64()),
                        "event_id": pa.array([0], pa.int64()),
                        "ts": pa.array([int(r_ts[-1])], pa.int64()).cast(pa.timestamp("us")),
                        "user_id": pa.array([group.column("user_id")[0].as_py()], pa.int64()),
                        "value": pa.array([0.0], pa.float64()),
                        "prior_event_id": pa.array([int(r_id[-1])], pa.int64()),
                        "prior_ts": pa.array([int(r_ts[-1])], pa.int64()),
                        "prior_value": pa.array([float(r_val[-1])], pa.float64()),
                    }
                )
            )
        if not parts:
            return _PASS1_SCHEMA.empty_table()
        return pa.concat_tables(parts).cast(_PASS1_SCHEMA)

    pass1 = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["user_id", "bucket"])
        .map_groups(match_bucket, batch_format="pyarrow")
        .materialize()  # two consumers below
    )

    def keep_kind(*kinds: int):
        ks = list(kinds)

        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_in(b.column("kind"), value_set=pa.array(ks, pa.int8())))

        return f

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "ts": b.column("ts"),
                "user_id": b.column("user_id"),
                "value": b.column("value"),
                "prior_event_id": b.column("prior_event_id"),
                "prior_ts": b.column("prior_ts").cast(pa.timestamp("us")),
                "prior_value": b.column("prior_value"),
            }
        )

    resolved = pass1.map_batches(keep_kind(0), batch_format="pyarrow").map_batches(
        finish, batch_format="pyarrow"
    )

    def resolve_carry(group: pa.Table) -> pa.Table:
        kinds = group.column("kind").to_numpy(zero_copy_only=False)
        lefts = group.filter(pa.array(kinds == 1))
        summ = group.filter(pa.array(kinds == 2))
        if lefts.num_rows == 0:
            return _ASOF_SCHEMA.empty_table()
        s_bkt = summ.column("bucket").to_numpy()
        o = np.argsort(s_bkt, kind="stable")
        s_bkt = s_bkt[o]
        s_id = summ.column("prior_event_id").to_numpy(zero_copy_only=False)[o]
        s_ts = summ.column("prior_ts").to_numpy(zero_copy_only=False)[o]
        s_val = summ.column("prior_value").to_numpy(zero_copy_only=False)[o]
        l_bkt = lefts.column("bucket").to_numpy()
        # latest summary strictly BEFORE the left's bucket (in-bucket
        # priors were already handled in pass 1)
        pos = np.searchsorted(s_bkt, l_bkt, side="left") - 1
        has = pos >= 0
        posc = np.clip(pos, 0, max(0, len(s_bkt) - 1))
        return pa.table(
            {
                "event_id": lefts.column("event_id"),
                "ts": lefts.column("ts"),
                "user_id": lefts.column("user_id"),
                "value": lefts.column("value"),
                "prior_event_id": pa.array(
                    np.where(has, s_id[posc] if len(s_bkt) else 0, 0),
                    pa.int64(), mask=~has,
                ),
                "prior_ts": pa.array(
                    np.where(has, s_ts[posc] if len(s_bkt) else 0, 0),
                    pa.int64(), mask=~has,
                ).cast(pa.timestamp("us")),
                "prior_value": pa.array(
                    np.where(has, s_val[posc] if len(s_bkt) else 0.0, 0.0),
                    pa.float64(), mask=~has,
                ),
            }
        )

    carried = (
        pass1.map_batches(keep_kind(1, 2), batch_format="pyarrow")
        .groupby("user_id")
        .map_groups(resolve_carry, batch_format="pyarrow")
    )
    return resolved.union(carried)


_PASS1_SCHEMA = pa.schema(
    [
        ("kind", pa.int8()),
        ("bucket", pa.int64()),
        ("event_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("user_id", pa.int64()),
        ("value", pa.float64()),
        ("prior_event_id", pa.int64()),
        ("prior_ts", pa.int64()),
        ("prior_value", pa.float64()),
    ]
)


_ASOF_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("user_id", pa.int64()),
        ("value", pa.float64()),
        ("prior_event_id", pa.int64()),
        ("prior_ts", pa.timestamp("us")),
        ("prior_value", pa.float64()),
    ]
)


# ---------------------------------------------------------------------------
# Interval (range) join
# ---------------------------------------------------------------------------

INTERVAL_HOURS = 2
INTERVAL_BUCKET_HOURS = 6
_IJ_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("user_id", pa.int64()),
        ("interval_id", pa.int64()),
        ("interval_start", pa.timestamp("us")),
    ]
)


def interval_join(
    ds: rd.Dataset,
    left_type: str = "purchase",
    right_type: str = "click",
    window_hours: int = INTERVAL_HOURS,
    bucket_hours: int = INTERVAL_BUCKET_HOURS,
) -> rd.Dataset:
    """Range join — point-in-interval containment, the second custom
    join the prompt names (after as-of) that Ray Data has no operator
    for: every LEFT event (point ``ts``) pairs with every same-user
    RIGHT-anchored interval ``[r.ts, r.ts + window]`` containing it
    (inner, many-to-many).

    Distribution is time-bucket replication: points go to their ONE
    ``ts // bucket`` bucket, intervals replicate to EVERY bucket they
    overlap (``window/bucket + 1`` replicas, a constant factor chosen
    by ``bucket_hours``), and matching happens inside one
    ``groupby(user, bucket)`` exchange. No dedup pass is needed — a
    point lives in exactly one bucket, so each (point, interval) pair
    can only form where the point is (the property that makes
    replicate-the-interval strictly better than replicate-the-point).
    Partitioning assumption (documented, as the as-of join's): one
    (user, bucket) group's points x intervals fits a task — bucket
    and window bound the interval side, hot users shrink
    ``bucket_hours``."""
    win_us = int(window_hours) * 3_600 * 1_000_000
    bkt_us = int(bucket_hours) * 3_600 * 1_000_000

    def prep_left(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("event_type"), pa.scalar(left_type)))
        ts = b.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": b.column("user_id"),
            "bucket": pa.array(ts // bkt_us, pa.int64()),
            "tag": pa.array(np.zeros(b.num_rows, np.int8), pa.int8()),
            "event_id": b.column("event_id"),
            "ts_us": pa.array(ts, pa.int64()),
            "ivl_id": pa.nulls(b.num_rows, pa.int64()),
            "start_us": pa.nulls(b.num_rows, pa.int64()),
            "end_us": pa.nulls(b.num_rows, pa.int64()),
        })

    def prep_right(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("event_type"), pa.scalar(right_type)))
        start = b.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        end = start + win_us
        b0, b1 = start // bkt_us, end // bkt_us
        reps = (b1 - b0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(b.num_rows), reps)
        # per-replica bucket: b0[i] + intra-row offset
        off = np.arange(len(idx)) - np.repeat(
            np.cumsum(reps) - reps, reps)
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        iid = b.column("event_id").to_numpy(zero_copy_only=False)
        n = len(idx)
        return pa.table({
            "user_id": pa.array(uid[idx], pa.int64()),
            "bucket": pa.array(b0[idx] + off, pa.int64()),
            "tag": pa.array(np.ones(n, np.int8), pa.int8()),
            "event_id": pa.nulls(n, pa.int64()),
            "ts_us": pa.nulls(n, pa.int64()),
            "ivl_id": pa.array(iid[idx], pa.int64()),
            "start_us": pa.array(start[idx], pa.int64()),
            "end_us": pa.array(end[idx], pa.int64()),
        })

    def match(group: pa.Table) -> pa.Table:
        tag = group.column("tag")
        lt = group.filter(pc.equal(tag, pa.scalar(0, pa.int8())))
        rt = group.filter(pc.equal(tag, pa.scalar(1, pa.int8())))
        if lt.num_rows == 0 or rt.num_rows == 0:
            return _IJ_SCHEMA.empty_table()
        t = lt.column("ts_us").to_numpy(zero_copy_only=False).astype(np.int64)
        eid = lt.column("event_id").to_numpy(zero_copy_only=False)
        s = rt.column("start_us").to_numpy(zero_copy_only=False).astype(np.int64)
        e = rt.column("end_us").to_numpy(zero_copy_only=False).astype(np.int64)
        iid = rt.column("ivl_id").to_numpy(zero_copy_only=False)
        li, ri = np.nonzero((s[None, :] <= t[:, None]) & (t[:, None] <= e[None, :]))
        uid = group.column("user_id")[0].as_py()
        return pa.table({
            "event_id": pa.array(eid[li], pa.int64()),
            "ts": pa.array(t[li], pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(np.full(len(li), uid), pa.int64()),
            "interval_id": pa.array(iid[ri], pa.int64()),
            "interval_start": pa.array(s[ri], pa.int64()).cast(pa.timestamp("us")),
        })

    tagged = ds.map_batches(prep_left, batch_format="pyarrow").union(
        ds.map_batches(prep_right, batch_format="pyarrow")
    )
    return tagged.groupby(["user_id", "bucket"]).map_groups(
        match, batch_format="pyarrow")


def interval_join_sql(
    src: str,
    left_type: str = "purchase",
    right_type: str = "click",
    window_hours: int = INTERVAL_HOURS,
) -> str:
    """Range-containment twin: integer epoch-µs bound compares, the
    engine's exact inclusive semantics."""
    win_us = int(window_hours) * 3_600 * 1_000_000
    return f"""
SELECT l.event_id, l.ts, l.user_id,
       r.event_id AS interval_id, r.ts AS interval_start
FROM (SELECT * FROM {src} WHERE event_type = '{left_type}') l
JOIN (SELECT * FROM {src} WHERE event_type = '{right_type}') r
  ON l.user_id = r.user_id
 AND epoch_us(r.ts) <= epoch_us(l.ts)
 AND epoch_us(l.ts) <= epoch_us(r.ts) + {win_us}
"""


# ---------------------------------------------------------------------------
# Generic equi-join (broadcast hash join / partitioned shuffle join)
# ---------------------------------------------------------------------------

# The scale bound of a side collected in the calling process: a side
# above this is never collected there.
BROADCAST_MAX_ROWS = 2_000_000
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _bucket_of(key: pa.ChunkedArray | pa.Array, n_buckets: int) -> pa.Array:
    """Deterministic hash bucket of an integer key column (nulls bucket
    to 0 — they can never match, any bucket is safe). Fibonacci-mix
    then modulo: adjacent keys spread across buckets, so range-clustered
    FK blocks don't all land in one bucket."""
    k = pc.fill_null(key, 0).cast(pa.int64()).to_numpy(zero_copy_only=False)
    h = (k.astype(np.uint64) * _HASH_MULT) >> np.uint64(17)
    return pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64())


def hash_join_schema(
    left_schema: pa.Schema,
    left_on: str,
    right_schema: pa.Schema,
    right_on: str | None = None,
) -> pa.Schema:
    """Output schema of :func:`hash_join` for the given input schemas —
    all left columns (the key under its LEFT name and type) followed by
    the right side's non-key columns.  Lets callers CHAIN joins with
    explicit schemas (``left_schema=hash_join_schema(...)``) so no link
    in the chain ever needs ``Dataset.schema()`` — which, on a lazy
    all-to-all pipeline, executes the entire upstream exchange just to
    infer column names (the re-execution trap the ``region_revenue``
    docstring describes)."""
    right_on = right_on or left_on
    out = [pa.field(n, t) for n, t in zip(left_schema.names, left_schema.types)]
    out += [
        pa.field(n, t)
        for n, t in zip(right_schema.names, right_schema.types)
        if n != right_on
    ]
    return pa.schema(out)


def hash_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    mode: str = "auto",
    n_buckets: int = 64,
    broadcast_max_rows: int = BROADCAST_MAX_ROWS,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
) -> rd.Dataset:
    """Distributed equi-join — the general relational join Ray Data
    2.49 has no native operator for (prompt custom-operator recipe (a)).

    Two physical plans, pinned equal by test:

    - ``broadcast`` — the small-side plan: the right side materializes
      to ONE Arrow table, ``ray.put`` once, and every left batch joins
      against it with the Acero hash-join kernel (``pa.Table.join``) —
      zero shuffles, the left side streams. Guarded by
      ``broadcast_max_rows`` (the planner's 2M bound): above it the
      call refuses rather than building a corpus-sized driver object.
    - ``shuffle`` — the scale plan: a partitioned hash join. Both
      sides are tagged, null-padded to one canonical schema, bucketed
      by a Fibonacci-mixed hash of the key, and met in ONE
      ``groupby('__b')`` exchange; each bucket group splits by tag and
      joins with the SAME Acero kernel. Work per group is one
      vectorized C++ join over a 1/``n_buckets`` slice — O(n_buckets)
      Python dispatches total, never per-key. Size ``n_buckets`` so a
      bucket (|left|+|right| rows / n_buckets) fits a worker heap; a
      single pathological hot KEY still lands one bucket — FK joins
      are bounded per key, many-to-many hot keys need salting (the
      ``asof_join_salted`` pattern) which this operator does not do.

    ``mode='auto'`` picks broadcast when ``right.count() <=
    broadcast_max_rows`` else shuffle. ``how`` is ``'inner'``,
    ``'left'``, ``'right'`` or ``'full'`` (outer); right/full REQUIRE
    the shuffle plan — a streaming broadcast join cannot emit
    unmatched right rows exactly once (each left batch would re-emit
    the rows IT didn't match), so ``mode='broadcast'`` refuses them
    and ``auto`` routes them to shuffle, where each key meets exactly
    once and Acero's outer modes apply per bucket (keys coalesced
    under the LEFT name). The shuffle plan requires an INTEGER key
    (the vectorized bucket hash); broadcast joins any Acero-joinable
    key type. Non-key column names must be disjoint across sides;
    the output carries all left columns plus the right side's non-key
    columns (the key under its LEFT name), in that order. Null keys
    never match (SQL semantics — the Acero kernel's behavior on both
    plans). Row order is not significant (hash-partitioned output).

    ``left_schema`` / ``right_schema``: explicit input schemas. When
    given, the corresponding ``Dataset.schema()`` call is SKIPPED —
    critical for chained joins, where schema inference on a lazy
    all-to-all input would execute the whole upstream exchange once
    per link (compute a link's output schema for the next link with
    :func:`hash_join_schema`). The caller owns their accuracy: batch
    column names/types must match, or the per-bucket Acero join fails
    at execution time.
    """
    right_on = right_on or left_on
    if how not in ("inner", "left", "right", "full"):
        raise ValueError(
            f"how must be 'inner'/'left'/'right'/'full', got {how!r}"
        )
    if mode not in ("auto", "broadcast", "shuffle"):
        raise ValueError(f"bad mode {mode!r}")
    join_type = {
        "inner": "inner",
        "left": "left outer",
        "right": "right outer",
        "full": "full outer",
    }[how]
    if how in ("right", "full") and mode == "broadcast":
        # a streaming broadcast join CANNOT produce right/full outer:
        # every left batch would re-emit the right rows IT didn't match,
        # duplicating unmatched right rows across batches (or dropping
        # the ones another batch matched). Only the partitioned plan —
        # where each key meets exactly once — is correct.
        raise ValueError(
            f"how={how!r} requires mode='shuffle' (a streaming broadcast "
            "join cannot emit unmatched right rows exactly once)"
        )

    ls = left_schema if left_schema is not None else left.schema()
    rs = right_schema if right_schema is not None else right.schema()
    lf = list(zip(ls.names, ls.types))
    if left_on not in ls.names:
        raise ValueError(f"left key {left_on!r} not in {ls.names}")
    if right_on not in rs.names:
        raise ValueError(f"right key {right_on!r} not in {rs.names}")
    rf = [(n, t) for n, t in zip(rs.names, rs.types) if n != right_on]
    overlap = {n for n, _ in rf} & set(ls.names)
    if overlap:
        raise ValueError(f"non-key columns must be disjoint: {sorted(overlap)}")

    if mode == "auto":
        if how in ("right", "full"):
            mode = "shuffle"
        else:
            # the plan-choice count streams (blocks released); ONLY a
            # small right — the broadcast case, where the driver pull
            # needs the blocks again anyway — materializes. Pinning
            # unconditionally would hold a corpus-sized right in the
            # object store for the life of a shuffle join; the small
            # side's one cheap re-execution is the right price
            if right.count() <= broadcast_max_rows:
                right = right.materialize()
                mode = "broadcast"
            else:
                mode = "shuffle"

    if mode == "broadcast":
        tabs = [t for t in ray.get(right.materialize().to_arrow_refs()) if t.num_rows]
        rt = (
            pa.concat_tables(tabs).combine_chunks()
            if tabs
            else pa.schema([pa.field(n, t) for n, t in zip(rs.names, rs.types)]).empty_table()
        )
        if rt.num_rows > broadcast_max_rows:
            raise ValueError(
                f"broadcast side has {rt.num_rows} rows > {broadcast_max_rows}; "
                "use mode='shuffle'"
            )
        rt_ref = ray.put(rt.replace_schema_metadata(None))

        def bjoin(b: pa.Table) -> pa.Table:
            out = b.replace_schema_metadata(None).join(
                ray.get(rt_ref), keys=left_on, right_keys=right_on,
                join_type=join_type,
            )
            return out.select([n for n, _ in lf] + [n for n, _ in rf])

        return left.map_batches(bjoin, batch_format="pyarrow")

    # ---- shuffle (partitioned hash join) ----
    kt_l = dict(lf)[left_on]
    kt_r = dict(zip(rs.names, rs.types))[right_on]
    if not (pa.types.is_integer(kt_l) and pa.types.is_integer(kt_r)):
        raise ValueError(
            f"shuffle join needs integer keys, got {kt_l}/{kt_r} "
            "(use mode='broadcast' for other key types)"
        )
    l_names = [n for n, _ in lf]
    r_names = [n for n, _ in rf]

    def pad_left(b: pa.Table) -> pa.Table:
        cols: dict = {n: b.column(n) for n in l_names}
        for n, t in rf:
            cols[n] = pa.nulls(b.num_rows, t)
        cols["__tag"] = pa.array(np.zeros(b.num_rows, np.int8), pa.int8())
        cols["__b"] = _bucket_of(b.column(left_on), n_buckets)
        return pa.table(cols)

    def pad_right(b: pa.Table) -> pa.Table:
        key = b.column(right_on).cast(kt_l)
        cols = {}
        for n, t in lf:
            cols[n] = key if n == left_on else pa.nulls(b.num_rows, t)
        for n, _ in rf:
            cols[n] = b.column(n)
        cols["__tag"] = pa.array(np.ones(b.num_rows, np.int8), pa.int8())
        cols["__b"] = _bucket_of(key, n_buckets)
        return pa.table(cols)

    def join_bucket(g: pa.Table) -> pa.Table:
        tag = g.column("__tag")
        lt = g.filter(pc.equal(tag, pa.scalar(0, pa.int8()))).select(l_names)
        rt = g.filter(pc.equal(tag, pa.scalar(1, pa.int8()))).select(
            [left_on] + r_names
        )
        out = lt.join(rt, keys=left_on, join_type=join_type)
        return out.select(l_names + r_names).combine_chunks()

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow")
    )
    return tagged.groupby("__b").map_groups(join_bucket, batch_format="pyarrow")


def asof_join_sql(
    src: str, left_type: str = LEFT_TYPE, right_type: str = RIGHT_TYPE
) -> str:
    """Explicit row_number formulation (not native ASOF JOIN) so the
    equal-ts tiebreak — highest event_id — is pinned, matching the
    engine exactly."""
    return f"""
WITH l AS (SELECT event_id, ts, user_id, value FROM {src}
           WHERE event_type = '{left_type}'),
     r AS (SELECT event_id, ts, user_id, value FROM {src}
           WHERE event_type = '{right_type}'),
     pairs AS (
        SELECT l.event_id, l.ts, l.user_id, l.value,
               r.event_id AS prior_event_id, r.ts AS prior_ts,
               r.value AS prior_value,
               row_number() OVER (
                   PARTITION BY l.event_id
                   ORDER BY r.ts DESC, r.event_id DESC) AS rn
        FROM l LEFT JOIN r
          ON l.user_id = r.user_id AND r.ts <= l.ts
     )
SELECT event_id, ts, user_id, value,
       prior_event_id, prior_ts, prior_value
FROM pairs WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Bloom-filter semi-join (the broadcast join-avoidance primitive)
# ---------------------------------------------------------------------------

_BLOOM_SALT = "bloom"
_BLOOM_H_MEMO: dict[int, tuple[int, int]] = {}
_TWO64 = 18446744073709551616  # 2**64 — the SQL wraparound modulus


def _bloom_key_hashes(uniq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) uint64 pair per UNIQUE integer key: the little-endian
    first/second 8 bytes of ``md5('bloom:<key>')`` — the simhash md5
    device (:func:`~search_engine_ray.functions.dedup._token_hash_array`),
    extended to both md5 halves so Kirsch–Mitzenmacher double hashing
    gets two independent 64-bit values from ONE digest.  Memoized per
    process (keys repeat heavily across batches — every event of the
    same user re-tests the same bits)."""
    import hashlib

    memo = _BLOOM_H_MEMO
    get = memo.get
    h1 = np.empty(len(uniq), np.uint64)
    h2 = np.empty(len(uniq), np.uint64)
    for i, v in enumerate(uniq):
        v = int(v)
        pair = get(v)
        if pair is None:
            d = hashlib.md5(f"{_BLOOM_SALT}:{v}".encode()).digest()
            pair = (
                int.from_bytes(d[:8], "little"),
                int.from_bytes(d[8:16], "little"),
            )
            memo[v] = pair
        h1[i] = pair[0]
        h2[i] = pair[1]
    return h1, h2


def _bloom_positions(uniq: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(len(uniq), k) int64 bit positions: ``(h1 + i*h2) mod 2**64 mod
    m_bits`` — numpy uint64 arithmetic wraps at 2**64 exactly like the
    SQL twin's explicit ``% 18446744073709551616`` (HUGEINT holds the
    un-wrapped ``h1 + i*h2 <= h1 + (k-1)*h2 < 2**71`` for k <= 64, so
    the two mods agree bit-for-bit)."""
    h1, h2 = _bloom_key_hashes(uniq)
    i = np.arange(k, dtype=np.uint64)
    pos = h1[:, None] + i[None, :] * h2[:, None]  # uint64 wraparound
    return (pos % np.uint64(m_bits)).astype(np.int64)


def bloom_build(
    keys: rd.Dataset, on: str, m_bits: int = 1 << 20, k: int = 4
) -> np.ndarray:
    """Distributed Bloom-filter build over a key Dataset -> uint8[m/8]
    bitmap.  Each block contributes ONE ``m_bits/8``-byte partial (a
    bounded, block-count-sized driver pull — never the keys
    themselves), OR-folded on the driver.  Null keys contribute
    nothing (SQL semantics: ``md5(NULL)`` is NULL — a null key can
    never pass the membership test either)."""
    if m_bits < 8 or m_bits % 8:
        raise ValueError(f"m_bits must be a positive multiple of 8, got {m_bits}")
    if not 1 <= k <= 64:
        raise ValueError(f"k must be in [1, 64], got {k}")

    nbytes = m_bits // 8

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(on)
        vals = col.drop_null().to_numpy(zero_copy_only=False).astype(np.int64)
        bm = np.zeros(nbytes, np.uint8)
        if len(vals):
            pos = _bloom_positions(np.unique(vals), m_bits, k).ravel()
            np.bitwise_or.at(bm, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bits": pa.array([bm.tobytes()], pa.binary())})

    parts = keys.map_batches(partial, batch_format="pyarrow").take_all()
    bm = np.zeros(nbytes, np.uint8)
    for row in parts:
        bm |= np.frombuffer(row["bits"], np.uint8)
    return bm


def bloom_semi_join(
    big: rd.Dataset,
    keys: rd.Dataset,
    on: str,
    m_bits: int = 1 << 20,
    k: int = 4,
) -> rd.Dataset:
    """Bloom-filter semi-join — keep every ``big`` row whose integer
    ``on`` key PASSES the Bloom filter built from ``keys[on]`` (all k
    bit probes set).  THE join-avoidance primitive at 100 TB: the big
    side never shuffles and never joins — it streams through one
    vectorized membership map against a broadcast ``m_bits/8``-byte
    bitmap (``ray.put`` once), while the small side contributes one
    bitmap partial per block.  Deterministic false positives are part
    of the CONTRACT (rate ~ ``(1 - e^(-nk/m))^k``): given (m, k) the
    output is an exact function of the inputs — the SQL twin recomputes
    the identical md5 double-hash probes, so the oracle match is exact,
    false positives included.  Use it to pre-filter a huge fact table
    down to ~the matching rows before an exact join touches the
    survivors (reference semi-join analog: the postings lemma
    pruned-read, ``search.py`` J3 — same shape, bits instead of
    row-group stats)."""
    bm = bloom_build(keys, on, m_bits=m_bits, k=k)
    bm_ref = ray.put(bm)

    def fn(batch: pa.Table) -> pa.Table:
        col = batch.column(on)
        vals = col.to_numpy(zero_copy_only=False)
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        mask = np.zeros(len(batch), bool)
        if valid.any():
            v = vals[valid].astype(np.int64)
            uniq, inv = np.unique(v, return_inverse=True)
            pos = _bloom_positions(uniq, m_bits, k)
            filt = ray.get(bm_ref)
            bits = (filt[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
            mask[valid] = bits.all(axis=1)[inv]
        return batch.filter(pa.array(mask))

    return big.map_batches(fn, batch_format="pyarrow")


def _bloom_h_sql(half: int) -> str:
    """HUGEINT expression for the little-endian uint64 of md5 half
    ``half`` (0 = bytes 0..7 / hex chars 1..16, 1 = bytes 8..15 / hex
    chars 17..32) over a column named ``m`` — the hash_embed_sql nibble
    device, parameterized by half."""
    base = 16 * half

    def nib(pos: int) -> str:
        return f"(strpos('0123456789abcdef', substr(m, {pos}, 1)) - 1)"

    return " + ".join(
        f"CAST({nib(base + 2 * j + 1)} * 16 + {nib(base + 2 * j + 2)} AS HUGEINT)"
        f" * {1 << (8 * j)}"
        for j in range(8)
    )


def bloom_semi_join_sql(
    src: str,
    keys_sql: str,
    on: str = "user_id",
    m_bits: int = 1 << 20,
    k: int = 4,
    cols: str = "*",
) -> str:
    """DuckDB oracle for :func:`bloom_semi_join`: recompute the same
    md5 double-hash probe positions for the key set and for every
    DISTINCT big-side key (pass/fail is a function of the key alone),
    pass iff all k probe positions land in the key set's position set
    (``HAVING count(*) = k`` over the probe join — each of the k probe
    ROWS either hits or not, duplicate positions included, exactly the
    engine's ``bits.all(axis=1)``).  ``keys_sql`` is a one-column
    relation of candidate keys (the builder applies DISTINCT and the
    null drop itself)."""
    if not 1 <= k <= 64:
        raise ValueError(f"k must be in [1, 64], got {k}")

    def hh(rel: str) -> str:
        return (
            f"SELECT {on}, ({_bloom_h_sql(0)}) AS h1, ({_bloom_h_sql(1)}) AS h2 "
            f"FROM (SELECT {on}, md5('{_BLOOM_SALT}:' || CAST({on} AS VARCHAR)) "
            f"AS m FROM {rel} WHERE {on} IS NOT NULL)"
        )

    probes = f"CROSS JOIN (SELECT unnest(range({k})) AS i) i"
    posexpr = f"CAST((h1 + i.i * h2) % {_TWO64} % {m_bits} AS BIGINT) AS pos"
    return f"""
WITH ks AS (SELECT DISTINCT {on} FROM ({keys_sql})),
kh AS ({hh('ks')}),
posset AS (
    SELECT DISTINCT {posexpr}
    FROM kh {probes}
),
bk AS (SELECT DISTINCT {on} FROM {src}),
bkh AS ({hh('bk')}),
bp AS (
    SELECT {on}, {posexpr}
    FROM bkh {probes}
),
passk AS (
    SELECT bp.{on} FROM bp JOIN posset USING (pos)
    GROUP BY bp.{on} HAVING count(*) = {k}
)
SELECT {cols} FROM {src} b JOIN passk USING ({on})
"""


# ---------------------------------------------------------------------------
# Exact semi / anti join (EXISTS / NOT EXISTS)
# ---------------------------------------------------------------------------


def semi_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str | None = None,
    anti: bool = False,
    mode: str = "auto",
    n_buckets: int = 64,
    broadcast_max_rows: int = BROADCAST_MAX_ROWS,
) -> rd.Dataset:
    """Exact semi-join (``anti=False``: SQL ``WHERE EXISTS``) or
    anti-join (``anti=True``: ``WHERE NOT EXISTS``) — keep every left
    row whose key does / does not appear among the right side's keys.
    The EXACT sibling of :func:`bloom_semi_join` (same shape, no false
    positives), and the semi-join the reference's query planner applies
    to prune postings reads (search.py J3) generalized to any pair of
    tables.

    Only KEYS ever move — never right-side payload columns (the reason
    a semi-join beats ``hash_join`` + project at 100 TB: no row
    widening, no many-to-many blowup, output rows are left rows
    verbatim).

    Two physical plans, pinned equal by test:

    - ``broadcast`` — each right block contributes its in-block
      DISTINCT keys (a per-block ``np.unique``), the driver folds them
      into ONE sorted array (guarded by ``broadcast_max_rows``; above
      it the call refuses), ``ray.put`` once; the left side streams
      through a vectorized ``searchsorted`` membership mask. Zero
      shuffles.
    - ``shuffle`` — the scale plan when the DISTINCT key set itself is
      too big for one array: left rows and per-block-deduped right
      keys are tagged, bucketed by the same Fibonacci-mixed hash as
      :func:`hash_join`, and met in ONE ``groupby('__b')`` exchange;
      each bucket filters its left slice against its right key slice
      with the same searchsorted mask. Integer keys only (the
      vectorized bucket hash).

    NULL-key semantics are SQL ``EXISTS`` (NOT the ``NOT IN`` null
    poison): a null left key matches nothing, so semi DROPS it and
    anti KEEPS it; null right keys contribute nothing. Output carries
    the left columns unchanged; row order is not significant.
    """
    right_on = right_on or left_on
    if mode not in ("auto", "broadcast", "shuffle"):
        raise ValueError(f"bad mode {mode!r}")
    ls, rs = left.schema(), right.schema()
    if left_on not in ls.names:
        raise ValueError(f"left key {left_on!r} not in {ls.names}")
    if right_on not in rs.names:
        raise ValueError(f"right key {right_on!r} not in {rs.names}")
    kt_l = dict(zip(ls.names, ls.types))[left_on]
    kt_r = dict(zip(rs.names, rs.types))[right_on]
    if not (pa.types.is_integer(kt_l) and pa.types.is_integer(kt_r)):
        raise ValueError(f"semi_join needs integer keys, got {kt_l}/{kt_r}")
    l_names = list(ls.names)

    def key_part(b: pa.Table) -> pa.Table:
        v = (
            b.column(right_on)
            .drop_null()
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table({"k": pa.array(np.unique(v), pa.int64())})

    # every path below touches ONLY the right key column — project it
    # out up front so no payload bytes ever move. In auto mode the
    # count streams; only a small (broadcast-bound) key set
    # materializes for the driver fold — a corpus-sized right never
    # pins in the object store
    right = right.select_columns([right_on])
    if mode == "auto":
        if right.count() <= broadcast_max_rows:
            right = right.materialize()
            mode = "broadcast"
        else:
            mode = "shuffle"

    if mode == "broadcast":
        tabs = [
            t
            for t in ray.get(
                right.map_batches(key_part, batch_format="pyarrow")
                .materialize().to_arrow_refs()
            )
            if t.num_rows
        ]
        keys = (
            np.unique(np.concatenate([t.column("k").to_numpy() for t in tabs]))
            if tabs
            else np.empty(0, np.int64)
        )
        if len(keys) > broadcast_max_rows:
            raise ValueError(
                f"distinct key set has {len(keys)} rows > "
                f"{broadcast_max_rows}; use mode='shuffle'"
            )
        keys_ref = ray.put(keys)

        def bfilter(b: pa.Table) -> pa.Table:
            return b.filter(
                pa.array(_member_mask(b.column(left_on), ray.get(keys_ref), anti))
            )

        return left.map_batches(bfilter, batch_format="pyarrow")

    # ---- shuffle plan ----
    def pad_left(b: pa.Table) -> pa.Table:
        cols: dict = {n: b.column(n) for n in l_names}
        cols["__tag"] = pa.array(np.zeros(b.num_rows, np.int8), pa.int8())
        cols["__b"] = _bucket_of(b.column(left_on), n_buckets)
        return pa.table(cols)

    def pad_right(b: pa.Table) -> pa.Table:
        kp = key_part(b)
        key = kp.column("k").cast(kt_l)
        cols = {}
        for n, t in zip(ls.names, ls.types):
            cols[n] = key if n == left_on else pa.nulls(kp.num_rows, t)
        cols["__tag"] = pa.array(np.ones(kp.num_rows, np.int8), pa.int8())
        cols["__b"] = _bucket_of(key, n_buckets)
        return pa.table(cols)

    def filter_bucket(g: pa.Table) -> pa.Table:
        tag = g.column("__tag")
        lt = g.filter(pc.equal(tag, pa.scalar(0, pa.int8()))).select(l_names)
        rk = (
            g.filter(pc.equal(tag, pa.scalar(1, pa.int8())))
            .column(left_on)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        keys = np.unique(rk)
        return lt.filter(pa.array(_member_mask(lt.column(left_on), keys, anti)))

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow")
    )
    return tagged.groupby("__b").map_groups(
        filter_bucket, batch_format="pyarrow"
    )


def _member_mask(
    col: pa.ChunkedArray | pa.Array, keys: np.ndarray, anti: bool
) -> np.ndarray:
    """Boolean keep-mask of ``col`` against the SORTED key array:
    searchsorted membership, EXISTS null semantics (null never hits, so
    semi drops it / anti keeps it)."""
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    hit = np.zeros(len(valid), bool)
    if valid.any() and len(keys):
        v = pc.fill_null(col, 0).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )[valid]
        idx = np.searchsorted(keys, v)
        idx_c = np.clip(idx, 0, len(keys) - 1)
        hit[valid] = (idx < len(keys)) & (keys[idx_c] == v)
    return ~hit if anti else hit


def semi_join_sql(
    left_src: str,
    right_src: str,
    left_on: str,
    right_on: str | None = None,
    anti: bool = False,
    cols: str = "l.*",
) -> str:
    """DuckDB oracle for :func:`semi_join` — the literal EXISTS /
    NOT EXISTS formulation (null semantics match by construction)."""
    right_on = right_on or left_on
    neg = "NOT " if anti else ""
    return (
        f"SELECT {cols} FROM {left_src} l WHERE {neg}EXISTS "
        f"(SELECT 1 FROM {right_src} r WHERE r.{right_on} = l.{left_on})"
    )


# ---------------------------------------------------------------------------
# Skew-aware join (hot-key split: broadcast the hot slice, shuffle the rest)
# ---------------------------------------------------------------------------

SKEW_HOT_THRESHOLD = 100_000  # left rows per key before a key counts as hot
SKEW_MAX_HOT_KEYS = 10_000  # loud cap on the driver-held hot-key list


def skew_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str | None = None,
    how: str = "inner",
    hot_threshold: int = SKEW_HOT_THRESHOLD,
    max_hot_keys: int = SKEW_MAX_HOT_KEYS,
    n_buckets: int = 64,
) -> rd.Dataset:
    """Equi-join with HOT-KEY SPLITTING — the fix for the one failure
    mode :func:`hash_join`'s shuffle plan documents ("a single
    pathological hot KEY still lands one bucket"): a power-law key
    (the celebrity user, the empty-string URL, the default tenant)
    sends 10% of the table through one reducer and the job runs at the
    speed of that straggler.

    Plan (the classic skew join every warehouse engine ships):

    1. ONE pre-aggregated count of left keys (in-map partials, tiny
       exchange) finds keys with > ``hot_threshold`` left rows. The
       hot-key list is driver-held and LOUDLY capped at
       ``max_hot_keys`` — by definition of "hot" it is small; if it
       isn't, the threshold is wrong and the call refuses rather than
       building an unbounded driver object.
    2. The RIGHT rows of hot keys — small by the FK assumption (a hot
       key is hot on the probe side; the build side carries a bounded
       number of rows per key) — broadcast once, and the hot LEFT
       slice streams through a zero-shuffle broadcast join, spreading
       the hot key across EVERY map task instead of one reducer.
    3. The cold remainder takes the normal partitioned hash join.
    4. Union. Each left row goes to exactly one path (its key is hot
       or it isn't), so ``union(hot ⋈, cold ⋈) == left ⋈ right``
       exactly — the oracle is the plain join, pinned by test against
       :func:`hash_join` on a crafted power-law corpus.

    ``how`` supports 'inner' and 'left' (the probe-side-preserving
    modes; right/full outer cannot split by left-key heat because
    unmatched RIGHT rows belong to no left slice). Hot x hot
    many-to-many is inherently quadratic — no plan fixes that; the
    broadcast path at least parallelizes it over left blocks.
    """
    right_on = right_on or left_on
    if how not in ("inner", "left"):
        raise ValueError(f"skew_join how must be 'inner'/'left', got {how!r}")
    ls = left.schema()
    if left_on not in ls.names:
        raise ValueError(f"left key {left_on!r} not in {ls.names}")
    kt = dict(zip(ls.names, ls.types))[left_on]
    if not pa.types.is_integer(kt):
        raise ValueError(f"skew_join needs an integer key, got {kt}")

    # left feeds THREE consumers (the heat census, the hot slice, the
    # cold slice) and right feeds two; materialize each once so the
    # upstream pipelines execute once and the splits read cached blocks
    # (object-store-resident, disk-spilled beyond memory — the same
    # residency the exchange itself would impose)
    left = left.materialize()
    right = right.materialize()

    def key_counts(b: pa.Table) -> pa.Table:
        return (
            b.select([left_on])
            .group_by(left_on)
            .aggregate([(left_on, "count")])
            .rename_columns([left_on, "n"])
        )

    counts = (
        left.map_batches(key_counts, batch_format="pyarrow")
        .groupby(left_on)
        .aggregate(RaySum("n", alias_name="n"))
    )
    hot_tabs = [
        t
        for t in ray.get(
            counts.map_batches(
                lambda b: b.filter(
                    pc.greater(b.column("n"), pa.scalar(hot_threshold))
                ).select([left_on]),
                batch_format="pyarrow",
            ).materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    hot = (
        np.unique(
            np.concatenate(
                [
                    t.column(left_on).cast(pa.int64()).to_numpy()
                    for t in hot_tabs
                ]
            )
        )
        if hot_tabs
        else np.empty(0, np.int64)
    )
    if len(hot) > max_hot_keys:
        raise ValueError(
            f"{len(hot)} keys exceed hot_threshold={hot_threshold} — more "
            f"than max_hot_keys={max_hot_keys}; raise the threshold (a "
            '"hot list" this size is just the key distribution)'
        )
    if not len(hot):
        return hash_join(
            left, right, left_on, right_on, how=how, mode="shuffle",
            n_buckets=n_buckets,
        )
    hot_ref = ray.put(hot)

    def split(b: pa.Table, keep_hot: bool, key: str) -> pa.Table:
        mask = _member_mask(b.column(key), ray.get(hot_ref), anti=not keep_hot)
        return b.filter(pa.array(mask))

    left_hot = left.map_batches(
        lambda b: split(b, True, left_on), batch_format="pyarrow"
    )
    left_cold = left.map_batches(
        lambda b: split(b, False, left_on), batch_format="pyarrow"
    )
    right_hot = right.map_batches(
        lambda b: split(b, True, right_on), batch_format="pyarrow"
    )
    right_cold = right.map_batches(
        lambda b: split(b, False, right_on), batch_format="pyarrow"
    )
    hot_joined = hash_join(
        left_hot, right_hot, left_on, right_on, how=how, mode="broadcast"
    )
    cold_joined = hash_join(
        left_cold, right_cold, left_on, right_on, how=how, mode="shuffle",
        n_buckets=n_buckets,
    )
    return hot_joined.union(cold_joined)
