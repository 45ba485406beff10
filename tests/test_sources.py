"""Source formats: JSONL / CSV inputs normalize to the canonical
transcript schema and produce identical rows to the Parquet read."""

import os

import pyarrow as pa
import pyarrow.csv as pcsv
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def format_trio(tmp_path_factory, tiny_corpus):
    d = tmp_path_factory.mktemp("formats")
    tbl = pq.read_table(tiny_corpus[0]).slice(0, 500)
    jsonl = str(d / "t.jsonl")
    with open(jsonl, "w") as f:
        import json

        for row in tbl.to_pylist():
            row["ts"] = str(row["ts"])
            f.write(json.dumps(row) + "\n")
    csv = str(d / "t.csv")
    pcsv.write_csv(tbl, csv)
    return {"parquet": tiny_corpus[0], "jsonl": jsonl, "csv": csv, "expected": tbl}


def _collect(paths):
    import ray
    import ray.data as rd

    from search_engine_ray.sources.transcripts import read_transcripts

    ds = read_transcripts(paths, columns=["conv_id", "turn_idx", "role", "text"])
    t = pa.concat_tables([x for x in ray.get(ds.to_arrow_refs()) if x.num_rows])
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])


def test_jsonl_matches_parquet(ray_session, format_trio):
    exp = _collect([format_trio["parquet"]]).slice(0, 500)
    got = _collect([format_trio["jsonl"]])
    assert got.equals(exp.select(got.column_names).cast(got.schema))


def test_csv_matches_parquet(ray_session, format_trio):
    exp = _collect([format_trio["parquet"]]).slice(0, 500)
    got = _collect([format_trio["csv"]])
    assert got.equals(exp.select(got.column_names).cast(got.schema))


def test_read_blocking_policy(ray_session, tmp_path):
    """Size-aware blocking pins (sources.read_clean_parquet): a tiny
    table reads as ONE block (Ray's row-group splitter fragmented a
    5-row table into 2*ncpu near-empty blocks and every exchange paid
    per-block scheduling); a table with real per-row work keeps a
    parallelism floor; an explicit override is respected."""
    import numpy as np
    import pyarrow.parquet as pq

    from search_engine_ray.sources import read_clean_parquet

    tiny = str(tmp_path / "tiny.parquet")
    pq.write_table(pa.table({"x": pa.array([1, 2, 3], pa.int64())}), tiny)
    assert read_clean_parquet(tiny).materialize().num_blocks() == 1

    wide = str(tmp_path / "wide.parquet")
    n = 60_000
    pq.write_table(
        pa.table({"x": pa.array(np.arange(n)), "y": pa.array(np.arange(n))}),
        wide,
    )
    nb = read_clean_parquet(wide).materialize().num_blocks()
    assert nb >= min(4, n // 5_000), nb  # rows-based floor engaged

    forced = read_clean_parquet(tiny, override_num_blocks=3)
    assert forced.materialize().num_blocks() == 3  # caller wins


def test_actor_pool_sizing(ray_session):
    """functions.actor_pool: CPU-proportional (never the fixed (1, 4)
    scale bug), floored, and capped when asked."""
    import ray

    from search_engine_ray.functions import actor_pool

    ncpu = int(ray.cluster_resources().get("CPU", 0))
    lo, hi = actor_pool()
    assert lo == 1 and hi == max(2, ncpu // 2)
    assert actor_pool(cap=3)[1] == min(3, max(2, ncpu // 2))
    assert actor_pool(floor=5)[1] >= 5


def test_rows_memo_evicts_oldest(ray_session, tmp_path, monkeypatch):
    """Past its bound the footer-row memo of ``read_clean_parquet``
    evicts its OLDEST entry, one at a time, instead of clearing itself
    whole; a repeated read is served from it."""
    from collections import OrderedDict

    import search_engine_ray.sources as src

    monkeypatch.setattr(src, "_ROWS_MEMO", OrderedDict())
    monkeypatch.setattr(src, "_ROWS_MEMO_MAX", 2)
    paths = []
    for i in range(3):
        p = str(tmp_path / f"f{i}.parquet")
        pq.write_table(pa.table({"x": list(range(i + 1))}), p)
        paths.append(p)
        src.read_clean_parquet([p])
    assert [k[0] for k in src._ROWS_MEMO] == paths[1:]
    assert list(src._ROWS_MEMO.values()) == [2, 3]
    monkeypatch.setattr(pq, "read_metadata", lambda *_: 1 / 0)  # a re-scan fails loudly
    src.read_clean_parquet(paths[1:])
    assert list(src._ROWS_MEMO.values()) == [2, 3]
