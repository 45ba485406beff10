"""Transcripts source — the engine's only document source.

Replaces the reference's recursive web crawl
(``/root/reference/src/main/java/searchengine/services/indexation/WebScraper.java:43-94``)
per BASELINE.json's ``input_hint``: the corpus is a closed Parquet table
of transcript turns, read with ``ray.data.read_parquet`` with column
pruning (only the columns a stage needs leave storage).
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data


TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
# columns the analysis stage reads (doc rows carry tool/ts into the doc
# store for result enrichment) — keep in sync with pipelines.build.ANALYSIS_COLUMNS
ANALYSIS_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


def read_transcripts(paths: list[str] | str, columns: list[str] | None = None,
                     **read_kwargs) -> ray.data.Dataset:
    """Transcript turns as a Dataset. Parquet is the primary format
    (column pruning + row-group stats); JSONL and CSV inputs are
    accepted for interop and normalized to the canonical schema (they
    have no column pruning — the format conversion pipeline is
    ``read_jsonl/csv -> write_parquet``)."""
    first = paths[0] if isinstance(paths, list) else paths
    ext = os.path.splitext(first)[1].lower()
    if ext in (".json", ".jsonl", ".ndjson"):
        ds = ray.data.read_json(paths, **read_kwargs)
    elif ext == ".csv":
        ds = ray.data.read_csv(paths, **read_kwargs)
    else:
        return ray.data.read_parquet(
            paths, columns=columns or TRANSCRIPT_COLUMNS, **read_kwargs
        )
    cols = columns or TRANSCRIPT_COLUMNS
    return ds.map_batches(
        lambda b: _normalize(b, cols), batch_format="pyarrow"
    )


def _normalize(batch: pa.Table, columns: list[str]) -> pa.Table:
    """Cast/complete a foreign-format batch to the canonical schema."""
    arrays = []
    for name in columns:
        typ = TRANSCRIPT_SCHEMA.field(name).type
        if name in batch.column_names:
            col = batch.column(name)
            arrays.append(col.cast(typ) if col.type != typ else col)
        else:
            arrays.append(pa.nulls(batch.num_rows, typ))
    return pa.Table.from_arrays(arrays, names=columns)
