"""Statistics API — the analog of ``GET /api/statistics``
(``/root/reference/src/main/java/searchengine/services/statistics/StatisticsServiceImpl.java:33-79``):
per-scope document counts + lemma counts + build status. Counts come
from the doc store / dictionary footers and the build manifests — no
recomputation (the reference re-queries MySQL counts per request,
``repositories/PageRepository.java:22``, ``LemmaRepository.java:23``)."""

from __future__ import annotations

import os

import pyarrow.compute as pc

from .state import layout
from .state.columns import read_table
from .state.manifest import PartitionTracker, load_json


def statistics(out_dir: str) -> dict:
    """Reference-parity dashboard stats (StatisticsServiceImpl.java:
    64-78 — one DB groupby). The per-role count here is a driver-side
    scan of ONE dictionary-encoded column — the reference's exact
    shape; at corpus scale serve role counts from the DISTRIBUTED twin
    (``functions.aggregates`` / the ``role_stats`` registry query)
    instead and keep this endpoint for the bounded dashboards."""
    m = load_json(layout.build_manifest_path(out_dir)) or {}
    stats = m.get("stats", {})
    t = read_table(layout.docs_dir(out_dir), columns=["role"])
    per_role = pc.value_counts(t.column("role")).to_pylist()
    gens = layout.list_generations(out_dir)
    tracker = PartitionTracker(
        os.path.join(layout.stage_a_dir(out_dir), "_manifests"), build_id="A"
    )
    parts = tracker.all_manifests()
    return {
        "total": {
            "docs": stats.get("n_docs", t.num_rows),
            "lemmas": stats.get("n_lemmas"),
            "postings": stats.get("n_postings"),
            "avgdl": stats.get("avgdl"),
            "indexing": m.get("state") != "DONE",
        },
        "per_scope": {r["values"]: r["counts"] for r in per_role},
        # incremental generations overlaying the base build (docs/avgdl
        # above are BASE stats; the query engine applies exact
        # adjustments at load — see search.SearchEngine._load_deltas)
        "delta_generations": [
            {
                "generation": g["generation"],
                "conv_ids": g["conv_ids"],
                "old_turns": g["old_turns"],
                "new_turns": g["new_turns"],
            }
            for g in gens
        ],
        # LSM lifecycle: generations folded into the base so far
        # (pipelines/compact.py) — each entry is one compact() run
        "compactions": m.get("compactions") or [],
        "partitions": [
            {"id": p["partition_id"], "state": p["state"], "metrics": p.get("metrics", {})}
            for p in parts
        ],
    }
