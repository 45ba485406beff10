"""Incremental re-index (SURVEY §3.3, the POST /api/indexPage analog):
base index + delta generations must be RANK-IDENTICAL to a full rebuild
of the modified corpus — same top-k (conv_id, turn_idx), same float64
BM25 scores, same counts — across bm25 blockmax/exhaustive and the
reference parity scorer."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from search_engine_ray import datagen
from search_engine_ray.config import BuildConfig
from search_engine_ray.pipelines import build, delta
from search_engine_ray import search as search_mod
from search_engine_ray.search import SearchEngine


def _modify_corpus(files, out_dir, conv_id, new_texts):
    """Rewrite the corpus with conv_id's turns replaced by new_texts
    (fewer texts = dropped turns). Returns the new file list."""
    os.makedirs(out_dir, exist_ok=True)
    out_files = []
    for f in files:
        t = pq.read_table(f)
        mask = pc.equal(t.column("conv_id"), conv_id)
        others = t.filter(pc.invert(mask))
        mine = t.filter(mask).sort_by("turn_idx")
        if mine.num_rows:
            keep = mine.slice(0, len(new_texts))
            keep = keep.set_column(
                keep.schema.get_field_index("text"),
                "text",
                pa.array(new_texts[: keep.num_rows], pa.string()),
            )
            others = pa.concat_tables([others, keep]).sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending")]
            )
        out = os.path.join(out_dir, os.path.basename(f))
        pq.write_table(others, out)
        out_files.append(out)
    return out_files


@pytest.fixture(scope="module")
def delta_env(tmp_path_factory, tiny_corpus, ray_session):
    root = tmp_path_factory.mktemp("delta")
    base_out = str(root / "base")
    cfg = BuildConfig(input_paths=tiny_corpus, out_dir=base_out, n_partitions=2, concurrency=2)
    build.build_index(cfg)

    # pick a conversation that actually matches a reference query lemma
    eng0 = SearchEngine(base_out)
    hot = datagen.stem(0)
    r = eng0.search(hot, limit=3)
    conv = r["data"].column("conv_id")[0].as_py()

    new_texts = [
        f"{datagen.stem(7)} {datagen.stem(7)} completely rewritten turn",
        f"{datagen.stem(3)} appended content for the delta test",
    ]
    mod_files = _modify_corpus(tiny_corpus, str(root / "modified"), conv, new_texts)

    rebuilt_out = str(root / "rebuilt")
    build.build_index(
        BuildConfig(input_paths=mod_files, out_dir=rebuilt_out, n_partitions=2, concurrency=2)
    )
    resp = delta.reindex_conversations(base_out, [conv], input_paths=mod_files)
    assert resp["result"] and resp["generation"] == 1
    return {
        "base_out": base_out,
        "rebuilt_out": rebuilt_out,
        "conv": conv,
        "mod_files": mod_files,
        "root": root,
    }


def _compare_engines(a: SearchEngine, b: SearchEngine, modes=(("bm25", "blockmax"), ("bm25", "exhaustive"), ("reference", "blockmax"))):
    for q in datagen.reference_queries():
        for mode, method in modes:
            ra = a.search(q["query_text"], scope=q["scope"], limit=q["k"], mode=mode, method=method)
            rb = b.search(q["query_text"], scope=q["scope"], limit=q["k"], mode=mode, method=method)
            assert ra["result"] == rb["result"], (q["query_id"], mode, method)
            assert ra["count"] == rb["count"], (q["query_id"], mode, method)
            assert ra["data"].equals(rb["data"]), (q["query_id"], mode, method)


def test_delta_rank_identical_to_rebuild(delta_env):
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    assert overlay._has_deltas
    # corpus stats adjusted exactly
    assert overlay.n_docs == rebuilt.n_docs
    assert overlay.avgdl == pytest.approx(rebuilt.avgdl, abs=0.0)
    _compare_engines(overlay, rebuilt)


def test_delta_avgdl_growth_rank_identical(delta_env, tiny_corpus):
    """Regression for the inverted bmw-scale direction: BM25's
    df-independent weight INCREASES when avgdl grows, so stored block-max
    bounds understate true scores after a delta that RAISES avgdl; the
    overlay must inflate them (by avgdl_eff/avgdl_base) or blockmax
    silently drops true top-k rows. The original delta fixture only
    shrinks avgdl and cannot catch this."""
    root = delta_env["root"]
    base_out = str(root / "base_grow")
    cfg = BuildConfig(input_paths=tiny_corpus, out_dir=base_out, n_partitions=2, concurrency=2)
    build.build_index(cfg)

    eng0 = SearchEngine(base_out)
    conv = eng0.search(datagen.stem(0), limit=3)["data"].column("conv_id")[0].as_py()

    # replace with LONG turns stuffed with query lemmas -> avgdl grows
    long_text = " ".join(
        [datagen.stem(0)] * 5 + [datagen.stem(i % 64) for i in range(400)]
    )
    new_texts = [long_text, long_text + " " + datagen.stem(1), long_text]
    mod_files = _modify_corpus(tiny_corpus, str(root / "modified_grow"), conv, new_texts)

    rebuilt_out = str(root / "rebuilt_grow")
    build.build_index(
        BuildConfig(input_paths=mod_files, out_dir=rebuilt_out, n_partitions=2, concurrency=2)
    )
    resp = delta.reindex_conversations(base_out, [conv], input_paths=mod_files)
    assert resp["result"]

    overlay = SearchEngine(base_out)
    rebuilt = SearchEngine(rebuilt_out)
    assert overlay.avgdl > eng0.avgdl  # the growth direction is exercised
    assert overlay._bmw_scale > 1.0
    assert overlay.avgdl == pytest.approx(rebuilt.avgdl, abs=0.0)
    _compare_engines(overlay, rebuilt)



# NOTE: the three *_identical_to_rebuild tests below (and the two
# above) compare the SHARED delta_env overlay against its generation-1
# rebuild, so they must run BEFORE test_second_generation_wins /
# test_delta_novel_scope_values, which append further generations to
# the same base_out (the module is intentionally sequential: later
# tests exercise multi-generation state).
def test_delta_facets_identical_to_rebuild(delta_env):
    """Faceted counts fold through the overlay exactly: per-posting
    scope codes of delta postings (synthetic blocks, scps=None decode
    fallback) and tombstone-masked base postings group identically to a
    fresh rebuild of the modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.reference_queries():
        ra = overlay.facets(q["query_text"], scope=q["scope"])
        rb = rebuilt.facets(q["query_text"], scope=q["scope"])
        assert ra["result"] == rb["result"], q["query_id"]
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
        # the date histogram rides _ts_of_ids, where delta rows win
        da = overlay.facets(q["query_text"], scope=q["scope"], by=("day",))
        db = rebuilt.facets(q["query_text"], scope=q["scope"], by=("day",))
        assert da["count"] == db["count"], q["query_id"]
        assert da["data"].equals(db["data"]), q["query_id"]


def test_delta_exclude_identical_to_rebuild(delta_env):
    """NOT-term exclusion folds through the overlay exactly: the
    exclusion docid set is decoded from the same tombstone-masked,
    delta-merged blocks as scoring."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.exclude_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            exclude=q["exclude_text"], conjunctive=q["conjunctive"])
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            exclude=q["exclude_text"], conjunctive=q["conjunctive"])
        assert ra["result"] == rb["result"], q["query_id"]
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_ts_range_identical_to_rebuild(delta_env):
    """The ts filter reads the overlay-folded forward index when deltas
    exist (delta rows win, tombstoned rows dropped) — pinned identical
    to a fresh rebuild of the modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.ts_range_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            ts_min=q["ts_min"], ts_max=q["ts_max"])
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            ts_min=q["ts_min"], ts_max=q["ts_max"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]

def test_delta_decay_identical_to_rebuild(delta_env):
    """Function-score decay multiplies by ts from the overlay-folded
    forward index (delta rows win, tombstoned rows dropped) — pinned
    identical to a fresh rebuild of the modified corpus across all
    three shapes."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.decay_queries():
        spec = {"origin": q["origin"], "scale": q["scale"],
                "shape": q["shape"], "rate": q["rate"], "offset": q["offset"]}
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            decay=spec)
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            decay=spec)
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_rescore_identical_to_rebuild(delta_env):
    """Rescore composes blockmax + the positional phrase matcher, both
    of which fold the delta overlay — pinned identical to a fresh
    rebuild of the modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.rescore_queries():
        spec = {"query": q["rescore"], "window": q["window"],
                "query_weight": q["query_weight"],
                "rescore_weight": q["rescore_weight"]}
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            rescore=spec)
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            rescore=spec)
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_grouped_surfaces_identical_to_rebuild(delta_env):
    """The round-3 grouped/boolean surfaces fold through the overlay
    exactly: conversation-level ranking (max-passage grouping of the
    overlay-folded matching set), field collapsing, and auto-mode
    boolean queries all pinned identical to a fresh rebuild of the
    modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.conv_queries():
        ra = overlay.search_conversations(q["query_text"], scope=q["scope"], limit=q["k"])
        rb = rebuilt.search_conversations(q["query_text"], scope=q["scope"], limit=q["k"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
    for q in datagen.collapse_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            collapse=q["collapse"])
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            collapse=q["collapse"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
    for q in datagen.auto_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="auto")
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="auto")
        assert ra["result"] == rb["result"], q["query_id"]
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
    for q in datagen.order_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            order_by=q["order_by"])
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            order_by=q["order_by"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
    # RRF fusion rides the same overlay-folded scored frame + ts lookup
    for q in datagen.reference_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            order_by="rrf")
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            order_by="rrf")
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_metrics_identical_to_rebuild(delta_env):
    """The stats/percentiles aggregation folds through the overlay
    exactly: _dl_of_ids and _ts_of_ids gather through _doc_rows, where
    delta doc rows win over tombstone-masked base rows — pinned
    identical to a fresh rebuild of the modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.reference_queries():
        ra = overlay.metrics(q["query_text"], scope=q["scope"])
        rb = rebuilt.metrics(q["query_text"], scope=q["scope"])
        assert ra["result"] == rb["result"], q["query_id"]
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
    # error paths
    assert overlay.metrics(datagen.stem(0), fields=("nope",))["error"] == "bad_field"
    assert overlay.metrics("", )["error"] == "empty_query"
    r = overlay.metrics("wqxqzq")
    assert r["result"] and r["count"] == 0 and r["data"].num_rows == 0
    # top-hits-per-bucket rides the same overlay-folded frames
    for q in datagen.reference_queries():
        ta = overlay.top_hits(q["query_text"], scope=q["scope"], per_group=2)
        tb = rebuilt.top_hits(q["query_text"], scope=q["scope"], per_group=2)
        assert ta["count"] == tb["count"], q["query_id"]
        assert ta["data"].equals(tb["data"]), q["query_id"]
    tt = overlay.top_hits(datagen.stem(0), by="tool", per_group=1)
    rt = rebuilt.top_hits(datagen.stem(0), by="tool", per_group=1)
    assert tt["data"].equals(rt["data"])
    assert (tt["data"].column("grank").to_pylist()
            == [1] * tt["data"].num_rows)
    assert overlay.top_hits(datagen.stem(0), by="nope")["error"] == "bad_group"



def test_delta_explain_identical_to_rebuild(delta_env):
    """explain() folds through the overlay exactly: df from the
    merged posting counts, tf/dl from the overlay-folded decode,
    totals bit-identical to a fresh rebuild of the modified corpus —
    including probes ON the re-indexed conversation itself."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    probes = list(datagen.explain_queries())
    # probe the re-indexed conversation's rewritten first turn too
    probes.append({"query_id": "x-delta", "query_text": datagen.stem(7),
                   "conv_id": delta_env["conv"], "turn_idx": 0})
    for p in probes:
        ra = overlay.explain(p["query_text"], p["conv_id"], p["turn_idx"])
        rb = rebuilt.explain(p["query_text"], p["conv_id"], p["turn_idx"])
        assert ra["result"] == rb["result"], p["query_id"]
        assert ra["count"] == rb["count"], p["query_id"]
        assert ra["total"] == rb["total"], p["query_id"]
        assert ra["data"].equals(rb["data"]), p["query_id"]
    # the rewritten turn now contains stem(7) twice -> tf == 2 there
    ex = overlay.explain(datagen.stem(7), delta_env["conv"], 0)
    assert ex["count"] == 1 and ex["data"].column("tf").to_pylist() == [2]


def test_delta_rank_eval_identical_to_rebuild(delta_env):
    """rank_eval rides the overlay-folded matching set and the served
    page — both already pinned overlay-exact — so its integer metric
    rows equal a fresh rebuild of the modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.sig_queries():
        ra = overlay.rank_eval(q["query_text"], scope=q["scope"], k=q["k"])
        rb = rebuilt.rank_eval(q["query_text"], scope=q["scope"], k=q["k"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_termvectors_identical_to_rebuild(delta_env):
    """termvectors re-analyzes the overlay-aware text source and folds
    df through the merged posting counts — rows identical to a fresh
    rebuild, INCLUDING a probe on the re-indexed conversation (tf
    reflects the rewritten text: stem(7) now appears twice in turn 0)."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    probes = list(datagen.termvector_probes())
    probes.append({"query_id": "tv-delta",
                   "conv_id": delta_env["conv"], "turn_idx": 0})
    for p in probes:
        ra = overlay.termvectors(p["conv_id"], p["turn_idx"])
        rb = rebuilt.termvectors(p["conv_id"], p["turn_idx"])
        assert ra["result"] == rb["result"], p["query_id"]
        assert ra["count"] == rb["count"], p["query_id"]
        assert ra["data"].equals(rb["data"]), p["query_id"]
    tv = overlay.termvectors(delta_env["conv"], 0)["data"].to_pylist()
    assert next(x["tf"] for x in tv if x["lemma"] == datagen.stem(7)) == 2


def test_delta_mget_explain_termvectors_agree_on_aliveness(delta_env):
    """mget, explain and termvectors ask one question of the overlaid
    view: is this doc live? A turn past the end of a conversation no
    generation touched is not found by any of them, as in a rebuild
    (mget used to report it found with another turn's row)."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    hit = overlay.search(datagen.stem(0), limit=50)["data"].to_pylist()
    other = next(r["conv_id"] for r in hit if r["conv_id"] != delta_env["conv"])
    docs = [(other, 900), (other, 0), (delta_env["conv"], 0), (delta_env["conv"], 5)]
    for eng in (overlay, rebuilt):
        found = eng.mget(docs)["data"].column("found").to_pylist()
        assert found == [False, True, True, False]
        assert eng.explain(datagen.stem(0), other, 900)["error"] == "not_found"
        assert eng.termvectors(other, 900)["error"] == "not_found"
        assert eng.termvectors(delta_env["conv"], 5)["error"] == "not_found"


def test_delta_histogram_identical_to_rebuild(delta_env):
    """histogram rides the overlay-folded matching set + the spliced
    per-doc value frames — buckets equal a fresh rebuild exactly."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.histogram_queries():
        ra = overlay.histogram(q["query_text"], field=q["field"],
                               interval=q["interval"], scope=q["scope"])
        rb = rebuilt.histogram(q["query_text"], field=q["field"],
                               interval=q["interval"], scope=q["scope"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_boosts_identical_to_rebuild(delta_env):
    """Boosted search rides the overlay-folded exhaustive scorer with
    merged dfs — boosted pages equal a fresh rebuild bit-for-bit."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.boost_queries():
        ra = overlay.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            boosts=q["boosts"])
        rb = rebuilt.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            boosts=q["boosts"])
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_composite_identical_to_rebuild(delta_env):
    """facets_composite rides the overlay-folded matching codes — paged
    buckets equal a fresh rebuild, including an after-resumed page."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.composite_queries():
        ra = overlay.facets_composite(
            q["query_text"], scope=q["scope"], size=q["k"], after=q["after"]
        )
        rb = rebuilt.facets_composite(
            q["query_text"], scope=q["scope"], size=q["k"], after=q["after"]
        )
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["after_key"] == rb["after_key"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_export_serves_generation_correct_text(delta_env, tmp_path):
    """export routes each matching conv to its generation's text source:
    the overlay export equals a fresh-rebuild export row-for-row (text
    included), and the re-indexed conversation's rewritten turns export
    the NEW text."""
    import pyarrow.dataset as pads

    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    q = datagen.stem(7)  # the rewritten turn contains stem(7) twice

    def dump(eng, dest):
        r = eng.export(q, str(dest))
        assert r["result"]
        if r["count"] == 0:
            return None, 0
        t = (
            pads.dataset(str(dest))
            .to_table(columns=["conv_id", "turn_idx", "role", "tool", "ts", "text"])
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        return t, r["count"]

    a, na = dump(overlay, tmp_path / "overlay")
    b, nb = dump(rebuilt, tmp_path / "rebuilt")
    assert na == nb and na > 0
    assert a.equals(b)
    mine = a[a["conv_id"] == delta_env["conv"]]
    assert len(mine) > 0
    assert any(mine["text"].str.count(datagen.stem(7)) >= 2)


def test_delta_sig_terms_identical_to_rebuild(delta_env):
    """significant_terms folds the overlay exactly: the base-segment
    scan masks tombstoned postings (fg AND the df partial), and
    overlay-touched lemmas re-score driver-side from their merged
    posting decode — (rank, lemma, fg, bg, score) rows identical to a
    fresh rebuild of the modified corpus, integer counts AND float
    scores (same IEEE op order on both paths)."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.sig_queries():
        ra = overlay.significant_terms(q["query_text"], scope=q["scope"], k=q["k"])
        rb = rebuilt.significant_terms(q["query_text"], scope=q["scope"], k=q["k"])
        assert ra["result"] == rb["result"], q["query_id"]
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]
    # the rewritten conversation's new vocabulary is visible to the
    # overlay scan: probing a lemma only the delta contains must not
    # crash and must match the rebuild (covered above via equality)


def test_delta_rare_terms_identical_to_rebuild(delta_env):
    """rare_terms rides the same overlay-masked scan + driver fold as
    significant_terms — (rank, lemma, fg, bg) rows identical to a fresh
    rebuild of the modified corpus (all-integer compare)."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    for q in datagen.rare_terms_queries():
        ra = overlay.rare_terms(q["query_text"], scope=q["scope"], k=q["k"],
                                max_doc_count=q["max_doc_count"])
        rb = rebuilt.rare_terms(q["query_text"], scope=q["scope"], k=q["k"],
                                max_doc_count=q["max_doc_count"])
        assert ra["result"] == rb["result"], q["query_id"]
        assert ra["count"] == rb["count"], q["query_id"]
        assert ra["data"].equals(rb["data"]), q["query_id"]


def test_delta_filter_aggs_identical_to_rebuild(delta_env):
    """filters_agg / adjacency_matrix / histogram_pipeline fold through
    the overlay exactly: every named bucket count, intersection cell
    and gap-filled pipeline row equals a fresh rebuild of the modified
    corpus (they all ride _matching_set + the doc-len/ts frames, which
    are overlay-aware)."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    flt = {"h": datagen.stem(0), "m": datagen.stem(1), "x": datagen.stem(2)}
    for eng_call in (
        lambda e: e.filters_agg(flt),
        lambda e: e.filters_agg(flt, query_text=datagen.stem(1)),
        lambda e: e.adjacency_matrix(flt),
        lambda e: e.histogram_pipeline(datagen.stem(0), interval=8, window=3),
        lambda e: e.percentile_ranks(datagen.stem(0), [8, 24, 48]),
        lambda e: e.matrix_stats(datagen.stem(0)),
        lambda e: e.mget([(datagen.DELTA_CONV, 0), (datagen.DELTA_CONV, 1),
                          ("conv-00000002", 0), ("conv-99999999", 0)]),
    ):
        ra, rb = eng_call(overlay), eng_call(rebuilt)
        assert ra["result"] and rb["result"]
        assert ra["count"] == rb["count"]
        assert ra["data"].equals(rb["data"])


def test_delta_regex_rewrite_identical_to_rebuild(delta_env):
    """Wildcard and regexp rewrites fold through the overlay exactly
    when the pattern's expansion is under the cap and its lemmas live
    in the BASE dictionary (the documented expansion boundary —
    delta-only lemmas join the dictionary at compaction): expansion
    df remaps through _term_blocks, postings/tombstones fold, and the
    page equals a fresh rebuild of the modified corpus."""
    overlay = SearchEngine(delta_env["base_out"])
    rebuilt = SearchEngine(delta_env["rebuilt_out"])
    hot = datagen.stem(0)
    probes = [
        ("wildcard", hot[:5] + "*"),
        ("wildcard", hot[:4] + "?" + hot[5:]),
        ("regexp", hot[:5] + "[a-z]+"),
        ("regexp", hot[:-1] + "[" + hot[-1] + "x]"),
    ]
    for mode, pat in probes:
        ra = overlay.search(pat, mode=mode, limit=10)
        rb = rebuilt.search(pat, mode=mode, limit=10)
        assert ra["result"] and rb["result"], (mode, pat)
        assert ra["count"] == rb["count"], (mode, pat)
        assert ra["data"].equals(rb["data"]), (mode, pat)
    # span-first folds through the overlay too (positions + the start
    # bound ride the same per-term decode)
    for n in (1, 8, 64):
        ra = overlay.search(hot, mode="phrase", within_first=n, limit=10)
        rb = rebuilt.search(hot, mode="phrase", within_first=n, limit=10)
        assert ra["count"] == rb["count"] and ra["data"].equals(rb["data"]), n


def test_delta_turn_idx_out_of_range():
    import numpy as np

    from search_engine_ray.docid import make_docids

    with pytest.raises(ValueError, match="turn_idx"):
        make_docids(np.array([0]), np.array([1 << 20]))
    with pytest.raises(ValueError, match="turn_idx"):
        make_docids(np.array([0]), np.array([-1]))


def test_delta_unknown_conv_rejected(delta_env):
    resp = delta.reindex_conversations(delta_env["base_out"], ["no-such-conv"])
    assert resp["result"] is False
    assert "not in index" in resp["error"]


def test_second_generation_wins(delta_env, tmp_path):
    conv = delta_env["conv"]
    newer = [f"{datagen.stem(11)} {datagen.stem(11)} {datagen.stem(11)} third version"]
    mod2 = _modify_corpus(
        delta_env["mod_files"], str(delta_env["root"] / "modified2"), conv, newer
    )
    rebuilt2 = str(delta_env["root"] / "rebuilt2")
    build.build_index(
        BuildConfig(input_paths=mod2, out_dir=rebuilt2, n_partitions=2, concurrency=2)
    )
    resp = delta.reindex_conversations(delta_env["base_out"], [conv], input_paths=mod2)
    assert resp["result"] and resp["generation"] == 2
    _compare_engines(SearchEngine(delta_env["base_out"]), SearchEngine(rebuilt2))


def test_delta_snippets_use_fresh_text(delta_env):
    overlay = SearchEngine(delta_env["base_out"])
    r = overlay.search(datagen.stem(11), limit=5, with_snippets=True)
    if r["count"]:
        rows = r["data"].to_pylist()
        mine = [x for x in rows if x["conv_id"] == delta_env["conv"]]
        for x in mine:
            assert "third version" in x["snippet"] or "<b>" in x["snippet"]


def test_delta_text_cached_per_generation_file(delta_env):
    """Decoded text is cached per (file, row group): with every base
    row group resident, the old text of the re-indexed conversation
    included, its turns still read its generation's input files."""
    eng = SearchEngine(delta_env["base_out"])
    conv = delta_env["conv"]
    gen_paths = eng._delta_text_paths[conv]
    for p in eng.transcripts_paths:
        eng._text_locator(p)
        for g in range(pq.ParquetFile(p).num_row_groups):
            eng._text_column(p, g)
    fresh = pads.dataset(gen_paths).to_table(
        filter=pads.field("conv_id") == conv, columns=["turn_idx", "text"])
    stale = pads.dataset(eng.transcripts_paths).to_table(
        filter=pads.field("conv_id") == conv, columns=["turn_idx", "text"])
    want = dict(zip(fresh.column("turn_idx").to_pylist(), fresh.column("text").to_pylist()))
    assert want != dict(zip(stale.column("turn_idx").to_pylist(), stale.column("text").to_pylist()))
    got = eng.mget([(conv, t) for t in sorted(want)])["data"].to_pylist()
    assert [r["text"] for r in got] == [want[t] for t in sorted(want)]
    assert any(k[0] == "text" and k[1] in gen_paths for k in list(eng._cache._lru))


def test_delta_novel_scope_values(delta_env, tiny_corpus, tmp_path):
    """A delta generation introducing (role, tool) pairs unseen at base
    build time: the overlay must accept them as scopes (validity comes
    from manifest + delta docs), score them identically to a full
    rebuild, and NEVER renumber base scope codes (extra pairs append
    after the base code space)."""
    conv = delta_env["conv"]
    mod_dir = str(tmp_path / "novelmod")
    os.makedirs(mod_dir)
    out_files = []
    for f in tiny_corpus:
        t = pq.read_table(f)
        mask = pc.equal(t.column("conv_id"), conv)
        others = t.filter(pc.invert(mask))
        mine = t.filter(mask).sort_by("turn_idx")
        if mine.num_rows:
            n = mine.num_rows
            mine = mine.set_column(
                mine.schema.get_field_index("role"), "role",
                pa.array(["moderator"] * n, pa.string()),
            )
            mine = mine.set_column(
                mine.schema.get_field_index("tool"), "tool",
                pa.array(["tool-novel"] * n, pa.string()),
            )
            others = pa.concat_tables([others, mine]).sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending")]
            )
        out = os.path.join(mod_dir, os.path.basename(f))
        pq.write_table(others, out)
        out_files.append(out)

    base2 = str(tmp_path / "base2")
    build.build_index(
        BuildConfig(input_paths=tiny_corpus, out_dir=base2, n_partitions=2, concurrency=2)
    )
    resp = delta.reindex_conversations(base2, [conv], input_paths=out_files)
    assert resp["result"]
    rebuilt2 = str(tmp_path / "rebuilt2")
    build.build_index(
        BuildConfig(input_paths=out_files, out_dir=rebuilt2, n_partitions=2, concurrency=2)
    )
    overlay = SearchEngine(base2)
    rebuilt = SearchEngine(rebuilt2)
    assert overlay.valid_scope("moderator")
    assert overlay.valid_scope("tool:tool-novel")
    assert ("moderator", "tool-novel") in overlay._extra_pairs
    hot = datagen.stem(0)
    for scope in ("moderator", "tool:tool-novel", "user"):
        ra = overlay.search(hot, scope=scope, limit=10)
        rb = rebuilt.search(hot, scope=scope, limit=10)
        assert ra["count"] == rb["count"], scope
        assert ra["data"].equals(rb["data"]), scope


def test_open_reads_each_generation_file_once(tiny_corpus, tmp_path, monkeypatch):
    """Opening an engine reads each live generation's docs and postings
    file once, however many conversations the generation re-indexed.
    Two generations re-index six conversations with unchanged text (one
    in both, so the later one wins it); the overlay answers exactly as
    the base it replaces."""
    base_out = str(tmp_path / "base")
    build.build_index(
        BuildConfig(input_paths=tiny_corpus, out_dir=base_out, n_partitions=2, concurrency=2)
    )
    plain = SearchEngine(base_out)
    convs = plain._conv_list().to_pylist()[::97][:6]
    assert delta.reindex_conversations(base_out, convs[:4], input_paths=tiny_corpus)["result"]
    assert delta.reindex_conversations(base_out, convs[3:], input_paths=tiny_corpus)["result"]
    gens = delta.list_generations(base_out)
    assert len(gens) == 2
    reads = []
    real = search_mod.read_table
    monkeypatch.setattr(search_mod, "read_table", lambda src, *a, **kw: (
        reads.append(str(src)), real(src, *a, **kw))[1])
    overlay = SearchEngine(base_out)
    gen_files = [p for p in reads if os.path.basename(p) in ("docs.parquet", "postings.parquet")]
    assert sorted(gen_files) == sorted(
        os.path.join(g["_dir"], f) for g in gens for f in ("docs.parquet", "postings.parquet")
    )
    monkeypatch.undo()
    assert overlay._has_deltas and overlay.n_docs == plain.n_docs
    _compare_engines(overlay, plain)
