"""Hot-bigram auxiliary phrase index (pipelines/phrase_aux.py):
rank-identity with the exact positional path, codec roundtrip,
staleness guard, and delta bypass."""

from __future__ import annotations

import shutil

import numpy as np
import pyarrow as pa
import pytest

from search_engine_ray import datagen
from search_engine_ray.pipelines import phrase_aux as aux_mod
from search_engine_ray.search import SearchEngine


@pytest.fixture(scope="module")
def aux_index(tiny_index, tmp_path_factory):
    """Aux build over a copy of the shared session index, so tests that
    run later over ``tiny_index`` see no aux pairs."""
    out = str(tmp_path_factory.mktemp("aux") / "idx")
    shutil.copytree(tiny_index["out_dir"], out)
    m = aux_mod.build_phrase_aux(out, top_terms=24, top_pairs=128)
    return {"out_dir": out, "aux": m}


def _phrase_rows(eng, queries):
    rows = []
    for q in queries:
        r = eng.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase")
        if not r["result"]:
            rows.append((q["query_id"], None))
            continue
        for rank, row in enumerate(r["data"].to_pylist(), start=1):
            rows.append(
                (q["query_id"], rank, row["conv_id"], row["turn_idx"],
                 round(row["score"], 9))
            )
    return rows


def test_aux_phrase_rank_identity(aux_index):
    """Every phrase query through the aux path returns EXACTLY what the
    plain positional path returns (ranks, ids, scores) — and at least
    one query actually exercised a precomputed pair."""
    out = aux_index["out_dir"]
    qs = datagen.phrase_queries()
    eng_aux = SearchEngine(out)
    assert eng_aux._aux_pairs, "aux manifest should load"
    plain = SearchEngine(out)
    plain._aux_pairs = {}  # force the exact positional path
    got = _phrase_rows(eng_aux, qs)
    want = _phrase_rows(plain, qs)
    assert got == want
    assert "aux" in eng_aux._cache.stats(), "no phrase query hit a precomputed pair"


def test_aux_near_and_prefix_unaffected(aux_index):
    """NEAR and phrase-prefix queries (which share _phrase_matches
    machinery for prefix) stay identical with the aux loaded."""
    out = aux_index["out_dir"]
    eng_aux = SearchEngine(out)
    plain = SearchEngine(out)
    plain._aux_pairs = {}
    a = eng_aux.search(
        f"{datagen.stem(0)} {datagen.stem(1)}", mode="near", near_window=4, limit=20
    )
    b = plain.search(
        f"{datagen.stem(0)} {datagen.stem(1)}", mode="near", near_window=4, limit=20
    )
    assert a["data"].to_pylist() == b["data"].to_pylist()
    # phrase_prefix: fixed slots may fold into aux pairs; results pinned
    for q in datagen.phrase_prefix_queries():
        ra = eng_aux.search(
            q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase_prefix"
        )
        rb = plain.search(
            q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase_prefix"
        )
        assert (ra["error"], ra["count"]) == (rb["error"], rb["count"]), q
        if ra["result"]:
            assert ra["data"].to_pylist() == rb["data"].to_pylist(), q


def test_aux_roundtrip_codec(tmp_path):
    """_encode_sorted -> parquet -> read_pair is identity on a crafted
    (pair, docid, start) table, including a pair run split across two
    batches and a doc split across block rows."""
    import pyarrow.parquet as pq

    rows1 = pa.table(
        {
            "pair_id": pa.array([7, 7, 7, 9], pa.int64()),
            "docid": pa.array([10, 10, 55, 3], pa.int64()),
            "start": pa.array([2, 9, 0, 4], pa.int64()),
        }
    )
    rows2 = pa.table(  # same pair 7, doc 55 continues in a second batch
        {
            "pair_id": pa.array([7, 7], pa.int64()),
            "docid": pa.array([55, 60], pa.int64()),
            "start": pa.array([8, 1], pa.int64()),
        }
    )
    t = pa.concat_tables(
        [aux_mod._encode_sorted(rows1), aux_mod._encode_sorted(rows2)]
    )
    d = tmp_path / "phrase_aux"
    d.mkdir()
    pq.write_table(t, str(d / "aux.parquet"))
    docids, cnts, starts = aux_mod.read_pair(str(tmp_path), 7)
    flat = []
    off = 0
    for dd, c in zip(docids, cnts):
        for s in starts[off : off + c]:
            flat.append((int(dd), int(s)))
        off += c
    assert sorted(flat) == [(10, 2), (10, 9), (55, 0), (55, 8), (60, 1)]
    d9, c9, s9 = aux_mod.read_pair(str(tmp_path), 9)
    assert list(d9) == [3] and list(c9) == [1] and list(s9) == [4]


def test_aux_staleness_guard(aux_index, tmp_path):
    """Rewriting build.json (what compact / rebuild do) invalidates the
    aux index: load_aux -> None, fresh engines take the exact path."""
    import json
    import os

    src = aux_index["out_dir"]
    out = str(tmp_path / "copy")
    shutil.copytree(src, out)
    assert aux_mod.load_aux(out) is not None
    bj = os.path.join(out, "build.json")
    m = json.load(open(bj))
    m["timings"]["total_s"] = round(m["timings"]["total_s"] + 0.001, 3)
    with open(bj, "w") as f:
        json.dump(m, f)
    assert aux_mod.load_aux(out) is None
    eng = SearchEngine(out)
    assert not eng._aux_pairs


def test_aux_delta_overlay(aux_index, tmp_path):
    """With a REAL delta generation live the aux stays ACTIVE, composed
    with the overlay (_aux_overlay): the re-indexed conv's stale aux
    entries are dropped, its new hot-bigram adjacency is appended, and
    every phrase result equals the exact positional path over the same
    base+delta state. The delta REWRITES a conv that matched the
    hottest bigram — the old adjacency disappears and a new occurrence
    appears at a different turn, so both overlay directions (drop +
    append) are exercised, not just the no-op composition."""

    from search_engine_ray.pipelines import delta

    out = str(tmp_path / "deltabase")
    shutil.copytree(aux_index["out_dir"], out)
    eng0 = SearchEngine(out)
    assert eng0._aux_pairs
    hot_q = f"{datagen.stem(0)} {datagen.stem(1)}"
    base_hits = eng0.search(hot_q, mode="phrase", limit=5)["data"].to_pylist()
    assert base_hits, "fixture expects the hottest bigram to match"
    conv = base_hits[0]["conv_id"]
    # rewrite that conv: drop the old match, plant a fresh one
    from tests.test_delta import _modify_corpus

    m = aux_index.get("aux")
    files = eng0.manifest["config"]["input_paths"]
    new_texts = [
        f"{datagen.stem(9)} nothing hot here anymore",
        f"fresh pair now {datagen.stem(0)} {datagen.stem(1)} appended",
    ]
    mod_files = _modify_corpus(files, str(tmp_path / "modified"), conv, new_texts)
    resp = delta.reindex_conversations(out, [conv], input_paths=mod_files)
    assert resp["result"], resp

    eng = SearchEngine(out)
    assert eng._has_deltas and eng._aux_pairs and eng._delta_positions_ok
    got = eng.search(hot_q, mode="phrase", limit=20)["data"].to_pylist()
    assert "aux" in eng._cache.stats(), "aux not consulted despite positions-ok deltas"
    plain = SearchEngine(out)
    plain._aux_pairs = {}
    want = plain.search(hot_q, mode="phrase", limit=20)["data"].to_pylist()
    assert got == want
    # payload-level pin of BOTH overlay directions: the conv's docid
    # range had base aux entries (now dropped) and carries exactly the
    # delta's fresh adjacency (appended)
    pair = (datagen.stem(0), datagen.stem(1))
    lo, hi = int(eng._tomb_starts[0]), int(eng._tomb_ends[0])
    base_d, _, _ = aux_mod.read_pair(out, eng._aux_pairs[pair])
    assert ((base_d >= lo) & (base_d < hi)).any(), "drop path unexercised"
    over_d, over_c, _ = eng._aux_pair(pair)
    in_rng = (over_d >= lo) & (over_d < hi)
    assert in_rng.any(), "append path unexercised"
    # the overlaid in-range entries must equal the exact delta adjacency
    da, db = eng._delta_lemma[pair[0]], eng._delta_lemma[pair[1]]
    common = np.intersect1d(da[0], db[0])
    assert set(over_d[in_rng]) <= set(common)
    # every phrase query stays rank-identical under the composed aux
    got_all = _phrase_rows(eng, datagen.phrase_queries())
    want_all = _phrase_rows(plain, datagen.phrase_queries())
    assert got_all == want_all


def test_aux_rebuilt_at_compact(aux_index, tmp_path):
    """Compaction FOLDS the aux forward: after build -> aux -> delta ->
    compact, a fresh aux exists at the same budget, is md5-valid against
    the compacted build.json, and every phrase query through it equals
    the exact positional path. The re-indexed conv's stage-A postings
    are stale post-compact, so the rebuild must take the override path
    (re-analysis from the delta's text source), not stage A."""

    from search_engine_ray.pipelines import compact as compact_mod
    from search_engine_ray.pipelines import delta
    from tests.test_delta import _modify_corpus

    out = str(tmp_path / "cbase")
    shutil.copytree(aux_index["out_dir"], out)
    eng0 = SearchEngine(out)
    hot_q = f"{datagen.stem(0)} {datagen.stem(1)}"
    conv = eng0.search(hot_q, mode="phrase", limit=5)["data"].to_pylist()[0]["conv_id"]
    files = eng0.manifest["config"]["input_paths"]
    new_texts = [
        f"{datagen.stem(9)} cold turn",
        f"compacted fresh {datagen.stem(0)} {datagen.stem(1)} pair",
    ]
    mod_files = _modify_corpus(files, str(tmp_path / "modc"), conv, new_texts)
    assert delta.reindex_conversations(out, [conv], input_paths=mod_files)["result"]
    assert compact_mod.compact(out)["result"]

    m2 = aux_mod.load_aux(out)
    assert m2 is not None, "compact should rebuild the aux"
    assert m2["top_terms"] == aux_index["aux"]["top_terms"]
    assert m2["top_pairs"] == aux_index["aux"]["top_pairs"]
    eng = SearchEngine(out)
    assert eng._aux_pairs and not eng._has_deltas
    plain = SearchEngine(out)
    plain._aux_pairs = {}
    for q in datagen.phrase_queries():
        ra = eng.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase")
        rb = plain.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase")
        assert (ra["error"], ra["count"]) == (rb["error"], rb["count"]), q
        if ra["result"]:
            assert ra["data"].to_pylist() == rb["data"].to_pylist(), q
    assert "aux" in eng._cache.stats(), "no query exercised the folded aux"
    # full-result equality on the hot bigram: a stale folded entry (old
    # text's adjacency) would surface as an extra aux-path match here
    ga = eng.search(hot_q, mode="phrase", limit=10_000)["data"].to_pylist()
    gp = plain.search(hot_q, mode="phrase", limit=10_000)["data"].to_pylist()
    assert ga == gp
    mine = sorted(r["turn_idx"] for r in ga if r["conv_id"] == conv)
    assert mine == [1], "the conv's fresh pair (2nd kept turn) must match"


def test_pair_lru_unindexed_hot_pairs(tiny_index):
    """Bigrams OUTSIDE the aux budget: with on-demand pair caching
    enabled (threshold 0) the first query builds the full adjacency
    payload, the second serves from cache, and BOTH are rank-identical
    to the exact positional path. (Eviction under the byte budget:
    tests/test_cache.py.)"""
    out = tiny_index["out_dir"]
    q = f"{datagen.stem(0)} {datagen.stem(1)}"

    exact = SearchEngine(out)
    exact._aux_pairs = {}
    exact.PAIR_CACHE_MIN_COST = 1 << 62  # cache off
    want = exact.search(q, mode="phrase", limit=20)["data"].to_pylist()

    eng = SearchEngine(out)
    eng._aux_pairs = {}
    eng.PAIR_CACHE_MIN_COST = 0
    got1 = eng.search(q, mode="phrase", limit=20)["data"].to_pylist()
    assert got1 == want
    assert eng._cache.stats()["pair"][0] == 1 and eng._cache.stats()["pair"][1] > 0
    # second query: served from the cache (no rebuild), still identical
    builds = []
    orig = eng._build_pair_cache
    eng._build_pair_cache = lambda *a, **k: builds.append(1) or orig(*a, **k)
    got2 = eng.search(q, mode="phrase", limit=20)["data"].to_pylist()
    assert got2 == want and not builds
    # a 3+-term phrase never takes the on-demand path (cand-restricted
    # slot evaluation is cheaper there) but stays correct with it on
    q3 = f"{datagen.stem(0)} {datagen.stem(1)} {datagen.stem(2)}"
    e3 = SearchEngine(out)
    e3._aux_pairs = {}
    e3.PAIR_CACHE_MIN_COST = 1 << 62
    r3w = e3.search(q3, mode="phrase", limit=20)["data"].to_pylist()
    r3g = eng.search(q3, mode="phrase", limit=20)["data"].to_pylist()
    assert r3g == r3w


def test_pair_lru_with_live_deltas(aux_index, tmp_path):
    """The on-demand pair path composes with the delta overlay exactly like the
    aux path: payloads built from OVERLAID postings, rank-identical to
    the exact path over base+delta."""

    from search_engine_ray.pipelines import delta
    from tests.test_delta import _modify_corpus

    out = str(tmp_path / "lrubase")
    shutil.copytree(aux_index["out_dir"], out)
    eng0 = SearchEngine(out)
    q = f"{datagen.stem(0)} {datagen.stem(1)}"
    conv = eng0.search(q, mode="phrase", limit=5)["data"].to_pylist()[0]["conv_id"]
    files = eng0.manifest["config"]["input_paths"]
    mod_files = _modify_corpus(
        files, str(tmp_path / "modl"), conv,
        [f"{datagen.stem(0)} {datagen.stem(1)} fresh overlay pair"],
    )
    assert delta.reindex_conversations(out, [conv], input_paths=mod_files)["result"]

    exact = SearchEngine(out)
    exact._aux_pairs = {}
    exact.PAIR_CACHE_MIN_COST = 1 << 62
    want = exact.search(q, mode="phrase", limit=10_000)["data"].to_pylist()

    eng = SearchEngine(out)
    eng._aux_pairs = {}
    eng.PAIR_CACHE_MIN_COST = 0
    assert eng._has_deltas
    got1 = eng.search(q, mode="phrase", limit=10_000)["data"].to_pylist()
    got2 = eng.search(q, mode="phrase", limit=10_000)["data"].to_pylist()
    assert got1 == want and got2 == want
    assert "pair" in eng._cache.stats()


def test_crash_resume_folds_aux_forward(aux_index, tmp_path, monkeypatch):
    """A compaction crash mid-swap must not lose the aux invariant:
    the journal carries the aux budget, and compact(resume=True)
    finishes the swap AND rebuilds the aux exactly like the
    uninterrupted path."""

    from search_engine_ray.pipelines import compact as compact_mod
    from search_engine_ray.pipelines import delta

    out = str(tmp_path / "crashbase")
    shutil.copytree(aux_index["out_dir"], out)
    conv = SearchEngine(out).search(datagen.stem(0), limit=1)["data"].to_pylist()[0]["conv_id"]
    assert delta.reindex_conversations(out, [conv])["result"]
    monkeypatch.setenv("GRAFT_COMPACT_CRASH", "mid_swap")
    with pytest.raises(RuntimeError, match="injected"):
        compact_mod.compact(out)
    monkeypatch.delenv("GRAFT_COMPACT_CRASH")
    r = compact_mod.compact(out, resume=True)
    assert r["result"] and r.get("aux_rebuilt") is True, r
    eng = SearchEngine(out)
    assert eng._aux_pairs and not eng._has_deltas
    plain = SearchEngine(out)
    plain._aux_pairs = {}
    q = f"{datagen.stem(0)} {datagen.stem(1)}"
    assert (
        eng.search(q, mode="phrase", limit=20)["data"].to_pylist()
        == plain.search(q, mode="phrase", limit=20)["data"].to_pylist()
    )


def test_compact_survives_aux_rebuild_failure(aux_index, tmp_path, monkeypatch):
    """A failing aux rebuild must NOT fail the compaction (queries fall
    back to the exact positional path): compact returns ok, the index
    is fully folded, and load_aux reports no (stale) aux."""

    from search_engine_ray.pipelines import compact as compact_mod
    from search_engine_ray.pipelines import delta

    out = str(tmp_path / "failbase")
    shutil.copytree(aux_index["out_dir"], out)
    conv = SearchEngine(out).search(datagen.stem(0), limit=1)["data"].to_pylist()[0]["conv_id"]
    assert delta.reindex_conversations(out, [conv])["result"]

    def boom(*a, **k):
        raise RuntimeError("injected aux rebuild failure")

    monkeypatch.setattr(aux_mod, "build_phrase_aux", boom)
    r = compact_mod.compact(out)
    assert r["result"], r
    assert aux_mod.load_aux(out) is None
    eng = SearchEngine(out)
    assert not eng._has_deltas and not eng._aux_pairs
    q = f"{datagen.stem(0)} {datagen.stem(1)}"
    assert eng.search(q, mode="phrase", limit=5)["result"]


def test_aux_budget_in_manifest(aux_index):
    m = aux_mod.load_aux(aux_index["out_dir"])
    assert m["top_terms"] == 24 and m["top_pairs"] == 128
    assert isinstance(m["bytes"], int)
    assert len(m["pairs"]) <= 128
    assert all(p["total"] >= 1 for p in m["pairs"])


def test_override_pairs_rejects_conv_absent_from_base(tiny_index):
    """A text override for a conversation the base never held has no
    conv rank: its searchsorted position is another conversation's, so
    _override_pairs must refuse it rather than write adjacency rows in
    that conversation's docid range."""
    out = tiny_index["out_dir"]
    hot = [datagen.stem(0), datagen.stem(1)]
    with pytest.raises(ValueError, match="conv-00000000x"):
        aux_mod._override_pairs(out, {"conv-00000000x": tiny_index["files"]}, hot)
    with pytest.raises(ValueError, match="zzz-after-every-conv"):
        aux_mod._override_pairs(out, {"zzz-after-every-conv": tiny_index["files"]}, hot)
