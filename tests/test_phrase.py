"""Positional phrase queries: analyzer positions, index round-trip,
ground-truth adjacency, DuckDB oracle parity, delta/compaction
survival, and the positionless-build degradation path."""

from __future__ import annotations

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from search_engine_ray import analyzer, datagen
from search_engine_ray.config import BuildConfig
from search_engine_ray.pipelines import build, compact, delta
from search_engine_ray.search import SearchEngine

HOT2 = f"{datagen.stem(0)} {datagen.stem(1)}"


def _phrase_matches(text: str, phrase: list[str]) -> bool:
    seq = [analyzer.lemmatize_token(t) for t in analyzer.tokenize(text or "")]
    m = len(phrase)
    return any(seq[i : i + m] == phrase for i in range(len(seq) - m + 1))


def test_analyze_batch_positions_reconstruct_sequence():
    """Decoded per-posting positions must reproduce each doc's exact
    surviving-token lemma sequence (position -> lemma is a bijection)."""
    texts = ["wbaba wkelo wbaba, The wkeloed", "", "zz aa zz aa zz"]
    doc_idx, lemmas, tf, doc_len, pos_deltas = analyzer.analyze_batch(
        pa.array(texts), {}
    )
    # absolute positions per posting
    seg = np.concatenate(([0], np.cumsum(tf)))
    for d, text in enumerate(texts):
        want = [analyzer.lemmatize_token(t) for t in analyzer.tokenize(text)]
        got: dict[int, str] = {}
        for i in np.flatnonzero(doc_idx == d):
            deltas = pos_deltas[seg[i] : seg[i + 1]].astype(np.int64)
            abs_pos = np.cumsum(deltas)
            assert len(abs_pos) == tf[i]
            for p in abs_pos:
                got[int(p)] = lemmas[i]
        assert [got[p] for p in range(len(want))] == want
        assert doc_len[d] == len(want)


@pytest.fixture(scope="module")
def phrase_index(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pidx"))
    m = build.build_index(
        BuildConfig(input_paths=tiny_corpus, out_dir=out, n_partitions=2)
    )
    assert m["stats"]["positions"] is True
    return out


def test_phrase_ground_truth(phrase_index, tiny_corpus):
    """Engine phrase matches == direct adjacency scan over the corpus,
    for a hot bigram and a repeated-lemma phrase."""
    tbl = pads.dataset(tiny_corpus).to_table()
    rows = list(
        zip(
            tbl.column("conv_id").to_pylist(),
            tbl.column("turn_idx").to_pylist(),
            tbl.column("text").to_pylist(),
        )
    )
    eng = SearchEngine(phrase_index)
    for qtext in [HOT2, f"{datagen.stem(0)} {datagen.stem(0)}"]:
        phrase = analyzer.analyze_phrase(qtext)
        truth = {(c, t) for c, t, x in rows if _phrase_matches(x, phrase)}
        r = eng.search(qtext, mode="phrase", limit=100_000)
        got = {(x["conv_id"], x["turn_idx"]) for x in r["data"].to_pylist()}
        assert r["count"] == len(truth)
        assert got == truth
        assert len(truth) > 0  # the fixture corpus must exercise it


def test_phrase_oracle_parity(phrase_index, tiny_corpus, duck):
    """Engine top-k frame == DuckDB phrase oracle (positions via
    ordinal unnest + the shared analyzer rule tables)."""
    from search_engine_ray import oracle

    src = f"read_parquet({[str(p) for p in tiny_corpus]!r})".replace("'", "'")
    src = "read_parquet([" + ", ".join(f"'{p}'" for p in tiny_corpus) + "])"
    qs = datagen.phrase_queries()
    eng = SearchEngine(phrase_index)
    got = []
    for q in qs:
        r = eng.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase")
        assert r["result"], (q, r)
        for rank, row in enumerate(r["data"].to_pylist(), start=1):
            got.append(
                (q["query_id"], rank, row["conv_id"], row["turn_idx"], round(row["score"], 6))
            )
    exp = [
        tuple(r)
        for r in duck.execute(oracle.phrase_topk_sql(src, qs)).fetchall()
    ]
    assert sorted(got) == sorted(exp)
    assert len(got) > 0
    # the absent-lemma phrase contributed nothing
    assert not any(g[0] == "p-0005" for g in got)


def test_phrase_prefix_ground_truth(phrase_index, tiny_corpus):
    """mode='phrase_prefix' matches == direct scan: the fixed lemma
    sequence followed by ANY lemma of the engine's capped prefix
    expansion (the cap rule is part of the semantics, so truth uses
    expand_prefix's own set)."""
    tbl = pads.dataset(tiny_corpus).to_table()
    rows = list(
        zip(
            tbl.column("conv_id").to_pylist(),
            tbl.column("turn_idx").to_pylist(),
            tbl.column("text").to_pylist(),
        )
    )
    eng = SearchEngine(phrase_index)
    for qtext in [
        f"{datagen.stem(0)} {datagen.stem(1)[:4]}",
        f"{datagen.stem(1)} {datagen.stem(0)[:4]}",
    ]:
        toks = qtext.split()
        fixed = analyzer.analyze_phrase(" ".join(toks[:-1]))
        exp = {l for l, _ in eng.expand_prefix(toks[-1])}
        assert exp, qtext

        def matches(text: str) -> bool:
            seq = [analyzer.lemmatize_token(t) for t in analyzer.tokenize(text or "")]
            m = len(fixed)
            return any(
                seq[i : i + m] == fixed and seq[i + m] in exp
                for i in range(len(seq) - m)
            )

        truth = {(c, t) for c, t, x in rows if matches(x)}
        r = eng.search(qtext, mode="phrase_prefix", limit=100_000)
        assert r["result"], r
        got = {(x["conv_id"], x["turn_idx"]) for x in r["data"].to_pylist()}
        assert r["count"] == len(truth)
        assert got == truth
        assert len(truth) > 0  # the fixture corpus must exercise it


def test_phrase_prefix_oracle_parity(phrase_index, tiny_corpus, duck):
    """Engine phrase_prefix top-k frame == the DuckDB twin (phrase
    chain + LIKE expansion capped (df DESC, lemma ASC) in SQL)."""
    from search_engine_ray import oracle

    src = "read_parquet([" + ", ".join(f"'{p}'" for p in tiny_corpus) + "])"
    qs = datagen.phrase_prefix_queries()
    eng = SearchEngine(phrase_index)
    got = []
    for q in qs:
        r = eng.search(q["query_text"], scope=q["scope"], limit=q["k"],
                       mode="phrase_prefix")
        assert r["result"], (q, r)
        for rank, row in enumerate(r["data"].to_pylist(), start=1):
            got.append(
                (q["query_id"], rank, row["conv_id"], row["turn_idx"],
                 round(row["score"], 6))
            )
    exp = [
        tuple(r)
        for r in duck.execute(oracle.phrase_prefix_topk_sql(src, qs)).fetchall()
    ]
    assert sorted(got) == sorted(exp)
    assert len(got) > 0
    # the no-expansion and absent-fixed probes contributed nothing
    assert not any(g[0] in ("pp-0004", "pp-0005") for g in got)


def test_phrase_prefix_guards_and_score_semantics(phrase_index):
    """Single-token query -> bad_query (mode='prefix''s job); short
    prefix -> empty_query; the score is BM25 over the FIXED lemmas only
    (prefix slot filters): every matched doc of 'stem0 <pfx>' scores
    exactly its score under the pure single-term query at that doc."""
    eng = SearchEngine(phrase_index)
    assert eng.search("abc", mode="phrase_prefix")["error"] == "bad_query"
    assert (
        eng.search(f"{datagen.stem(0)} z", mode="phrase_prefix")["error"]
        == "empty_query"
    )
    qtext = f"{datagen.stem(0)} {datagen.stem(1)[:4]}"
    r = eng.search(qtext, mode="phrase_prefix", limit=100)
    assert r["result"] and r["count"] > 0
    base = eng.search(datagen.stem(0), mode="bm25", limit=100_000)
    base_scores = {
        (x["conv_id"], x["turn_idx"]): x["score"] for x in base["data"].to_pylist()
    }
    for x in r["data"].to_pylist():
        assert x["score"] == base_scores[(x["conv_id"], x["turn_idx"])]


def test_phrase_prefix_delta_rank_identity(
    phrase_index, tiny_corpus, tmp_path_factory
):
    """phrase_prefix over base+delta == a full rebuild of the modified
    corpus (positions + expansion dfs fold through the overlay)."""
    mod_files, conv = datagen.modified_corpus("sf0.001")
    rebuild = str(tmp_path_factory.mktemp("pprebuild"))
    build.build_index(
        BuildConfig(input_paths=mod_files, out_dir=rebuild, n_partitions=2)
    )
    eng_m = SearchEngine(rebuild)

    dout = str(tmp_path_factory.mktemp("ppdelta"))
    shutil.copytree(phrase_index, dout, dirs_exist_ok=True)
    assert delta.reindex_conversations(dout, [conv], input_paths=mod_files)["result"]
    eng_d = SearchEngine(dout)

    def frame(eng, q):
        r = eng.search(q, mode="phrase_prefix", limit=50)
        assert r["result"]
        return r["count"], [
            (x["conv_id"], x["turn_idx"], round(x["score"], 9))
            for x in r["data"].to_pylist()
        ]

    for q in [
        f"{datagen.stem(0)} {datagen.stem(1)[:5]}",
        f"{datagen.stem(3)} {datagen.stem(7)[:5]}",
    ]:
        assert frame(eng_d, q) == frame(eng_m, q)


def test_phrase_delta_and_compaction_rank_identity(
    phrase_index, tiny_corpus, tmp_path_factory
):
    """Phrase results over base+delta, minor-compacted, and
    major-compacted indexes are all rank-identical to a full rebuild of
    the modified corpus."""
    mod_files, conv = datagen.modified_corpus("sf0.001")
    rebuild = str(tmp_path_factory.mktemp("prebuild"))
    build.build_index(BuildConfig(input_paths=mod_files, out_dir=rebuild, n_partitions=2))
    eng_m = SearchEngine(rebuild)

    qs = [f"{datagen.stem(3)} {datagen.stem(7)} {datagen.stem(7)}", HOT2]

    def frame(eng, q):
        r = eng.search(q, mode="phrase", limit=50)
        assert r["result"]
        return r["count"], [
            (x["conv_id"], x["turn_idx"], round(x["score"], 9))
            for x in r["data"].to_pylist()
        ]

    dout = str(tmp_path_factory.mktemp("pdelta"))
    shutil.copytree(phrase_index, dout, dirs_exist_ok=True)
    assert delta.reindex_conversations(dout, [conv], input_paths=mod_files)["result"]
    eng_d = SearchEngine(dout)
    assert eng_d.has_positions
    for q in qs:
        assert frame(eng_d, q) == frame(eng_m, q)

    assert compact.compact(dout)["result"]  # minor
    eng_c = SearchEngine(dout)
    assert eng_c.has_positions
    for q in qs:
        assert frame(eng_c, q) == frame(eng_m, q)

    dout2 = str(tmp_path_factory.mktemp("pdelta2"))
    shutil.copytree(phrase_index, dout2, dirs_exist_ok=True)
    assert delta.reindex_conversations(dout2, [conv], input_paths=mod_files)["result"]
    assert compact.compact(dout2, mode="major")["result"]
    eng_j = SearchEngine(dout2)
    for q in qs:
        assert frame(eng_j, q) == frame(eng_m, q)


def test_positionless_build_degrades_cleanly(tiny_corpus, tmp_path_factory):
    """store_positions=False builds a valid term index whose phrase mode
    reports no_positions (and whose BM25 results are unchanged)."""
    out = str(tmp_path_factory.mktemp("noposidx"))
    m = build.build_index(
        BuildConfig(
            input_paths=tiny_corpus, out_dir=out, n_partitions=2,
            store_positions=False,
        )
    )
    assert m["stats"]["positions"] is False
    eng = SearchEngine(out)
    assert not eng.has_positions
    r = eng.search(HOT2, mode="phrase")
    assert r["result"] is False and r["error"] == "no_positions"
    r2 = eng.search(datagen.stem(0), limit=5)
    assert r2["result"] and r2["data"].num_rows == 5


def _near_matches(text: str, lemmas: list[str], w: int) -> bool:
    seq = [analyzer.lemmatize_token(t) for t in analyzer.tokenize(text or "")]
    want = set(lemmas)
    for i in range(len(seq)):
        if set(seq[i : i + w]) >= want:
            return True
    return False


def test_near_ground_truth_and_window_semantics(phrase_index, tiny_corpus):
    """NEAR matches == direct window scan; tighter windows are subsets;
    window = 2 on a bigram equals phrase-OR-reversed-phrase."""
    tbl = pads.dataset(tiny_corpus).to_table()
    rows = list(
        zip(
            tbl.column("conv_id").to_pylist(),
            tbl.column("turn_idx").to_pylist(),
            tbl.column("text").to_pylist(),
        )
    )
    eng = SearchEngine(phrase_index)
    qtext = f"{datagen.stem(0)} {datagen.stem(1)}"
    lemmas = analyzer.analyze_query(qtext)
    got_w = {}
    for w in (2, 4, 8):
        truth = {(c, t) for c, t, x in rows if _near_matches(x, lemmas, w)}
        r = eng.search(qtext, mode="near", near_window=w, limit=100_000)
        got = {(x["conv_id"], x["turn_idx"]) for x in r["data"].to_pylist()}
        assert got == truth, f"window={w}"
        assert r["count"] == len(truth) > 0
        got_w[w] = got
    assert got_w[2] <= got_w[4] <= got_w[8]  # monotone in window
    # window=2 == unordered adjacency == phrase(a b) ∪ phrase(b a)
    p1 = eng.search(qtext, mode="phrase", limit=100_000)
    p2 = eng.search(f"{datagen.stem(1)} {datagen.stem(0)}", mode="phrase", limit=100_000)
    un = {(x["conv_id"], x["turn_idx"]) for x in p1["data"].to_pylist()} | {
        (x["conv_id"], x["turn_idx"]) for x in p2["data"].to_pylist()
    }
    assert got_w[2] == un


def _ordered_matches(text: str, seq: list[str], w: int) -> bool:
    toks = [analyzer.lemmatize_token(t) for t in analyzer.tokenize(text or "")]
    # existential ordered chain within a w-token span, anchored at every
    # occurrence of seq[0]; greedy smallest-next is exact
    for a, tok in enumerate(toks):
        if tok != seq[0]:
            continue
        cur = a
        ok = True
        for lem in seq[1:]:
            nxt = next((j for j in range(cur + 1, min(a + w, len(toks)))
                        if toks[j] == lem), None)
            if nxt is None:
                ok = False
                break
            cur = nxt
        if ok:
            return True
    return False


def test_near_ordered_semantics(phrase_index, tiny_corpus, duck):
    """Ordered NEAR (SpanNear in_order): matches == direct ordered-chain
    scan; ordered ⊆ unordered at the same window; window == len(seq)
    equals PHRASE exactly (strictly increasing positions in an m-span
    are consecutive); the reverse order is a different set; repeated
    lemmas chain strictly; absent lemma empty; DuckDB oracle parity."""
    from search_engine_ray import oracle

    tbl = pads.dataset(tiny_corpus).to_table()
    rows = list(zip(tbl.column("conv_id").to_pylist(),
                    tbl.column("turn_idx").to_pylist(),
                    tbl.column("text").to_pylist()))
    eng = SearchEngine(phrase_index)
    qtext = HOT2
    seq = analyzer.analyze_phrase(qtext)
    for w in (2, 4, 8):
        truth = {(c, t) for c, t, x in rows if _ordered_matches(x, seq, w)}
        r = eng.search(qtext, mode="near", near_window=w, in_order=True,
                       limit=100_000)
        got = {(x["conv_id"], x["turn_idx"]) for x in r["data"].to_pylist()}
        assert got == truth, f"window={w}"
        un = eng.search(qtext, mode="near", near_window=w, limit=100_000)
        unset = {(x["conv_id"], x["turn_idx"]) for x in un["data"].to_pylist()}
        assert got <= unset
    # window == len(seq): ordered near IS phrase (count and rows)
    po = eng.search(qtext, mode="near", near_window=len(seq), in_order=True,
                    limit=100_000)
    ph = eng.search(qtext, mode="phrase", limit=100_000)
    assert po["count"] == ph["count"] and po["data"].equals(ph["data"])
    # reverse order: a genuinely different matching set
    rev = f"{datagen.stem(1)} {datagen.stem(0)}"
    rrev = eng.search(rev, mode="near", near_window=4, in_order=True,
                      limit=100_000)
    seq_r = analyzer.analyze_phrase(rev)
    truth_r = {(c, t) for c, t, x in rows if _ordered_matches(x, seq_r, 4)}
    assert {(x["conv_id"], x["turn_idx"])
            for x in rrev["data"].to_pylist()} == truth_r
    # repeated lemma: strictly increasing chain of the same lemma
    rep = f"{datagen.stem(0)} {datagen.stem(0)}"
    seq_rep = analyzer.analyze_phrase(rep)
    rr = eng.search(rep, mode="near", near_window=5, in_order=True,
                    limit=100_000)
    truth_rep = {(c, t) for c, t, x in rows if _ordered_matches(x, seq_rep, 5)}
    assert {(x["conv_id"], x["turn_idx"])
            for x in rr["data"].to_pylist()} == truth_rep
    assert eng.search(f"wqxqzq {datagen.stem(0)}", mode="near",
                      in_order=True)["count"] == 0
    # DuckDB oracle parity over the same corpus
    src = "read_parquet([" + ", ".join(f"'{p}'" for p in tiny_corpus) + "])"
    qs = datagen.near_ordered_queries()
    got_rows = []
    for q in qs:
        r = eng.search(q["query_text"], scope=q["scope"], limit=q["k"],
                       mode="near", near_window=q["window"], in_order=True)
        assert r["result"], (q, r)
        for rank, row in enumerate(r["data"].to_pylist(), start=1):
            got_rows.append((q["query_id"], rank, row["conv_id"],
                             row["turn_idx"], round(row["score"], 6)))
    exp = [tuple(r) for r in
           duck.execute(oracle.near_ordered_topk_sql(src, qs)).fetchall()]
    assert sorted(got_rows) == sorted(exp)
    assert len(got_rows) > 0


def test_near_single_term_and_absent(phrase_index):
    eng = SearchEngine(phrase_index)
    one = eng.search(datagen.stem(777), mode="near", near_window=3)
    term = eng.search(datagen.stem(777))
    assert one["count"] == term["count"]  # single lemma: window trivial
    assert eng.search(f"wqxqzq {datagen.stem(0)}", mode="near")["count"] == 0


def test_poss_lazy_load_and_upgrade(phrase_index, tiny_corpus):
    """Term queries load block metadata WITHOUT the poss stream; a phrase
    query after a term query warmed the lemma reads the positions it
    lacks and equals a fresh engine exactly."""
    eng = SearchEngine(phrase_index)
    lem = analyzer.analyze_phrase(HOT2)
    r_term = eng.search(datagen.stem(0), limit=3)
    assert r_term["result"]
    assert ("blocks", lem[0]) in eng._cache  # the term query warmed it ...
    assert "poss" not in eng._cache.stats()  # ... without the stream
    r1 = eng.search(HOT2, mode="phrase", limit=20)
    assert ("pos", lem[0]) in eng._cache  # positions read and decoded
    fresh = SearchEngine(phrase_index)
    r2 = fresh.search(HOT2, mode="phrase", limit=20)
    assert r1["count"] == r2["count"]
    assert r1["data"].equals(r2["data"])


def test_phrase_and_near_random_queries_vs_scan(phrase_index, tiny_corpus):
    """Randomized (seeded) phrase/near queries over the real corpus:
    engine result sets equal the direct-scan ground truth for phrases
    assembled from actual document windows (guaranteed >= 1 match) and
    from random vocabulary draws (often 0 matches)."""
    import numpy as np

    tbl = pads.dataset(tiny_corpus).to_table()
    rows = [
        (c, t, x)
        for c, t, x in zip(
            tbl.column("conv_id").to_pylist(),
            tbl.column("turn_idx").to_pylist(),
            tbl.column("text").to_pylist(),
        )
        if x
    ]
    eng = SearchEngine(phrase_index)
    rng = np.random.default_rng(7)
    n_checked = 0
    for _ in range(12):
        c, t, x = rows[int(rng.integers(0, len(rows)))]
        seq = [analyzer.lemmatize_token(tok) for tok in analyzer.tokenize(x)]
        if len(seq) < 2:
            continue
        m = int(rng.integers(2, min(4, len(seq)) + 1))
        start = int(rng.integers(0, len(seq) - m + 1))
        phrase = seq[start : start + m]
        qtext = " ".join(phrase)
        truth = {(cc, tt) for cc, tt, xx in rows
                 if _phrase_matches(xx, analyzer.analyze_phrase(qtext))}
        r = eng.search(qtext, mode="phrase", limit=100_000)
        got = {(row["conv_id"], row["turn_idx"]) for row in r["data"].to_pylist()}
        assert got == truth and (c, t) in got
        # near with a random window over the same lemmas
        w = int(rng.integers(m, m + 4))
        lem = analyzer.analyze_query(qtext)
        truth_n = {(cc, tt) for cc, tt, xx in rows if _near_matches(xx, lem, w)}
        rn = eng.search(qtext, mode="near", near_window=w, limit=100_000)
        got_n = {(row["conv_id"], row["turn_idx"]) for row in rn["data"].to_pylist()}
        assert got_n == truth_n and truth <= truth_n or w < m
        n_checked += 1
    assert n_checked >= 8


def test_near_delta_and_compaction_rank_identity(
    phrase_index, tiny_corpus, tmp_path_factory
):
    """NEAR results over base+delta and after compaction equal a full
    rebuild of the modified corpus (positions fold through the overlay
    for the anchor scan exactly as for phrase)."""
    mod_files, conv = datagen.modified_corpus("sf0.001")
    rebuild = str(tmp_path_factory.mktemp("nrebuild"))
    build.build_index(BuildConfig(input_paths=mod_files, out_dir=rebuild, n_partitions=2))
    eng_m = SearchEngine(rebuild)

    qs = [(f"{datagen.stem(3)} {datagen.stem(7)}", 4), (HOT2, 5)]

    def frame(eng, q, w):
        r = eng.search(q, mode="near", near_window=w, limit=50)
        assert r["result"]
        return r["count"], [
            (x["conv_id"], x["turn_idx"], round(x["score"], 9))
            for x in r["data"].to_pylist()
        ]

    dout = str(tmp_path_factory.mktemp("ndelta"))
    shutil.copytree(phrase_index, dout, dirs_exist_ok=True)
    assert delta.reindex_conversations(dout, [conv], input_paths=mod_files)["result"]
    eng_d = SearchEngine(dout)
    for q, w in qs:
        assert frame(eng_d, q, w) == frame(eng_m, q, w)
    assert compact.compact(dout)["result"]
    eng_c = SearchEngine(dout)
    for q, w in qs:
        assert frame(eng_c, q, w) == frame(eng_m, q, w)


def test_phrase_pagination_and_tool_scope(phrase_index):
    """Offset/limit slicing on phrase results, and tool: scopes flow
    through the positional modes via the shared scope-code LUT."""
    eng = SearchEngine(phrase_index)
    full = eng.search(HOT2, mode="phrase", limit=30)
    page = eng.search(HOT2, mode="phrase", offset=10, limit=20)
    assert page["count"] == full["count"]
    assert page["data"].equals(full["data"].slice(10, 20))
    scoped = eng.search(HOT2, mode="phrase", scope="tool:tool-search", limit=1000)
    assert scoped["result"]
    assert 0 < scoped["count"] < full["count"]
    assert all(r["tool"] == "tool-search" for r in scoped["data"].to_pylist())
    nearsc = eng.search(HOT2, mode="near", near_window=5, scope="tool:tool-search", limit=1000)
    assert nearsc["result"] and nearsc["count"] >= scoped["count"]
    assert eng.search(HOT2, mode="phrase", scope="nope")["error"] == "bad_scope"
