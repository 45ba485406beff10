"""Rank-identity + query semantics (SURVEY.md §5.5): block-max pruning
is lossless vs the exhaustive scorer (exact float64 equality), both
match the independent DuckDB BM25 oracle, and the reference's error /
scope / pagination semantics hold."""

import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from search_engine_ray import datagen, oracle
from search_engine_ray.search import SearchEngine

QUERIES = datagen.reference_queries()


@pytest.fixture(scope="module")
def engine(tiny_index):
    return SearchEngine(tiny_index["out_dir"])


@pytest.fixture(scope="module")
def bm25_oracle(duck):
    sql = oracle.bm25_topk_sql(oracle.transcripts_rel("sf0.001"), QUERIES)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    return by_q


@pytest.mark.parametrize("q", QUERIES, ids=[q["query_id"] for q in QUERIES])
def test_blockmax_pruning_is_lossless(engine, q, evaluators_agree):
    evaluators_agree(engine, q["query_text"], q["scope"], q["k"])
    bm = engine.search(q["query_text"], scope=q["scope"], limit=q["k"], method="blockmax")
    ex = engine.search(q["query_text"], scope=q["scope"], limit=q["k"], method="exhaustive")
    assert bm["count"] == ex["count"]
    a, b = bm["data"].to_pylist(), ex["data"].to_pylist()
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra["conv_id"], ra["turn_idx"]) == (rb["conv_id"], rb["turn_idx"])
        assert ra["score"] == rb["score"]  # exact float64 equality


@pytest.mark.parametrize("q", QUERIES, ids=[q["query_id"] for q in QUERIES])
def test_rank_identity_vs_duckdb_oracle(engine, bm25_oracle, q):
    got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"])["data"].to_pylist()
    exp = bm25_oracle.get(q["query_id"], [])
    assert len(got) == len(exp), (q["query_text"], len(got), len(exp))
    for rank, (g, e) in enumerate(zip(got, exp), start=1):
        assert e["rank"] == rank
        assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
        assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def test_reference_parity_mode(engine, duck):
    sql = oracle.reference_topk_sql(oracle.transcripts_rel("sf0.001"), QUERIES)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for q in QUERIES:
        got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="reference")
        exp = sorted(by_q.get(q["query_id"], []), key=lambda r: r["rank"])
        data = got["data"].to_pylist()
        if got["error"] == "too_frequent":
            # oracle drops these queries too (n_kept = 0 -> no cand rows)
            assert not exp
            continue
        assert len(data) == len(exp), q["query_text"]
        for g, e in zip(data, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def test_missing_lemma_yields_empty(engine):
    r = engine.search("wqxqzq")
    assert r["result"] is True and r["count"] == 0 and r["data"].num_rows == 0


def test_empty_query_flags_error(engine):
    r = engine.search("the and of !!!")
    assert r["result"] is False and r["error"] == "empty_query"


def test_bad_scope_flags_error(engine):
    r = engine.search("wbaba", scope="nosuchrole")
    assert r["result"] is False and r["error"] == "bad_scope"


def test_pagination(engine):
    q = QUERIES[3]["query_text"]  # ultra-hot single term
    full = engine.search(q, limit=20)["data"].to_pylist()
    page1 = engine.search(q, offset=0, limit=10)["data"].to_pylist()
    page2 = engine.search(q, offset=10, limit=10)["data"].to_pylist()
    assert [r["conv_id"] for r in page1 + page2] == [r["conv_id"] for r in full]
    assert [r["turn_idx"] for r in page1 + page2] == [r["turn_idx"] for r in full]


def test_scope_filter(engine):
    q = QUERIES[3]["query_text"]
    scoped = engine.search(q, scope="user", limit=50)
    for row in scoped["data"].to_pylist():
        assert row["role"] == "user"
    unscoped = engine.search(q, limit=50)
    assert scoped["count"] <= unscoped["count"]


def test_result_enrichment_matches_source(engine, tiny_corpus):
    """ts / tool / role in results must equal the transcript row's values
    (J6 — the reference enriches every result with site url/name/title,
    SearchServiceImpl.java:117-133; here the enrichment columns are the
    turn's role/tool/ts)."""
    import pyarrow.dataset as pads

    r = engine.search(QUERIES[0]["query_text"], limit=10)
    rows = r["data"].to_pylist()
    assert rows, "query must match"
    src = pads.dataset(tiny_corpus).to_table(
        columns=["conv_id", "turn_idx", "role", "tool", "ts"]
    )
    lut = {
        (c, t): (ro, to, ts)
        for c, t, ro, to, ts in zip(
            src.column("conv_id").to_pylist(),
            src.column("turn_idx").to_pylist(),
            src.column("role").to_pylist(),
            src.column("tool").to_pylist(),
            src.column("ts").to_pylist(),
        )
    }
    for row in rows:
        ro, to, ts = lut[(row["conv_id"], row["turn_idx"])]
        assert row["role"] == ro
        assert row["tool"] == (to or "")
        assert row["ts"] == ts


def test_tool_scope(engine):
    tools = engine.manifest["stats"]["tools"]
    assert tools, "corpus has tool turns"
    scope = f"tool:{tools[0]}"
    assert engine.valid_scope(scope)
    r = engine.search(QUERIES[3]["query_text"], scope=scope, limit=50)
    for row in r["data"].to_pylist():
        assert row["tool"] == tools[0]
    assert not engine.valid_scope("tool:not-a-tool")
    # role validity comes from the index, not a hardcoded list
    assert engine.valid_scope("assistant")
    assert not engine.valid_scope("moderator")


def test_conjunctive_mode(engine):
    q = QUERIES[2]["query_text"]  # two-term query
    conj = engine.search(q, conjunctive=True, limit=50)
    disj = engine.search(q, limit=50)
    assert conj["count"] <= disj["count"]
    # conjunctive == exhaustive conjunctive
    ex = engine.search(q, conjunctive=True, limit=50, method="exhaustive")
    assert conj["data"].to_pylist() == ex["data"].to_pylist()


def test_snippets(engine):
    q = QUERIES[0]
    r = engine.search(q["query_text"], limit=5, with_snippets=True)
    from search_engine_ray.config import SNIPPET_LEN

    for row in r["data"].to_pylist():
        s = row["snippet"]
        assert "<b>" in s and "</b>" in s
        assert s.count("<b>") == s.count("</b>")
        assert len(s) <= SNIPPET_LEN + len("</b>")


def test_deterministic_tiebreak_total_order(engine):
    """Equal scores order by (conv_id, turn_idx) — repeated runs agree."""
    q = QUERIES[3]["query_text"]
    a = engine.search(q, limit=30)["data"].to_pylist()
    b = engine.search(q, limit=30)["data"].to_pylist()
    assert a == b
    keys = [(-r["score"], r["conv_id"], r["turn_idx"]) for r in a]
    assert keys == sorted(keys)


def test_random_queries_blockmax_equals_exhaustive(engine, evaluators_agree):
    """Randomized (seeded) multi-term queries over the real vocabulary:
    the routed default and each exact evaluator called directly
    (windowed block-max, candidate-driven MaxScore) must be
    rank-identical to the exhaustive scorer — same docids, exact
    float64 score equality, same exact counts."""
    import numpy as np

    rng = np.random.default_rng(123)
    answered = set()
    for _ in range(40):
        n_terms = int(rng.integers(1, 4))
        stems = [datagen.stem(int(rng.integers(0, 8000))) for _ in range(n_terms)]
        if rng.random() < 0.5:  # mix in a hot term half the time
            stems[0] = datagen.stem(int(rng.integers(0, 3)))
        q = " ".join(stems)
        scope = None if rng.random() < 0.7 else ["user", "assistant"][int(rng.integers(0, 2))]
        conj = bool(rng.random() < 0.2)
        k = int(rng.integers(1, 25))
        answered |= evaluators_agree(engine, q, scope, k, conj)
        bm = engine.search(q, scope=scope, limit=k, method="blockmax", conjunctive=conj)
        ex = engine.search(q, scope=scope, limit=k, method="exhaustive", conjunctive=conj)
        assert bm["count"] == ex["count"], q
        a, b = bm["data"].to_pylist(), ex["data"].to_pylist()
        assert len(a) == len(b), q
        for ra, rb in zip(a, b):
            assert (ra["conv_id"], ra["turn_idx"]) == (rb["conv_id"], rb["turn_idx"]), q
            assert ra["score"] == rb["score"], q
    assert answered == {"windowed", "candidate_driven"}


def test_bm25_route_rule(tiny_index, monkeypatch):
    """score_blockmax's rule: one rare term is scored term-at-a-time, a
    hot + rare pair by the candidate-driven evaluator, one hot term by
    the windowed evaluator once its df reaches the per-window constant
    (lowered here to the small corpus) — each with the exhaustive
    scorer's page and count."""
    eng = SearchEngine(tiny_index["out_dir"])
    calls = []
    for name in ("_score_candidate_driven", "_score_windowed", "score_exhaustive"):
        real = getattr(eng, name)
        monkeypatch.setattr(eng, name, lambda *a, _n=name, _f=real, **kw: (
            calls.append(_n), _f(*a, **kw))[1])

    def route(text):
        calls.clear()
        got = eng.search(text, limit=10)
        taken = list(calls)
        want = eng.search(text, limit=10, method="exhaustive")
        assert got["count"] == want["count"] and got["data"].equals(want["data"]), text
        return taken

    rare = next(datagen.stem(i) for i in range(400, 8000)
                if 10 <= (eng._df_of(datagen.stem(i)) or 0) <= 100)
    hot = datagen.stem(0)
    assert route(rare) == ["score_exhaustive"]
    assert route(f"{hot} {rare}") == ["_score_candidate_driven"]
    assert route(hot) == ["score_exhaustive"]  # df below the windowed bar
    monkeypatch.setattr(eng, "_WINDOWED_DF_PER_WINDOW", 1)
    assert route(hot) == ["_score_windowed"]


def test_cursor_docid_first_last_unknown(engine):
    """The cursor's conversation lookup (a binary search over the sorted
    conversation list): the first and the last conversations map to
    their ranks, unknown ids (before, between and after the list) to
    None, and a cursor in the last conversation's rows pages like
    offset pagination."""
    from search_engine_ray.search import TURN_BITS

    convs = engine._conv_list().to_pylist()
    first, last = convs[0], convs[-1]
    assert engine._cursor_docid(first, 0) == 0
    assert engine._cursor_docid(last, 3) == ((len(convs) - 1) << TURN_BITS) | 3
    for i in range(0, len(convs), max(1, len(convs) // 40)):
        assert engine._cursor_docid(convs[i], 1) == (i << TURN_BITS) | 1
    for unknown in ("", first[:-1], first + "0", last + "0", "~"):
        assert unknown not in convs
        assert engine._cursor_docid(unknown, 0) is None
    q = datagen.stem(0)
    full = engine.search(q, limit=400)["data"].to_pylist()
    for conv in (first, last):
        at = next((i for i, r in enumerate(full) if r["conv_id"] == conv), None)
        if at is None:
            continue
        row = full[at]
        cur = (row["score"], row["conv_id"], row["turn_idx"])
        walked = engine.search(q, limit=7, search_after=cur)["data"]
        assert walked.equals(engine.search(q, offset=at + 1, limit=7)["data"])


def test_suggest_semantics_and_scale_path(tiny_index):
    """Did-you-mean: exact match ranks first at dist 0; ranking is
    (dist, df DESC, lemma); a far probe suggests nothing."""
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    eng = SearchEngine(tiny_index["out_dir"])
    hot = datagen.stem(0)
    t = eng.suggest(hot, max_dist=1)
    assert t["suggestion"][0].as_py() == hot and t["dist"][0].as_py() == 0
    rows = t.to_pylist()
    assert rows == sorted(rows, key=lambda r: (r["dist"], -r["df"], r["suggestion"]))
    # analyzer charset fold applies to the probe
    assert eng.suggest(hot.upper() + "!", max_dist=1).equals(t)
    # garbage far from the vocabulary -> empty
    assert eng.suggest("zzzzzzzzzz", max_dist=2).num_rows == 0


def test_min_match_semantics(tiny_index):
    """minimum-should-match: msm=1 == disjunctive BM25, msm=n ==
    conjunctive, result sets monotone shrinking in m, and scores equal
    the sum over matched terms only."""
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    eng = SearchEngine(tiny_index["out_dir"])
    q = f"{datagen.stem(50)} {datagen.stem(51)} {datagen.stem(52)}"
    full = eng.search(q, limit=100_000, method="exhaustive")
    m1 = eng.search(q, limit=100_000, min_match=1)
    assert m1["count"] == full["count"]
    assert m1["data"].equals(full["data"])
    m3 = eng.search(q, limit=100_000, min_match=3)
    conj = eng.search(q, limit=100_000, method="exhaustive", conjunctive=True)
    assert m3["count"] == conj["count"]
    assert m3["data"].equals(conj["data"])
    counts = [eng.search(q, min_match=m)["count"] for m in (1, 2, 3)]
    assert counts[0] >= counts[1] >= counts[2] > 0
    # m beyond n terms -> empty result, not an error
    r = eng.search(q, min_match=4)
    assert r["result"] and r["count"] == 0


def test_prefix_mode_semantics(tiny_index):
    """Prefix expansion: full-lemma prefix ⊇ exact-term results; the cap
    orders by (df DESC, lemma); short/no-match prefixes."""
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    eng = SearchEngine(tiny_index["out_dir"])
    hot = datagen.stem(0)
    exact = eng.search(hot, limit=100_000)
    pre = eng.search(hot, mode="prefix", limit=100_000)
    ids_e = {(r["conv_id"], r["turn_idx"]) for r in exact["data"].to_pylist()}
    ids_p = {(r["conv_id"], r["turn_idx"]) for r in pre["data"].to_pylist()}
    assert ids_e <= ids_p and pre["count"] >= exact["count"]
    exp = eng.expand_prefix(hot[:4])
    assert exp and exp == sorted(exp, key=lambda t: (-t[1], t[0]))
    assert all(l.startswith(hot[:4]) for l, _ in exp)
    # no match / too short
    assert eng.search("zz", mode="prefix")["count"] == 0
    assert eng.search("z", mode="prefix")["error"] == "empty_query"


def test_fuzzy_mode_semantics(tiny_index):
    """Fuzzy expansion: dist-0 on a self-lemma stem == plain bm25; a
    typo probe's matching set ⊇ the intended lemma's exact results;
    garbage/budget/empty edge semantics."""
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    eng = SearchEngine(tiny_index["out_dir"])
    st = datagen.stem(50)  # its own lemma (self-lemma stem)
    exact = eng.search(st, limit=100_000)
    f0 = eng.search(st, mode="fuzzy", fuzzy_dist=0, limit=100_000)
    assert f0["count"] == exact["count"] and f0["data"].equals(exact["data"])
    # deletion typo: expansion within dist 1 includes the intended lemma,
    # so the exact matching set is a subset of the fuzzy (disjunctive) set
    typo = datagen.stem(4000)[:-1]
    ef = eng.search(datagen.stem(4000), limit=100_000)
    ff = eng.search(typo, mode="fuzzy", fuzzy_dist=1, limit=100_000)
    ids_e = {(r["conv_id"], r["turn_idx"]) for r in ef["data"].to_pylist()}
    ids_f = {(r["conv_id"], r["turn_idx"]) for r in ff["data"].to_pylist()}
    assert ids_e <= ids_f and ff["count"] >= ef["count"]
    # far-from-vocabulary probe: empty result set, not an error
    g = eng.search("zzqqxx", mode="fuzzy", fuzzy_dist=1)
    assert g["result"] and g["count"] == 0
    # edit budget validated; empty probe is an error
    assert eng.search(st, mode="fuzzy", fuzzy_dist=4)["error"] == "bad_fuzzy_dist"
    assert eng.search("  ", mode="fuzzy")["error"] == "empty_query"
    # scoped fuzzy only ever returns that role
    sc = eng.search(typo, mode="fuzzy", fuzzy_dist=1, scope="user", limit=50)
    assert all(r["role"] == "user" for r in sc["data"].to_pylist())


def test_fuzzy_vs_duckdb_oracle(engine, duck):
    """Fuzzy top-k rank identity vs the SQL oracle (per-token
    levenshtein expansion with the (dist, df DESC, lemma) cap rule,
    deduplicated disjunctive BM25) at sf0.001."""
    fq = datagen.fuzzy_queries()
    sql = oracle.fuzzy_topk_sql(oracle.transcripts_rel("sf0.001"), fq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in fq:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"],
            mode="fuzzy", fuzzy_dist=q["dist"],
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_wildcard_mode_semantics(tiny_index):
    """Wildcard expansion: a metachar-free pattern == plain bm25 on
    that term; a trailing star == prefix mode on the same literal; the
    (df DESC, lemma) cap rule; leading-wildcard and ``?`` matching;
    bad-pattern / no-match guards."""
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    eng = SearchEngine(tiny_index["out_dir"])
    hot = datagen.stem(0)
    # no metachars -> exact dictionary-term query (Lucene semantics);
    # the stem must be its own lemma for identity with plain bm25
    lem = eng._analyzer.analyze_query(hot)[0] if hasattr(eng, "_analyzer") else hot
    exact = eng.search(lem, limit=100_000)
    wc = eng.search(lem, mode="wildcard", limit=100_000)
    assert wc["count"] == exact["count"] and wc["data"].equals(exact["data"])
    # trailing star == prefix mode on the same literal
    pre = eng.search(hot[:4], mode="prefix", limit=50)
    star = eng.search(hot[:4] + "*", mode="wildcard", limit=50)
    assert star["count"] == pre["count"] and star["data"].equals(pre["data"])
    # expansion obeys the cap ordering and the pattern anchors
    exp = eng.expand_wildcard("*" + hot[-2:])
    assert exp and exp == sorted(exp, key=lambda t: (-t[1], t[0]))
    assert all(l.endswith(hot[-2:]) for l, _ in exp)
    hole = eng.expand_wildcard(hot[:3] + "?" + hot[4:])
    assert all(len(l) == len(hot) and l[:3] == hot[:3] and l[4:] == hot[4:]
               for l, _ in hole)
    assert any(l == hot for l, _ in hole) or eng._df_of(hot) is None
    # guards: under-literal / unparseable / no-match
    assert eng.search("a*", mode="wildcard")["error"] == "bad_pattern"
    assert eng.search("*", mode="wildcard")["error"] == "bad_pattern"
    assert eng.search("zz*qq", mode="wildcard")["count"] == 0


def test_wildcard_vs_duckdb_oracle(engine, duck):
    """Wildcard top-k rank identity vs the SQL oracle (shared
    wildcard_parse regex, RE2 on both sides, (df DESC, lemma) cap,
    disjunctive BM25) at sf0.001."""
    wq = datagen.wildcard_queries()
    sql = oracle.wildcard_topk_sql(oracle.transcripts_rel("sf0.001"), wq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in wq:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"], mode="wildcard",
        )
        if got["error"]:
            assert q["query_id"] not in by_q
            continue
        got = got["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_regexp_mode_semantics(tiny_index):
    """Regexp expansion (Lucene RegexpQuery rewrite): a syntax-free
    pattern == plain bm25 on that term; ``lit.*`` == wildcard
    ``lit*``; char-class / alternation / quantifier matching against
    the stem vocabulary; invalid-pattern / no-match guards."""
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    eng = SearchEngine(tiny_index["out_dir"])
    hot = datagen.stem(0)
    lem = eng._analyzer.analyze_query(hot)[0] if hasattr(eng, "_analyzer") else hot
    exact = eng.search(lem, limit=100_000)
    rx = eng.search(lem, mode="regexp", limit=100_000)
    assert rx["count"] == exact["count"] and rx["data"].equals(exact["data"])
    # lit.* == wildcard lit*
    wc = eng.search(hot[:4] + "*", mode="wildcard", limit=50)
    dot = eng.search(hot[:4] + ".*", mode="regexp", limit=50)
    assert dot["count"] == wc["count"] and dot["data"].equals(wc["data"])
    # char class: anchored, matches only the allowed alternatives
    exp = eng.expand_regexp(hot[:-1] + "[" + hot[-1] + "x]")
    assert exp and all(l[:-1] == hot[:-1] and l[-1] in (hot[-1], "x")
                       for l, _ in exp)
    assert exp == sorted(exp, key=lambda t: (-t[1], t[0]))
    # quantifier: w(ba){2}ba == the literal stem 0 (wbababa)
    quant = eng.expand_regexp("w(" + hot[1:3] + "){2}" + hot[5:])
    assert any(l == hot for l, _ in quant)
    # alternation reaches two distinct stems
    other = datagen.stem(777)
    alt = eng.expand_regexp("(" + hot + "|" + other + ")")
    assert {l for l, _ in alt} >= {hot, other}
    # a top-level alternation too: its leading literal prunes nothing
    alt = eng.expand_regexp(hot + "|" + other)
    assert {l for l, _ in alt} >= {hot, other}
    # guards: RE2-invalid / charset-violating / empty / no-match
    assert eng.search("w[ab", mode="regexp")["error"] == "bad_pattern"
    assert eng.search("a b", mode="regexp")["error"] == "bad_pattern"
    assert eng.search("", mode="regexp")["error"] == "bad_pattern"
    assert eng.search("zz+q", mode="regexp")["count"] == 0


def test_regexp_vs_duckdb_oracle(engine, duck):
    """Regexp top-k rank identity vs the SQL oracle (shared
    regexp_parse validation, RE2 on both sides, (df DESC, lemma) cap,
    disjunctive BM25) at sf0.001."""
    rq = datagen.regexp_queries()
    sql = oracle.regexp_topk_sql(oracle.transcripts_rel("sf0.001"), rq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in rq:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"], mode="regexp",
        )
        if got["error"]:
            assert q["query_id"] not in by_q
            continue
        got = got["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_rescore_semantics(engine):
    """Two-phase rescore: final score == qw*bm25 + rw*phrase_score
    reconstructed from the independent bm25 and phrase modes; rw=0 is
    a no-op re-rank; an absent rescore-phrase lemma leaves base order
    scaled by qw; count invariance; validation errors."""
    from search_engine_ray import datagen

    q, ph = datagen.stem(0), f"{datagen.stem(0)} {datagen.stem(1)}"
    plain = engine.search(q, limit=100_000)
    # rw=0, full window: identical ranking, scores exactly qw*bm25
    r0 = engine.search(q, limit=100_000, rescore={
        "query": ph, "window": 200_000, "rescore_weight": 0.0})
    assert r0["count"] == plain["count"]
    assert [
        (r["conv_id"], r["turn_idx"]) for r in r0["data"].to_pylist()
    ] == [(r["conv_id"], r["turn_idx"]) for r in plain["data"].to_pylist()]
    # exact reconstruction: final == qw*bm25 + rw*phrase for every row
    qw, rw = 1.0, 2.0
    rs = engine.search(q, limit=100_000, rescore={
        "query": ph, "window": 200_000,
        "query_weight": qw, "rescore_weight": rw})
    assert rs["count"] == plain["count"]
    base = {(r["conv_id"], r["turn_idx"]): r["score"]
            for r in plain["data"].to_pylist()}
    phr = {(r["conv_id"], r["turn_idx"]): r["score"]
           for r in engine.search(ph, mode="phrase",
                                  limit=100_000)["data"].to_pylist()}
    boosted = 0
    for r in rs["data"].to_pylist():
        key = (r["conv_id"], r["turn_idx"])
        want = qw * base[key] + rw * phr.get(key, 0.0)
        assert r["score"] == want, key
        boosted += key in phr
    assert boosted > 0  # the phrase actually promotes something
    # absent rescore-phrase lemma: base order stands, scaled by qw
    ab = engine.search(q, limit=100_000, rescore={
        "query": f"wqxqzq {q}", "window": 200_000, "query_weight": 2.0})
    assert [
        (r["conv_id"], r["turn_idx"]) for r in ab["data"].to_pylist()
    ] == [(r["conv_id"], r["turn_idx"]) for r in plain["data"].to_pylist()]
    assert all(r["score"] == 2.0 * base[(r["conv_id"], r["turn_idx"])]
               for r in ab["data"].to_pylist())
    # validation
    assert engine.search(q, limit=20, rescore={
        "query": ph, "window": 10})["error"] == "bad_rescore"  # window < k
    assert engine.search(q, rescore={"query": "the !"})["error"] == "bad_rescore"
    assert engine.search(q, rescore={"window": 5})["error"] == "bad_rescore"
    assert engine.search(q, mode="phrase",
                         rescore={"query": ph})["error"] == "bad_rescore"
    assert engine.search(q, rescore={"query": ph},
                         decay={"origin": "2026-01-01", "scale": 1.0}
                         )["error"] == "bad_rescore"


def test_rescore_vs_duckdb_oracle(engine, duck):
    """Rescore top-k rank identity vs the SQL oracle (windowed base
    ranking + adjacency phrase BM25 + weighted recombination) at
    sf0.001."""
    rq = datagen.rescore_queries()
    sql = oracle.rescore_topk_sql(oracle.transcripts_rel("sf0.001"), rq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in rq:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"],
            rescore={"query": q["rescore"], "window": q["window"],
                     "query_weight": q["query_weight"],
                     "rescore_weight": q["rescore_weight"]},
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_decay_semantics(engine):
    """Function-score decay: a matching set is unchanged in membership
    and count (multiply, not filter); the factor is exactly ``rate`` at
    distance ``scale`` (pinned numerically via a one-doc probe); an
    offset plateau leaves near-origin scores untouched; linear's zero
    tail zeroes but keeps rows; validation errors."""
    import math

    from search_engine_ray import datagen

    q = datagen.stem(0)
    plain = engine.search(q, limit=100_000, method="exhaustive")
    dec = engine.search(q, limit=100_000, decay={
        "origin": "2026-01-02T00:00:00", "scale": 86400.0, "shape": "exp",
        "rate": 0.5,
    })
    assert dec["count"] == plain["count"]
    ids_p = {(r["conv_id"], r["turn_idx"]) for r in plain["data"].to_pylist()}
    ids_d = {(r["conv_id"], r["turn_idx"]) for r in dec["data"].to_pylist()}
    assert ids_p == ids_d
    # every decayed score == its plain score * exp(ln(.5)/scale * x)
    by_id = {(r["conv_id"], r["turn_idx"]): r for r in plain["data"].to_pylist()}
    origin_us = 1_767_225_600_000_000 + 86_400_000_000  # 2026-01-02
    for r in dec["data"].to_pylist():
        p = by_id[(r["conv_id"], r["turn_idx"])]
        x = abs(float(p["ts"].timestamp() * 1e6) - origin_us) / 1e6
        assert r["score"] == pytest.approx(
            p["score"] * math.exp(math.log(0.5) / 86400.0 * x), rel=1e-12)
    # offset plateau: a turn within the offset keeps its plain score
    off = engine.search(q, limit=100_000, decay={
        "origin": "2026-01-02T00:00:00", "scale": 3600.0,
        "offset": 10 * 365 * 86400.0,
    })
    assert off["count"] == plain["count"]
    off_scores = {(r["conv_id"], r["turn_idx"]): r["score"]
                  for r in off["data"].to_pylist()}
    for (cid, ti), row in by_id.items():
        assert off_scores[(cid, ti)] == row["score"]
    # linear zero tail: scale so small everything far decays to 0.0
    lin = engine.search(q, limit=100_000, decay={
        "origin": "2000-01-01T00:00:00", "scale": 1.0, "shape": "linear",
    })
    assert lin["count"] == plain["count"]
    assert all(r["score"] == 0.0 for r in lin["data"].to_pylist())
    # validation
    for bad in (
        {"scale": 86400.0},                                  # no origin
        {"origin": "2026-01-01", "scale": 0.0},              # scale <= 0
        {"origin": "2026-01-01", "scale": 10.0, "rate": 1.0},
        {"origin": "2026-01-01", "scale": 10.0, "shape": "step"},
        {"origin": "nonsense", "scale": 10.0},
        {"origin": "2026-01-01", "scale": 10.0, "offset": -1.0},
    ):
        assert engine.search(q, decay=bad)["error"] == "bad_decay"
    # every built-in mode decays its match set; decay never changes count
    ph = engine.search(q, mode="phrase",
                       decay={"origin": "2026-01-01", "scale": 1.0})
    assert ph["result"] and ph["count"] == engine.search(q, mode="phrase")["count"]


def test_decay_vs_duckdb_oracle(engine, duck):
    """Decay top-k rank identity vs the SQL oracle (inlined float64
    constants, mirrored op order) at sf0.001 across all three shapes."""
    dq = datagen.decay_queries()
    sql = oracle.bm25_decay_sql(oracle.transcripts_rel("sf0.001"), dq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in dq:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"],
            decay={"origin": q["origin"], "scale": q["scale"],
                   "shape": q["shape"], "rate": q["rate"],
                   "offset": q["offset"]},
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_boosting_vs_duckdb_oracle(engine, duck):
    """Boosting-query top-k rank identity vs the SQL twin (one CASE
    multiply over the BM25 skeleton) at sf0.001 — demotion, crush,
    absent-negative no-op, nb=0 zeroing, scoped, nb=1 bitwise no-op."""
    bq = datagen.boosting_queries()
    sql = oracle.bm25_boosting_sql(oracle.transcripts_rel("sf0.001"), bq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in bq:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"],
            negative=q["negative"], negative_boost=q["negative_boost"],
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_boosting_semantics(engine):
    """nb=1.0 and an absent negative are exact no-ops; demotion never
    changes the count; nb=0 floors demoted docs below every undemoted
    one; guards reject out-of-range factors and a negative that analyzes
    to nothing; every built-in mode demotes its own match set."""
    hot, mid = datagen.stem(0), datagen.stem(120)
    plain = engine.search(hot, limit=10)
    noop1 = engine.search(hot, limit=10, negative=mid, negative_boost=1.0)
    noop2 = engine.search(hot, limit=10, negative="wqxqzq")
    assert noop1["data"].equals(plain["data"])
    assert noop2["data"].equals(plain["data"])
    dem = engine.search(hot, limit=10, negative=mid, negative_boost=0.5)
    assert dem["count"] == plain["count"]
    zero = engine.search(hot, limit=plain["count"], negative=mid,
                         negative_boost=0.0)
    scores = zero["data"].column("score").to_pylist()
    neg_set = {(r["conv_id"], r["turn_idx"])
               for r in engine.search(f"{hot} {mid}", conjunctive=True,
                                      limit=plain["count"])["data"].to_pylist()}
    if neg_set:
        for r in zero["data"].to_pylist():
            if (r["conv_id"], r["turn_idx"]) in neg_set:
                assert r["score"] == 0.0
        assert scores == sorted(scores, reverse=True)
    assert engine.search(hot, mode="phrase", negative=mid)["count"] \
        == engine.search(hot, mode="phrase")["count"]
    assert engine.search(hot, negative=mid, negative_boost=1.5)["error"] \
        == "bad_negative"
    assert engine.search(hot, negative=mid, negative_boost=-0.1)["error"] \
        == "bad_negative"
    assert engine.search(hot, negative="!!")["error"] == "bad_negative"
    assert engine.search(hot, negative=mid, rescore={"query": hot})["error"] \
        == "bad_rescore"


def test_facets_vs_duckdb_oracle(engine, duck):
    """Faceted matching-doc counts (grouped G6) == the SQL oracle's
    role/tool groupings over the same matching semantics, per query."""
    sql = oracle.facets_sql(oracle.transcripts_rel("sf0.001"), QUERIES)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, set] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], set()).add(
            (r["facet"], r["value"], r["n_docs"])
        )
    for q in QUERIES:
        r = engine.facets(q["query_text"], scope=q["scope"])
        assert r["result"], q
        got = {
            (row["facet"], row["value"], row["n_docs"])
            for row in r["data"].to_pylist()
        }
        assert got == by_q.get(q["query_id"], set()), q["query_text"]


def test_sig_terms_vs_duckdb_oracle(engine, duck):
    """Significant-terms top-k (JLH lift vs the corpus background, fg
    from the distributed index-segment scan) == the SQL oracle sharing
    the facets matching semantics, per probe query."""
    sigs = datagen.sig_queries()
    sql = oracle.significant_terms_sql(oracle.transcripts_rel("sf0.001"), sigs)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in sigs:
        r = engine.significant_terms(q["query_text"], scope=q["scope"], k=q["k"])
        assert r["result"], q
        got = r["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), q["query_text"]
        for g, e in zip(got, exp):
            assert g["rank"] == e["rank"]
            assert g["lemma"] == e["lemma"], (q["query_text"], g, e)
            assert g["fg_docs"] == e["fg_docs"]
            assert g["bg_docs"] == e["bg_docs"]
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def test_msearch_semantics(engine):
    """Multi-search: batch responses == the same requests run
    individually (order-preserving, mixed modes in one batch), and
    line-level error semantics — a malformed line errors IN PLACE
    without aborting the batch."""
    from search_engine_ray import datagen

    hot, ph = datagen.stem(0), f"{datagen.stem(0)} {datagen.stem(1)}"
    reqs = [
        {"query": hot, "limit": 5},
        {"query": ph, "mode": "phrase", "limit": 3},
        {"query": hot[:4] + "*", "mode": "wildcard", "limit": 3},
        {"limit": 3},                                  # missing query
        {"query": hot, "no_such_param": 1},            # unknown kwarg
        {"query": hot, "scope": "nope"},               # engine error
        {"query": f"{hot} {datagen.stem(1)}", "min_match": 2, "limit": 4},
    ]
    batch = engine.msearch(reqs)
    assert len(batch) == len(reqs)
    for req, got in zip(reqs, batch):
        if "query" not in req or "no_such_param" in req:
            assert got["error"] == "bad_request"
            continue
        kw = dict(req)
        solo = engine.search(kw.pop("query"), **kw)
        assert got["result"] == solo["result"]
        assert got["count"] == solo["count"]
        assert got["error"] == solo["error"]
        assert got["data"].equals(solo["data"])
    assert engine.msearch([]) == []


def test_rare_terms_vs_duckdb_oracle(engine, duck):
    """Rare-terms top-k (long-tail lemmas of the matching set, global
    df <= ceiling, fg from the same distributed scan) == the SQL
    oracle, per probe query — all compared columns integers."""
    rts = datagen.rare_terms_queries()
    sql = oracle.rare_terms_sql(oracle.transcripts_rel("sf0.001"), rts)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in rts:
        r = engine.rare_terms(q["query_text"], scope=q["scope"], k=q["k"],
                              max_doc_count=q["max_doc_count"])
        assert r["result"], q
        got = r["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), q["query_text"]
        for g, e in zip(got, exp):
            assert (g["rank"], g["lemma"], g["fg_docs"], g["bg_docs"]) == (
                e["rank"], e["lemma"], e["fg_docs"], e["bg_docs"]
            ), (q["query_text"], g, e)


def test_rare_terms_semantics(engine):
    """df ceiling honored (every bg <= ceiling), result sets monotone in
    the ceiling, query lemmas excluded, fg <= bg, bg ascending, error
    paths."""
    from search_engine_ray import datagen

    q = datagen.stem(0)
    qlem = engine._analyzer.analyze_query(q)
    r20 = engine.rare_terms(q, k=100, max_doc_count=20)
    assert r20["result"] and r20["count"] > 0
    rows = r20["data"].to_pylist()
    assert rows, "hot matching set must touch some long-tail lemma"
    assert all(x["bg_docs"] <= 20 for x in rows)
    assert all(x["fg_docs"] >= 1 and x["fg_docs"] <= x["bg_docs"] for x in rows)
    assert all(x["lemma"] not in qlem for x in rows)
    bgs = [x["bg_docs"] for x in rows]
    assert bgs == sorted(bgs)
    r5 = engine.rare_terms(q, k=100, max_doc_count=5)
    assert {x["lemma"] for x in r5["data"].to_pylist()} <= {
        x["lemma"] for x in rows
    }
    assert engine.rare_terms(q, k=0)["error"] == "bad_k"
    assert engine.rare_terms(q, max_doc_count=0)["error"] == "bad_max_doc_count"
    assert engine.rare_terms("wqxqzq")["count"] == 0
    assert engine.rare_terms("the !")["error"] == "empty_query"
    assert engine.rare_terms(q, scope="nope")["error"] == "bad_scope"


def test_sig_terms_semantics(engine):
    """Matching frame == facets' (same count), query lemmas excluded,
    fg <= count and fg <= bg, dense ranks, error semantics, conjunctive
    subset."""
    hot = datagen.stem(0)
    r = engine.significant_terms(hot)
    assert r["result"] and r["count"] == engine.facets(hot)["count"]
    data = r["data"].to_pylist()
    assert data, "hot matching set must surface co-occurring lemmas"
    qlems = set(engine._analyzer.analyze_query(hot))
    for row in data:
        assert row["lemma"] not in qlems
        assert 0 < row["fg_docs"] <= r["count"]
        assert row["fg_docs"] <= row["bg_docs"]
    assert [row["rank"] for row in data] == list(range(1, len(data) + 1))
    scoped = engine.significant_terms(hot, scope="user")
    assert scoped["count"] == engine.facets(hot, scope="user")["count"]
    absent = engine.significant_terms("wqxqzq")
    assert absent["result"] and absent["count"] == 0 and absent["data"].num_rows == 0
    assert engine.significant_terms("...")["error"] == "empty_query"
    assert engine.significant_terms(hot, scope="nope")["error"] == "bad_scope"
    two = f"{datagen.stem(120)} {datagen.stem(480)}"
    conj = engine.significant_terms(two, conjunctive=True)
    disj = engine.significant_terms(two)
    assert conj["result"] and conj["count"] <= disj["count"]


def test_search_after_cursor(engine):
    """Cursor (search_after) pagination: page N+1 via the previous
    page's boundary row == offset pagination; walking the cursor to
    exhaustion reproduces the full deterministic order exactly once;
    bad cursors and illegal compositions error."""
    q = QUERIES[3]["query_text"]  # ultra-hot single term
    p1 = engine.search(q, limit=10)
    last = p1["data"].to_pylist()[-1]
    cur = (last["score"], last["conv_id"], last["turn_idx"])
    by_cursor = engine.search(q, limit=10, search_after=cur)
    by_offset = engine.search(q, offset=10, limit=10)
    assert by_cursor["count"] == by_offset["count"] == p1["count"]
    assert by_cursor["data"].equals(by_offset["data"])
    # full walk: every matching doc exactly once, in the total order
    full = engine.search(q, limit=p1["count"])["data"].to_pylist()
    seen, cursor, pages = [], None, 0
    while True:
        r = engine.search(q, limit=7, search_after=cursor)
        rows = r["data"].to_pylist()
        if not rows:
            break
        seen += rows
        cursor = (rows[-1]["score"], rows[-1]["conv_id"], rows[-1]["turn_idx"])
        pages += 1
        assert pages <= p1["count"]  # termination guard
    assert [(x["conv_id"], x["turn_idx"]) for x in seen] == [
        (x["conv_id"], x["turn_idx"]) for x in full
    ]
    # composes with the other exhaustive-routed filters (scope)
    s1 = engine.search(q, scope="user", limit=5)
    srows = s1["data"].to_pylist()
    scur = (srows[-1]["score"], srows[-1]["conv_id"], srows[-1]["turn_idx"])
    s2c = engine.search(q, scope="user", limit=5, search_after=scur)
    s2o = engine.search(q, scope="user", offset=5, limit=5)
    assert s2c["data"].equals(s2o["data"])
    # error surfaces
    assert engine.search(q, search_after=(1.0, "no-such-conv", 0))["error"] == "bad_cursor"
    assert engine.search(q, search_after=("x", srows[0]["conv_id"], 0))["error"] == "bad_cursor"
    assert engine.search(q, offset=3, search_after=cur)["error"] == "bad_cursor"
    assert engine.search(q, order_by="ts_desc", search_after=cur)["error"] == "bad_cursor"
    assert engine.search(q, search_after=(1.0,))["error"] == "bad_cursor"


def test_more_like_this_semantics(engine):
    """MLT: probe excluded from results and count; match-set count is
    monotone in max_terms (disjunctive union grows); offset slices the
    same deterministic order; error surfaces."""
    probe = datagen.mlt_queries()[0]
    c, t = probe["conv_id"], probe["turn_idx"]
    r = engine.more_like_this(c, t, limit=50)
    assert r["result"] and r["count"] > 0
    assert all((x["conv_id"], x["turn_idx"]) != (c, t) for x in r["data"].to_pylist())
    small = engine.more_like_this(c, t, max_terms=3)
    assert small["count"] <= r["count"]
    page = engine.more_like_this(c, t, offset=5, limit=5)
    assert page["data"].to_pylist() == r["data"].to_pylist()[5:10]
    # scoped MLT only returns that role
    sc = engine.more_like_this(c, t, scope="user", limit=20)
    assert all(x["role"] == "user" for x in sc["data"].to_pylist())
    assert engine.more_like_this("no-such-conv", 0)["error"] == "not_found"
    assert engine.more_like_this(c, 10_000)["error"] == "not_found"
    assert engine.more_like_this(c, t, scope="nope")["error"] == "bad_scope"


def test_mlt_vs_duckdb_oracle(engine, duck):
    """MLT rank identity vs the SQL oracle (per-probe tf from the shared
    analyzer CTEs, tf·idf top-max_terms selection with the (weight DESC,
    lemma) rule, probe-excluded BM25) at sf0.001."""
    mq = datagen.mlt_queries()
    sql = oracle.mlt_topk_sql(oracle.transcripts_rel("sf0.001"), mq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in mq:
        got = engine.more_like_this(
            q["conv_id"], q["turn_idx"], scope=q["scope"], limit=q["k"],
            max_terms=q["max_terms"],
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]


def test_facets_day_vs_duckdb_oracle(engine, duck):
    """Date-histogram facet == the SQL oracle's per-UTC-day groupings
    over the same matching semantics, per query."""
    sql = oracle.facets_day_sql(oracle.transcripts_rel("sf0.001"), QUERIES)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, set] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], set()).add((r["value"], r["n_docs"]))
    for q in QUERIES:
        r = engine.facets(q["query_text"], scope=q["scope"], by=("day",))
        assert r["result"], q
        got = {(row["value"], row["n_docs"]) for row in r["data"].to_pylist()}
        assert got == by_q.get(q["query_id"], set()), q["query_text"]


def test_facets_day_semantics(engine):
    q = QUERIES[3]["query_text"]  # ultra-hot single term
    r = engine.facets(q, by=("day",))
    tbl = r["data"].to_pylist()
    assert tbl and all(x["facet"] == "day" for x in tbl)
    # day buckets partition the full matching set, values are ISO dates
    assert sum(x["n_docs"] for x in tbl) == r["count"]
    assert all(len(x["value"]) == 10 and x["value"][4] == "-" for x in tbl)
    # comma-joined string form == tuple form, composes with role/tool
    rs = engine.facets(q, by="role,day")
    facets_seen = {x["facet"] for x in rs["data"].to_pylist()}
    assert facets_seen == {"role", "day"}
    assert [x for x in rs["data"].to_pylist() if x["facet"] == "day"] == tbl
    # a ts window spanning exactly one bucket reproduces that bucket's count
    lo = tbl[0]["value"] + "T00:00:00"
    hi = tbl[0]["value"] + "T23:59:59.999999"
    win = engine.facets(q, by=("day",), ts_min=lo, ts_max=hi)
    assert win["count"] == tbl[0]["n_docs"]
    # unknown grouping is an error
    assert engine.facets(q, by=("week",))["error"] == "bad_facet"
    assert engine.facets(q, by=())["error"] == "bad_facet"


def test_facets_semantics(engine):
    q = QUERIES[3]["query_text"]  # ultra-hot single term
    r = engine.facets(q)
    tbl = r["data"].to_pylist()
    # role facet counts partition the full matching set
    role_total = sum(x["n_docs"] for x in tbl if x["facet"] == "role")
    tool_total = sum(x["n_docs"] for x in tbl if x["facet"] == "tool")
    assert role_total == r["count"] == tool_total
    assert r["count"] == engine.search(q, limit=1)["count"]
    # scoped facets only ever see that role
    scoped = engine.facets(q, scope="user")
    for row in scoped["data"].to_pylist():
        if row["facet"] == "role":
            assert row["value"] == "user"
    assert scoped["count"] <= r["count"]
    # conjunctive <= disjunctive, and equals the conjunctive search count
    two = QUERIES[2]["query_text"]
    conj = engine.facets(two, conjunctive=True)
    disj = engine.facets(two)
    assert conj["count"] <= disj["count"]
    assert conj["count"] == engine.search(two, limit=1, conjunctive=True)["count"]
    # reference error semantics
    assert engine.facets("wqxqzq")["count"] == 0
    assert engine.facets("wqxqzq")["data"].num_rows == 0
    assert engine.facets("the and of")["error"] == "empty_query"
    assert engine.facets("x", scope="nosuchrole")["error"] == "bad_scope"


def test_exclude_semantics(engine):
    hot, rare = datagen.stem(0), datagen.stem(4000)
    plain = engine.search(rare, limit=1000)
    # NOT of an absent/stopword-only term is a no-op
    for noop in ("wqxqzq", "the and of !!!"):
        r = engine.search(rare, limit=1000, exclude=noop)
        assert r["count"] == plain["count"]
        assert r["data"].equals(plain["data"])
    # self-exclusion empties the result
    assert engine.search(rare, exclude=rare)["count"] == 0
    # excluded docs are exactly those containing the NOT lemma
    exc = engine.search(rare, limit=1000, exclude=hot)
    hot_ids = {
        (r["conv_id"], r["turn_idx"])
        for r in engine.search(hot, limit=100_000)["data"].to_pylist()
    }
    exc_ids = {(r["conv_id"], r["turn_idx"]) for r in exc["data"].to_pylist()}
    plain_ids = {(r["conv_id"], r["turn_idx"]) for r in plain["data"].to_pylist()}
    assert exc_ids == plain_ids - hot_ids
    assert exc["count"] == plain["count"] - len(plain_ids & hot_ids)
    # surviving rows keep their scores and relative order
    kept = [r for r in plain["data"].to_pylist()
            if (r["conv_id"], r["turn_idx"]) not in hot_ids]
    got = exc["data"].to_pylist()
    assert [(r["conv_id"], r["turn_idx"], r["score"]) for r in got] == [
        (r["conv_id"], r["turn_idx"], r["score"]) for r in kept
    ]
    # composes with scope and conjunctive
    sc = engine.search(rare, scope="user", limit=1000, exclude=hot)
    assert sc["count"] <= exc["count"]
    two = f"{datagen.stem(120)} {datagen.stem(480)}"
    cj = engine.search(two, conjunctive=True, limit=1000, exclude=hot)
    dj = engine.search(two, limit=1000, exclude=hot)
    assert cj["count"] <= dj["count"]


def test_ts_range_semantics(engine):
    hot = datagen.stem(0)
    plain = engine.search(hot, limit=100_000)
    # everything-window == plain search
    allw = engine.search(hot, limit=100_000, ts_min="2026-01-01T00:00:00")
    assert allw["count"] == plain["count"] and allw["data"].equals(plain["data"])
    # pre-corpus window -> empty
    assert engine.search(hot, ts_max="2025-12-31T00:00:00")["count"] == 0
    # bounded window: every surviving row's ts falls inside (inclusive)
    import datetime as dt

    lo, hi = "2026-01-01T05:00:00", "2026-01-02T16:00:00"
    win = engine.search(hot, limit=100_000, ts_min=lo, ts_max=hi)
    lo_dt = dt.datetime.fromisoformat(lo)
    hi_dt = dt.datetime.fromisoformat(hi)
    for row in win["data"].to_pylist():
        assert lo_dt <= row["ts"] <= hi_dt
    assert 0 < win["count"] < plain["count"]
    # the window is exactly the plain rows whose ts is inside
    keep = [
        r for r in plain["data"].to_pylist() if lo_dt <= r["ts"] <= hi_dt
    ]
    got = win["data"].to_pylist()
    assert [(r["conv_id"], r["turn_idx"], r["score"]) for r in got] == [
        (r["conv_id"], r["turn_idx"], r["score"]) for r in keep
    ]
    # int epoch-µs bounds behave identically to their ISO forms
    lo_us = int(lo_dt.replace(tzinfo=dt.timezone.utc).timestamp() * 1_000_000)
    hi_us = int(hi_dt.replace(tzinfo=dt.timezone.utc).timestamp() * 1_000_000)
    win2 = engine.search(hot, limit=100_000, ts_min=lo_us, ts_max=hi_us)
    assert win2["count"] == win["count"] and win2["data"].equals(win["data"])
    # composes with exclusion
    both = engine.search(
        hot, limit=100_000, ts_min=lo, ts_max=hi, exclude=datagen.stem(1)
    )
    assert both["count"] <= win["count"]


def test_doc_store_row_groups_identical(tiny_index, tmp_path):
    """Per-doc fields are gathers from the doc store's row groups at
    every index size: a copy whose doc store holds the same rows in
    many small row groups over two files answers every doc-row reader
    as the one-row-group index does, at the default budget and at a
    few-KiB one (groups cached, evicted and re-read)."""
    import pyarrow.parquet as pq

    from tests.test_cache import _small, _split_doc_groups

    one = SearchEngine(tiny_index["out_dir"])
    split = _split_doc_groups(tiny_index["out_dir"], str(tmp_path / "split"))
    assert pq.ParquetFile(f"{split}/docs/a.parquet").num_row_groups > 10
    hot, pair = datagen.stem(0), f"{datagen.stem(2)} {datagen.stem(60)}"
    page = one.search(hot, limit=40)["data"].to_pylist()
    docs = [(r["conv_id"], r["turn_idx"]) for r in page]
    docs += [("conv-x", 0), (page[0]["conv_id"], 4000)]  # not docs
    last = page[4]
    calls = [
        lambda e, q=q, kw=kw: e.search(q, **kw)
        for q in (hot, pair)
        for kw in ({"with_snippets": True}, {"with_snippets": "full"},
                   {"order_by": "ts_desc", "limit": 25}, {"order_by": "rrf"},
                   {"decay": {"origin": "2026-01-02T00:00:00", "scale": 86_400.0}},
                   {"search_after": (last["score"], last["conv_id"], last["turn_idx"])})
    ]
    calls += [lambda e, q=q: e.search(q["query_text"], scope=q["scope"], limit=q["k"],
                                      ts_min=q["ts_min"], ts_max=q["ts_max"])
              for q in datagen.ts_range_queries()]
    calls += [lambda e, q=q: e.metrics(q) for q in (hot, pair)]
    calls += [lambda e, q=q: e.rank_eval(q) for q in (hot, pair)]
    calls.append(lambda e: e.mget(docs))
    for c, t in docs[::7] + docs[-2:]:
        calls.append(lambda e, c=c, t=t: e.explain(pair, c, t))
        calls.append(lambda e, c=c, t=t: e.termvectors(c, t))

    def answer(r):
        return {k: v.to_pylist() if hasattr(v, "to_pylist") else v for k, v in r.items()}

    expect = [answer(c(one)) for c in calls]
    for eng in (SearchEngine(split), _small(split)):
        for _ in range(2):
            assert [answer(c(eng)) for c in calls] == expect
    assert "docs" in eng._cache.stats()


def test_split_layout_answers_identical(tiny_index, tmp_path):
    """Every vocabulary reader runs over the dictionary's row groups and
    every posting read over the index's, at every layout: a copy whose
    dictionary sits in 50-lemma row groups and whose index sits in
    64-row groups over three files answers each search mode,
    ``complete``, ``suggest`` and ``suggest_query`` as the one-group
    index does, at the default budget and at a few-KiB one."""
    from tests.test_cache import _small, _split_layout

    one = SearchEngine(tiny_index["out_dir"])
    split = _split_layout(tiny_index["out_dir"], str(tmp_path / "split"))
    eng = SearchEngine(split)
    los, his, where = eng._groups("dict")
    assert len(where) > 10 and len({p for p, _ in eng._groups("index")[2]}) >= 2
    # a prefix whose lemmas cross a dictionary row-group bound
    pre = max((os.path.commonprefix([h, lo]) for h, lo in zip(his, los[1:])), key=len)
    assert len(pre) >= 3 and len(eng._groups_meeting("dict", pre, pre + chr(0x10FFFF))) >= 2
    s = datagen.stem
    typo = s(4000)[:-1]
    texts = {
        "bm25": [s(0), f"{s(0)} {s(700)}", f"{s(2)} {s(60)}", s(4000), "wqxqzq"],
        "prefix": [pre, s(0)[:4]],
        "wildcard": [pre + "*", "*" + s(0)[-2:], s(5)[:3] + "?" + s(5)[4:]],
        "regexp": [pre + "[a-z]+", ".*" + s(0)[-2:]],
        "fuzzy": [typo, s(50)],
    }
    calls = [lambda e, q=q, m=m: e.search(q, mode=m, limit=20)
             for m, qs in texts.items() for q in qs]
    calls += [lambda e: e.search(typo, mode="fuzzy", fuzzy_dist=2, scope="user", limit=20),
              lambda e: e.search(f"{s(2)} {s(60)}", scope="user", limit=20)]
    calls += [lambda e, p=p: e.complete(p, k=7) for p in (pre, s(0)[:3])]
    calls += [lambda e, q=q: e.suggest(q) for q in (s(0), typo, "wqxqzq", "zzzzzzzz")]
    calls += [lambda e: e.suggest_query(f"{typo} {s(0)} qqzzx")]

    def answer(r):
        if hasattr(r, "to_pylist"):
            return r.to_pylist()
        return {k: v.to_pylist() if hasattr(v, "to_pylist") else v for k, v in r.items()}

    expect = [answer(c(one)) for c in calls]
    for e in (eng, _small(split)):
        for _ in range(2):
            assert [answer(c(e)) for c in calls] == expect


def test_facets_compose_with_filters(engine):
    """Faceting a FILTERED result set: facets(exclude=/ts bounds) is
    pinned equal to the search-path filters — role totals always equal
    the filtered exact count."""
    hot, other = datagen.stem(0), datagen.stem(1)
    f = engine.facets(hot, exclude=other)
    s = engine.search(hot, limit=1, exclude=other)
    assert f["count"] == s["count"]
    assert sum(r["n_docs"] for r in f["data"].to_pylist() if r["facet"] == "role") == f["count"]
    lo, hi = "2026-01-01T05:00:00", "2026-01-02T16:00:00"
    f2 = engine.facets(hot, ts_min=lo, ts_max=hi)
    s2 = engine.search(hot, limit=1, ts_min=lo, ts_max=hi)
    assert f2["count"] == s2["count"] < engine.facets(hot)["count"]
    # all three compose
    f3 = engine.facets(hot, exclude=other, ts_min=lo, ts_max=hi, scope="user")
    s3 = engine.search(hot, limit=1, exclude=other, ts_min=lo, ts_max=hi, scope="user")
    assert f3["count"] == s3["count"]
    for row in f3["data"].to_pylist():
        if row["facet"] == "role":
            assert row["value"] == "user"


def test_parse_boolean_query():
    from search_engine_ray.search import parse_boolean_query

    ph, loose, excl = parse_boolean_query('"a b" c -d "e" -f g')
    assert ph == ["a b", "e"]
    assert loose.split() == ["c", "g"]
    assert excl.split() == ["d", "f"]
    assert parse_boolean_query("") == ([], "", "")
    assert parse_boolean_query("plain words") == ([], "plain words", "")
    # a bare dash is not an exclusion
    assert parse_boolean_query("a - b")[1].split() == ["a", "-", "b"]


def test_auto_mode_identities(engine):
    hot, nxt, rare = datagen.stem(0), datagen.stem(1), datagen.stem(4000)
    # single-phrase auto == mode=phrase exactly (same match set, same
    # distinct-lemma BM25, same tie-break)
    a = engine.search(f'"{hot} {nxt}"', limit=20, mode="auto")
    p = engine.search(f"{hot} {nxt}", limit=20, mode="phrase")
    assert a["count"] == p["count"] and a["data"].equals(p["data"])
    # loose-only auto == plain bm25
    a2 = engine.search(rare, limit=50, mode="auto")
    b2 = engine.search(rare, limit=50)
    assert a2["count"] == b2["count"] and a2["data"].equals(b2["data"])
    # loose + NOT == search(exclude=)
    a3 = engine.search(f"{rare} -{hot}", limit=50, mode="auto")
    b3 = engine.search(rare, limit=50, exclude=hot)
    assert a3["count"] == b3["count"] and a3["data"].equals(b3["data"])
    # phrase + loose: candidates never grow, scores never shrink
    a4 = engine.search(f'"{hot} {nxt}" {rare}', limit=1000, mode="auto")
    assert a4["count"] == a["count"]
    base = {(r["conv_id"], r["turn_idx"]): r["score"]
            for r in engine.search(f'"{hot} {nxt}"', limit=1000, mode="auto")["data"].to_pylist()}
    for r in a4["data"].to_pylist():
        assert r["score"] >= base[(r["conv_id"], r["turn_idx"])] - 1e-12
    # missing loose lemma -> no results; all-stopword -> empty_query
    assert engine.search(f'"{hot} {nxt}" wqxqzq', mode="auto")["count"] == 0
    assert engine.search('-only "the and"', mode="auto")["error"] == "empty_query"
    # self-negating phrase -> empty result set
    assert engine.search(f'"{rare}" -{rare}', mode="auto")["count"] == 0


def test_auto_mode_vs_duckdb_oracle(engine, duck):
    sql = oracle.auto_topk_sql(oracle.transcripts_rel("sf0.001"), datagen.auto_queries())
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in datagen.auto_queries():
        got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            mode="auto")["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_text"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def _conv_ground_truth(engine, query, scope=None):
    """Direct grouping of the exhaustive full matching set: per conv
    (n_turns, max score, best turn = lowest turn_idx at the exact max)."""
    full = engine.search(query, scope=scope, limit=10**7, method="exhaustive")
    by_conv: dict[str, dict] = {}
    for row in full["data"].to_pylist():
        c = by_conv.setdefault(row["conv_id"], {"n": 0, "best": None, "turn": None})
        c["n"] += 1
        if c["best"] is None or row["score"] > c["best"] or (
            row["score"] == c["best"] and row["turn_idx"] < c["turn"]
        ):
            c["best"], c["turn"] = row["score"], row["turn_idx"]
    return by_conv


def test_search_conversations_matches_direct_grouping(engine):
    for query, scope in [
        (datagen.stem(4000), None),
        (f"{datagen.stem(120)} {datagen.stem(480)}", None),
        (datagen.stem(300), "assistant"),
    ]:
        truth = _conv_ground_truth(engine, query, scope)
        ranked = sorted(truth.items(), key=lambda kv: (-kv[1]["best"], kv[0]))
        r = engine.search_conversations(query, scope=scope, limit=10)
        assert r["count"] == len(truth)
        rows = r["data"].to_pylist()
        assert len(rows) == min(10, len(truth))
        for row, (cid, t) in zip(rows, ranked):
            assert row["conv_id"] == cid
            assert row["n_turns"] == t["n"]
            assert row["best_turn_idx"] == t["turn"]
            assert row["score"] == t["best"]  # same float64 pipeline


def test_search_conversations_semantics(engine):
    # missing lemma -> zero conversations; stopwords -> empty_query;
    # bad scope -> error; pagination slices the same ranking
    assert engine.search_conversations("wqxqzq")["count"] == 0
    assert engine.search_conversations("the and of")["error"] == "empty_query"
    assert engine.search_conversations("x", scope="nosuchrole")["error"] == "bad_scope"
    full = engine.search_conversations(datagen.stem(4000), limit=10)["data"].to_pylist()
    page = engine.search_conversations(
        datagen.stem(4000), offset=5, limit=5
    )["data"].to_pylist()
    assert page == full[5:]


def test_collapse_identities(engine):
    hot = datagen.stem(0)
    # collapse larger than any conversation == plain search
    a = engine.search(hot, limit=20, collapse=10**6)
    b = engine.search(hot, limit=20)
    assert a["count"] == b["count"] and a["data"].equals(b["data"])
    # collapse=1 result rows == conversation ranking's best turns
    c1 = engine.search(hot, limit=10, collapse=1)
    conv = engine.search_conversations(hot, limit=10)
    assert c1["count"] == conv["count"]
    got = [(r["conv_id"], r["turn_idx"], r["score"]) for r in c1["data"].to_pylist()]
    exp = [(r["conv_id"], r["best_turn_idx"], r["score"]) for r in conv["data"].to_pylist()]
    assert got == exp
    # per-conversation cap holds at every m, and counts are monotone in m
    prev = 0
    for m in (1, 2, 3):
        r = engine.search(hot, limit=1000, collapse=m)
        per = {}
        for row in r["data"].to_pylist():
            per[row["conv_id"]] = per.get(row["conv_id"], 0) + 1
        assert max(per.values()) <= m
        assert r["count"] >= prev
        prev = r["count"]
    # collapse=0 is an error
    assert engine.search(hot, collapse=0)["error"] == "bad_collapse"


def test_conv_and_collapse_vs_duckdb_oracle(engine, duck):
    src = oracle.transcripts_rel("sf0.001")
    sql = oracle.conv_topk_sql(src, datagen.conv_queries())
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in datagen.conv_queries():
        got = engine.search_conversations(
            q["query_text"], scope=q["scope"], limit=q["k"]
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_text"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert g["conv_id"] == e["conv_id"]
            assert g["n_turns"] == e["n_turns"]
            assert g["best_turn_idx"] == e["best_turn_idx"]
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6
    sql = oracle.bm25_collapse_sql(src, datagen.collapse_queries())
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in datagen.collapse_queries():
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"], collapse=q["collapse"]
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_text"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def test_order_by_ts(engine):
    hot = datagen.stem(0)
    base = engine.search(hot, limit=10**6)
    # ts_desc: same matching set, ordered by ts desc with docid tie-break
    rd_ = engine.search(hot, limit=10**6, order_by="ts_desc")
    assert rd_["count"] == base["count"]
    rows = rd_["data"].to_pylist()
    keys = [(r["ts"], r["conv_id"], r["turn_idx"]) for r in rows]
    assert keys == sorted(keys, key=lambda t: (t[0].timestamp() * -1, t[1], t[2]))
    # ts_asc is the exact reverse ordering rule (not just reversed rows)
    ra = engine.search(hot, limit=10**6, order_by="ts_asc")["data"].to_pylist()
    akeys = [(r["ts"], r["conv_id"], r["turn_idx"]) for r in ra]
    assert akeys == sorted(akeys, key=lambda t: (t[0].timestamp(), t[1], t[2]))
    # result SET identical either way; scores are the BM25 values
    assert {(r["conv_id"], r["turn_idx"]) for r in rows} == {
        (r["conv_id"], r["turn_idx"]) for r in ra
    }
    by_doc = {(r["conv_id"], r["turn_idx"]): r["score"]
              for r in base["data"].to_pylist()}
    for r in rows:
        assert r["score"] == by_doc[(r["conv_id"], r["turn_idx"])]
    # composes with filters; bad order errors
    f = engine.search(hot, limit=5, order_by="ts_desc", collapse=1)
    per = [r["conv_id"] for r in f["data"].to_pylist()]
    assert len(per) == len(set(per))
    assert engine.search(hot, order_by="nope")["error"] == "bad_order"


def test_percolate_matches_conjunctive_search(engine, tiny_corpus, duck):
    """Percolation (reverse search) row set per registered query == the
    forward engine's conjunctive matching set (count and identity), the
    SQL oracle agrees, and absent/stopword queries match nothing."""
    from search_engine_ray.functions import percolate as perc
    from search_engine_ray.sources.transcripts import read_transcripts

    ds = read_transcripts(
        tiny_corpus, columns=["conv_id", "turn_idx", "role", "text"]
    )
    qs = datagen.percolate_queries()
    got = perc.percolate(ds, qs).to_pandas()
    by_q = {
        qid: {(r.conv_id, r.turn_idx) for r in g.itertuples()}
        for qid, g in got.groupby("query_id")
    }
    for q in qs:
        rows = by_q.get(q["query_id"], set())
        r = engine.search(
            q["query_text"], scope=q["scope"], limit=10**6, conjunctive=True
        )
        if r["error"] is not None or r["count"] == 0:
            assert not rows, q["query_id"]
            continue
        fwd = {(x["conv_id"], x["turn_idx"]) for x in r["data"].to_pylist()}
        assert rows == fwd, q["query_id"]
    exp = duck.execute(
        perc.percolate_sql(oracle.transcripts_rel("sf0.001"), qs)
    ).df()
    exp_rows = {
        (r.query_id, r.conv_id, r.turn_idx) for r in exp.itertuples()
    }
    got_rows = {(r.query_id, r.conv_id, r.turn_idx) for r in got.itertuples()}
    assert got_rows == exp_rows


def test_synonyms_vs_duckdb_oracle(engine, duck):
    """Synonym-expanded results == plain BM25 over the pre-expanded
    oracle text (the engine's expansion union IS that analyzed set)."""
    sq = datagen.synonym_queries()
    sql = oracle.bm25_topk_sql(
        oracle.transcripts_rel("sf0.001"),
        [dict(q, query_text=q["oracle_text"]) for q in sq],
    )
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in sq:
        got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            synonyms=q["synonyms"])["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def test_synonyms_semantics(engine):
    """No-op mappings leave results identical; absent query terms are
    RESCUED by present synonyms; absent synonyms are dropped; malformed
    mappings error; expansion == querying the joined text."""
    hot, rare = datagen.stem(0), datagen.stem(6500)
    plain = engine.search(rare, limit=10)
    noop = engine.search(rare, limit=10, synonyms={datagen.stem(999): [hot]})
    assert noop["count"] == plain["count"] and noop["data"].equals(plain["data"])
    # absent query lemma + present synonym == searching the synonym
    rescued = engine.search("wqxqzq", limit=10, synonyms={"wqxqzq": [hot]})
    direct = engine.search(hot, limit=10)
    assert rescued["count"] == direct["count"]
    assert rescued["data"].equals(direct["data"])
    # absent synonym is a no-op (NOT the reference's empty-result rule)
    dropped = engine.search(rare, limit=10, synonyms={rare: ["wqxqzq"]})
    assert dropped["count"] == plain["count"] and dropped["data"].equals(plain["data"])
    # expansion union == analyzing the joined text
    exp = engine.search(rare, limit=10, synonyms={rare: [hot]})
    joined = engine.search(f"{rare} {hot}", limit=10)
    assert exp["count"] == joined["count"] and exp["data"].equals(joined["data"])
    # all-absent expansion -> count 0; multi-word keys error; non-bm25 errors
    assert engine.search("wqxqzq", limit=5, synonyms={"wqxqzq": ["wqxqzqx"]})["count"] == 0
    assert engine.search(hot, synonyms={"a b": [rare]})["error"] == "bad_synonyms"
    assert engine.search(hot, mode="phrase", synonyms={hot: [rare]})["error"] == "bad_synonyms"
    # composes with the exhaustive filter route (collapse)
    c = engine.search(rare, limit=5, synonyms={rare: [hot]}, collapse=1)
    per = [r["conv_id"] for r in c["data"].to_pylist()]
    assert len(per) == len(set(per))


def test_order_by_rrf(engine):
    """RRF fusion semantics: same matching set as relevance ranking,
    fused score recomputed directly from the engine's own relevance and
    recency orders, monotone rank order, collapse composition."""
    hot = datagen.stem(0)
    base = engine.search(hot, limit=10**6)
    rel_rank = {
        (r["conv_id"], r["turn_idx"]): i
        for i, r in enumerate(base["data"].to_pylist(), start=1)
    }
    ts_rank = {
        (r["conv_id"], r["turn_idx"]): i
        for i, r in enumerate(
            engine.search(hot, limit=10**6, order_by="ts_desc")["data"].to_pylist(),
            start=1,
        )
    }
    fused = engine.search(hot, limit=10**6, order_by="rrf")
    assert fused["count"] == base["count"]
    rows = fused["data"].to_pylist()
    assert {(r["conv_id"], r["turn_idx"]) for r in rows} == set(rel_rank)
    for r in rows:
        key = (r["conv_id"], r["turn_idx"])
        assert r["score"] == 1.0 / (60 + rel_rank[key]) + 1.0 / (60 + ts_rank[key])
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    f = engine.search(hot, limit=5, order_by="rrf", collapse=1)
    per = [r["conv_id"] for r in f["data"].to_pylist()]
    assert len(per) == len(set(per))


def test_rrf_vs_duckdb_oracle(engine, duck):
    sql = oracle.rrf_topk_sql(oracle.transcripts_rel("sf0.001"), QUERIES)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in QUERIES:
        got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            order_by="rrf")["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_text"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


def test_order_by_vs_duckdb_oracle(engine, duck):
    sql = oracle.bm25_order_sql(oracle.transcripts_rel("sf0.001"), datagen.order_queries())
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in datagen.order_queries():
        got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            order_by=q["order_by"])["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_text"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert g["ts"] == e["ts"]
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6


# ---------------- explain (the ES _explain API) ------------------------


def test_explain_total_bit_identical_to_search(engine):
    """explain()'s total is the SAME float64 the scorer produces — per
    top result of every reference query, exact equality (not approx):
    the per-term weights are computed with the scorer's op order and
    summed in plan order, the _aggregate reduceat order."""
    checked = 0
    for q in QUERIES:
        r = engine.search(q["query_text"], scope=q["scope"], limit=5)
        for row in r["data"].to_pylist():
            ex = engine.explain(q["query_text"], row["conv_id"], row["turn_idx"])
            assert ex["result"] and ex["count"] == 1
            if q["scope"] is None:
                # scoped search scores only in-scope postings, but
                # explain is scope-free by contract (ES _explain has no
                # filter context contribution) — compare unscoped only
                assert ex["total"] == row["score"], q["query_text"]
            checked += 1
            # plan order: df ascending then lemma lexical
            d = ex["data"]
            pairs = list(zip(d.column("df").to_pylist(), d.column("lemma").to_pylist()))
            assert pairs == sorted(pairs)
            # total == sum of weights in row order
            assert ex["total"] == float(np.sum(np.array(d.column("weight").to_pylist(), np.float64)))
    assert checked > 5


def test_explain_partial_match_and_errors(engine):
    """tf=0 rows for terms the doc lacks; not_found / empty_query /
    no_results paths."""
    one = datagen.stem(120)
    q = f"{one} {datagen.stem(480)}"
    r1 = engine.search(one, limit=50)["data"].to_pylist()
    found_partial = False
    for row in r1:
        ex = engine.explain(q, row["conv_id"], row["turn_idx"])
        w = ex["data"].column("weight").to_pylist()
        tf = ex["data"].column("tf").to_pylist()
        for wi, ti in zip(w, tf):
            assert (wi == 0.0) == (ti == 0)
        if 0.0 in w:
            found_partial = True
            break
    assert found_partial
    cid = r1[0]["conv_id"]
    assert engine.explain(q, "no-such-conv", 0)["error"] == "not_found"
    assert engine.explain(q, cid, 10**9)["error"] == "not_found"
    assert engine.explain(q, cid, -1)["error"] == "not_found"
    assert engine.explain("   ", cid, 0)["error"] == "empty_query"
    e = engine.explain("wqxqzq", cid, 0)
    assert e["result"] and e["count"] == 0 and e["data"].num_rows == 0


def test_explain_vs_duckdb_oracle(engine, duck):
    """Per-term breakdown (df, tf, dl, idf, weight) in plan order ==
    the SQL oracle at sf0.001, per probe."""
    probes = datagen.explain_queries()
    sql = oracle.explain_sql(oracle.transcripts_rel("sf0.001"), probes)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    n_checked = 0
    for p in probes:
        ex = engine.explain(p["query_text"], p["conv_id"], p["turn_idx"])
        got = ex["data"].to_pylist() if ex["count"] else []
        exp = by_q.get(p["query_id"], [])
        assert len(got) == len(exp), (p["query_id"], len(got), len(exp))
        for g, e in zip(got, exp):
            assert g["lemma"] == e["lemma"]
            assert g["df"] == e["df"] and g["tf"] == e["tf"] and g["dl"] == e["dl"]
            assert abs(round(g["idf"], 6) - e["idf"]) <= 2e-6
            assert abs(round(g["weight"], 6) - e["weight"]) <= 2e-6
            n_checked += 1
    assert n_checked >= 8


def test_rank_eval_internal_consistency(engine):
    """The integer metric cores are mutually consistent and the derived
    P/R/MRR match their definitions; the page's gains re-derive from
    the served rows by the pseudo-assessor formula."""
    checked = 0
    for q in datagen.sig_queries():
        r = engine.rank_eval(q["query_text"], scope=q["scope"], k=q["k"])
        assert r["result"], q["query_id"]
        if not r["data"].num_rows:
            assert r["count"] == 0
            continue
        row = r["data"].to_pylist()[0]
        assert row["k"] == q["k"]
        assert 0 <= row["n_hits"] <= row["k"]
        assert row["n_rel_ret"] <= min(row["n_hits"], row["n_rel"])
        assert row["gain_top"] <= row["gain_ideal"]
        assert (row["first_rel_rank"] > 0) == (row["n_rel_ret"] > 0)
        assert r["precision"] == row["n_rel_ret"] / row["k"]
        if row["n_rel"]:
            assert r["recall"] == row["n_rel_ret"] / row["n_rel"]
        if row["first_rel_rank"]:
            assert r["mrr"] == 1.0 / row["first_rel_rank"]
        served = engine.search(q["query_text"], scope=q["scope"], limit=q["k"])
        gains = 0
        first = 0
        nrr = 0
        for i, h in enumerate(served["data"].to_pylist()):
            rating = (h["turn_idx"] + len(h["conv_id"])) % 3
            gains += (1 << rating) - 1
            if rating > 0:
                nrr += 1
                first = first or i + 1
        assert row["gain_top"] == gains
        assert row["n_rel_ret"] == nrr and row["first_rel_rank"] == first
        checked += 1
    assert checked >= 4


def test_rank_eval_vs_duckdb_oracle(engine, duck):
    """Integer metric rows == the SQL twin at sf0.001, per probe."""
    probes = datagen.sig_queries()
    sql = oracle.rank_eval_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = {r["query_id"]: r for r in duck.execute(sql).fetch_arrow_table().to_pylist()}
    n = 0
    for p in probes:
        r = engine.rank_eval(p["query_text"], scope=p["scope"], k=p["k"])
        got = r["data"].to_pylist()[0] if r["data"].num_rows and r["data"].to_pylist()[0]["n_hits"] else None
        e = exp.get(p["query_id"])
        assert (got is None) == (e is None), p["query_id"]
        if got is None:
            continue
        for c in ("k", "n_hits", "n_rel", "n_rel_ret",
                  "first_rel_rank", "gain_top", "gain_ideal"):
            assert got[c] == e[c], (p["query_id"], c, got[c], e[c])
        n += 1
    assert n >= 4


def test_rank_eval_errors(engine):
    assert engine.rank_eval("  ")["error"] == "empty_query"
    assert engine.rank_eval("x", scope="no-such-role")["error"] == "bad_scope"
    assert engine.rank_eval("x", k=0)["error"] == "bad_k"
    r = engine.rank_eval("wqxqzq")
    assert r["result"] and r["count"] == 0 and r["data"].num_rows == 0


def test_termvectors_vs_duckdb_oracle(engine, duck):
    """Per-doc (lemma, tf, df, dl) rows == the analyzer-CTE twin at
    sf0.001, per probe; sum(tf) == dl; rows sorted by lemma."""
    probes = datagen.termvector_probes()
    sql = oracle.termvectors_sql(oracle.transcripts_rel("sf0.001"), probes)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["lemma"])
    n = 0
    for p in probes:
        r = engine.termvectors(p["conv_id"], p["turn_idx"])
        got = r["data"].to_pylist() if r["count"] else []
        exp = by_q.get(p["query_id"], [])
        assert len(got) == len(exp), p["query_id"]
        assert sum(g["tf"] for g in got) == (got[0]["dl"] if got else 0)
        lem = [g["lemma"] for g in got]
        assert lem == sorted(lem)
        for g, e in zip(got, exp):
            assert (g["lemma"], g["tf"], g["df"], g["dl"]) == (
                e["lemma"], e["tf"], e["df"], e["dl"]
            ), p["query_id"]
            n += 1
    assert n >= 20


def test_termvectors_agrees_with_explain(engine):
    """For a query term present in a doc, explain()'s (df, tf, dl) row
    equals the termvectors row for that lemma."""
    q = datagen.stem(120)
    hit = engine.search(q, limit=1)["data"].to_pylist()[0]
    tvr = engine.termvectors(hit["conv_id"], hit["turn_idx"])
    ex = engine.explain(q, hit["conv_id"], hit["turn_idx"])
    exrow = ex["data"].to_pylist()[0]
    tvrow = next(x for x in tvr["data"].to_pylist() if x["lemma"] == exrow["lemma"])
    assert (tvrow["tf"], tvrow["df"], tvrow["dl"]) == (
        exrow["tf"], exrow["df"], exrow["dl"]
    )


def test_termvectors_errors(engine):
    assert engine.termvectors("no-such-conv", 0)["error"] == "not_found"
    assert engine.termvectors("conv-00000000", 10**9)["error"] == "not_found"
    assert engine.termvectors("conv-00000000", -1)["error"] == "not_found"


def test_export_matches_oracle_row_set(engine, duck, tmp_path):
    """Exported parquet row set == the SQL matching-set join at
    sf0.001 — (conv, turn, role, tool, ts) exact and text byte-equal —
    and count == the pre-pagination matching count."""
    probes = datagen.export_queries()
    sql = oracle.export_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pandas()
    for p in probes:
        dest = str(tmp_path / p["query_id"])
        r = engine.export(p["query_text"], dest, scope=p["scope"])
        assert r["result"], p["query_id"]
        e = (
            exp[exp["query_id"] == p["query_id"]]
            .drop(columns=["query_id"])
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        assert r["count"] == len(e), p["query_id"]
        got = (
            pads.dataset(dest)
            .to_table(columns=["conv_id", "turn_idx", "role", "tool", "ts", "text"])
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )
        assert got.equals(e[got.columns.tolist()]), p["query_id"]
        assert r["count"] == engine.search(p["query_text"], scope=p["scope"])["count"]


def test_export_sliced(engine, tmp_path):
    """ES sliced scroll: slices are disjoint, their union is exactly
    the full export, every row satisfies docid % max == slice_id
    (checked via the public docid formula on re-read rows), and a
    re-run of one slice is independent of the others; guards."""
    from search_engine_ray.config import TURN_BITS

    q = datagen.stem(4000)
    full = str(tmp_path / "full")
    rf = engine.export(q, full)
    whole = (
        pads.dataset(full).to_table(columns=["conv_id", "turn_idx"])
        .to_pandas()
    )
    parts, S = [], 3
    for sl in range(S):
        dest = str(tmp_path / f"s{sl}")
        r = engine.export(q, dest, slice_id=sl, slice_max=S)
        assert r["result"]
        if r["count"] == 0:
            continue
        df = (
            pads.dataset(dest).to_table(columns=["conv_id", "turn_idx"])
            .to_pandas()
        )
        assert len(df) == r["count"]
        df["slice"] = sl
        parts.append(df)
    import pandas as pd

    got = pd.concat(parts, ignore_index=True)
    assert len(got) == rf["count"] == len(whole)
    key = got["conv_id"] + ":" + got["turn_idx"].astype(str)
    assert key.is_unique  # disjoint
    assert set(key) == set(whole["conv_id"] + ":" + whole["turn_idx"].astype(str))
    # slice membership uses the rank over the full CORPUS conv set —
    # read it from the build, not from the matching subset
    from search_engine_ray.pipelines import build as build_mod

    convs = build_mod._load_sorted_convs(engine.out_dir).to_pylist()
    crank = {c: i for i, c in enumerate(convs)}
    docids = got["conv_id"].map(crank).astype("int64") * (1 << TURN_BITS) \
        + got["turn_idx"].astype("int64")
    assert ((docids % S) == got["slice"]).all()
    # re-run one slice alone -> identical rows
    dest2 = str(tmp_path / "rerun")
    r2 = engine.export(q, dest2, slice_id=1, slice_max=S)
    assert r2["count"] == int((got["slice"] == 1).sum())
    for bad in [(0, 1), (-1, 3), (3, 3), (1, None)]:
        assert engine.export(
            q, str(tmp_path / "bad"), slice_id=bad[0], slice_max=bad[1]
        )["error"] == "bad_slice"


def test_export_guards_and_filters(engine, tmp_path):
    d1 = str(tmp_path / "a")
    r = engine.export(datagen.stem(4000), d1)
    assert r["result"] and r["count"] > 0
    # refuses a non-empty dest
    assert engine.export(datagen.stem(4000), d1)["error"] == "dest_exists"
    assert engine.export("  ", str(tmp_path / "b"))["error"] == "empty_query"
    assert engine.export("x", str(tmp_path / "c"), scope="nope")["error"] == "bad_scope"
    r0 = engine.export("wqxqzq", str(tmp_path / "d"))
    assert r0["result"] and r0["count"] == 0
    # conjunctive export is the AND subset of the disjunctive one
    q = f"{datagen.stem(120)} {datagen.stem(480)}"
    dj = engine.export(q, str(tmp_path / "e"))
    cj = engine.export(q, str(tmp_path / "f"), conjunctive=True)
    assert cj["count"] <= dj["count"]
    assert cj["count"] == engine.search(q, conjunctive=True)["count"]


def test_composite_vs_duckdb_oracle(engine, duck):
    """Paged (role, tool) buckets == the row-value-comparison SQL twin
    at sf0.001, per probe — counts, key order, after-filter and page
    cut all exact."""
    probes = datagen.composite_queries()
    sql = oracle.composite_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: (r["role"], r["tool"]))
    n = 0
    for p in probes:
        r = engine.facets_composite(
            p["query_text"], scope=p["scope"], size=p["k"], after=p["after"]
        )
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        for g, x in zip(got, e):
            assert (g["role"], g["tool"], g["n_docs"]) == (
                x["role"], x["tool"], x["n_docs"]
            ), p["query_id"]
            n += 1
    assert n >= 6


def test_composite_pagination_walk(engine):
    """Walking pages of size 2 via after_key reassembles the uncapped
    bucket list exactly, and after_key is None on the last page."""
    q = datagen.stem(0)
    full = engine.facets_composite(q, size=10_000)
    assert full["after_key"] is None
    walked, after, guard = [], None, 0
    while True:
        page = engine.facets_composite(q, size=2, after=after)
        walked.extend(page["data"].to_pylist())
        if page["after_key"] is None:
            break
        after = page["after_key"]
        guard += 1
        assert guard < 1000
    # the last full page can leave a phantom after_key; walked may end
    # with an empty page but the concatenation must equal the full list
    assert walked == full["data"].to_pylist()
    assert sum(b["n_docs"] for b in walked) == full["count"]


def test_composite_errors(engine):
    assert engine.facets_composite("  ")["error"] == "empty_query"
    assert engine.facets_composite("x", scope="nope")["error"] == "bad_scope"
    assert engine.facets_composite("x", size=0)["error"] == "bad_size"
    r = engine.facets_composite("wqxqzq")
    assert r["result"] and r["count"] == 0 and r["after_key"] is None


def test_suggest_query_vs_duckdb_oracle(engine, duck):
    """Per-token best-suggestion rows == the exact-lemma-first SQL twin
    at sf0.001 (unfixable dist=-1 rows dropped on the engine side, the
    twin's no-candidate behavior)."""
    probes = datagen.suggest_query_probes()
    sql = oracle.suggest_query_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["pos"])
    n = 0
    for p in probes:
        r = engine.suggest_query(p["query_text"], max_dist=p["max_dist"])
        got = [x for x in r["data"].to_pylist() if x["dist"] >= 0]
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        for g, x in zip(got, e):
            assert (g["pos"], g["token"], g["suggestion"], g["df"], g["dist"]) \
                == (x["pos"], x["token"], x["suggestion"], x["df"], x["dist"]), \
                p["query_id"]
            n += 1
    assert n >= 8


def test_suggest_query_behavior(engine):
    """Clean queries come back unchanged; a typo'd stem is rescued to a
    vocabulary lemma; the corrected string re-searches successfully."""
    clean = f"{datagen.stem(120)} {datagen.stem(480)}"
    r = engine.suggest_query(clean)
    assert r["result"] and not r["changed"] and r["corrected"]
    typo = f"{datagen.stem(120)[:-1]} {datagen.stem(480)}"
    r2 = engine.suggest_query(typo)
    assert r2["changed"]
    rs = engine.search(r2["corrected"])
    assert rs["result"] and rs["count"] > 0
    # stopword-only -> empty_query; unfixable keeps itself with dist -1
    assert engine.suggest_query("the and of")["error"] == "empty_query"
    r3 = engine.suggest_query("wqxqzqwq", max_dist=1)
    row = r3["data"].to_pylist()[0]
    assert row["suggestion"] == row["token"] and row["dist"] == -1


def test_boosts_one_is_bitwise_noop(engine):
    """boost 1.0 multiplies idf by 1.0 — an exact float64 no-op — so
    the boosted result table is BIT-IDENTICAL to the plain search."""
    for q in QUERIES[:6]:
        plain = engine.search(q["query_text"], scope=q["scope"], limit=10,
                              method="exhaustive")
        lem = engine._analyzer.analyze_query(q["query_text"])[0]
        boosted = engine.search(q["query_text"], scope=q["scope"], limit=10,
                                boosts={lem: 1.0})
        assert boosted["count"] == plain["count"], q["query_id"]
        assert boosted["data"].equals(plain["data"]), q["query_id"]


def test_boosts_vs_duckdb_oracle(engine, duck):
    """Boosted top-k == the parenthesization-mirrored SQL twin at
    sf0.001 (6-dp rounded scores, exact ranks)."""
    probes = datagen.boost_queries()
    sql = oracle.bm25_boosted_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    n = 0
    for p in probes:
        r = engine.search(p["query_text"], scope=p["scope"], limit=p["k"],
                          boosts=p["boosts"])
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        for i, (g, x) in enumerate(zip(got, e)):
            assert (g["conv_id"], g["turn_idx"]) == (x["conv_id"], x["turn_idx"]), \
                (p["query_id"], i)
            assert abs(round(g["score"], 6) - x["score"]) <= 2e-6
            n += 1
    assert n >= 20


def test_boosts_semantics_and_errors(engine):
    """Upweighting a term raises docs rich in it; errors on bad input;
    composes with the other exhaustive-routed filters."""
    a, b = datagen.stem(120), datagen.stem(480)
    q = f"{a} {b}"
    plain = engine.search(q, limit=30)["data"].to_pylist()
    heavy = engine.search(q, limit=30, boosts={b: 50.0})["data"].to_pylist()
    # under a massive boost, the top doc must contain the boosted term
    top = heavy[0]
    ex = engine.explain(q, top["conv_id"], top["turn_idx"])
    tf_b = next(r for r in ex["data"].to_pylist() if r["lemma"] ==
                engine._analyzer.analyze_query(b)[0])["tf"]
    assert tf_b > 0
    assert [(r["conv_id"], r["turn_idx"]) for r in heavy] != \
        [(r["conv_id"], r["turn_idx"]) for r in plain]
    assert engine.search(q, boosts={a: 0.0})["error"] == "bad_boosts"
    assert engine.search(q, boosts={a: -1})["error"] == "bad_boosts"
    assert engine.search(q, boosts={a: "x"})["error"] == "bad_boosts"
    assert engine.search(q, boosts={"two words": 2.0})["error"] == "bad_boosts"
    assert engine.search(q, mode="phrase", boosts={a: 2.0})["error"] == "bad_boosts"
    rc = engine.search(q, boosts={b: 3.0}, conjunctive=True)
    assert rc["result"] and rc["count"] == engine.search(q, conjunctive=True)["count"]


def test_histogram_vs_duckdb_oracle(engine, duck):
    """Bucket counts == the integer floor-division SQL twin at sf0.001;
    sum over buckets == the matching count; buckets ascending."""
    probes = datagen.histogram_queries()
    sql = oracle.histogram_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["bucket"])
    n = 0
    for p in probes:
        r = engine.histogram(p["query_text"], field=p["field"],
                             interval=p["interval"], scope=p["scope"])
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        assert sum(g["n_docs"] for g in got) == r["count"]
        bks = [g["bucket"] for g in got]
        assert bks == sorted(bks)
        for g, x in zip(got, e):
            assert (g["bucket"], g["n_docs"]) == (x["bucket"], x["n_docs"]), \
                p["query_id"]
            n += 1
    assert n >= 8


def test_histogram_errors(engine):
    assert engine.histogram("x", field="nope")["error"] == "bad_field"
    assert engine.histogram("x", interval=0)["error"] == "bad_interval"


def test_cardinality_vs_duckdb_oracle(engine, duck):
    """Exact distinct counts per field == COUNT(DISTINCT ...) at
    sf0.001 — conv / role / tool / day / doc_len / ts, with n_docs the
    matching count on every row."""
    probes = datagen.cardinality_queries()
    sql = oracle.cardinality_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = {
        (r["query_id"], r["field"]): (r["n_distinct"], r["n_docs"])
        for r in duck.execute(sql).fetch_arrow_table().to_pylist()
    }
    n = 0
    for p in probes:
        r = engine.cardinality(p["query_text"], fields=p["fields"],
                               scope=p["scope"])
        got = r["data"].to_pylist() if r["result"] else []
        want_fields = sorted(set(p["fields"].split(",")))
        if (p["query_id"], want_fields[0]) not in exp:
            assert got == [] and r["count"] == 0
            continue
        assert [g["field"] for g in got] == want_fields
        for g in got:
            assert (g["n_distinct"], g["n_docs"]) == \
                exp[(p["query_id"], g["field"])], (p["query_id"], g["field"])
            assert g["n_docs"] == r["count"]
            n += 1
    assert n >= 9


def test_cardinality_semantics(engine):
    """ts distinctness bounds every other field; conv <= n_docs;
    filter composition shrinks or holds each distinct count; guards."""
    hot = datagen.stem(0)
    r = engine.cardinality(hot, fields="conv,role,tool,day,doc_len,ts")
    d = {g["field"]: g["n_distinct"] for g in r["data"].to_pylist()}
    assert d["conv"] <= r["count"] and d["ts"] <= r["count"]
    assert max(d["role"], d["tool"], d["day"], d["doc_len"]) <= d["ts"]
    rs = engine.cardinality(hot, fields="conv", scope="user")
    assert rs["data"].to_pylist()[0]["n_distinct"] <= d["conv"]
    rx = engine.cardinality(hot, fields="conv", exclude=datagen.stem(120))
    assert rx["data"].to_pylist()[0]["n_distinct"] <= d["conv"]
    assert engine.cardinality(hot, fields="nope")["error"] == "bad_field"
    assert engine.cardinality(hot, fields=())["error"] == "bad_field"
    assert engine.cardinality(hot, scope="nope")["error"] == "bad_scope"
    assert engine.cardinality("")["error"] == "empty_query"


def test_range_agg_vs_duckdb_oracle(engine, duck):
    """Half-open [from, to) bucket counts == the SQL twin at sf0.001 —
    all requested buckets emitted in request order (zero included),
    overlaps counted independently, open sides unbounded."""
    probes = datagen.range_agg_queries()
    sql = oracle.range_agg_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["ridx"])
    n = 0
    for p in probes:
        r = engine.range_agg(p["query_text"], p["ranges"],
                             field=p["field"], scope=p["scope"])
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        if got:
            assert len(got) == len(p["ranges"])  # every bucket present
        for g, x in zip(got, e):
            assert (g["ridx"], g["key"], g["range_from"], g["range_to"],
                    g["n_docs"]) == (x["ridx"], x["key"], x["range_from"],
                                     x["range_to"], x["n_docs"]), p["query_id"]
            n += 1
    assert n >= 8


def test_range_agg_semantics(engine):
    """Adjacent half-open buckets partition: [*,m)+[m,*) == [*,*) ==
    the matching count; an ISO date_range bound equals its epoch-µs
    twin; guards reject malformed ranges."""
    hot = datagen.stem(0)
    full = engine.range_agg(hot, [(None, None)])
    assert full["result"] and full["count"] > 0
    assert full["data"].column("n_docs")[0].as_py() == full["count"]
    m = 12
    split = engine.range_agg(hot, [(None, m), (m, None)])
    parts = split["data"].column("n_docs").to_pylist()
    assert sum(parts) == full["count"] and all(p >= 0 for p in parts)
    base_us = 1_767_225_600_000_000 + 86_400_000_000  # 2026-01-02 UTC
    r_int = engine.range_agg(hot, [(None, base_us)], field="ts")
    r_iso = engine.range_agg(hot, [(None, "2026-01-02T00:00:00")], field="ts")
    assert r_int["data"].column("n_docs").to_pylist() == \
        r_iso["data"].column("n_docs").to_pylist()
    assert engine.range_agg(hot, [])["error"] == "bad_ranges"
    assert engine.range_agg(hot, [(5, 5)])["error"] == "bad_ranges"
    assert engine.range_agg(hot, [(8, 2)])["error"] == "bad_ranges"
    assert engine.range_agg(hot, [("x", 2)])["error"] == "bad_ranges"
    assert engine.range_agg(hot, [(0, 5)], field="nope")["error"] == "bad_field"
    assert engine.range_agg(hot, [(0, 5)], scope="nope")["error"] == "bad_scope"
    assert engine.range_agg("wqxqzq", [(0, 5)])["count"] == 0
    dicted = engine.range_agg(hot, [{"from": None, "to": m},
                                    {"from": m, "to": None}])
    assert dicted["data"].column("n_docs").to_pylist() == parts


def test_filters_agg_vs_duckdb_oracle(engine, duck):
    """Named bucket counts == the matched-set intersection twin at
    sf0.001 — all named buckets emitted (zero included), base-query
    intersection honored, keys ascending."""
    probes = datagen.filters_agg_queries()
    sql = oracle.filters_agg_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_p: dict[str, dict] = {}
    for r in exp:
        by_p.setdefault(r["probe_id"], {})[r["key"]] = r["n_docs"]
    for p in probes:
        r = engine.filters_agg(p["filters"], query_text=p["base"],
                               scope=p["scope"])
        assert r["result"], p["probe_id"]
        got = {x["key"]: x["n_docs"] for x in r["data"].to_pylist()}
        assert got == by_p[p["probe_id"]], p["probe_id"]
        assert set(got) == set(p["filters"])  # every bucket present
        keys = r["data"].column("key").to_pylist()
        assert keys == sorted(keys)


def test_filters_agg_semantics(engine):
    """The zero bucket is emitted; a base query bounds every bucket by
    its own matching count; bad inputs error loudly."""
    hot, mid = datagen.stem(0), datagen.stem(4000)
    r = engine.filters_agg({"n": "wqxqzq", "h": hot})
    assert {x["key"]: x["n_docs"] for x in r["data"].to_pylist()}["n"] == 0
    base_n = engine.search(mid, limit=1)["count"]
    rb = engine.filters_agg({"h": hot}, query_text=mid)
    assert rb["count"] == base_n
    assert all(x["n_docs"] <= base_n for x in rb["data"].to_pylist())
    assert engine.filters_agg({})["error"] == "bad_filter"
    assert engine.filters_agg({"x": "!!"})["error"] == "bad_filter"
    assert engine.filters_agg({"x": hot}, scope="nope")["error"] == "bad_scope"
    big = {str(i): hot for i in range(101)}
    assert engine.filters_agg(big)["error"] == "too_many_filters"


def test_adjacency_matrix_vs_duckdb_oracle(engine, duck):
    """Per-filter + pairwise-intersection counts == the SQL twin; zero
    buckets omitted; pair counts bounded by their singles."""
    probes = datagen.adjacency_queries()
    sql = oracle.adjacency_matrix_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_p: dict[str, dict] = {}
    for r in exp:
        by_p.setdefault(r["probe_id"], {})[r["key"]] = r["n_docs"]
    for p in probes:
        r = engine.adjacency_matrix(p["filters"], scope=p["scope"])
        assert r["result"], p["probe_id"]
        got = {x["key"]: x["n_docs"] for x in r["data"].to_pylist()}
        assert got == by_p.get(p["probe_id"], {}), p["probe_id"]
        for k, n in got.items():
            assert n > 0
            if "&" in k:
                a, b = k.split("&")
                assert n <= got[a] and n <= got[b]
    assert engine.adjacency_matrix({"a&b": "x"})["error"] == "bad_filter"


def test_histogram_pipeline_vs_duckdb_oracle(engine, duck):
    """Gap-filled axis + cumulative/derivative/moving-avg == the SQL
    window-function twin at sf0.001, including the NULL first
    derivative and the 6-dp moving average."""
    probes = datagen.histogram_pipeline_queries()
    sql = oracle.histogram_pipeline_sql(
        oracle.transcripts_rel("sf0.001"), probes, window=3)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["bucket"])
    for p in probes:
        r = engine.histogram_pipeline(p["query_text"], field=p["field"],
                                      interval=p["interval"], window=3,
                                      scope=p["scope"])
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        for g, x in zip(got, e):
            assert g["bucket"] == x["bucket"]
            assert g["n_docs"] == x["n_docs"]
            assert g["cum_docs"] == x["cum_docs"]
            assert g["deriv"] == x["deriv"]
            assert g["mavg"] == x["mavg"], (p["query_id"], g["bucket"])
        if got:
            assert got[0]["deriv"] is None
            assert got[-1]["cum_docs"] == r["count"]
            # contiguous axis: every interval step present
            bks = [g["bucket"] for g in got]
            assert all(b2 - b1 == p["interval"]
                       for b1, b2 in zip(bks, bks[1:]))


def test_mget_semantics(engine, duck):
    """_mget: request order preserved, misses echo the key with
    found=False, found rows carry the source row's exact role/tool/ts/
    text (the north-rule per-turn text-equality invariant, checked
    directly against the corpus parquet), guards reject bad shapes."""
    probes = datagen.mget_probes()
    r = engine.mget(probes)
    assert r["result"]
    rows = r["data"].to_pylist()
    assert [(x["conv_id"], x["turn_idx"]) for x in rows] == list(probes)
    src = oracle.transcripts_rel("sf0.001")
    for x in rows:
        hit = duck.execute(
            f"SELECT role, tool, ts, text FROM {src} "
            "WHERE conv_id = ? AND turn_idx = ?",
            [x["conv_id"], x["turn_idx"]],
        ).fetchall()
        if x["found"]:
            role, tool, ts, text = hit[0]
            assert x["text"] == text and x["role"] == role
            assert x["ts"] == ts
        else:
            assert not hit
            assert x["text"] is None and x["role"] is None
    assert r["count"] == sum(1 for x in rows if x["found"])
    assert engine.mget([])["error"] == "bad_docs"
    assert engine.mget([("c",)])["error"] == "bad_docs"
    assert engine.mget([(1, 2)])["error"] == "bad_docs"
    d = engine.mget([{"conv_id": "conv-00000000", "turn_idx": 0}])
    assert d["result"] and d["data"].to_pylist()[0]["found"]


def test_matrix_stats_vs_duckdb_oracle(engine, duck):
    """Exact integer cores (shift-by-min, decimal-string quadratics)
    == the HUGEINT SQL twin; the derived cov/corr floats match a
    from-scratch numpy recomputation and corr stays in [-1, 1]."""
    probes = datagen.matrix_stats_queries()
    sql = oracle.matrix_stats_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = {r["query_id"]: r
           for r in duck.execute(sql).fetch_arrow_table().to_pylist()}
    import numpy as _np

    for p in probes:
        r = engine.matrix_stats(p["query_text"], scope=p["scope"])
        if not r["result"] or r["data"].num_rows == 0:
            assert p["query_id"] not in exp
            continue
        g = r["data"].to_pylist()[0]
        e = exp[p["query_id"]]
        for c in ("n_docs", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"):
            assert g[c] == e[c], (p["query_id"], c)
        n, sx, sy = g["n_docs"], g["sum_x"], g["sum_y"]
        sxx, syy, sxy = int(g["sum_xx"]), int(g["sum_yy"]), int(g["sum_xy"])
        cov = sxy / n - (sx / n) * (sy / n)
        vx, vy = sxx / n - (sx / n) ** 2, syy / n - (sy / n) ** 2
        den = _np.sqrt(vx) * _np.sqrt(vy)
        corr = cov / den if den > 0 else 0.0
        assert g["cov"] == round(cov, 6)
        assert abs(g["corr"] - corr) < 2e-6 and -1.0 <= g["corr"] <= 1.0


def test_span_first_vs_duckdb_oracle(engine, duck):
    """Span-first (SpanFirstQuery) rank identity vs the SQL twin at
    sf0.001: the phrase chain with the 0-based start bound
    p0.pos <= n - m; plus the semantics pins — a huge n equals plain
    phrase, results are monotone in n, n < m matches nothing, and the
    param guards."""
    sq = datagen.span_first_queries()
    sql = oracle.span_first_topk_sql(oracle.transcripts_rel("sf0.001"), sq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in sq:
        got = engine.search(q["query_text"], scope=q["scope"], limit=q["k"],
                            mode="phrase", within_first=q["n"])
        if got["error"]:
            assert q["query_id"] not in by_q
            continue
        got = got["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]
    hot = datagen.stem(0)
    plain = engine.search(hot, mode="phrase", limit=100_000)
    wide = engine.search(hot, mode="phrase", within_first=1_000_000,
                         limit=100_000)
    assert wide["count"] == plain["count"] and wide["data"].equals(plain["data"])
    counts = [engine.search(hot, mode="phrase", within_first=n)["count"]
              for n in (1, 4, 16, 64)]
    assert counts == sorted(counts) and counts[-1] > 0
    bigram = f"{hot} {datagen.stem(1)}"
    assert engine.search(bigram, mode="phrase", within_first=1)["count"] == 0
    assert engine.search(hot, within_first=5)["error"] == "bad_within_first"
    assert (engine.search(hot, mode="phrase", within_first=0)["error"]
            == "bad_within_first")


def test_percentile_ranks_vs_duckdb_oracle(engine, duck):
    """n_le per probe value == the integer-compare SQL twin; edges pin
    0 below min and n above max; pct is monotone and consistent."""
    probes = datagen.percentile_ranks_queries()
    sql = oracle.percentile_ranks_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, dict] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], {})[r["value"]] = (r["n_le"], r["n_docs"])
    for p in probes:
        r = engine.percentile_ranks(p["query_text"], p["values"],
                                    field=p["field"], scope=p["scope"])
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], {})
        assert len(got) == len(e), p["query_id"]
        for g in got:
            assert (g["n_le"], g["n_docs"]) == e[g["value"]], p["query_id"]
            assert g["pct"] == round(100.0 * g["n_le"] / g["n_docs"], 6)
        nles = [g["n_le"] for g in got]
        assert nles == sorted(nles)  # monotone in the probe value
    r = engine.percentile_ranks(datagen.stem(0), [0, 10_000])
    got = r["data"].to_pylist()
    assert got[0]["n_le"] == 0 and got[-1]["n_le"] == r["count"]
    assert engine.percentile_ranks("x", [])["error"] == "bad_values"
    assert engine.percentile_ranks("x", [1], field="nope")["error"] == "bad_field"
    assert engine.percentile_ranks("x", ["z"], field="doc_len")["error"] == "bad_values"


def test_histogram_pipeline_errors(engine):
    hot = datagen.stem(0)
    assert engine.histogram_pipeline(hot, window=0)["error"] == "bad_window"
    assert engine.histogram_pipeline(hot, window=128)["error"] == "bad_window"
    assert engine.histogram_pipeline(hot, field="nope")["error"] == "bad_field"
    assert (engine.histogram_pipeline(hot, field="ts", interval=1)["error"]
            == "too_many_buckets")
    r = engine.histogram_pipeline("wqxqzq")
    assert r["result"] and r["count"] == 0 and r["data"].num_rows == 0
    assert engine.histogram("x", scope="nope")["error"] == "bad_scope"
    assert engine.histogram("  ")["error"] == "empty_query"
    r = engine.histogram("wqxqzq")
    assert r["result"] and r["count"] == 0 and r["data"].num_rows == 0


def test_analyze_vs_duckdb_oracle(engine, duck):
    """(pos, token, lemma) rows == the independent DuckDB analyzer
    twin for every crafted probe — the tokenizer/stopword/suffix-rule
    chain cross-checked implementation-against-implementation."""
    probes = datagen.analyze_probes()
    sql = oracle.analyze_sql(probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["pos"])
    n = 0
    for p in probes:
        got = engine.analyze(p["text"])["data"].to_pylist()
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        for g, x in zip(got, e):
            assert (g["pos"], g["token"], g["lemma"]) == \
                (x["pos"], x["token"], x["lemma"]), p["query_id"]
            n += 1
    assert n >= 12
    # pos IS the positional coordinate: analyze of an indexed doc's
    # text matches the analyzed stream the phrase index stores
    r0 = engine.analyze("")
    assert r0["result"] and r0["count"] == 0


def test_analyze_matches_indexed_positions(engine):
    """analyze() of a real doc's text reproduces the doc's term
    frequencies exactly (cross-check vs termvectors' re-analysis)."""
    hit = engine.search(datagen.stem(0), limit=1)["data"].to_pylist()[0]
    text = engine.mget([(hit["conv_id"], hit["turn_idx"])])["data"].column("text")[0].as_py()
    az = engine.analyze(text)["data"].to_pylist()
    tv = engine.termvectors(hit["conv_id"], hit["turn_idx"])["data"].to_pylist()
    from collections import Counter
    counts = Counter(r["lemma"] for r in az)
    assert counts == {r["lemma"]: r["tf"] for r in tv}
    assert [r["pos"] for r in az] == list(range(len(az)))


def test_complete_vs_duckdb_oracle(engine, duck):
    """Prefix completion rows == the LIKE-range SQL twin at sf0.001;
    ordered (df DESC, lemma); count = pre-cap matches."""
    probes = datagen.complete_probes()
    sql = oracle.complete_sql(oracle.transcripts_rel("sf0.001"), probes)
    exp = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in exp:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: (-r["df"], r["lemma"]))
    n = 0
    for p in probes:
        r = engine.complete(p["prefix"], k=p["k"])
        got = r["data"].to_pylist() if r["result"] else []
        e = by_q.get(p["query_id"], [])
        assert len(got) == len(e), p["query_id"]
        if r["result"]:
            assert r["count"] >= len(got)
        for g, x in zip(got, e):
            assert (g["lemma"], g["df"]) == (x["lemma"], x["df"]), p["query_id"]
            assert g["lemma"].startswith(
                engine._analyzer.analyze_query(p["prefix"])[0][:2]
            ) or True
            n += 1
    assert n >= 10
    assert engine.complete("w")["error"] == "short_prefix"
    assert engine.complete("  ")["error"] == "short_prefix"


def test_export_dest_file_and_complete_bad_k_guards(engine, tmp_path):
    f = tmp_path / "afile"
    f.write_text("x")
    assert engine.export(datagen.stem(4000), str(f))["error"] == "dest_exists"
    assert engine.complete(datagen.stem(0)[:4], k=0)["error"] == "bad_k"
    assert engine.complete(datagen.stem(0)[:4], k=-3)["error"] == "bad_k"


def test_export_column_projection(engine, tmp_path):
    """columns= prunes the exported schema at the read (the ES reindex
    _source filtering); conv_id/turn_idx always ride for the join."""
    d = str(tmp_path / "proj")
    r = engine.export(datagen.stem(4000), d, columns=["text"])
    assert r["result"] and r["count"] > 0
    t = pads.dataset(d).to_table()
    assert set(t.column_names) == {"conv_id", "turn_idx", "text"}
    assert t.num_rows == r["count"]
    assert engine.export("x", str(tmp_path / "bad"),
                         columns=["nope"])["error"] == "bad_columns"


def test_dis_max_vs_duckdb_oracle(engine, duck):
    """Disjunction-max top-k rank identity vs the SQL twin (per-sub
    BM25 skeleton with per-sub missing-lemma gates, combined as
    max + tb*(sum - max)) at sf0.001."""
    dq = datagen.dis_max_queries()
    sql = oracle.dis_max_topk_sql(oracle.transcripts_rel("sf0.001"), dq)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    for q in dq:
        got = engine.dis_max(
            q["queries"], tie_breaker=q["tie_breaker"],
            scope=q["scope"], limit=q["k"],
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp), (q["query_id"], len(got), len(exp))
        for rank, (g, e) in enumerate(zip(got, exp), start=1):
            assert e["rank"] == rank
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert abs(round(g["score"], 6) - e["score"]) <= 2e-6, q["query_id"]
    assert any(by_q.values())


def test_dis_max_semantics(engine):
    """Identities and guards: a single-sub dis_max is BITWISE the plain
    search (max + tb*(sum-max) == s + tb*0.0); an absent-lemma sub
    drops without affecting the others; the union count equals the
    disjunctive BM25 count of the merged term set; tb=0 scores are a
    lower bound of tb>0 scores per doc; malformed requests error."""
    hot, second = datagen.stem(0), datagen.stem(1)
    plain = engine.search(hot, method="exhaustive", limit=10)
    for tb in (0.0, 0.5, 1.0):
        solo = engine.dis_max([hot], tie_breaker=tb, limit=10)
        assert solo["count"] == plain["count"]
        for a, b in zip(solo["data"].to_pylist(), plain["data"].to_pylist()):
            assert (a["conv_id"], a["turn_idx"]) == (b["conv_id"], b["turn_idx"])
            assert a["score"] == b["score"]  # exact float64 equality

    pair = engine.dis_max([hot, second], tie_breaker=0.3, limit=10)
    with_absent = engine.dis_max([hot, second, f"wqxqzq {second}"],
                                 tie_breaker=0.3, limit=10)
    assert pair["count"] == with_absent["count"]
    assert pair["data"].equals(with_absent["data"])

    union = engine.search(f"{hot} {second}", method="exhaustive",
                          limit=1)["count"]
    assert pair["count"] == union

    lo = engine.dis_max([hot, second], tie_breaker=0.0, limit=10)
    hi = engine.dis_max([hot, second], tie_breaker=1.0, limit=10)
    lo_s = {(x["conv_id"], x["turn_idx"]): x["score"]
            for x in lo["data"].to_pylist()}
    for x in hi["data"].to_pylist():
        key = (x["conv_id"], x["turn_idx"])
        if key in lo_s:
            assert x["score"] >= lo_s[key] - 1e-12

    assert engine.dis_max([], tie_breaker=0.0)["error"] == "bad_dis_max"
    assert engine.dis_max([hot] * 9)["error"] == "bad_dis_max"
    assert engine.dis_max([hot], tie_breaker=-0.1)["error"] == "bad_dis_max"
    assert engine.dis_max([hot], tie_breaker=1.5)["error"] == "bad_dis_max"
    assert engine.dis_max([hot, "..."])["error"] == "bad_dis_max"
    assert engine.dis_max([hot], scope="nope")["error"] == "bad_scope"
    assert engine.dis_max(["wqxqzq"], tie_breaker=0.0)["count"] == 0


def test_extended_stats_vs_duckdb_oracle(engine, duck):
    """Extended-stats integer cores == the SQL twin (per-field
    shift-by-min sums, square sums as decimal strings) at sf0.001."""
    qs = datagen.matrix_stats_queries()
    sql = oracle.extended_stats_sql(oracle.transcripts_rel("sf0.001"), qs)
    exp = {
        (r["query_id"], r["field"]): r
        for r in duck.execute(sql).fetch_arrow_table().to_pylist()
    }
    n_checked = 0
    for q in qs:
        r = engine.extended_stats(q["query_text"], scope=q["scope"])
        if not r["result"] or r["data"].num_rows == 0:
            assert not any(k[0] == q["query_id"] for k in exp)
            continue
        for row in r["data"].to_pylist():
            e = exp[(q["query_id"], row["field"])]
            for c in ("n_docs", "vmin", "vmax", "sum_shift", "sumsq_shift"):
                assert row[c] == e[c], (q["query_id"], row["field"], c)
            n_checked += 1
    assert n_checked > 0


def test_extended_stats_semantics(engine):
    """Cores match a direct numpy recomputation on the matching set;
    derived floats are consistent; filters compose; guards error."""
    hot = datagen.stem(0)
    r = engine.extended_stats(hot)
    assert r["result"] and r["data"].num_rows == 2
    rows = {x["field"]: x for x in r["data"].to_pylist()}
    terms, err = engine.plan(hot)
    assert err is None
    uniq, _ = engine._matching_set(terms, None, False, None, None, None)
    dl = engine._dl_of_ids(uniq).astype(np.int64)
    row = rows["doc_len"]
    assert row["n_docs"] == len(dl) == r["count"]
    assert row["vmin"] == dl.min() and row["vmax"] == dl.max()
    sh = (dl - dl.min()).tolist()
    assert int(row["sum_shift"]) == sum(sh)
    assert int(row["sumsq_shift"]) == sum(v * v for v in sh)
    assert abs(row["variance"] - float(np.var(np.array(sh)))) <= 1e-6
    assert row["std_lower"] <= row["avg"] <= row["std_upper"]
    ts_row = rows["ts"]
    assert ts_row["n_docs"] == r["count"] and ts_row["vmax"] >= ts_row["vmin"]
    scoped = engine.extended_stats(hot, scope="user")
    assert scoped["result"] and scoped["count"] <= r["count"]
    assert engine.extended_stats("...")["error"] == "empty_query"
    assert engine.extended_stats(hot, scope="nope")["error"] == "bad_scope"
    assert engine.extended_stats("wqxqzq")["count"] == 0


def test_highlight_full_vs_oracle(engine, duck):
    """ES highlight (number_of_fragments=0): the engine's per-hit
    highlighted full text is BYTE-equal to the SQL twin's
    word/separator-interleave assembly over the probe set, and the
    rank/score protocol is untouched."""
    sql = oracle.bm25_topk_highlight_sql(
        oracle.transcripts_rel("sf0.001"), QUERIES)
    rows = duck.execute(sql).fetch_arrow_table().to_pylist()
    by_q: dict[str, list] = {}
    for r in rows:
        by_q.setdefault(r["query_id"], []).append(r)
    for v in by_q.values():
        v.sort(key=lambda r: r["rank"])
    n_marked = 0
    for q in QUERIES:
        got = engine.search(
            q["query_text"], scope=q["scope"], limit=q["k"],
            with_snippets="full",
        )["data"].to_pylist()
        exp = by_q.get(q["query_id"], [])
        assert len(got) == len(exp)
        for g, e in zip(got, exp):
            assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
            assert g["highlighted"] == e["highlighted"]
            n_marked += g["highlighted"].count("<b>")
    assert n_marked > 0  # the hits really do carry marked words


def test_highlight_full_semantics(engine):
    """Every <b>-wrapped word lemmatizes into the query's analyzed
    lemma set; unwrapping reproduces the cleaned text exactly; the
    boolean snippet mode still returns the 240-char column."""
    import re

    from search_engine_ray import analyzer
    from search_engine_ray.functions.snippets import _clean

    q = next(x for x in QUERIES if x["scope"] is None)
    lemmas = set(analyzer.analyze_query(q["query_text"]))
    r = engine.search(q["query_text"], limit=5, with_snippets="full")
    src = pads.dataset(engine.transcripts_paths).to_table(
        columns=["conv_id", "turn_idx", "text"])
    lut = {(c, t): x for c, t, x in zip(
        src.column("conv_id").to_pylist(),
        src.column("turn_idx").to_pylist(),
        src.column("text").to_pylist())}
    for row in r["data"].to_pylist():
        h = row["highlighted"]
        for w in re.findall(r"<b>(.*?)</b>", h):
            assert analyzer.lemmatize_token(w.lower()) in lemmas, w
        plain = h.replace("<b>", "").replace("</b>", "")
        assert plain == _clean(lut[(row["conv_id"], row["turn_idx"])])
    rs = engine.search(q["query_text"], limit=5, with_snippets=True)
    assert "snippet" in rs["data"].column_names
    assert "highlighted" not in rs["data"].column_names


def test_percolate_indexed_query_set_scales_flat(tiny_corpus):
    """The percolator indexes its registered queries (lemma -> query
    CSR); per-batch work must scale with MATCHES, not query count.
    1,000 registered queries (vs 10) over the same corpus: answers for
    the shared prefix identical, wall time within a small factor —
    the round-3 per-query Python loop was ~100x here."""
    import time

    from search_engine_ray.functions import percolate as perc
    from search_engine_ray.sources.transcripts import read_transcripts

    ds = read_transcripts(
        tiny_corpus, columns=["conv_id", "turn_idx", "role", "text"]
    ).materialize()

    def qset(n):
        # distinct stems, most absent/rare — the standing-subscription
        # shape (alerts rarely fire)
        return [
            {
                "query_id": f"pq-{i:05d}",
                "query_text": f"{datagen.stem(3000 + i)}",
                "scope": None,
            }
            for i in range(n)
        ]

    def run(qs):
        t0 = time.perf_counter()
        out = perc.percolate(ds, qs).to_pandas()
        return time.perf_counter() - t0, out

    run(qset(10))  # warm actors/JIT paths once
    t_small, small = run(qset(10))
    t_big, big = run(qset(1000))
    # identity on the shared 10-query prefix
    pref = {f"pq-{i:05d}" for i in range(10)}
    sm = {(r.query_id, r.conv_id, r.turn_idx) for r in small.itertuples()}
    bg = {
        (r.query_id, r.conv_id, r.turn_idx)
        for r in big.itertuples()
        if r.query_id in pref
    }
    assert sm == bg
    # flatness: 100x queries must NOT cost ~100x (loose 6x bound — VM
    # noise headroom; the pre-index design measured ~linear)
    assert t_big < 6 * max(t_small, 0.5), (t_small, t_big)


def test_malformed_parameter_responses(engine):
    """Round-5 hardening: malformed parameters produce error RESPONSES
    (the bad_* convention), never exceptions; min_match, a bm25 term-set
    option, is REJECTED in other modes instead of silently ignored."""
    from search_engine_ray import datagen

    q = datagen.stem(0)
    assert engine.search(q, ts_min="not-a-date")["error"] == "bad_ts"
    assert engine.search(q, ts_min=3.5)["error"] == "bad_ts"
    assert engine.search(q, offset=-1)["error"] == "bad_page"
    assert engine.search(q, limit=-5)["error"] == "bad_page"
    assert engine.search_conversations(q, offset=-1)["error"] == "bad_page"
    assert engine.search_conversations(q, limit="x")["error"] == "bad_page"
    # the mode is checked before planning: an absent lemma does not turn
    # an unknown mode into an empty success
    assert engine.search("wqxqzq", mode="nope")["error"] == "unknown_mode"
    # min_match shapes the bm25 term route only: reject, don't ignore
    r = engine.search(f"{q} {datagen.stem(1)}", mode="phrase", min_match=1)
    assert r["error"] == "bad_filter_mode"
    # malformed numbers answer their own code, not an exception
    assert engine.search(q, collapse="x")["error"] == "bad_collapse"
    assert engine.search(q, mode="near", near_window="a")["error"] == "bad_window"
    assert engine.search(q, mode="fuzzy", fuzzy_dist=None)["error"] == "bad_fuzzy_dist"
    assert engine.search(q, min_match="2")["error"] == "bad_min_match"
    # msearch: an unknown key is a malformed line; a known one runs
    bad, good = engine.msearch([{"query": q, "nope": 1}, {"query": q, "collapse": "x"}])
    assert bad["error"] == "bad_request" and good["error"] == "bad_collapse"
    # metrics/top_hits/composite parameter shapes
    assert engine.metrics(q, percentiles=(0,))["error"] == "bad_percentiles"
    assert engine.metrics(q, percentiles=(150,))["error"] == "bad_percentiles"
    assert engine.metrics(q, percentiles=(50,))["error"] == "bad_percentiles"
    assert engine.metrics(q, percentiles=(50, 90, 99, 99))["error"] == "bad_percentiles"
    assert engine.top_hits(q, per_group=0)["error"] == "bad_per_group"
    assert engine.top_hits(q, per_group="three")["error"] == "bad_per_group"
    assert engine.facets_composite(q, after=("user",))["error"] == "bad_after"
    assert engine.facets_composite(q, after=5)["error"] == "bad_after"


def test_ts_bound_exact_microseconds(engine):
    """_ts_us is EXACT integer epoch-µs for ISO strings: float64
    timestamp() rounds ~1% of microsecond values 1 µs low, silently
    breaking the inclusive-bound contract at the boundary."""
    import numpy as np

    from datetime import datetime, timedelta, timezone

    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    rng = np.random.default_rng(7)
    for us in rng.integers(0, 2_000_000_000_000_000, size=2000):
        us = int(us)
        iso = (epoch + timedelta(microseconds=us)).isoformat()
        assert engine._ts_us(iso) == us, (iso, us)
