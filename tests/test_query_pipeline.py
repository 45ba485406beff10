"""One query pipeline behind ``search``: every built-in mode feeds its full
match set through the same filter -> collapse -> cursor -> order -> top-k
tail, so each doc-level filter composes with each mode. The expected
pages here are the mode's UNFILTERED full ranking filtered in Python."""

import inspect

import numpy as np
import pyarrow as pa
import pytest

from search_engine_ray import datagen
from search_engine_ray.search import Query, SearchEngine, decay_factor, decay_params

S = datagen.stem
CASES = [
    ("bm25", f"{S(0)} {S(5)}"),
    ("reference", f"{S(3)} {S(120)}"),
    ("phrase", f"{S(0)} {S(1)}"),
    ("phrase_prefix", f"{S(0)} wbab"),
    ("prefix", "wbab"),
    ("wildcard", "wba?a*"),
    ("regexp", "wbab.*"),
    ("fuzzy", "wbabxba"),
    ("near", f"{S(0)} {S(1)}"),
    ("auto", f'"{S(0)} {S(1)}" {S(5)} -{S(3)}'),
    ("auto", f"{S(0)} {S(5)} -{S(3)}"),
]
NEG = S(2)  # the exclude / negative lemma
DECAY = {"origin": "2026-02-01", "scale": 5 * 86400.0, "shape": "gauss"}
L = 7


@pytest.fixture(scope="module")
def engine(tiny_index):
    return SearchEngine(tiny_index["out_dir"])


def _rows(resp):
    t = resp["data"]
    ts = t.column("ts").cast(pa.int64()).to_pylist()
    return [
        {"key": (r["conv_id"], r["turn_idx"]), "ts": s, "score": r["score"]}
        for r, s in zip(t.to_pylist(), ts)
    ]


def _full(engine, q, **kw):
    n = engine.search(q, limit=0, **kw)["count"]
    return _rows(engine.search(q, limit=max(n, 1), **kw))


def _ranked(rows):
    return sorted(rows, key=lambda r: (-r["score"], r["key"]))


def _page(rows):
    return [(r["key"], r["score"]) for r in rows[:L]]


@pytest.mark.parametrize("mode,q", CASES, ids=[f"{m}:{q}" for m, q in CASES])
def test_every_filter_composes_with_every_mode(engine, mode, q):
    rows = _full(engine, q, mode=mode)
    assert len(rows) > 2 * L, (mode, q)
    excl = {r["key"] for r in _full(engine, NEG)}
    ts = sorted(r["ts"] for r in rows)
    lo, hi = ts[len(ts) // 4], ts[3 * len(ts) // 4]
    seen: dict = {}
    collapsed = [r for r in rows if seen.setdefault(r["key"][0], r) is r]
    f = decay_factor(np.array([r["ts"] for r in rows], np.int64),
                     decay_params(DECAY, engine._ts_us))
    decayed = [{**r, "score": s} for r, s in
               zip(rows, np.array([r["score"] for r in rows]) * f)]
    demoted = [{**r, "score": r["score"] * 0.5 if r["key"] in excl else r["score"]}
               for r in rows]
    cases = [
        ({"ts_min": lo, "ts_max": hi}, [r for r in rows if lo <= r["ts"] <= hi]),
        ({"collapse": 1}, collapsed),
        ({"order_by": "ts_desc"}, sorted(rows, key=lambda r: (-r["ts"], r["key"]))),
        ({"exclude": NEG}, [r for r in rows if r["key"] not in excl]),
        ({"decay": DECAY}, _ranked(decayed)),
        ({"negative": NEG, "negative_boost": 0.5}, _ranked(demoted)),
    ]
    for kw, want in cases:
        got = engine.search(q, mode=mode, limit=L, **kw)
        assert got["result"], (mode, kw, got["error"])
        assert got["count"] == len(want), (mode, kw)
        assert _page(_rows(got)) == _page(want), (mode, kw)
    # page 2 via the cursor == page 2 via offset, with and without a filter
    for kw in ({}, {"ts_min": lo}):
        last = _rows(engine.search(q, mode=mode, limit=L, **kw))[-1]
        cur = (last["score"], *last["key"])
        by_cursor = engine.search(q, mode=mode, limit=L, search_after=cur, **kw)
        by_offset = engine.search(q, mode=mode, offset=L, limit=L, **kw)
        assert by_cursor["data"].equals(by_offset["data"]), (mode, kw)


def test_auto_exclude_unions_with_minus_tokens(engine):
    q = f"{S(0)} {S(5)}"
    both = engine.search(f"{q} -{S(3)}", mode="auto", exclude=NEG, limit=L)
    want = engine.search(q, exclude=f"{S(3)} {NEG}", limit=L)
    assert both["count"] == want["count"] and both["data"].equals(want["data"])


def test_query_mirrors_search_signature():
    """``Query`` holds every ``search`` argument in order with its default:
    msearch checks request keys against it."""
    params = list(inspect.signature(SearchEngine.search).parameters.values())[1:]
    assert Query._fields == tuple(p.name for p in params)
    assert all(Query._field_defaults.get(p.name, p.default) == p.default
               for p in params)


def test_blockmax_equals_exhaustive_on_many_term_queries(engine, evaluators_agree):
    """Every exact evaluator and the exhaustive scorer sum each doc's
    term weights in one order, so pages and float64 scores agree bit for
    bit at 2-5 terms too (cursor paging crosses the routes)."""
    rng = np.random.default_rng(1)
    pool = np.r_[0:12, 100:140, 400:420]
    answered = set()
    for _ in range(60):
        q = " ".join(S(int(i)) for i in rng.choice(pool, size=rng.integers(2, 6), replace=False))
        for k in (10, 30):
            answered |= evaluators_agree(engine, q, None, k)
            bm = engine.search(q, limit=k)
            ex = engine.search(q, limit=k, method="exhaustive")
            assert bm["count"] == ex["count"] and bm["data"].equals(ex["data"]), q
    assert answered == {"windowed", "candidate_driven"}
