"""Snippet text fetch (SearchEngine._texts): a docid point read of the
transcripts parquet must give exactly what a filtered scan of every
input file gives — the last row of a duplicated (conv_id, turn_idx) in
file and path order wins, an absent turn yields "" — while decoding the
``text`` column of only the row groups that hold the winners, once:
the decoded columns live in the engine cache, whose budget changes what
is resident, never an answer."""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from search_engine_ray import analyzer, datagen
from search_engine_ray.functions.snippets import create_snippets, highlight_full
from search_engine_ray.search import SearchEngine, _nbytes

ROW_GROUP = 50
QUERIES = datagen.reference_queries() + [
    {"query_text": datagen.stem(i), "scope": None, "k": 10} for i in (0, 1, 5, 9)
]


def _is(t: pa.Table, key) -> pa.ChunkedArray:
    return pc.and_(pc.equal(t.column("conv_id"), key[0]),
                   pc.equal(t.column("turn_idx"), key[1]))


def _with_text(row: pa.Table, text: str) -> pa.Table:
    return row.set_column(row.schema.get_field_index("text"), "text",
                          pa.array([text], pa.string()))


@pytest.fixture(scope="module")
def rg_env(tiny_index, tmp_path_factory):
    """The session index served from a rewritten copy of its inputs in
    ROW_GROUP-row groups: one winner's turn duplicated at the end of its
    own file, one duplicated into an extra LAST file, one dropped."""
    base = SearchEngine(tiny_index["out_dir"])
    hits = base.search(datagen.stem(0), limit=3)["data"].to_pylist()
    dup_same, dup_late, dropped = [(h["conv_id"], h["turn_idx"]) for h in hits]
    tables = [pq.read_table(f) for f in tiny_index["files"]]
    tables = [t.filter(pc.invert(_is(t, dropped))) for t in tables]
    for i, t in enumerate(tables):
        row = t.filter(_is(t, dup_same))
        if row.num_rows:
            tables[i] = pa.concat_tables(
                [t, _with_text(row, f"{datagen.stem(0)} same-file duplicate wins")])
    allrows = pa.concat_tables(tables)
    tables.append(_with_text(allrows.filter(_is(allrows, dup_late)),
                             f"{datagen.stem(0)} later-file duplicate wins"))
    root = tmp_path_factory.mktemp("text_fetch")
    paths = []
    for i, t in enumerate(tables):
        p = str(root / f"part-{i:03d}.parquet")
        pq.write_table(t, p, row_group_size=ROW_GROUP)
        paths.append(p)
    assert pq.ParquetFile(paths[0]).num_row_groups > 10
    return {"out_dir": tiny_index["out_dir"], "paths": paths,
            "dup_same": dup_same, "dup_late": dup_late, "dropped": dropped}


def _scan_texts(paths, pairs):
    """The filtered scan of every input file the point read replaced."""
    if not pairs:
        return []
    t = pads.dataset(paths).to_table(
        filter=pads.field("conv_id").isin(sorted({c for c, _ in pairs})),
        columns=["conv_id", "turn_idx", "text"])
    lut = dict(zip(zip(t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist()),
                   t.column("text").to_pylist()))
    return [lut.get(p, "") or "" for p in pairs]


def _rows(eng, q, snippets):
    return eng.search(q["query_text"], scope=q["scope"], limit=q["k"],
                      with_snippets=snippets)["data"].to_pylist()


@pytest.mark.parametrize("snippets", [True, "full"])
def test_point_read_matches_scan(rg_env, snippets):
    eng = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    make, col = (create_snippets, "snippet") if snippets is True else (highlight_full, "highlighted")
    seen = set()
    for q in QUERIES:
        rows = _rows(eng, q, snippets)
        pairs = [(r["conv_id"], r["turn_idx"]) for r in rows]
        lemmas = set(analyzer.analyze_query(q["query_text"]))
        expect = [make(x, lemmas) for x in _scan_texts(rg_env["paths"], pairs)]
        assert [r[col] for r in rows] == expect, q["query_text"]
        seen |= set(pairs)
    assert {rg_env["dup_same"], rg_env["dup_late"], rg_env["dropped"]} <= seen
    by_pair = {(r["conv_id"], r["turn_idx"]): r[col]
               for r in _rows(eng, {"query_text": datagen.stem(0), "scope": None, "k": 3},
                              snippets)}
    assert "same-file duplicate wins" in by_pair[rg_env["dup_same"]]
    assert "later-file duplicate wins" in by_pair[rg_env["dup_late"]]
    assert by_pair[rg_env["dropped"]] == ""


def test_mget_termvectors_mlt_use_point_read(rg_env):
    eng = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    pairs = [rg_env["dup_same"], rg_env["dup_late"], rg_env["dropped"], ("conv-nope", 0)]
    got = eng.mget(pairs)["data"].to_pylist()
    assert [r["text"] for r in got[:3]] == _scan_texts(rg_env["paths"], pairs[:3])
    assert not got[3]["found"]
    tv = eng.termvectors(*rg_env["dup_late"])["data"].to_pylist()
    assert "later" in {r["lemma"] for r in tv}
    # the dropped turn has no text in this view: mlt has no probe
    assert eng.more_like_this(*rg_env["dropped"])["error"] == "not_found"
    assert eng.more_like_this(*rg_env["dup_same"])["result"]


def test_threads_match_serial(rg_env):
    """8 threads on one cold engine (locators built under contention)
    return the serial run's rows."""
    serial = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    work = [(q, s) for q in QUERIES for s in (True, "full")] * 2
    expect = [_rows(serial, q, s) for q, s in work]
    shared = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    start = threading.Barrier(8)

    def run(i):
        start.wait(timeout=60)
        return [(j, _rows(shared, *work[j])) for j in range(i, len(work), 8)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as ex:
            futs = [ex.submit(run, i) for i in range(8)]
            got = dict(kv for f in futs for kv in f.result(timeout=300))
    finally:
        sys.setswitchinterval(old)
    assert [got[j] for j in range(len(work))] == expect


def test_reads_only_winner_row_groups(rg_env, monkeypatch):
    """The first snippet query decodes exactly the winners' row groups;
    its repeat is served from the engine cache and decodes none."""
    eng = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    q = {"query_text": datagen.stem(1), "scope": None, "k": 10}
    for p in rg_env["paths"]:
        eng._text_locator(p)
    reads = []
    real = pq.ParquetFile.read_row_group

    def counted(self, i, columns=None, **kw):
        if columns == ["text"]:
            reads.append((id(self), i))
        return real(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counted)
    rows = _rows(eng, q, True)
    assert len(rows) == 10
    # the row groups the winners occupy, from the files themselves: the
    # last row of each (conv_id, turn_idx) in file and path order
    where = {}
    for p in rg_env["paths"]:
        t = pq.read_table(p, columns=["conv_id", "turn_idx"])
        for n, key in enumerate(zip(t.column("conv_id").to_pylist(),
                                    t.column("turn_idx").to_pylist())):
            where[key] = (p, n // ROW_GROUP)
    occupied = {where[(r["conv_id"], r["turn_idx"])] for r in rows}
    assert len(reads) == len(set(reads)) <= len(occupied)
    ids = {id(eng._text_locs[p][0]): p for p in rg_env["paths"]}
    assert {(ids[f], g) for f, g in reads} == occupied
    total = sum(pq.ParquetFile(p).num_row_groups for p in rg_env["paths"])
    assert len(reads) < total
    n = len(reads)
    assert _rows(eng, q, True) == rows
    assert len(reads) == n


def _budgeted(rg_env, budget: int) -> SearchEngine:
    cls = type("SmallCache", (SearchEngine,), {"CACHE_MAX_BYTES": budget})
    return cls(rg_env["out_dir"], transcripts_paths=rg_env["paths"])


def _text_calls(rg_env):
    """One call per reader of turn text: snippets, highlights, mget,
    termvectors and more_like_this."""
    def out(r):
        return r["error"], r["data"].to_pylist()

    pairs = [rg_env["dup_same"], rg_env["dup_late"], rg_env["dropped"]]
    calls = [lambda e, q=q, s=s: _rows(e, q, s) for q in QUERIES for s in (True, "full")]
    calls.append(lambda e: out(e.mget(pairs)))
    for p in pairs:
        calls.append(lambda e, p=p: out(e.termvectors(*p)))
        calls.append(lambda e, p=p: out(e.more_like_this(*p)))
    return calls


@pytest.mark.parametrize("budget", [6 << 10, 64 << 10])
def test_budget_bounds_text(rg_env, budget):
    """Under a few-KiB budget (only the short last text groups of the
    files fit a quarter of it) and a 64-KiB one (every group does, and
    they evict each other and the postings), every text reader answers
    as the default budget does, the resident bytes never exceed the
    budget and no resident text group exceeds a quarter of it."""
    ref = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    small = _budgeted(rg_env, budget)
    seen = set()
    for call in _text_calls(rg_env) * 2:
        assert call(small) == call(ref)
        assert small._cache.bytes <= budget
        text = {k: n for k, (_, n) in small._cache._lru.items() if k[0] == "text"}
        assert all(n <= budget // 4 for n in text.values())
        seen |= set(text)
    assert seen


def test_text_group_above_quarter_budget_not_resident(rg_env):
    """A text row group larger than a quarter of the budget is served
    but never cached; at exactly a quarter it is cached."""
    q = {"query_text": datagen.stem(1), "scope": None, "k": 10}
    ref = SearchEngine(rg_env["out_dir"], transcripts_paths=rg_env["paths"])
    expect = _rows(ref, q, True)
    keys = [k for k in list(ref._cache._lru) if k[0] == "text"]
    assert keys
    size = {k: _nbytes(ref._cache.peek(k)) for k in keys}
    big = max(keys, key=size.get)
    over = _budgeted(rg_env, 4 * size[big] - 1)
    assert _rows(over, q, True) == expect
    assert big not in over._cache
    fits = _budgeted(rg_env, 4 * size[big])
    fits._text_locator(big[1])
    assert fits._text_column(*big[1:]) == ref._cache.peek(big)
    assert big in fits._cache
