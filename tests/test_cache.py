"""The engine cache (search.PayloadCache): one byte-budgeted LRU holds
every read and decoded posting payload. A budget far below the working
set changes what is resident, never an answer."""

from __future__ import annotations

import os
import shutil
import sys
import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from search_engine_ray import analyzer, datagen
from search_engine_ray.pipelines import build
from search_engine_ray.search import PayloadCache, SearchEngine, _nbytes, _Vocab

S = datagen.stem
BUDGET = 6 << 10  # a few KiB: far below one query's working set


def _small(out: str, budget: int = BUDGET) -> SearchEngine:
    return type("SmallCache", (SearchEngine,), {"CACHE_MAX_BYTES": budget})(out)


def _answer(eng: SearchEngine, q, **kw):
    """A search's answer, or a probe's: ``q`` may be a callable of the
    engine."""
    r = q(eng) if callable(q) else eng.search(q, **kw)
    return r["result"], r["count"], r["error"], r["data"].to_pylist()


# rows per doc-store row group of a split copy: one decoded group (about
# 40 B a row) then fits a quarter of BUDGET, so groups are cached,
# evicted and re-read
DOC_GROUP_ROWS = 32


def _split_doc_groups(src: str, dest: str, rows: int = DOC_GROUP_ROWS) -> str:
    """A copy of index ``src`` at ``dest`` whose doc store holds the
    same rows in the same (docid) order, in row groups of ``rows`` rows
    over two files. -> ``dest``."""
    shutil.copytree(src, dest)
    d = os.path.join(dest, "docs")
    t = pq.read_table(d)
    for f in os.listdir(d):
        os.remove(os.path.join(d, f))
    half = t.num_rows // 2
    pq.write_table(t.slice(0, half), os.path.join(d, "a.parquet"), row_group_size=rows)
    pq.write_table(t.slice(half), os.path.join(d, "b.parquet"), row_group_size=rows)
    return dest


# rows per row group of a split copy's lemma dictionary and index: a
# prefix range and a hot lemma's blocks then cross row-group bounds
DICT_GROUP_ROWS = 50
INDEX_GROUP_ROWS = 64


def _split_layout(src: str, dest: str) -> str:
    """``_split_doc_groups``, with the copy's lemma dictionary in row
    groups of ``DICT_GROUP_ROWS`` lemmas and its index, in the same
    (lemma_h, first_docid) order, in row groups of ``INDEX_GROUP_ROWS``
    block rows over three files. -> ``dest``."""
    _split_doc_groups(src, dest)
    dp = build.lemma_dict_path(dest)
    pq.write_table(pq.read_table(dp), dp, row_group_size=DICT_GROUP_ROWS)
    d = build.index_dir(dest)
    t = pq.read_table(d).sort_by([("lemma_h", "ascending"), ("first_docid", "ascending")])
    for f in os.listdir(d):
        os.remove(os.path.join(d, f))
    cuts = [0, t.num_rows // 3, 2 * t.num_rows // 3, t.num_rows]
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        pq.write_table(t.slice(a, b - a), os.path.join(d, f"part-{i}.parquet"),
                       row_group_size=INDEX_GROUP_ROWS)
    return dest


def _count_doc_reads(monkeypatch) -> list:
    """-> the list every doc-store row-group decode appends its
    (file, row group) to."""
    reads = []
    real = pq.ParquetFile.read_row_group

    def counted(self, i, columns=None, **kw):
        if columns and "docid" in columns and "role" in columns:
            reads.append((id(self), i))
        return real(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counted)
    return reads


# K distinct queries over every posting reader: block-max, the
# candidate-driven route, exhaustive, counting (filters, facets),
# phrase/near (positions) and the on-demand pair path
QUERIES = [(q, kw) for q in (S(0), S(5), f"{S(0)} {S(700)}", f"{S(2)} {S(60)}",
                             f"{S(0)} {S(1)} {S(2)}", f"{S(9)} {S(300)}")
           for kw in ({}, {"scope": "user"}, {"method": "exhaustive"},
                      {"exclude": S(1)}, {"ts_min": "2024-01-10T00:00:00"},
                      {"conjunctive": True}, {"limit": 40, "offset": 5})]
QUERIES += [(f"{a} {b}", {"mode": m}) for a, b in ((S(0), S(1)), (S(1), S(2)), (S(3), S(4)))
            for m in ("phrase", "near")]
# rare lemmas: payloads small enough to be cached, then evicted
QUERIES += [(f"{S(i)} {S(i + 7)}", kw) for i in range(100, 400, 30)
            for kw in ({}, {"scope": "user"})]
# the doc-row readers: ts order, decay, snippet enrichment, and mget /
# explain probes over docs spread across the store
DOC_PAIRS = [(f"conv-{c:08d}", t) for c in range(0, 400, 23) for t in (0, 3)]
DOC_QUERIES = [(q, kw) for q in (S(0), f"{S(2)} {S(60)}", f"{S(9)} {S(300)}")
               for kw in ({"order_by": "ts_desc", "limit": 30},
                          {"decay": {"origin": "2026-01-02T00:00:00", "scale": 86_400.0}},
                          {"with_snippets": True})]
DOC_QUERIES += [(lambda e: e.mget(DOC_PAIRS), {})]
DOC_QUERIES += [(lambda e, p=p: e.explain(S(0), *p), {}) for p in DOC_PAIRS[::3]]


def _check_budget(ref: SearchEngine, small: SearchEngine, queries) -> None:
    for q, kw in queries:
        assert _answer(small, q, **kw) == _answer(ref, q, **kw), (q, kw)
        st = small._cache.stats()
        assert small._cache.bytes <= BUDGET
        assert sum(b for _, b in st.values()) == small._cache.bytes


def test_lru_evicts_to_budget_and_skips_oversized():
    c = PayloadCache(100)
    c.put(("chunk", "a", 0), np.zeros(5, np.int64))   # 40 B
    c.put(("chunk", "b", 0), np.zeros(5, np.int64))   # 80 B
    assert c.peek(("chunk", "a", 0)) is not None      # a is now MRU
    c.put(("chunk", "c", 0), np.zeros(5, np.int64))   # evicts b, the LRU
    assert ("chunk", "b", 0) not in c and ("chunk", "a", 0) in c
    big = np.zeros(20, np.int64)                      # 160 B > budget
    assert c.get(("term", "big"), lambda: big) is big
    assert ("term", "big") not in c and c.bytes == 80
    assert c.stats() == {"chunk": (2, 80)}
    assert c.get(("df", "absent"), lambda: None) is None
    assert c.get(("df", "absent"), lambda: 1 / 0) is None  # a cached None
    # decoded index row groups together keep to a quarter of the budget:
    # a new one evicts the least recent group, not the older postings
    c = PayloadCache(100)
    c.put(("chunk", "a", 0), np.zeros(9, np.int64))   # 72 B
    c.put(("index", "f", 0), np.zeros(2, np.int64))   # 16 B
    c.put(("poss", "f", 0), np.zeros(1, np.int64))    # 8 B: groups hold 24 of 25
    assert c.peek(("index", "f", 0)) is not None      # the index group is now MRU
    c.put(("index", "f", 1), np.zeros(1, np.int64))   # 32 > 25: evicts the poss group
    assert c.stats() == {"chunk": (1, 72), "index": (2, 24)}
    c.put(("index", "f", 2), np.zeros(3, np.int64))   # 48 > 25: evicts both older groups
    assert c.stats() == {"chunk": (1, 72), "index": (1, 24)} and c.bytes == 96


def test_lru_charges_arrow_and_string_payloads():
    """An Arrow array costs its buffers and a string its length, so
    decoded text columns and doc-row strings count what they hold."""
    col = pa.array(["x" * 30, None, "y" * 20], pa.string())
    assert _nbytes(col) == col.get_total_buffer_size() >= 50
    other = pa.array(["z" * 10])
    assert _nbytes(pa.chunked_array([col, other])) == _nbytes(col) + _nbytes(other)
    assert _nbytes(("conv-00000001", "user", "")) == 17
    c = PayloadCache(100)
    c.put(("row", 1), ("c" * 40, "user", ""))          # 44 B
    c.put(("text", "f", 0), col)
    assert c.bytes <= 100 and ("text", "f", 0) in c
    assert c.stats()["text"] == (1, _nbytes(col))
    assert ("row", 1) not in c  # evicted: 44 B + the column's buffers > 100
    c.put(("text", "f", 1), pa.array(["z" * 200]))     # over budget: not cached
    assert ("text", "f", 1) not in c and ("text", "f", 0) in c
    # a decoded dictionary group costs its Python objects, keys included
    # (what tracemalloc sees it allocate, far above its strings' length),
    # plus the sorted Arrow columns it keeps for range scans (what stays
    # in Arrow's pool once the row group it was decoded from is gone)
    arrow0 = pa.total_allocated_bytes()
    t = pa.table({"lemma": [f"w{i:06d}" for i in range(2000)],
                  "df": pa.array([i * 7 for i in range(2000)], pa.int64())})
    tracemalloc.start()
    try:
        v = _Vocab(t)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del t
    resident += pa.total_allocated_bytes() - arrow0
    assert v["w000003"] == 21 and list(v)[:2] == ["w000000", "w000001"]
    assert v.lemmas[3] == "w000003" and v.df[3] == 21 and len(v.arrow) == 2000
    assert _nbytes(v) >= sys.getsizeof(v) + sum(map(sys.getsizeof, v)) > 5 * 7 * 2000
    assert 0.9 * resident <= _nbytes(v) <= 1.1 * resident
    c = PayloadCache(_nbytes(v) + 100)
    c.put(("dict", "f", 0), v)
    assert c.stats() == {"dict": (1, _nbytes(v))}


def _index_bounds(out: str) -> list[tuple[str, int, int, int]]:
    """(file, row group, min lemma_h, max lemma_h) of each index row
    group of ``out``, from the footers, apart from the engine's
    directory."""
    bounds = []
    for f in sorted(os.listdir(build.index_dir(out))):
        md = pq.ParquetFile(os.path.join(build.index_dir(out), f)).metadata
        ci = md.schema.to_arrow_schema().get_field_index("lemma_h")
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(ci).statistics
            bounds.append((os.path.join(build.index_dir(out), f), g, st.min, st.max))
    return bounds


def _crossing_lemma(out: str) -> str:
    """A lemma of split copy ``out`` whose blocks cross an index
    row-group bound."""
    first = sorted(os.listdir(build.index_dir(out)))[0]
    lems = pq.read_table(os.path.join(build.index_dir(out), first),
                         columns=["lemma"]).column("lemma").to_pylist()
    return next(lems[i] for i in range(INDEX_GROUP_ROWS, len(lems), INDEX_GROUP_ROWS)
                if lems[i] == lems[i - 1])


def test_first_touch_reads_only_holding_groups(tiny_index, tmp_path, monkeypatch):
    """Each index row group is read at most once per engine, and only
    when it holds the hash of a lemma the query touches (its
    ``lemma_h`` footer bounds, taken here from the footers apart from
    the engine's directory): a lemma's first touch cuts its rows out of
    the decoded groups, so a later lemma in a group already read, and a
    lemma crossing a group bound, read nothing again. The same holds
    for the ``poss`` row groups a phrase query reads. Each dictionary
    row group is decoded once per engine however many lookups,
    expansions and suggestion sweeps read it."""
    out = _split_layout(tiny_index["out_dir"], str(tmp_path / "split"))
    bounds = _index_bounds(out)
    reads = []
    real_one, real_many = pq.ParquetFile.read_row_group, pq.ParquetFile.read_row_groups

    def kind(columns) -> str:
        cols = columns or ()
        return ("dict" if "df" in cols else "index" if "lemma_h" in cols
                else "poss" if "poss" in cols else "other")

    def one(self, i, columns=None, **kw):
        reads.append((id(self), kind(columns), i))
        return real_one(self, i, columns=columns, **kw)

    def many(self, gs, columns=None, **kw):
        reads.extend((id(self), kind(columns), g) for g in gs)
        return real_many(self, gs, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", one)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", many)
    crossing = _crossing_lemma(out)
    eng = SearchEngine(out)
    eng._aux_pairs = {}  # phrase queries read positions, whatever aux the index has
    path = {}
    held = set()  # every (file, group) holding a touched lemma's hash
    for lem, kw in [(S(0), {}), (S(5), {}), (S(300), {}), (S(4000), {}),
                    (f"{S(7)} {S(900)}", {}), (crossing, {}), (f"{S(5)} {S(300)}", {}),
                    (f"{crossing} {crossing}", {"mode": "phrase"}),
                    (f"{S(0)} {S(1)}", {"mode": "phrase"})]:
        start = len(reads)
        r = eng.search(lem, limit=5, **kw)
        assert r["result"] and (r["count"] > 0 or "mode" in kw)
        hs = [analyzer.lemma_hash64(x) for x in lem.split()]
        want = {(p, g) for p, g, lo, hi in bounds if any(lo <= h <= hi for h in hs)}
        held |= want
        path.update({id(pf): p for p, pf in eng._pfs.items()})
        for k in ("index", "poss"):
            got = [(path[f], g) for f, kd, g in reads[start:] if kd == k]
            assert set(got) <= want, (lem, k)
    for k in ("index", "poss"):
        got = [(path[f], g) for f, kd, g in reads if kd == k]
        assert len(got) == len(set(got)), k  # never read twice per engine
    index_read = {(path[f], g) for f, kd, g in reads if kd == "index"}
    assert index_read == held  # and every holding group was read once
    crossing_h = analyzer.lemma_hash64(crossing)
    assert len([b for b in bounds if b[2] <= crossing_h <= b[3]]) >= 2
    assert any(kd == "poss" for _, kd, _ in reads)
    for q in (S(0), S(11), S(4000)[:-1], S(0)[:3]):
        eng.suggest(q)
        eng.complete(q)
        eng.search(q, mode="fuzzy")
        eng.search(q + "*", mode="wildcard")
    n_dict = len(eng._groups("dict")[2])
    assert sum(kd == "dict" for _, kd, _ in reads) == n_dict > 10


def test_directory_bounds_without_footer_statistics(tiny_index, tmp_path):
    """A parquet writer drops a string bound longer than its statistics
    size (4 KiB), so a dictionary row group whose first or last lemma is
    that long has one bound or none in its footer. The directory then
    takes the group's bounds from its lemma column: every lemma's df, a
    prefix range over the long lemmas and a search stay right."""
    out = shutil.copytree(tiny_index["out_dir"], str(tmp_path / "long"))
    dp = build.lemma_dict_path(out)
    t = pq.read_table(dp)
    # long lemma -> its place in its row group
    edge = {S(3) + "x" * 5000: "last", S(9) + "y" * 5000: "first",
            S(20) + "m" * 5000: "first", S(20) + "n" * 5000: "last"}
    n = len(edge)
    t = pa.concat_tables([t, pa.table({
        "lemma": list(edge), "df": [1] * n, "cf": [1] * n,
        "max_tf": pa.array([1] * n, pa.int32()),
        "lemma_id": range(t.num_rows, t.num_rows + n)})]).sort_by("lemma")
    lemmas = t.column("lemma").to_pylist()
    cuts = {*range(0, t.num_rows, DICT_GROUP_ROWS), t.num_rows}
    cuts |= {i + (edge[l] == "last") for i, l in enumerate(lemmas) if l in edge}
    cuts = sorted(cuts)
    with pq.ParquetWriter(dp, t.schema) as w:
        for a, b in zip(cuts, cuts[1:]):
            w.write_table(t.slice(a, b - a))
    md = pq.ParquetFile(dp).metadata
    sts = [md.row_group(g).column(0).statistics for g in range(md.num_row_groups)]
    assert any(not st.has_min_max for st in sts)
    assert any(st.has_min_max and "" in (st.min, st.max) for st in sts)
    eng = SearchEngine(out)
    assert [eng._df_of(l) for l in lemmas] == t.column("df").to_pylist()
    for l in edge:
        assert (l, 1) in eng.expand_prefix(l[:9], max_expansion=1 << 30)
    assert _answer(eng, S(3)) == _answer(SearchEngine(tiny_index["out_dir"]), S(3))


def test_budget_bounds_memory_plain_index(tiny_index, tmp_path, monkeypatch):
    """Every answer under a few-KiB budget equals the default-budget
    engine's, and the resident bytes never exceed the budget. A hot-hot
    pair payload larger than the budget is served but not cached; doc
    row groups are cached, evicted and re-read."""
    monkeypatch.setattr(SearchEngine, "PAIR_CACHE_MIN_COST", 0)
    out = _split_doc_groups(tiny_index["out_dir"], str(tmp_path / "split"))
    ref, small = SearchEngine(out), _small(out)
    reads = _count_doc_reads(monkeypatch)
    _check_budget(ref, small, QUERIES + DOC_QUERIES)
    assert "docs" in small._cache.stats()
    _check_budget(ref, small, (QUERIES + DOC_QUERIES)[::-1])  # evicted payloads re-read
    assert "pair" in ref._cache.stats()
    assert "pair" not in small._cache.stats()
    assert len(set(reads)) < len(reads)  # a doc row group decoded again


def test_budget_rebuilds_evicted_overlay_entry(tiny_index, tmp_path, monkeypatch):
    """Under live delta generations a block entry is built by the
    merge-on-read overlay; an evicted overlaid entry is rebuilt on its
    next read, and every answer still equals the default budget's."""
    from search_engine_ray.pipelines import delta
    from tests.test_delta import _modify_corpus

    monkeypatch.setattr(SearchEngine, "PAIR_CACHE_MIN_COST", 0)
    out = _split_doc_groups(tiny_index["out_dir"], str(tmp_path / "overlaid"))
    eng0 = SearchEngine(out)
    conv = eng0.search(f"{S(0)} {S(1)}", mode="phrase", limit=1)["data"].to_pylist()[0]["conv_id"]
    mod = _modify_corpus(
        eng0.manifest["config"]["input_paths"], str(tmp_path / "mod"), conv,
        [f"{S(0)} {S(1)} qqovlword fresh", f"{S(2)} qqovlword {S(0)} again"],
    )
    assert delta.reindex_conversations(out, [conv], input_paths=mod)["result"]
    lem = analyzer.analyze_query("qqovlword")[0]  # a delta-only lemma

    ref, small = SearchEngine(out), _small(out)
    assert small._has_deltas
    built = []
    orig = small._overlay_delta
    small._overlay_delta = lambda le, *a: built.append(le) or orig(le, *a)
    probe = [("qqovlword", {})]
    _check_budget(ref, small, probe)
    assert ("blocks", lem) in small._cache  # the overlaid entry fits
    _check_budget(ref, small, [(f"{S(0)} qqovlword", {"mode": "phrase"})] + QUERIES)
    assert ("blocks", lem) not in small._cache  # ... and was evicted
    n = built.count(lem)
    _check_budget(ref, small, probe)
    assert built.count(lem) > n  # rebuilt by the overlay
    # the doc-row readers fold the overlay: the re-indexed conversation's
    # rows come from the delta, the others from evicted and re-read
    # doc row groups
    reads = _count_doc_reads(monkeypatch)
    turns = [(conv, 0), (conv, 1), (conv, 7)]
    _check_budget(ref, small, DOC_QUERIES + [(lambda e: e.mget(turns), {})] + DOC_QUERIES)
    assert len(set(reads)) < len(reads)


def _arrays(x):
    """Every numpy array a payload holds."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (dict, tuple, list)):
        for v in (x.values() if isinstance(x, dict) else x):
            yield from _arrays(v)


def test_block_entries_share_no_memory_with_index_groups(
        tiny_index, tmp_path, monkeypatch, evaluators_agree):
    """A block entry is cut out of the cached index row groups as arrays
    of its own, so evicting a group frees it: under a budget that caches
    decoded groups and then evicts them, no array of any block entry
    shares memory with any group decoded, on a plain and on a
    delta-overlaid engine. Every answer, a phrase on a lemma crossing a
    row-group bound included, equals a fresh engine's, and each exact
    evaluator agrees with the exhaustive scorer."""
    from search_engine_ray import search as search_mod
    from search_engine_ray.pipelines import delta
    from tests.test_delta import _modify_corpus

    out = _split_layout(tiny_index["out_dir"], str(tmp_path / "split"))
    crossing = _crossing_lemma(out)
    groups = []
    real = search_mod._decode_index_group
    monkeypatch.setattr(search_mod, "_decode_index_group",
                        lambda t: groups.append(real(t)) or groups[-1])
    probe = SearchEngine(out)
    probe.search(" ".join(S(i) for i in range(0, 400, 7)))
    # groups fit a quarter of the budget (so they are cached), a few
    # of them the whole budget (so they are evicted)
    budget = 4 * max(_nbytes(g) for g in groups)
    queries = [(q, kw) for q, kw in QUERIES if kw.get("mode") != "near"][::2]
    queries += [(f"{crossing} {S(0)}", {"mode": "phrase"}), (f"{S(0)} {crossing}", {"mode": "phrase"}),
                (f"{crossing} {S(1)}", {"mode": "near"}), (crossing, {"method": "exhaustive"})]

    def check(fresh: SearchEngine, small: SearchEngine) -> None:
        del groups[:]
        entries = {}  # lemma -> each block entry the small engine built
        build_entry = small._block_entry
        small._block_entry = lambda lem, rows: entries.setdefault(lem, []).append(
            build_entry(lem, rows)) or entries[lem][-1]
        for q, kw in queries:
            assert _answer(small, q, **kw) == _answer(fresh, q, **kw), (q, kw)
            if "mode" not in kw:
                evaluators_agree(small, q, kw.get("scope"), 10, kw.get("conjunctive", False))
        assert small._cache.stats().get("index", (0, 0))[0] < len(groups)  # evicted
        assert len(entries) > 20 and crossing in entries
        for a in _arrays(entries):
            for b in (b for g in groups for b in _arrays(g)):
                assert not np.shares_memory(a, b)

    check(SearchEngine(out), _small(out, budget))
    conv = probe.search(f"{S(0)} {S(1)}", mode="phrase", limit=1)["data"].to_pylist()[0]["conv_id"]
    mod = _modify_corpus(
        probe.manifest["config"]["input_paths"], str(tmp_path / "mod"), conv,
        [f"{S(0)} {S(1)} {crossing} qqevword", f"{crossing} {S(0)} qqevword again"],
    )
    assert delta.reindex_conversations(out, [conv], input_paths=mod)["result"]
    queries += [(f"qqevword {S(0)}", {}), (f"{crossing} qqevword", {"mode": "phrase"})]
    small = _small(out, budget)
    assert small._has_deltas
    check(SearchEngine(out), small)


def test_uncached_index_groups_decoded_once_per_read(tiny_index, tmp_path, monkeypatch):
    """Under a budget too small to cache any index row group (a quarter
    of it is below each group, ``_row_group``), every first touch still
    reads each group holding its lemmas' hashes exactly once, however
    many of its lemmas share it, a lemma crossing a group bound
    included; the answers equal a fresh engine's."""
    from search_engine_ray import search as search_mod

    out = _split_layout(tiny_index["out_dir"], str(tmp_path / "split"))
    bounds = _index_bounds(out)
    crossing = _crossing_lemma(out)
    groups = []
    real = search_mod._decode_index_group
    monkeypatch.setattr(search_mod, "_decode_index_group",
                        lambda t: groups.append(real(t)) or groups[-1])
    many = " ".join(S(i) for i in range(0, 400, 7))
    SearchEngine(out).search(many)
    small = _small(out, 2 * min(_nbytes(g) for g in groups))
    reads = []  # (file, row group) of each index row-group read
    real_one = pq.ParquetFile.read_row_group

    def one(self, i, columns=None, **kw):
        if "lemma_h" in (columns or ()):
            reads.append((self, i))
        return real_one(self, i, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", one)
    calls = []  # (lemmas, the index row groups read) per first touch
    read = small._read_index

    def counted(lemmas):
        start = len(reads)
        got = read(lemmas)
        calls.append((lemmas, [(path, g) for pf, g in reads[start:]
                               for path, f in small._pfs.items() if f is pf]))
        return got

    small._read_index = counted
    fresh = SearchEngine(out)
    for q, kw in [(many, {}), (f"{crossing} {S(0)} {S(1)}", {}),
                  (f"{crossing} {S(0)}", {"mode": "phrase"})] + QUERIES[::5]:
        assert _answer(small, q, **kw) == _answer(fresh, q, **kw), (q, kw)
    assert "index" not in small._cache.stats()
    shared = False
    for lemmas, got in calls:
        holding = [(p, g) for x in lemmas for p, g, lo, hi in bounds
                   if lo <= analyzer.lemma_hash64(x) <= hi]
        assert sorted(got) == sorted(set(holding)), lemmas
        shared |= len(set(holding)) < len(holding)
    assert shared and any(crossing in lemmas for lemmas, _ in calls)
