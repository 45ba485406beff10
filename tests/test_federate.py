"""Federated (shard-parallel) search: the sharding-correctness property
— federated(shards) is BIT-IDENTICAL to a monolithic index over the
union of the shards' corpora (counts, top-k docs, float64 BM25 scores,
tie-breaks). This is the invariant that makes range-partitioned serving
safe at 10^12 turns."""

import hashlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray import datagen
from search_engine_ray.config import BuildConfig
from search_engine_ray.federate import FederatedEngine
from search_engine_ray.pipelines import build, delta
from search_engine_ray.search import SearchEngine

QUERIES = datagen.reference_queries()


def _split_by_conv(files, out_dir, n_shards=2):
    """Deterministic conv-hash split of a corpus into shard corpora —
    the range-partitioning stand-in (any disjoint cover works)."""
    import pyarrow.dataset as pads

    t = pads.dataset(files).to_table()
    conv = t.column("conv_id").to_pylist()
    assign = [
        int(hashlib.md5(c.encode()).hexdigest(), 16) % n_shards for c in conv
    ]
    outs = []
    for i in range(n_shards):
        mask = pa.array([a == i for a in assign])
        f = f"{out_dir}/shard{i}.parquet"
        pq.write_table(t.filter(mask), f)
        outs.append(f)
    return outs


@pytest.fixture(scope="module")
def fed_env(tiny_corpus, tiny_index, ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("fed")
    shard_files = _split_by_conv(tiny_corpus, str(root), 2)
    shard_outs = []
    for i, f in enumerate(shard_files):
        out = str(root / f"idx{i}")
        build.build_index(BuildConfig(
            input_paths=[f], out_dir=out, n_partitions=2, concurrency=2
        ))
        shard_outs.append(out)
    return {
        "mono": SearchEngine(tiny_index["out_dir"]),
        "fed": FederatedEngine(shard_outs),
        "shard_outs": shard_outs,
        "shard_files": shard_files,
    }


def test_merged_stats_bit_identical(fed_env):
    mono, fed = fed_env["mono"], fed_env["fed"]
    assert fed.n_docs == mono.n_docs
    assert fed.avgdl == mono.avgdl  # exact: same ints, same division


def test_federated_rank_and_score_identical(fed_env):
    """Every reference query: count, page rows and float64 scores equal
    the monolithic engine bit-for-bit (exhaustive method on both sides
    — blockmax equivalence to exhaustive is pinned elsewhere)."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    for q in QUERIES:
        rm = mono.search(q["query_text"], scope=q["scope"], limit=q["k"],
                         method="exhaustive")
        rf = fed.search(q["query_text"], scope=q["scope"], limit=q["k"])
        assert rf["result"] == rm["result"], q["query_id"]
        assert rf["count"] == rm["count"], q["query_id"]
        assert rf["data"].equals(rm["data"]), q["query_id"]


def test_federated_exact_evaluators_identical(fed_env, monkeypatch):
    """Shards rank through ``score_blockmax`` under the federation's
    avgdl; their stored block-max bounds, scaled by the avgdl growth,
    stay bounds. With the windowed and candidate-driven gates opened to
    this small corpus, federated pages and counts still equal the
    monolithic exhaustive ones bit for bit."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    assert max(s._bmw_scale for s in fed.shards) > 1.0  # a shard's avgdl grew
    for s in fed.shards:
        monkeypatch.setattr(s, "_WINDOWED_DF_PER_WINDOW", 1)
        monkeypatch.setattr(s, "_CAND_REST_RATIO", 0)
    queries = [(q["query_text"], q["scope"], q["k"]) for q in QUERIES]
    queries += [(datagen.stem(i), scope, k) for i in (0, 1, 2, 5, 40, 120)
                for scope, k in ((None, 10), ("user", 3))]
    for text, scope, k in queries:
        rm = mono.search(text, scope=scope, limit=k, method="exhaustive")
        rf = fed.search(text, scope=scope, limit=k)
        assert rf["count"] == rm["count"] and rf["data"].equals(rm["data"]), text


def test_federated_decay_identical_to_monolithic(fed_env):
    """Function-score decay is a per-doc multiply with GLOBAL constants,
    so the per-shard application merges bit-identically to the
    monolithic engine; bad specs error at the federation level."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    for q in datagen.decay_queries():
        spec = {"origin": q["origin"], "scale": q["scale"],
                "shape": q["shape"], "rate": q["rate"], "offset": q["offset"]}
        rm = mono.search(q["query_text"], scope=q["scope"], limit=q["k"],
                         decay=spec)
        rf = fed.search(q["query_text"], scope=q["scope"], limit=q["k"],
                        decay=spec)
        assert rf["count"] == rm["count"], q["query_id"]
        assert rf["data"].equals(rm["data"]), q["query_id"]
    assert fed.search("x", decay={"scale": 1.0})["error"] == "bad_decay"


def test_federated_filters_and_boosting_identical(fed_env):
    """exclude / ts bounds / boosting demotion are per-DOC surfaces —
    a doc's lemmas and metadata live in its owning shard, so the
    shard-local application merges identically to the monolithic
    engine, including counts; composition (exclude + ts + negative in
    one query) and the federation-level bad_negative guard hold."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    hot, mid = datagen.stem(0), datagen.stem(120)
    cases = [
        {"exclude": mid},
        {"exclude": "wqxqzq"},                      # absent -> no-op
        {"ts_min": "2026-01-01T05:00:00", "ts_max": "2026-01-02T16:00:00"},
        {"negative": mid, "negative_boost": 0.25},
        {"negative": "wqxqzq"},                     # absent -> no-op
        {"negative": mid, "negative_boost": 1.0},   # bitwise no-op
        {"exclude": datagen.stem(300), "ts_min": "2026-01-01T03:00:00",
         "negative": mid, "negative_boost": 0.5},
    ]
    for kw in cases:
        rm = mono.search(hot, limit=10, method="exhaustive", **kw)
        rf = fed.search(hot, limit=10, **kw)
        assert rf["count"] == rm["count"], kw
        assert rf["data"].equals(rm["data"]), kw
    assert fed.search(hot, negative="!!")["error"] == "bad_negative"
    assert fed.search(hot, negative=mid, negative_boost=2.0)["error"] \
        == "bad_negative"


def test_federated_pagination_and_conjunctive(fed_env):
    mono, fed = fed_env["mono"], fed_env["fed"]
    hot = datagen.stem(0)
    for off in (0, 5, 17):
        rm = mono.search(hot, offset=off, limit=7, method="exhaustive")
        rf = fed.search(hot, offset=off, limit=7)
        assert rf["data"].equals(rm["data"]), off
    q = f"{datagen.stem(120)} {datagen.stem(480)}"
    rm = mono.search(q, conjunctive=True, method="exhaustive")
    rf = fed.search(q, conjunctive=True)
    assert rf["count"] == rm["count"]
    assert rf["data"].equals(rm["data"])


def test_federated_error_paths(fed_env):
    fed = fed_env["fed"]
    assert fed.search("  ")["error"] == "empty_query"
    assert not fed.search("x", scope="no-such-role")["result"]
    r = fed.search("wqxqzq")
    assert r["result"] and r["count"] == 0 and r["data"].num_rows == 0
    # paging and ts bounds validate like the single-index search
    assert fed.search(datagen.stem(0), offset=-1)["error"] == "bad_page"
    assert fed.search(datagen.stem(0), ts_min="not-a-date")["error"] == "bad_ts"
    # a lemma present in only SOME shards still scores globally
    mono = fed_env["mono"]
    rare = datagen.stem(5200)
    rm = mono.search(rare, method="exhaustive")
    rf = fed.search(rare)
    assert rf["count"] == rm["count"] and rf["data"].equals(rm["data"])


def test_federated_concurrent_queries_match_serial(fed_env):
    """Eight threads share one cold FederatedEngine: every reference
    query returns the same count, rows and float64 scores as a serial
    run — queries share no per-query shard state."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    def run(eng, q):
        r = eng.search(q["query_text"], scope=q["scope"], limit=q["k"])
        return r["count"], r["data"]

    fed = FederatedEngine(fed_env["shard_outs"])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda q: run(fed, q), QUERIES * 2, timeout=600))
    finally:
        sys.setswitchinterval(switch)
    serial = [run(fed_env["fed"], q) for q in QUERIES]
    for q, (count, data), (s_count, s_data) in zip(QUERIES * 2, got, serial * 2):
        assert count == s_count, q["query_id"]
        assert data.equals(s_data), q["query_id"]


def test_federated_with_delta_shard(fed_env, tmp_path):
    """A shard with a live delta generation federates exactly: re-index
    one conversation in shard 0 from modified text, rebuild the same
    modification monolithically, and the federation still matches the
    monolithic engine bit-for-bit."""
    import shutil

    import pyarrow.dataset as pads

    s0_out = fed_env["shard_outs"][0]
    mut_out = str(tmp_path / "idx0-mut")
    shutil.copytree(s0_out, mut_out)
    # pick a conv from shard 0 and rewrite its first turn
    t0 = pads.dataset(fed_env["shard_files"][0]).to_table()
    conv = t0.column("conv_id")[0].as_py()
    mask = pa.compute.equal(t0.column("conv_id"), pa.scalar(conv))
    slice_ = t0.filter(mask)
    texts = slice_.column("text").to_pylist()
    texts[0] = f"{datagen.stem(7)} rewritten {datagen.stem(7)}"
    mod = slice_.set_column(
        slice_.column_names.index("text"), "text",
        pa.array(texts, pa.string()),
    )
    mod_file = str(tmp_path / "mod.parquet")
    pq.write_table(mod, mod_file)
    resp = delta.reindex_conversations(mut_out, [conv], [mod_file])
    assert resp["result"]
    fed = FederatedEngine([mut_out, fed_env["shard_outs"][1]])
    # monolithic rebuild over (full corpus with the same rewrite)
    full = pads.dataset(fed_env["mono"].transcripts_paths).to_table()
    keep = pa.compute.not_equal(full.column("conv_id"), pa.scalar(conv))
    rebuilt_corpus = pa.concat_tables(
        [full.filter(keep).select(mod.column_names), mod]
    )
    rb_file = str(tmp_path / "rebuilt.parquet")
    pq.write_table(rebuilt_corpus, rb_file)
    rb_out = str(tmp_path / "rebuilt-idx")
    build.build_index(BuildConfig(
        input_paths=[rb_file], out_dir=rb_out, n_partitions=2, concurrency=2
    ))
    mono = SearchEngine(rb_out)
    assert fed.n_docs == mono.n_docs
    assert fed.avgdl == mono.avgdl
    for q in [*QUERIES[:6], {"query_id": "x", "query_text": datagen.stem(7),
                             "scope": None, "k": 10}]:
        rm = mono.search(q["query_text"], scope=q["scope"], limit=10,
                         method="exhaustive")
        rf = fed.search(q["query_text"], scope=q["scope"], limit=10)
        assert rf["count"] == rm["count"], q["query_id"]
        assert rf["data"].equals(rm["data"]), q["query_id"]


def test_federated_cli(fed_env):
    """fsearch subcommand over the two shard indexes == the monolithic
    search CLI's rows (subprocess, real argv)."""
    import json as _json
    import subprocess
    import sys

    outs = ",".join(fed_env["shard_outs"])
    hot = datagen.stem(0)
    p = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "fsearch", hot,
         "--outs", outs, "--limit", "5"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    got = _json.loads(p.stdout.strip().splitlines()[-1])
    rm = fed_env["mono"].search(hot, limit=5, method="exhaustive")
    assert got["result"] and got["count"] == rm["count"]
    exp = rm["data"].to_pylist()
    assert len(got["data"]) == len(exp)
    for g, e in zip(got["data"], exp):
        assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
        assert abs(g["score"] - e["score"]) < 1e-12
    # --decay round-trips through the fsearch CLI
    p = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "fsearch", hot,
         "--outs", outs, "--limit", "5",
         "--decay", "origin=2026-01-02T00:00:00;scale=86400;shape=exp"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    got = _json.loads(p.stdout.strip().splitlines()[-1])
    assert got["result"] and got["count"] == rm["count"]
    # --negative at 1.0 is a no-op: same rows as the plain fsearch page
    p = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "fsearch", hot,
         "--outs", outs, "--limit", "5",
         "--negative", datagen.stem(120), "--negative-boost", "1.0"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    got = _json.loads(p.stdout.strip().splitlines()[-1])
    assert got["result"] and got["count"] == rm["count"]
    for g, e in zip(got["data"], exp):
        assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])


def test_federated_facets_identical_to_monolithic(fed_env):
    """Federated facet counts (role / tool / day) == the monolithic
    facets table for every reference query — per-shard matching frames
    sum exactly because shards partition the doc space; shard-partial
    lemmas keep union semantics (no shard-local missing-lemma rule)."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    for q in QUERIES:
        fm = mono.facets(q["query_text"], scope=q["scope"],
                         by=("role", "tool", "day"))
        ff = fed.facets(q["query_text"], scope=q["scope"],
                        by=("role", "tool", "day"))
        assert ff["result"] == fm["result"], q["query_id"]
        assert ff["count"] == fm["count"], q["query_id"]
        assert ff["data"].equals(fm["data"]), q["query_id"]
    # error paths mirror the single-index surface
    assert fed.facets("x", by=("nope",))["error"] == "bad_facet"
    assert fed.facets("  ")["error"] == "empty_query"
    r = fed.facets("wqxqzq")
    assert r["result"] and r["count"] == 0


def test_federated_filter_aggs_identical_to_monolithic(fed_env):
    """Federated filters_agg / adjacency_matrix == the monolithic
    tables: bucket counts and pairwise intersection cells are
    shard-local (one shard owns each doc) and sum exactly; the
    base-query intersection, zero-bucket emission/omission rules and
    error paths all mirror the single-index surface."""
    from search_engine_ray import datagen

    mono, fed = fed_env["mono"], fed_env["fed"]
    flt = {"h": datagen.stem(0), "m": datagen.stem(1),
           "x": datagen.stem(2), "none": "wqxqzq"}
    for kwargs in (
        {},
        {"query_text": datagen.stem(4000)},
        {"scope": "assistant"},
        {"conjunctive": True},
    ):
        fm = mono.filters_agg(flt, **kwargs)
        ff = fed.filters_agg(flt, **kwargs)
        assert ff["result"] == fm["result"], kwargs
        assert ff["count"] == fm["count"], kwargs
        assert ff["data"].equals(fm["data"]), kwargs
    am = mono.adjacency_matrix(flt)
    af = fed.adjacency_matrix(flt)
    assert af["count"] == am["count"] and af["data"].equals(am["data"])
    ams = mono.adjacency_matrix(flt, scope="user")
    afs = fed.adjacency_matrix(flt, scope="user")
    assert afs["count"] == ams["count"] and afs["data"].equals(ams["data"])
    assert fed.filters_agg({})["error"] == "bad_filter"
    assert fed.filters_agg({"x": "!!"})["error"] == "bad_filter"
    assert fed.adjacency_matrix({"a&b": "x"})["error"] == "bad_filter"
    assert fed.filters_agg(flt, scope="nope")["error"] == "bad_scope"


def test_federated_value_aggs_identical_to_monolithic(fed_env):
    """histogram / range_agg / percentile_ranks federate by ADDITIVE
    per-shard merges (bucket counts, half-open-range tallies, n_le
    predicate counts — all per-doc functions), pinned identical to the
    monolithic tables including counts, empty matches, and guards."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    hot, mid = datagen.stem(0), datagen.stem(4000)
    for q, kw in [(hot, {}), (mid, {}), (hot, {"scope": "user"}),
                  (hot, {"field": "ts", "interval": 86_400_000_000}),
                  ("wqxqzq", {})]:
        hm = mono.histogram(q, **kw)
        hf = fed.histogram(q, **kw)
        assert hf["count"] == hm["count"], (q, kw)
        assert hf["data"].equals(hm["data"]), (q, kw)
    rngs = [(None, 8), (8, 16), (16, None), (4, 12)]
    for q, kw in [(hot, {}), (hot, {"scope": "assistant"}), ("wqxqzq", {})]:
        rm = mono.range_agg(q, rngs, **kw)
        rf = fed.range_agg(q, rngs, **kw)
        assert rf["count"] == rm["count"], (q, kw)
        assert rf["data"].equals(rm["data"]), (q, kw)
    vals = [0, 8, 16, 10_000]
    for q in (hot, mid, "wqxqzq"):
        pm = mono.percentile_ranks(q, vals)
        pf = fed.percentile_ranks(q, vals)
        assert pf["count"] == pm["count"], q
        assert pf["data"].equals(pm["data"]), q
    assert fed.histogram(hot, interval=0)["error"] == "bad_interval"
    assert fed.range_agg(hot, [(9, 1)])["error"] == "bad_ranges"
    assert fed.percentile_ranks(hot, [])["error"] == "bad_values"
    assert fed.histogram(hot, field="nope")["error"] == "bad_field"


def test_federated_cardinality_identical_to_monolithic(fed_env):
    """conv cardinality merges by OWNERSHIP (conv-disjoint shards sum
    their distinct-conv counts); every other field by distinct-VALUE
    set union — both pinned identical to the monolithic engine."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    hot, mid = datagen.stem(0), datagen.stem(4000)
    flds = "conv,role,tool,day,doc_len,ts"
    for q, kw in [(hot, {"fields": flds}), (mid, {"fields": flds}),
                  (hot, {"fields": "conv,day", "scope": "user"}),
                  ("wqxqzq", {"fields": "conv"})]:
        cm = mono.cardinality(q, **kw)
        cf = fed.cardinality(q, **kw)
        assert cf["count"] == cm["count"], (q, kw)
        assert cf["data"].equals(cm["data"]), (q, kw)
    assert fed.cardinality(hot, fields="nope")["error"] == "bad_field"
    assert fed.cardinality(hot, scope="nope")["error"] == "bad_scope"


def test_federated_mget_identical_to_monolithic(fed_env):
    """Each doc lives in exactly one shard, so the per-slot found-row
    merge reproduces the monolithic _mget response — order, misses,
    texts, and the bad_docs guard."""
    from search_engine_ray import datagen as dg

    mono, fed = fed_env["mono"], fed_env["fed"]
    probes = dg.mget_probes()
    rm, rf = mono.mget(probes), fed.mget(probes)
    assert rf["count"] == rm["count"]
    assert rf["data"].equals(rm["data"])
    assert fed.mget([])["error"] == "bad_docs"
    assert fed.mget([("x",)])["error"] == "bad_docs"


def test_federated_dictionary_surfaces(fed_env):
    """complete() and suggest() federate exactly: per-shard sweeps
    merged by summed df reproduce the monolithic rankings."""
    mono, fed = fed_env["mono"], fed_env["fed"]
    for pre, k in ((datagen.stem(0)[:4], 10), (datagen.stem(120)[:5], 10),
                   ("wb", 5), ("zzqx", 10)):
        rm = mono.complete(pre, k=k)
        rf = fed.complete(pre, k=k)
        assert rf["result"] == rm["result"], pre
        assert rf["count"] == rm["count"], pre
        assert rf["data"].equals(rm["data"]), pre
    assert fed.complete("w")["error"] == "short_prefix"
    for term in (datagen.stem(0)[:-1] + "x", "datbase", datagen.stem(120)):
        tm = mono.suggest(term, max_dist=2, k=5)
        tf_ = fed.suggest(term, max_dist=2, k=5)
        assert tf_.equals(tm), term


def test_build_sharded_matches_monolithic(fed_env, tmp_path, tiny_corpus):
    """The full sharded lifecycle: ONE distributed hash-split pass ->
    per-shard resumable builds -> federated serving rank- and
    score-identical to the monolithic index; a re-run builds nothing;
    deleting one shard's index rebuilds ONLY that shard."""
    from search_engine_ray.pipelines.shard import build_sharded, shard_of

    root = str(tmp_path / "sharded")
    r = build_sharded(tiny_corpus, root, n_shards=2)
    assert r["result"] and sorted(r["built"]) == [0, 1]
    fed = FederatedEngine(r["shard_outs"])
    mono = fed_env["mono"]
    assert fed.n_docs == mono.n_docs and fed.avgdl == mono.avgdl
    for q in QUERIES[:8]:
        rm = mono.search(q["query_text"], scope=q["scope"], limit=q["k"],
                         method="exhaustive")
        rf = fed.search(q["query_text"], scope=q["scope"], limit=q["k"])
        assert rf["count"] == rm["count"], q["query_id"]
        assert rf["data"].equals(rm["data"]), q["query_id"]
    # the split rule is the documented deterministic assignment
    import pyarrow.dataset as pads

    for i in (0, 1):
        t = pads.dataset(f"{root}/corpus/shard={i}").to_table(
            columns=["conv_id"]
        )
        assert all(shard_of(c, 2) == i
                   for c in set(t.column("conv_id").to_pylist()))
    # idempotent re-run: nothing rebuilds
    assert build_sharded(tiny_corpus, root, n_shards=2)["built"] == []
    # blast radius: losing one shard's index rebuilds only that shard
    import shutil

    shutil.rmtree(r["shard_outs"][1])
    r3 = build_sharded(tiny_corpus, root, n_shards=2)
    assert r3["built"] == [1]
    fed2 = FederatedEngine(r3["shard_outs"])
    rm = mono.search(datagen.stem(0), limit=5, method="exhaustive")
    assert fed2.search(datagen.stem(0), limit=5)["data"].equals(rm["data"])


def test_build_sharded_cli(tiny_corpus, tmp_path):
    """build --shards N end-to-end in a real subprocess, then fsearch
    over the produced shard indexes."""
    import json as _json
    import subprocess
    import sys

    root = str(tmp_path / "cli-sharded")
    p = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "build",
         "--input", *tiny_corpus, "--out", root, "--shards", "2",
         "--partitions", "2"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    got = _json.loads(p.stdout.strip().splitlines()[-1])
    assert got["result"] and sorted(got["built"]) == [0, 1]
    q = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "fsearch",
         datagen.stem(0), "--outs", ",".join(got["shard_outs"]),
         "--limit", "3"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert q.returncode == 0, q.stderr[-2000:]
    res = _json.loads(q.stdout.strip().splitlines()[-1])
    assert res["result"] and res["count"] > 0 and len(res["data"]) == 3


def test_sharded_lifecycle_mutations(tiny_corpus, tmp_path, fed_env):
    """Routed mutations on the sharded lifecycle: delete-by-query with
    UNION matching semantics (a shard missing one disjunctive term
    still deletes its matches of the others — pinned equal to the same
    delete on a monolithic index), the absent-everywhere no-op, and
    reindex routed to exactly the owning shard."""
    import shutil

    import pyarrow.parquet as pq

    from search_engine_ray.pipelines.shard import (
        build_sharded, delete_by_query_sharded, reindex_sharded, shard_of,
    )

    root = str(tmp_path / "mut-sharded")
    r = build_sharded(tiny_corpus, root, n_shards=2)
    shards = [SearchEngine(o) for o in r["shard_outs"]]
    # a lemma present in exactly ONE shard (rare stems concentrate)
    lone = next(
        datagen.stem(i) for i in range(4200, 6000)
        if (shards[0]._df_of(datagen.stem(i)) is None)
        != (shards[1]._df_of(datagen.stem(i)) is None)
    )
    q = f"{lone} {datagen.stem(4000)}"
    # absent-everywhere -> the monolithic no-op
    nz = delete_by_query_sharded(root, 2, "wqxqzq")
    assert nz["result"] and nz["deleted"] == 0
    dr = delete_by_query_sharded(root, 2, q)
    assert dr["result"] and dr["deleted"] > 0
    assert len(dr["per_shard"]) == 2  # stem(4000) matches in both shards
    # the monolithic twin: same delete on a copy of the mono index
    mono_out = str(tmp_path / "mono-copy")
    shutil.copytree(fed_env["mono"].out_dir, mono_out)
    from search_engine_ray.pipelines import delta

    dm = delta.delete_by_query(mono_out, q)
    assert dm["result"] and dm["deleted"] == dr["deleted"]
    fed = FederatedEngine(r["shard_outs"])
    mono = SearchEngine(mono_out)
    assert fed.n_docs == mono.n_docs and fed.avgdl == mono.avgdl
    for probe in (q, lone, datagen.stem(4000), datagen.stem(0)):
        rm = mono.search(probe, limit=10, method="exhaustive")
        rf = fed.search(probe, limit=10)
        assert rf["count"] == rm["count"], probe
        assert rf["data"].equals(rm["data"]), probe
    # reindex routes to exactly the owning shard
    conv = shards[0].search(datagen.stem(0), limit=1)["data"].to_pylist()[0]["conv_id"]
    sid = shard_of(conv, 2)
    import pyarrow.dataset as pads

    t = pads.dataset(tiny_corpus).to_table()
    sl = t.filter(pa.compute.equal(t.column("conv_id"), pa.scalar(conv)))
    texts = sl.column("text").to_pylist()
    texts[0] = f"{datagen.stem(7)} routed {datagen.stem(7)}"
    mod = sl.set_column(sl.column_names.index("text"), "text",
                        pa.array(texts, pa.string()))
    mf = str(tmp_path / "routed-mod.parquet")
    pq.write_table(mod, mf)
    rr = reindex_sharded(root, 2, [conv], [mf])
    assert rr["result"] and list(rr["generations"]) == [sid]
    fed2 = FederatedEngine(r["shard_outs"])
    hits = fed2.search(datagen.stem(7), limit=50)["data"].to_pylist()
    assert any(h["conv_id"] == conv and h["turn_idx"] == 0 for h in hits)


def test_sharded_mutation_cli(tiny_corpus, tmp_path):
    """delete --shards / reindex --shards route through the sharded
    lifecycle in real subprocesses."""
    import json as _json
    import subprocess
    import sys

    root = str(tmp_path / "cli-mut")
    p = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "build",
         "--input", *tiny_corpus, "--out", root, "--shards", "2",
         "--partitions", "2"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert p.returncode == 0, p.stderr[-2000:]
    d = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "delete",
         datagen.stem(40), "--out", root, "--shards", "2"],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    assert d.returncode == 0, d.stderr[-2000:]
    got = _json.loads(d.stdout.strip().splitlines()[-1])
    assert got["result"] and got["deleted"] > 0
    outs = ",".join(f"{root}/idx{i}" for i in range(2))
    q = subprocess.run(
        [sys.executable, "-m", "search_engine_ray", "fsearch",
         datagen.stem(40), "--outs", outs],
        capture_output=True, text=True, cwd="/root/repo", timeout=120,
    )
    res = _json.loads(q.stdout.strip().splitlines()[-1])
    assert res["result"] and res["count"] == 0  # deleted everywhere


def test_sharded_update_matches_monolithic(tiny_corpus, tmp_path, fed_env):
    """update-by-query routed across shards == the same rewrite on a
    monolithic index: totals equal, federated serving row-identical
    (rewritten text included via the delta text sources)."""
    import shutil

    from search_engine_ray.pipelines import delta
    from search_engine_ray.pipelines.shard import (
        build_sharded, update_by_query_sharded,
    )

    root = str(tmp_path / "upd-sharded")
    r = build_sharded(tiny_corpus, root, n_shards=2)
    q = datagen.stem(40)
    pat = rf"(?i)\b{datagen.stem(40)}\w*"
    ur = update_by_query_sharded(root, 2, q, pat, "xredactedx")
    assert ur["result"] and ur["updated"] > 0
    mono_out = str(tmp_path / "upd-mono")
    shutil.copytree(fed_env["mono"].out_dir, mono_out)
    um = delta.update_by_query(mono_out, q, pat, "xredactedx")
    assert um["result"] and um["updated"] == ur["updated"]
    fed = FederatedEngine([f"{root}/idx0", f"{root}/idx1"])
    mono = SearchEngine(mono_out)
    for probe in (q, "xredactedx", datagen.stem(0)):
        rm = mono.search(probe, limit=10, method="exhaustive",
                         with_snippets=True)
        rf = fed.search(probe, limit=10, with_snippets=True)
        assert rf["count"] == rm["count"], probe
        assert rf["data"].equals(rm["data"]), probe
    # absent-everywhere no-op
    nz = update_by_query_sharded(root, 2, "wqxqzq", pat, "x")
    assert nz["result"] and nz["updated"] == 0


def test_sharded_compaction_folds_everything(tiny_corpus, tmp_path, fed_env):
    """compact_sharded folds every shard's generations: post-compaction
    no shard has deltas, and the federation still serves the mutated
    corpus identically (delete survives the fold)."""
    from search_engine_ray.pipelines import delta
    from search_engine_ray.pipelines.shard import (
        build_sharded, compact_sharded, delete_by_query_sharded,
    )

    root = str(tmp_path / "cmp-sharded")
    r = build_sharded(tiny_corpus, root, n_shards=2)
    q = datagen.stem(40)
    dr = delete_by_query_sharded(root, 2, q)
    assert dr["result"] and dr["deleted"] > 0
    fed_before = FederatedEngine(r["shard_outs"])
    pages = {
        probe: fed_before.search(probe, limit=10)["data"]
        for probe in (q, datagen.stem(0), datagen.stem(120))
    }
    cr = compact_sharded(root, 2)
    assert cr["result"] and sorted(cr["compacted"]) == sorted(dr["per_shard"])
    for out in r["shard_outs"]:
        assert not delta.list_generations(out)
    fed_after = FederatedEngine(r["shard_outs"])
    assert fed_after.n_docs == fed_before.n_docs
    for probe, before in pages.items():
        after = fed_after.search(probe, limit=10)["data"]
        assert after.equals(before), probe
    # idempotent: nothing left to fold
    assert compact_sharded(root, 2)["compacted"] == []


def test_split_shards_matches_monolithic(fed_env, tmp_path, tiny_corpus):
    """ES _split parity: 2 shards -> 4 by factor 2 reading ONLY each
    old shard's stored slice; routing md5(conv) % 4 is the consistent
    refinement of % 2 (child residues {i, i+2}); federated serving over
    the 4 shards stays bit-identical to the monolithic engine; resume
    rebuilds only a lost child; guards (bad factor, pending
    generations) refuse."""
    import shutil

    import pyarrow.dataset as pads

    from search_engine_ray.pipelines.shard import (
        build_sharded, shard_of, split_shards,
    )

    root = str(tmp_path / "presplit")
    r = build_sharded(tiny_corpus, root, n_shards=2)
    assert r["result"]
    dest = str(tmp_path / "postsplit")
    s = split_shards(root, 2, dest, factor=2)
    assert s["result"] and s["n_shards"] == 4, s
    assert len(s["shard_outs"]) == len(s["built"]) == 4
    # consistent-refinement routing: every conv in child j satisfies
    # md5 % 4 == j AND md5 % 2 == j % 2 (it came from parent j % 2)
    for j in range(4):
        t = pads.dataset(f"{dest}/corpus/shard={j}").to_table(
            columns=["conv_id"])
        convs = set(t.column("conv_id").to_pylist())
        assert convs, j
        assert all(shard_of(c, 4) == j for c in convs)
        assert all(shard_of(c, 2) == j % 2 for c in convs)
    mono = fed_env["mono"]
    fed4 = FederatedEngine(s["shard_outs"])
    assert fed4.n_docs == mono.n_docs and fed4.avgdl == mono.avgdl
    for q in QUERIES[:8]:
        rm = mono.search(q["query_text"], scope=q["scope"], limit=q["k"],
                         method="exhaustive")
        rf = fed4.search(q["query_text"], scope=q["scope"], limit=q["k"])
        assert rf["count"] == rm["count"], q["query_id"]
        assert rf["data"].equals(rm["data"]), q["query_id"]
    # resume: nothing rebuilds on a re-run; losing one child rebuilds it
    assert split_shards(root, 2, dest, factor=2)["built"] == []
    shutil.rmtree(s["shard_outs"][3])
    s3 = split_shards(root, 2, dest, factor=2)
    assert s3["built"] == [3]
    # guards
    assert split_shards(root, 2, str(tmp_path / "x"), factor=1)["error"] == "bad_factor"
    from search_engine_ray.pipelines import delta as delta_mod

    conv = next(iter(
        set(pads.dataset(f"{root}/corpus/shard=0").to_table(
            columns=["conv_id"]).column("conv_id").to_pylist())
    ))
    assert delta_mod.reindex_conversations(
        f"{root}/idx0", [conv], input_paths=list(tiny_corpus))["result"]
    bad = split_shards(root, 2, str(tmp_path / "y"), factor=2)
    assert not bad["result"] and "pending" in bad["error"]


def test_shrink_shards_matches_monolithic(fed_env, tmp_path, tiny_corpus):
    """ES _shrink parity: 4 shards -> 2 by factor 2 with NO re-split
    pass (md5 % 4 refines % 2, so child j's corpus is exactly the
    union of parents {j, j+2} — hardlinked slices); 2-shard federation
    bit-identical to monolithic; split then shrink round-trips; bad
    factor refused."""
    import pyarrow.dataset as pads

    from search_engine_ray.pipelines.shard import (
        build_sharded, shard_of, shrink_shards, split_shards,
    )

    root4 = str(tmp_path / "four")
    assert build_sharded(tiny_corpus, root4, n_shards=4)["result"]
    dest = str(tmp_path / "two")
    s = shrink_shards(root4, 4, dest, factor=2)
    assert s["result"] and s["n_shards"] == 2, s
    for j in range(2):
        convs = set(
            pads.dataset(f"{dest}/corpus/shard={j}").to_table(
                columns=["conv_id"]).column("conv_id").to_pylist()
        )
        assert convs and all(shard_of(c, 2) == j for c in convs)
    mono = fed_env["mono"]
    fed2 = FederatedEngine(s["shard_outs"])
    assert fed2.n_docs == mono.n_docs and fed2.avgdl == mono.avgdl
    for q in QUERIES[:6]:
        rm = mono.search(q["query_text"], scope=q["scope"], limit=q["k"],
                         method="exhaustive")
        rf = fed2.search(q["query_text"], scope=q["scope"], limit=q["k"])
        assert rf["count"] == rm["count"], q["query_id"]
        assert rf["data"].equals(rm["data"]), q["query_id"]
    # idempotent re-run
    assert shrink_shards(root4, 4, dest, factor=2)["built"] == []
    # guards: factor must divide
    assert shrink_shards(root4, 4, str(tmp_path / "z"), factor=3)["error"] == "bad_factor"
