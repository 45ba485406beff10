"""Delta-generation compaction (pipelines/compact.py): folding the LSM
overlay into the base must be RANK-IDENTICAL to both the overlay it
replaces and a full rebuild of the modified corpus — and, when no
conversation was dropped, produce byte-equivalent decoded postings and
an identical lemma dictionary to the rebuild."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from search_engine_ray import datagen
from search_engine_ray.config import BuildConfig
from search_engine_ray.pipelines import build, compact, delta
from search_engine_ray.search import SearchEngine
from search_engine_ray.stages.encode import decode_block_range, binary_column_buffers

from test_delta import _compare_engines, _modify_corpus


def _decoded_flat(out_dir: str) -> pa.Table:
    """Fully decoded (lemma, docid, tf, dl, scope_role, scope_tool) rows
    of an index, sorted — the physical-equivalence comparator. Scope
    codes are decoded to VALUE pairs (code spaces may be numbered
    differently between two equivalent indexes)."""
    m = json.load(open(os.path.join(out_dir, "build.json")))
    roles = m["stats"]["roles"]
    tools = m["stats"]["tools"]
    t = pq.read_table(build.index_dir(out_dir))
    n = t.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    cum = np.concatenate(([0], np.cumsum(n)))
    docid, tf, dl, sc = decode_block_range(
        binary_column_buffers(t.column("gaps")),
        binary_column_buffers(t.column("tfs")),
        binary_column_buffers(t.column("dls")),
        cum, 0, t.num_rows,
        scps_buf=binary_column_buffers(t.column("scps")),
    )
    nt = len(tools) + 1
    r_vals = np.array([""] + roles, dtype=object)
    t_vals = np.array([""] + tools, dtype=object)
    lem = t.column("lemma").combine_chunks().take(
        pa.array(np.repeat(np.arange(t.num_rows), n), pa.int64())
    )
    out = pa.table(
        {
            "lemma": lem,
            "docid": pa.array(docid, pa.int64()),
            "tf": pa.array(tf, pa.int64()),
            "dl": pa.array(dl, pa.int64()),
            "role": pa.array(r_vals[sc // nt], pa.string()),
            "tool": pa.array(t_vals[sc % nt], pa.string()),
        }
    )
    return out.sort_by([("lemma", "ascending"), ("docid", "ascending")])


@pytest.fixture(scope="module")
def compact_env(tmp_path_factory, tiny_corpus, ray_session):
    """base build + two generations (the second superseding the first for
    conv A, plus conv B re-indexed with NOVEL (role, tool) values) +
    full rebuild of the final corpus."""
    root = tmp_path_factory.mktemp("compact")
    base_out = str(root / "base")
    build.build_index(
        BuildConfig(input_paths=tiny_corpus, out_dir=base_out, n_partitions=2, concurrency=2)
    )

    eng0 = SearchEngine(base_out)
    conv_a = eng0.search(datagen.stem(0), limit=3)["data"].column("conv_id")[0].as_py()
    conv_b = eng0.search(datagen.stem(2), limit=3)["data"].column("conv_id")[0].as_py()
    if conv_b == conv_a:
        conv_b = eng0.search(datagen.stem(2), limit=3)["data"].column("conv_id")[1].as_py()

    # gen 1: rewrite conv A
    mod1 = _modify_corpus(
        tiny_corpus, str(root / "mod1"), conv_a,
        [f"{datagen.stem(7)} {datagen.stem(7)} first rewrite", f"{datagen.stem(3)} extra turn"],
    )
    assert delta.reindex_conversations(base_out, [conv_a], input_paths=mod1)["result"]

    # gen 2: rewrite conv A AGAIN (gen 2 must win) and conv B with a
    # role/tool pair unseen at base-build time
    mod2 = _modify_corpus(
        mod1, str(root / "mod2"), conv_a,
        [f"{datagen.stem(11)} {datagen.stem(11)} second rewrite wins"],
    )
    mod2b_dir = str(root / "mod2b")
    os.makedirs(mod2b_dir, exist_ok=True)
    mod_final = []
    for f in mod2:
        t = pq.read_table(f)
        mask = pc.equal(t.column("conv_id"), conv_b)
        mine = t.filter(mask)
        if mine.num_rows:
            nrow = mine.num_rows
            mine = mine.set_column(
                mine.schema.get_field_index("role"), "role",
                pa.array(["moderator"] * nrow, pa.string()),
            )
            mine = mine.set_column(
                mine.schema.get_field_index("tool"), "tool",
                pa.array(["tool-novel"] * nrow, pa.string()),
            )
            t = pa.concat_tables([t.filter(pc.invert(mask)), mine]).sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending")]
            )
        out = os.path.join(mod2b_dir, os.path.basename(f))
        pq.write_table(t, out)
        mod_final.append(out)
    assert delta.reindex_conversations(
        base_out, [conv_a, conv_b], input_paths=mod_final
    )["result"]

    rebuilt_out = str(root / "rebuilt")
    build.build_index(
        BuildConfig(input_paths=mod_final, out_dir=rebuilt_out, n_partitions=2, concurrency=2)
    )
    return {
        "root": root,
        "base_out": base_out,
        "rebuilt_out": rebuilt_out,
        "conv_a": conv_a,
        "conv_b": conv_b,
        "mod_final": mod_final,
        "tiny": tiny_corpus,
    }


def _fresh_overlay_copy(env, name: str) -> str:
    dst = str(env["root"] / name)
    if not os.path.exists(dst):
        shutil.copytree(env["base_out"], dst)
    return dst


def test_compact_rank_identical(compact_env):
    out = _fresh_overlay_copy(compact_env, "compacted")
    resp = compact.compact(out)
    assert resp == {"result": True, "error": None, "generations": 2}
    assert delta.list_generations(out) == []

    compacted = SearchEngine(out)
    assert not compacted._has_deltas
    rebuilt = SearchEngine(compact_env["rebuilt_out"])
    assert compacted.n_docs == rebuilt.n_docs
    assert compacted.avgdl == pytest.approx(rebuilt.avgdl, rel=1e-12)
    assert compacted.manifest["stats"]["roles"] == rebuilt.manifest["stats"]["roles"]
    assert compacted.manifest["stats"]["tools"] == rebuilt.manifest["stats"]["tools"]
    _compare_engines(compacted, rebuilt)
    # overlay (base + gens, untouched) agrees too
    _compare_engines(SearchEngine(compact_env["base_out"]), compacted)

    # novel scope values are valid scopes on the compacted index
    r = compacted.search(datagen.stem(2), scope="moderator", limit=5)
    r2 = rebuilt.search(datagen.stem(2), scope="moderator", limit=5)
    assert r["count"] == r2["count"] and r["data"].equals(r2["data"])

    # snippets for the re-indexed conv come from the generation's inputs
    s = compacted.search(datagen.stem(11), limit=5, with_snippets=True)
    mine = [x for x in s["data"].to_pylist() if x["conv_id"] == compact_env["conv_a"]]
    assert mine and any("second rewrite" in x["snippet"] or "<b>" in x["snippet"] for x in mine)


def test_text_fetch_follows_delta_inputs(compact_env):
    """A re-indexed conversation's text comes from its latest
    generation's input files, with the generation live and after
    compaction folds it (the manifest's text_overrides): mget and the
    "full" highlight serve exactly those files' text."""
    conv = compact_env["conv_a"]
    final = pa.concat_tables([pq.read_table(f) for f in compact_env["mod_final"]])
    final = final.filter(pc.equal(final.column("conv_id"), conv))
    texts = dict(zip(final.column("turn_idx").to_pylist(), final.column("text").to_pylist()))
    assert texts == {0: f"{datagen.stem(11)} {datagen.stem(11)} second rewrite wins"}
    out = _fresh_overlay_copy(compact_env, "text_fetch")
    for step in ("live generation", "compacted"):
        if step == "compacted":
            assert compact.compact(out)["result"]
        eng = SearchEngine(out)
        assert eng._has_deltas == (step == "live generation")
        got = eng.mget([(conv, 0), (conv, 1)])["data"].to_pylist()
        assert got[0]["text"] == texts[0] and not got[1]["found"], step
        rows = eng.search(datagen.stem(11), limit=50, with_snippets="full")["data"].to_pylist()
        [mine] = [r for r in rows if r["conv_id"] == conv]
        assert mine["highlighted"].replace("<b>", "").replace("</b>", "") == texts[0], step


def test_compact_sig_terms_identical_to_rebuild(compact_env):
    """significant_terms over the COMPACTED (generation-free) index ==
    the same surface over a fresh rebuild of the final corpus — the
    folded segments feed the distributed fg scan exactly; the overlay
    serves the same rows BEFORE compaction too (the tombstone-masked
    scan + touched-lemma driver fold)."""
    overlay = SearchEngine(compact_env["base_out"])
    ov = overlay.significant_terms(datagen.stem(0))
    assert ov["result"]
    rb0 = SearchEngine(compact_env["rebuilt_out"]).significant_terms(datagen.stem(0))
    assert ov["data"].equals(rb0["data"])
    out = _fresh_overlay_copy(compact_env, "compacted-sig")
    assert compact.compact(out)["result"]
    compacted = SearchEngine(out)
    rebuilt = SearchEngine(compact_env["rebuilt_out"])
    for probe in (datagen.stem(0), datagen.stem(2), datagen.stem(11)):
        a = compacted.significant_terms(probe)
        b = rebuilt.significant_terms(probe)
        assert a["result"] and b["result"]
        assert a["count"] == b["count"], probe
        assert a["data"].equals(b["data"]), probe


def test_compact_physical_equivalence(compact_env):
    """No conv was dropped, so the compacted (minor/segment-merge) index
    must decode to EXACTLY the rebuild's postings (same docids, tfs,
    dls, scope value pairs) and carry an identical lemma dictionary —
    the physical blocking may differ, the content may not. The merged
    doc store must stay globally docid-sorted on a directory read (the
    engine's forward index binary-searches it)."""
    out = _fresh_overlay_copy(compact_env, "compacted")  # compacted by prior test
    if delta.list_generations(out):
        assert compact.compact(out)["result"]
    a = _decoded_flat(out)
    b = _decoded_flat(compact_env["rebuilt_out"])
    assert a.equals(b)
    da = pq.read_table(build.lemma_dict_path(out))
    db = pq.read_table(build.lemma_dict_path(compact_env["rebuilt_out"]))
    assert da.equals(db)
    ids = pq.read_table(build.docs_dir(out), columns=["docid"]).column("docid").to_numpy()
    assert (np.diff(ids) > 0).all()


def test_compact_major_mode(compact_env):
    """mode=major (global re-sort) defragments to the rebuild's exact
    clustering: decoded content AND search results identical."""
    out = _fresh_overlay_copy(compact_env, "compact_major")
    resp = compact.compact(out, mode="major")
    assert resp == {"result": True, "error": None, "generations": 2}
    a = _decoded_flat(out)
    b = _decoded_flat(compact_env["rebuilt_out"])
    assert a.equals(b)
    _compare_engines(SearchEngine(out), SearchEngine(compact_env["rebuilt_out"]))


def test_compact_noop(compact_env):
    resp = compact.compact(compact_env["rebuilt_out"])
    assert resp == {"result": True, "error": None, "generations": 0}


def test_compact_crash_recovery(compact_env, monkeypatch):
    out = _fresh_overlay_copy(compact_env, "compact_crash")
    monkeypatch.setenv("GRAFT_COMPACT_CRASH", "mid_swap")
    with pytest.raises(RuntimeError, match="injected"):
        compact.compact(out)
    monkeypatch.delenv("GRAFT_COMPACT_CRASH")
    # half-swapped: the engine refuses to load
    with pytest.raises(RuntimeError, match="half-swapped"):
        SearchEngine(out)
    # a non-resume call refuses too
    assert compact.compact(out)["result"] is False
    resp = compact.compact(out, resume=True)
    assert resp["result"] and resp["generations"] == 2
    _compare_engines(SearchEngine(out), SearchEngine(compact_env["rebuilt_out"]))


def test_compact_zero_turn_conv_keeps_ranks(compact_env, tmp_path):
    """A conv re-indexed to ZERO turns vanishes from the doc store; the
    conv-rank sidecar must keep docid ranks stable so post-compaction
    deltas still land on the right ranges. Search comparisons are on
    (conv_id, turn_idx) — rank gaps don't affect result order."""
    tiny = compact_env["tiny"]
    root = tmp_path
    base_out = str(root / "base0")
    build.build_index(
        BuildConfig(input_paths=tiny, out_dir=base_out, n_partitions=2, concurrency=2)
    )
    eng0 = SearchEngine(base_out)
    data0 = eng0.search(datagen.stem(0), limit=3)["data"]
    conv_gone = data0.column("conv_id")[0].as_py()
    conv_later = None  # a conv sorting AFTER the dropped one (rank shift risk)
    for row in data0.column("conv_id").to_pylist()[1:]:
        if row > conv_gone:
            conv_later = row
            break
    if conv_later is None:
        pytest.skip("no later conv among hits")

    mod1 = _modify_corpus(tiny, str(root / "m1"), conv_gone, [])
    assert delta.reindex_conversations(base_out, [conv_gone], input_paths=mod1)["result"]
    assert compact.compact(base_out)["result"]
    assert os.path.exists(os.path.join(base_out, "convs.parquet"))

    # post-compaction delta on a LATER conv: ranks must come from the
    # sidecar (the doc store no longer contains conv_gone)
    mod2 = _modify_corpus(
        mod1, str(root / "m2"), conv_later,
        [f"{datagen.stem(5)} {datagen.stem(5)} after-compact rewrite"],
    )
    assert delta.reindex_conversations(base_out, [conv_later], input_paths=mod2)["result"]

    rebuilt_out = str(root / "rebuilt0")
    build.build_index(
        BuildConfig(input_paths=mod2, out_dir=rebuilt_out, n_partitions=2, concurrency=2)
    )
    _compare_engines(SearchEngine(base_out), SearchEngine(rebuilt_out))


def test_compact_oversized_regime(compact_env, monkeypatch):
    """GRAFT_COMPACT_BCAST_MAX=0 forces the 100TB major plan: stats via
    map-side partial aggregates and dl/scope riding the shuffle instead
    of the docid-aligned broadcast — must be rank-identical to the
    broadcast regime's output (== the rebuild)."""
    monkeypatch.setenv("GRAFT_COMPACT_BCAST_MAX", "0")
    out = _fresh_overlay_copy(compact_env, "compact_oversized")
    resp = compact.compact(out, mode="major")
    assert resp == {"result": True, "error": None, "generations": 2}
    a = _decoded_flat(out)
    b = _decoded_flat(compact_env["rebuilt_out"])
    assert a.equals(b)
    _compare_engines(SearchEngine(out), SearchEngine(compact_env["rebuilt_out"]))


def test_compact_repeated_cycles(compact_env, tmp_path):
    """Full LSM lifecycle over several cycles: delta -> minor compact ->
    delta -> minor compact -> delta -> MAJOR compact, each step checked
    rank-identical to a rebuild of the corpus as modified so far.
    Pins text-override accumulation, scope renumbering across repeated
    folds, and that fragmentation from minor folds never changes
    results."""
    tiny = compact_env["tiny"]
    base_out = str(tmp_path / "base")
    build.build_index(
        BuildConfig(input_paths=tiny, out_dir=base_out, n_partitions=2, concurrency=2)
    )
    eng0 = SearchEngine(base_out)
    convs = []
    for i in (0, 2, 4):
        for c in eng0.search(datagen.stem(i), limit=5)["data"].column("conv_id").to_pylist():
            if c not in convs:
                convs.append(c)
                break
    assert len(convs) == 3

    cur_files = tiny
    for cycle, (conv, mode) in enumerate(
        zip(convs, ["minor", "minor", "major"]), start=1
    ):
        cur_files = _modify_corpus(
            cur_files, str(tmp_path / f"mod{cycle}"), conv,
            [f"{datagen.stem(cycle + 5)} {datagen.stem(cycle + 5)} "
             f"{datagen.stem(cycle + 5)} cycle {cycle} rewrite",
             f"{datagen.stem(cycle + 6)} extra"],
        )
        assert delta.reindex_conversations(base_out, [conv], input_paths=cur_files)["result"]
        resp = compact.compact(base_out, mode=mode)
        assert resp["result"] and resp["generations"] == 1
        rb = str(tmp_path / f"rebuilt{cycle}")
        build.build_index(
            BuildConfig(input_paths=cur_files, out_dir=rb, n_partitions=2, concurrency=2)
        )
        _compare_engines(SearchEngine(base_out), SearchEngine(rb))
        # snippets keep flowing from each cycle's own input files
        s = SearchEngine(base_out).search(
            datagen.stem(cycle + 5), limit=20, with_snippets=True
        )
        mine = [x for x in s["data"].to_pylist() if x["conv_id"] == conv]
        assert mine and any(f"cycle {cycle}" in x["snippet"] or "<b>" in x["snippet"] for x in mine)
    m = json.load(open(os.path.join(base_out, "build.json")))
    assert [c["mode"] for c in m["compactions"]] == ["minor", "minor", "major"]
    assert len(m["text_overrides"]) == 3


def test_scope_remap_dead_values_map_to_empty():
    """A role/tool present in the old manifest but absent from the
    compacted doc store (its last conversation was tombstoned) must
    remap to the empty-value code 0, not crash the compaction retry
    loop with .index ValueError."""
    from search_engine_ray.pipelines.compact import _scope_remap_lut
    from search_engine_ray.stages.encode import scope_code_space

    old_roles, old_tools = ["assistant", "user"], ["bash", "web"]
    new_roles, new_tools = ["assistant", "user"], ["bash"]  # 'web' died
    lut = _scope_remap_lut(old_roles, old_tools, new_roles, new_tools)
    assert len(lut) == scope_code_space(old_roles, old_tools)
    nt_old, nt_new = len(old_tools) + 1, len(new_tools) + 1
    for r_old, role in enumerate([""] + old_roles):
        for t_old, tool in enumerate([""] + old_tools):
            got = lut[r_old * nt_old + t_old]
            r_new = ([""] + new_roles).index(role) if role in new_roles or role == "" else 0
            t_new = ([""] + new_tools).index(tool) if tool in new_tools or tool == "" else 0
            assert got == r_new * nt_new + t_new
    # surviving pairs keep full fidelity; dead-tool codes fold to tool 0
    assert lut[1 * nt_old + 2] == 1 * nt_new + 0  # (assistant, web) -> (assistant, '')


def test_merge_docs_segments_all_empty_base(tmp_path, ray_session):
    """A base doc store whose every file is zero-row (emptied by prior
    folds) must not crash the segment merge: the delta docs become the
    whole new store, docid-sorted; with no delta an empty same-schema
    store is written."""
    import numpy as np

    from search_engine_ray.pipelines import build as build_mod
    from search_engine_ray.pipelines.compact import _merge_docs_segments

    out = str(tmp_path / "idx")
    doc_cols = ["conv_id", "turn_idx", "role", "doc_len", "tool", "ts", "docid"]
    schema = pa.schema([
        ("conv_id", pa.string()), ("turn_idx", pa.int32()),
        ("role", pa.string()), ("doc_len", pa.int32()),
        ("tool", pa.string()), ("ts", pa.timestamp("us")), ("docid", pa.int64()),
    ])
    os.makedirs(build_mod.docs_dir(out))
    pq.write_table(schema.empty_table(), os.path.join(build_mod.docs_dir(out), "d0.parquet"))
    delta = pa.table({
        "conv_id": pa.array(["c"], pa.string()),
        "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"], pa.string()),
        "doc_len": pa.array([3], pa.int32()),
        "tool": pa.array([""], pa.string()),
        "ts": pa.array([0], pa.timestamp("us")),
        "docid": pa.array([7], pa.int64()),
    })
    t1 = str(tmp_path / "t1")
    _merge_docs_segments(out, t1, delta, np.array([], np.int64), np.array([], np.int64), doc_cols)
    got = pq.read_table(t1)
    assert got.num_rows == 1 and got.column("docid").to_pylist() == [7]
    t2 = str(tmp_path / "t2")
    _merge_docs_segments(out, t2, None, np.array([], np.int64), np.array([], np.int64), doc_cols)
    assert pq.read_table(t2).num_rows == 0
