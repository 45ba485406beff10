"""Index-build correctness vs the DuckDB oracle (SURVEY.md §5.3) and the
per-row invariant (§5.2)."""

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from search_engine_ray import oracle
from search_engine_ray.docid import split_docids
from search_engine_ray.pipelines import build

SRC = lambda: oracle.transcripts_rel("sf0.001")  # noqa: E731


def test_lemma_dict_matches_oracle(tiny_index, duck):
    ora = duck.execute(
        oracle.lemma_dict_sql(SRC()) + " ORDER BY lemma"
    ).fetch_arrow_table()
    eng = (
        pq.read_table(build.lemma_dict_path(tiny_index["out_dir"]))
        .select(["lemma", "df", "cf", "max_tf"])
        .sort_by("lemma")
    )
    assert ora.num_rows == eng.num_rows
    for col in ("lemma", "df", "cf", "max_tf"):
        assert ora.column(col).to_pylist() == eng.column(col).to_pylist(), col


def test_doc_stats_matches_oracle(tiny_index, duck):
    ora = duck.execute(
        f"SELECT * FROM ({oracle.doc_stats_sql(SRC())}) ORDER BY conv_id, turn_idx"
    ).fetch_arrow_table()
    eng = pq.read_table(
        build.docs_dir(tiny_index["out_dir"]),
        columns=["conv_id", "turn_idx", "doc_len", "docid"],
    ).sort_by("docid")
    assert ora.num_rows == eng.num_rows
    # docid order == (conv_id, turn_idx) lexicographic order
    assert ora.column("conv_id").to_pylist() == eng.column("conv_id").to_pylist()
    assert ora.column("turn_idx").to_pylist() == eng.column("turn_idx").to_pylist()
    assert ora.column("doc_len").to_pylist() == eng.column("doc_len").to_pylist()


def test_docid_bijection(tiny_index):
    docs = pq.read_table(build.docs_dir(tiny_index["out_dir"]), columns=["docid", "turn_idx"])
    ids = np.sort(docs.column("docid").to_numpy())
    assert len(np.unique(ids)) == len(ids)
    _, turn = split_docids(docs.column("docid").to_numpy())
    assert (turn == docs.column("turn_idx").to_numpy()).all()


def test_flat_postings_match_oracle(tiny_index, duck):
    ora = duck.execute(
        oracle.flat_postings_sql(SRC()) + " ORDER BY lemma, conv_id, turn_idx"
    ).fetch_arrow_table()
    eng = (
        build.read_flat_postings(
            tiny_index["out_dir"], columns=["lemma", "conv_id", "turn_idx", "tf"]
        )
        .to_pandas()
        .sort_values(["lemma", "conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert len(eng) == ora.num_rows
    for col in ("lemma", "conv_id", "turn_idx", "tf"):
        assert eng[col].tolist() == ora.column(col).to_pylist(), col


def test_corpus_stats_match_manifest(tiny_index, duck):
    row = duck.execute(oracle.corpus_stats_sql(SRC())).fetch_arrow_table().to_pylist()[0]
    s = tiny_index["manifest"]["stats"]
    assert row["n_docs"] == s["n_docs"]
    assert row["n_convs"] == s["n_convs"]
    assert row["total_len"] == s["total_len"]
    assert row["n_lemmas"] == s["n_lemmas"]
    assert row["n_postings"] == s["n_postings"]
    assert abs(row["avgdl"] - s["avgdl"]) < 1e-6


def test_per_row_invariant_text_equality(tiny_index, duck):
    """BASELINE.json per-row invariant: per-turn text equality under
    stable (conv_id, turn_idx) ordering, engine read vs oracle read."""
    from search_engine_ray.sources.transcripts import read_transcripts

    eng = (
        read_transcripts(tiny_index["files"], columns=["conv_id", "turn_idx", "text"])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    ora = duck.execute(
        f"SELECT conv_id, turn_idx, text FROM {SRC()} ORDER BY conv_id, turn_idx"
    ).fetch_arrow_table()
    assert eng["conv_id"].tolist() == ora.column("conv_id").to_pylist()
    assert eng["turn_idx"].tolist() == ora.column("turn_idx").to_pylist()
    assert eng["text"].tolist() == ora.column("text").to_pylist()


def test_index_blocks_reconstruct_flat_postings(tiny_index, duck):
    """Decoding the whole compressed index reproduces the flat postings
    exactly (lemma, conv_id-rank order, tf) — compression is lossless."""
    from search_engine_ray.stages.encode import decode_block

    idx = pq.read_table(build.index_dir(tiny_index["out_dir"]))
    per_lemma: dict[str, list] = {}
    for row in idx.to_pylist():
        d, tf, _ = decode_block(row["gaps"], row["tfs"], row["dls"], row["n"])
        per_lemma.setdefault(row["lemma"], []).append((d, tf))
    ora = duck.execute(
        oracle.flat_postings_sql(SRC()) + " ORDER BY lemma, conv_id, turn_idx"
    ).fetch_arrow_table()
    ora_lemmas = ora.column("lemma").to_pylist()
    ora_turns = ora.column("turn_idx").to_pylist()
    ora_tf = ora.column("tf").to_pylist()
    pos = 0
    for lem in sorted(per_lemma):
        runs = sorted(per_lemma[lem], key=lambda r: r[0][0])
        ids = np.concatenate([r[0] for r in runs])
        tfs = np.concatenate([r[1] for r in runs])
        assert (np.diff(ids) > 0).all(), lem
        _, turn = split_docids(ids)
        n = len(ids)
        assert ora_lemmas[pos : pos + n] == [lem] * n
        assert ora_turns[pos : pos + n] == list(turn)
        assert ora_tf[pos : pos + n] == [int(t) for t in tfs]
        pos += n
    assert pos == ora.num_rows


def test_collision_fallback_index_identical(tiny_index, tmp_path, tiny_corpus):
    """The string-free exchange and the collision-fallback path (lemma
    carried through the shuffle) must produce semantically identical
    indexes: same decoded postings, same dictionary."""
    from search_engine_ray.config import BuildConfig

    out = str(tmp_path / "fallback")
    cfg = BuildConfig(
        input_paths=tiny_corpus, out_dir=out, n_partitions=2, concurrency=2,
        extra={"force_lemma_in_shuffle": True},
    )
    build.build_index(cfg)

    def canon(d):
        """Decoded per-lemma postings (block layout may fragment
        differently across partitionings; the content must not)."""
        from search_engine_ray.stages.encode import decode_block

        idx = pq.read_table(build.index_dir(d))
        per: dict[str, list] = {}
        for row in idx.to_pylist():
            dec = decode_block(row["gaps"], row["tfs"], row["dls"], row["n"])
            per.setdefault(row["lemma"], []).append(dec)
        out = {}
        for lem, runs in per.items():
            runs.sort(key=lambda r: r[0][0])
            out[lem] = tuple(
                np.concatenate([r[i] for r in runs]).tolist() for i in range(3)
            )
        return out

    a, b = canon(tiny_index["out_dir"]), canon(out)
    assert a == b
    da = pq.read_table(build.lemma_dict_path(tiny_index["out_dir"]))
    db = pq.read_table(build.lemma_dict_path(out))
    assert da.equals(db)


def test_distributed_vocab_path_identical(tiny_index, tmp_path, tiny_corpus):
    """The distributed dictionary-page vocabulary pass (post_bytes above
    the driver threshold -> per-file-group Ray tasks) must produce the
    same index and dictionary as the driver-side read — forced here with
    driver_small_post_bytes=0; also composed with the forced-collision
    fallback (the superset vocab must still trip the lemma-in-shuffle
    path)."""
    from search_engine_ray.config import BuildConfig
    from search_engine_ray.stages.encode import decode_block

    def canon(d):
        idx = pq.read_table(build.index_dir(d))
        per: dict[str, list] = {}
        for row in idx.to_pylist():
            dec = decode_block(row["gaps"], row["tfs"], row["dls"], row["n"])
            per.setdefault(row["lemma"], []).append(dec)
        out = {}
        for lem, runs in per.items():
            runs.sort(key=lambda r: r[0][0])
            out[lem] = tuple(
                np.concatenate([r[i] for r in runs]).tolist() for i in range(3)
            )
        return out

    out = str(tmp_path / "distvocab")
    build.build_index(BuildConfig(
        input_paths=tiny_corpus, out_dir=out, n_partitions=2, concurrency=2,
        driver_small_post_bytes=0,
    ))
    assert canon(out) == canon(tiny_index["out_dir"])
    assert pq.read_table(build.lemma_dict_path(out)).equals(
        pq.read_table(build.lemma_dict_path(tiny_index["out_dir"])))

    out2 = str(tmp_path / "distvocab-collide")
    build.build_index(BuildConfig(
        input_paths=tiny_corpus, out_dir=out2, n_partitions=2, concurrency=2,
        driver_small_post_bytes=0, extra={"force_lemma_in_shuffle": True},
    ))
    assert canon(out2) == canon(tiny_index["out_dir"])


def test_join_docids_path_identical(tiny_index, tmp_path, tiny_corpus):
    """The beyond-broadcast docid path (distributed dense-rank table +
    hash join on conv_id) must produce the same index as the broadcast
    lookup path (verdict round-1 item #10)."""
    from search_engine_ray.config import BuildConfig
    from search_engine_ray.stages.encode import decode_block

    out = str(tmp_path / "joinpath")
    cfg = BuildConfig(
        input_paths=tiny_corpus, out_dir=out, n_partitions=2, concurrency=2,
        driver_small_docs_bytes=0,  # force the distributed stage-B path
        extra={"force_join_docids": True},
    )
    m = build.build_index(cfg)
    assert m["stats"] == tiny_index["manifest"]["stats"]

    def canon(d):
        idx = pq.read_table(build.index_dir(d))
        per = {}
        for row in idx.to_pylist():
            dec = decode_block(row["gaps"], row["tfs"], row["dls"], row["n"])
            per.setdefault(row["lemma"], []).append(dec)
        return {
            lem: tuple(
                np.concatenate([r[i] for r in sorted(runs, key=lambda r: r[0][0])]).tolist()
                for i in range(3)
            )
            for lem, runs in per.items()
        }

    assert canon(out) == canon(tiny_index["out_dir"])
    da = pq.read_table(build.docs_dir(out)).sort_by("docid")
    db = pq.read_table(build.docs_dir(tiny_index["out_dir"])).sort_by("docid")
    assert da.select(["docid", "conv_id", "turn_idx", "role", "doc_len"]).equals(
        db.select(["docid", "conv_id", "turn_idx", "role", "doc_len"])
    )


def test_shuffled_scope_code_path_identical(tiny_index, tmp_path, tiny_corpus):
    """The oversized-corpus regime (doc_len + int32 scope_code carried
    through the stage-C shuffle instead of the docid-aligned broadcast)
    must produce the same index as the broadcast path — including the
    per-posting scope-code stream, which is what scoped queries filter
    on at any corpus size."""
    from search_engine_ray.config import BuildConfig
    from search_engine_ray.search import SearchEngine
    from search_engine_ray.state import codec

    out = str(tmp_path / "noscopebcast")
    cfg = BuildConfig(
        input_paths=tiny_corpus, out_dir=out, n_partitions=2, concurrency=2,
        broadcast_dl_max_docs=0,  # force the shuffle-carried regime
    )
    build.build_index(cfg)

    def canon(d):
        from search_engine_ray.stages.encode import decode_block

        idx = pq.read_table(build.index_dir(d))
        per: dict[str, list] = {}
        for row in idx.to_pylist():
            dec = decode_block(row["gaps"], row["tfs"], row["dls"], row["n"])
            sc = codec.varint_decode(row["scps"], row["n"]).tolist()
            per.setdefault(row["lemma"], []).append((*dec, sc))
        return {
            lem: tuple(
                np.concatenate([np.asarray(r[i]) for r in sorted(runs, key=lambda r: r[0][0])]).tolist()
                for i in range(4)
            )
            for lem, runs in per.items()
        }

    assert canon(out) == canon(tiny_index["out_dir"])

    # scoped queries over both indexes are rank-identical
    eng_a = SearchEngine(tiny_index["out_dir"])
    eng_b = SearchEngine(out)
    for scope in ("user", "tool", "tool:tool-browse"):
        ra = eng_a.search("wbababa wcacaca", scope=scope, limit=10)
        rb = eng_b.search("wbababa wcacaca", scope=scope, limit=10)
        assert ra["count"] == rb["count"]
        assert ra["data"].equals(rb["data"]), scope


def test_explicit_concurrency_overlap_respects_safety_bound(tiny_corpus, tmp_path, ray_session):
    """Regression: an EXPLICIT concurrency combined with overlapped
    stage-A executions used to bypass the pool safety bound — overlap x
    conc actors with no cores left for reads/writes deadlocks Ray
    Data's scheduler outright (both datasets stall at spin-up forever;
    reproduced with concurrency=4, overlap=2, 8 cpus). The bound now
    caps explicit pools too: this build would hang without it."""
    from search_engine_ray.config import BuildConfig
    from search_engine_ray.pipelines import build

    out = str(tmp_path / "overlap-guard")
    m = build.build_index(BuildConfig(
        input_paths=tiny_corpus, out_dir=out,
        n_partitions=4, concurrency=8,          # 8 x 2 overlapped = 16 actors at 4 cpus
        extra={"stage_a_overlap": 2},
    ))
    assert m["state"] == "DONE"
    from search_engine_ray import datagen
    from search_engine_ray.search import SearchEngine

    assert SearchEngine(out).search(datagen.stem(0), limit=3)["count"] > 0


def test_explicit_concurrency_at_cluster_cpus_is_clamped(tiny_corpus, tmp_path, ray_session,
                                                         monkeypatch):
    """Regression: an explicit concurrency equal to the cluster's CPUs,
    WITHOUT overlapped executions, deadlocked stage A at scale (reproduced
    at num_cpus=2, concurrency=2, sf0.1: the analyzer actors held every
    CPU and the read tasks never ran). The safety bound — half the CPUs
    per overlapped execution — now applies at every overlap; the pool
    size handed to Ray Data is checked directly, since a tiny corpus
    does not hang."""
    import ray
    import ray.data

    from search_engine_ray.config import BuildConfig
    from search_engine_ray.pipelines import build

    pools = []
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, *a, **kw):
        if getattr(fn, "__name__", "") == "AnalyzerActor":
            pools.append(kw.get("concurrency"))
        return orig(self, fn, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    ncpu = int(ray.cluster_resources()["CPU"])
    m = build.build_index(BuildConfig(
        input_paths=tiny_corpus, out_dir=str(tmp_path / "cpus-guard"),
        n_partitions=2, concurrency=ncpu,
    ))
    assert m["state"] == "DONE"
    assert pools and set(pools) == {max(1, ncpu // 2)}
