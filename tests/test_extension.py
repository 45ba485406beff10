"""The formal extension surface (SURVEY.md §2.10 / protocols.py): a
custom Analyzer module flows through the build + query path, and a
registered Scorer strategy dispatches from search(mode=...)."""

import json
import shutil
import sys
import types

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_engine_ray import analyzer, datagen, protocols
from search_engine_ray.config import BuildConfig
from search_engine_ray.pipelines import build
from search_engine_ray.search import SCORERS, SearchEngine, register_scorer


def test_default_analyzer_satisfies_protocol():
    assert isinstance(analyzer, protocols.Analyzer)
    from tests.plugins import keep_stopwords_analyzer

    assert isinstance(keep_stopwords_analyzer, protocols.Analyzer)


def test_custom_analyzer_build_and_query(tmp_path):
    # a corpus that actually contains stopwords (the synthetic corpus is
    # stems-only, where both analyzers coincide)
    import pyarrow as pa

    rows = [
        ("c-0", 0, "user", "the cat sat on the mat", "", 1_700_000_000_000_000),
        ("c-0", 1, "assistant", "a cat and the dog", "", 1_700_000_060_000_000),
        ("c-1", 0, "user", "dogs chase cats", "", 1_700_003_600_000_000),
    ]
    tbl = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "role": pa.array([r[2] for r in rows], pa.string()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "tool": pa.array([r[4] for r in rows], pa.string()),
            "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
        }
    )
    src = str(tmp_path / "mini.parquet")
    pq.write_table(tbl, src)

    out_c = str(tmp_path / "custom")
    m = build.build_index(
        BuildConfig(
            input_paths=[src], out_dir=out_c, n_partitions=1, concurrency=1,
            extra={"analyzer_module": "tests.plugins.keep_stopwords_analyzer"},
        )
    )
    assert m["config"]["analyzer_module"] == "tests.plugins.keep_stopwords_analyzer"
    out_d = str(tmp_path / "default")
    build.build_index(
        BuildConfig(input_paths=[src], out_dir=out_d, n_partitions=1, concurrency=1)
    )
    lem_c = set(pq.read_table(build.lemma_dict_path(out_c))["lemma"].to_pylist())
    lem_d = set(pq.read_table(build.lemma_dict_path(out_d))["lemma"].to_pylist())
    assert "the" in lem_c and "the" not in lem_d
    # query analysis uses the module recorded in the manifest
    eng = SearchEngine(out_c)
    r = eng.search("the")
    assert r["result"] and r["count"] == 2  # both c-0 turns contain 'the'
    assert SearchEngine(out_d).search("the")["error"] == "empty_query"
    # snippets and highlights mark words by the index's own analyzer:
    # 'the' is a query lemma here, not a stopword
    for mode, col in ((True, "snippet"), ("full", "highlighted")):
        marked = eng.search("the", with_snippets=mode)["data"].column(col).to_pylist()
        assert len(marked) == 2
        assert all("<b>the</b>" in x or "<b>The</b>" in x for x in marked), marked
    # lineage records the custom module:version
    assert m["versions"]["analyzer"].startswith("tests.plugins")


def test_incomplete_analyzer_module_refused(tiny_index, tmp_path, monkeypatch):
    """An index bound to an analyzer module without the token rules the
    engine reads is refused, naming what is missing — never served with
    the default module's stopwords or lemmatizer."""
    mod = types.ModuleType("tests_incomplete_analyzer")
    for name in ("ANALYZER_VERSION", "analyze_batch", "analyze_query", "analyze",
                 "normalize_text", "lemmatize_token"):
        setattr(mod, name, getattr(analyzer, name))
    assert not isinstance(mod, protocols.Analyzer)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    out = str(tmp_path / "idx")
    shutil.copytree(tiny_index["out_dir"], out)
    mp = build.build_manifest_path(out)
    with open(mp) as f:
        m = json.load(f)
    m["config"]["analyzer_module"] = mod.__name__
    with open(mp, "w") as f:
        json.dump(m, f)
    with pytest.raises(TypeError, match="_STOPSET, MIN_TOKEN_LEN"):
        SearchEngine(out)
    mod._STOPSET, mod.MIN_TOKEN_LEN = analyzer._STOPSET, analyzer.MIN_TOKEN_LEN
    assert isinstance(mod, protocols.Analyzer)
    assert SearchEngine(out).search(datagen.stem(0))["result"]


def test_custom_scorer_registration(tiny_index):
    @register_scorer("constant-test")
    def constant(engine, terms, k, scope, conjunctive):
        bl = engine._term_blocks([t[0] for t in terms])
        lem = terms[0][0]
        (docid,) = engine._decoded(bl[lem], streams=("docid",))
        ids = docid[:k]
        return ids, np.ones(len(ids), np.float64), int(len(docid))

    try:
        eng = SearchEngine(tiny_index["out_dir"])
        from search_engine_ray import datagen

        r = eng.search(datagen.stem(0), mode="constant-test", limit=5)
        assert r["result"] and r["data"].num_rows == 5
        assert set(r["data"].column("score").to_pylist()) == {1.0}
        assert r["count"] > 0
        assert eng.search(datagen.stem(0), mode="nope")["error"] == "unknown_mode"
        # a registered scorer returns only its top-k: a doc-level filter
        # there is refused, not applied to k docs
        for kw in ({"exclude": datagen.stem(1)}, {"ts_min": 0}, {"collapse": 1},
                   {"decay": {"origin": 0, "scale": 1.0}}):
            assert (eng.search(datagen.stem(0), mode="constant-test", **kw)["error"]
                    == "bad_filter_mode")
    finally:
        SCORERS.pop("constant-test", None)
