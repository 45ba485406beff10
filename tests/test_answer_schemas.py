"""Every answer surface's ``data`` is a table of exactly that surface's
``*_SCHEMA`` constant (field names, order, types and nullability) on a
success, an empty success and an error, so a wrong column type cannot
pass unnoticed. A surface without one of the three outcomes (``analyze``
never fails; ``mget`` answers one row per requested key) skips it."""

import pytest

from search_engine_ray import datagen
from search_engine_ray import search as S
from search_engine_ray.search import SearchEngine

HOT, S1 = datagen.stem(0), datagen.stem(1)
ABSENT = "wqxqzq"  # deliberately absent from the vocabulary
NONE = ("conv-none", 0)  # an unknown document

# surface -> (schema, {outcome: call(engine, (conv_id, turn_idx) of a live doc)})
SURFACES = {
    "search": (S.RESULT_SCHEMA, {
        "success": lambda e, d: e.search(HOT),
        "empty": lambda e, d: e.search(ABSENT),
        "error": lambda e, d: e.search(HOT, scope="nope")}),
    "search_conversations": (S.CONV_RESULT_SCHEMA, {
        "success": lambda e, d: e.search_conversations(HOT),
        "empty": lambda e, d: e.search_conversations(ABSENT),
        "error": lambda e, d: e.search_conversations(HOT, limit=-1)}),
    "dis_max": (S.RESULT_SCHEMA, {
        "success": lambda e, d: e.dis_max([HOT, S1]),
        "empty": lambda e, d: e.dis_max([ABSENT]),
        "error": lambda e, d: e.dis_max([])}),
    "more_like_this": (S.RESULT_SCHEMA, {
        "success": lambda e, d: e.more_like_this(*d),
        "error": lambda e, d: e.more_like_this(*NONE)}),
    "facets": (S.FACETS_SCHEMA, {
        "success": lambda e, d: e.facets(HOT),
        "empty": lambda e, d: e.facets(ABSENT),
        "error": lambda e, d: e.facets(HOT, by=("nope",))}),
    "histogram": (S.HISTOGRAM_SCHEMA, {
        "success": lambda e, d: e.histogram(HOT),
        "empty": lambda e, d: e.histogram(ABSENT),
        "error": lambda e, d: e.histogram(HOT, field="nope")}),
    "histogram_pipeline": (S.HISTOGRAM_PIPELINE_SCHEMA, {
        "success": lambda e, d: e.histogram_pipeline(HOT),
        "empty": lambda e, d: e.histogram_pipeline(ABSENT),
        "error": lambda e, d: e.histogram_pipeline(HOT, window=0)}),
    "range_agg": (S.RANGE_AGG_SCHEMA, {
        "success": lambda e, d: e.range_agg(HOT, [(None, 20), (20, None)]),
        "empty": lambda e, d: e.range_agg(ABSENT, [(None, 20)]),
        "error": lambda e, d: e.range_agg(HOT, "nope")}),
    "percentile_ranks": (S.PRANKS_SCHEMA, {
        "success": lambda e, d: e.percentile_ranks(HOT, [10, 20]),
        "empty": lambda e, d: e.percentile_ranks(ABSENT, [10]),
        "error": lambda e, d: e.percentile_ranks(HOT, [])}),
    "cardinality": (S.CARDINALITY_SCHEMA, {
        "success": lambda e, d: e.cardinality(HOT),
        "empty": lambda e, d: e.cardinality(ABSENT),
        "error": lambda e, d: e.cardinality(HOT, fields=("nope",))}),
    "filters_agg": (S.FILTERS_AGG_SCHEMA, {
        "success": lambda e, d: e.filters_agg({"a": HOT, "b": S1}),
        "error": lambda e, d: e.filters_agg({})}),
    "adjacency_matrix": (S.FILTERS_AGG_SCHEMA, {
        "success": lambda e, d: e.adjacency_matrix({"a": HOT, "b": S1}),
        "error": lambda e, d: e.adjacency_matrix({})}),
    "metrics": (S.METRICS_SCHEMA, {
        "success": lambda e, d: e.metrics(HOT),
        "empty": lambda e, d: e.metrics(ABSENT),
        "error": lambda e, d: e.metrics(HOT, fields="nope")}),
    "matrix_stats": (S.MATRIX_STATS_SCHEMA, {
        "success": lambda e, d: e.matrix_stats(HOT),
        "empty": lambda e, d: e.matrix_stats(ABSENT),
        "error": lambda e, d: e.matrix_stats(HOT, scope="nope")}),
    "extended_stats": (S.EXT_STATS_SCHEMA, {
        "success": lambda e, d: e.extended_stats(HOT),
        "empty": lambda e, d: e.extended_stats(ABSENT),
        "error": lambda e, d: e.extended_stats(HOT, scope="nope")}),
    "top_hits": (S.TOP_HITS_SCHEMA, {
        "success": lambda e, d: e.top_hits(HOT),
        "empty": lambda e, d: e.top_hits(ABSENT),
        "error": lambda e, d: e.top_hits(HOT, by="nope")}),
    "facets_composite": (S.COMPOSITE_SCHEMA, {
        "success": lambda e, d: e.facets_composite(HOT, size=2),
        "empty": lambda e, d: e.facets_composite(ABSENT),
        "error": lambda e, d: e.facets_composite(HOT, size=0)}),
    "explain": (S.EXPLAIN_SCHEMA, {
        "success": lambda e, d: e.explain(f"{HOT} {S1}", *d),
        "empty": lambda e, d: e.explain(ABSENT, *d),
        "error": lambda e, d: e.explain(HOT, *NONE)}),
    "rank_eval": (S.RANK_EVAL_SCHEMA, {
        "success": lambda e, d: e.rank_eval(HOT),
        "empty": lambda e, d: e.rank_eval(ABSENT),
        "error": lambda e, d: e.rank_eval(HOT, k=0)}),
    "analyze": (S.ANALYZE_SCHEMA, {
        "success": lambda e, d: e.analyze(f"The {HOT} running"),
        "empty": lambda e, d: e.analyze("")}),
    "termvectors": (S.TERMVECTORS_SCHEMA, {
        "success": lambda e, d: e.termvectors(*d),
        "error": lambda e, d: e.termvectors(*NONE)}),
    "mget": (S.MGET_SCHEMA, {
        "success": lambda e, d: e.mget([d, NONE]),
        "error": lambda e, d: e.mget([])}),
    "complete": (S.COMPLETE_SCHEMA, {
        "success": lambda e, d: e.complete(HOT[:3]),
        "empty": lambda e, d: e.complete("zzq"),
        "error": lambda e, d: e.complete("a")}),
    "suggest_query": (S.SUGGEST_QUERY_SCHEMA, {
        "success": lambda e, d: e.suggest_query(f"{HOT[:-1]}x {S1}"),
        "error": lambda e, d: e.suggest_query("the")}),
    "suggest": (S.SUGGEST_SCHEMA, {  # a bare table, not a response
        "success": lambda e, d: e.suggest(HOT[:-1] + "x"),
        "empty": lambda e, d: e.suggest("zzzzzzzzzzzz")}),
    "significant_terms": (S.SIG_TERMS_SCHEMA, {
        "success": lambda e, d: e.significant_terms(S1, k=3),
        "empty": lambda e, d: e.significant_terms(ABSENT),
        "error": lambda e, d: e.significant_terms(HOT, scope="nope")}),
    "rare_terms": (S.RARE_TERMS_SCHEMA, {
        "success": lambda e, d: e.rare_terms(S1, k=3, max_doc_count=50),
        "empty": lambda e, d: e.rare_terms(ABSENT),
        "error": lambda e, d: e.rare_terms(HOT, k=0)}),
}

CASES = [(s, o) for s, (_, calls) in SURFACES.items() for o in calls]


@pytest.fixture(scope="module")
def engine(tiny_index):
    return SearchEngine(tiny_index["out_dir"])


@pytest.fixture(scope="module")
def doc(engine):
    top = engine.search(HOT, limit=1)["data"].to_pylist()[0]
    return top["conv_id"], top["turn_idx"]


@pytest.mark.parametrize("surface,outcome", CASES, ids=[f"{s}-{o}" for s, o in CASES])
def test_answer_data_has_the_surface_schema(engine, doc, surface, outcome):
    schema, calls = SURFACES[surface]
    got = calls[outcome](engine, doc)
    data = got if surface == "suggest" else got["data"]
    assert data.schema == schema, (data.schema, schema)
    if surface != "suggest":
        assert got["result"] is (outcome != "error"), got["error"]
    assert (data.num_rows > 0) is (outcome == "success"), data.num_rows
