"""Federated aggregations take the single-index filter arguments: the
``exclude`` NOT terms and the inclusive ``ts_min``/``ts_max`` bounds
apply in each shard, and the merged tables equal the monolithic ones."""

from search_engine_ray import datagen
from test_federate import fed_env  # noqa: F401 — the shared shard fixture

TS = {"ts_min": "2026-01-01T05:00:00", "ts_max": "2026-01-02T16:00:00"}


def test_federated_filtered_aggs_identical_to_monolithic(fed_env):  # noqa: F811
    mono, fed = fed_env["mono"], fed_env["fed"]
    hot, mid = datagen.stem(0), datagen.stem(120)
    calls = [
        ("facets", (hot,), {"by": ("role", "tool", "day")}),
        ("histogram", (hot,), {}),
        ("range_agg", (hot, [(None, 8), (8, 16), (16, None)]), {}),
        ("percentile_ranks", (hot, [0, 8, 16]), {}),
        ("cardinality", (hot,), {"fields": "conv,role,tool,day,doc_len,ts"}),
    ]
    for name, args, kw in calls:
        unfiltered = getattr(mono, name)(*args, **kw)["count"]
        for flt in ({"exclude": mid}, TS, {"exclude": mid, **TS}):
            rm = getattr(mono, name)(*args, **kw, **flt)
            rf = getattr(fed, name)(*args, **kw, **flt)
            assert 0 < rm["count"] < unfiltered, (name, flt)
            assert rf["count"] == rm["count"], (name, flt)
            assert rf["data"].equals(rm["data"]), (name, flt)
    for eng in (mono, fed):
        assert eng.histogram(hot, ts_min="not-a-date")["error"] == "bad_ts"
        assert eng.facets(hot, ts_max=3.5)["error"] == "bad_ts"
