"""The query side imports no Ray: opening an engine, every search mode
the server answers from the posting index, statistics, a CLI read, the
served read endpoints and a delta write all run in a process where
``ray`` was never imported. Only a Ray Data endpoint (``export``) loads
Ray, on first use. The read surfaces import no pandas either (every
search mode, the aggregations and analysis surfaces that start no Ray
Data job, statistics, a delta-overlaid engine and a shard federation):
pyarrow imports it for its pandas-backed conversions (``to_numpy``,
``pa.array``, ``pq.read_table``, ...), which they do not call. Checked
in a fresh subprocess, the way ``tests/test_cli.py`` runs the CLI,
because the test session itself holds a Ray session."""

import json
import os
import shutil
import subprocess
import sys

from search_engine_ray.pipelines import delta
from search_engine_ray.pipelines import phrase_aux as aux_mod
from test_federate import fed_env  # noqa: F401 — the shared shard fixture

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import contextlib, io, json, sys, threading, urllib.request

out, dest = sys.argv[1], sys.argv[2]
pandas_at = []


def no_pandas(step):
    # the first step after which pyarrow had imported pandas
    if "pandas" in sys.modules and not pandas_at:
        pandas_at.append(step)


from search_engine_ray import __main__ as cli, datagen
from search_engine_ray.search import SearchEngine
from search_engine_ray.server import make_server
from search_engine_ray.stats import statistics

hot, s1, s2 = datagen.stem(0), datagen.stem(1), datagen.stem(2)
eng = SearchEngine(out)
no_pandas("open")
assert eng.search(hot, limit=3)["count"] > 0
no_pandas("bm25")
assert eng.search(f"{hot} {s1}", mode="phrase", limit=3)["result"]
no_pandas("phrase")
snip = eng.search(hot, limit=3, with_snippets=True)["data"]
assert "snippet" in snip.column_names and snip.num_rows == 3
no_pandas("snippets")
full = eng.search(hot, limit=3, with_snippets="full")["data"]
assert "highlighted" in full.column_names and full.num_rows == 3
no_pandas("full")
assert eng.search(hot, exclude=s1, limit=3)["result"]
no_pandas("exclude")
assert eng.search(hot, ts_min="2024-01-10T00:00:00", ts_max="2030-01-01", limit=3)["result"]
no_pandas("ts")
assert eng.search(hot[:-1] + "x", mode="fuzzy", limit=3)["count"] > 0
assert eng.search(hot[:3] + "*", mode="wildcard", limit=3)["count"] > 0
assert eng.search(hot[:3] + ".*", mode="regexp", limit=3)["count"] > 0
no_pandas("fuzzy, wildcard, regexp")
assert eng.suggest(hot[:-1] + "x").num_rows and eng.complete(hot[:3])["count"]
assert eng.suggest_query(f"{hot[:-1]}x {s1}")["changed"]
no_pandas("suggest, complete")
assert eng.facets(hot, by=("role", "tool", "day"))["count"] > 0
assert eng.range_agg(hot, [(None, 20), (20, None)])["result"]
top = eng.search(hot, limit=1)["data"].to_pylist()[0]
assert eng.mget([(top["conv_id"], top["turn_idx"]), ("conv-none", 0)])["count"] == 1
no_pandas("facets, range_agg, mget")
c, t = top["conv_id"], top["turn_idx"]
for step, call in (
        ("metrics", lambda: eng.metrics(hot)),
        ("matrix_stats", lambda: eng.matrix_stats(hot)),
        ("extended_stats", lambda: eng.extended_stats(hot)),
        ("top_hits", lambda: eng.top_hits(hot)),
        ("explain", lambda: eng.explain(f"{hot} {s1}", c, t)),
        ("analyze", lambda: eng.analyze(f"The {hot} running")),
        ("termvectors", lambda: eng.termvectors(c, t)),
        ("histogram_pipeline", lambda: eng.histogram_pipeline(hot)),
        ("facets_composite", lambda: eng.facets_composite(hot, size=2)),
        ("search_conversations", lambda: eng.search_conversations(hot)),
        ("rank_eval", lambda: eng.rank_eval(hot))):
    assert call()["count"] > 0, step
    no_pandas(step)
# the index carries a phrase aux: at least one phrase query reads a pair
assert eng._aux_pairs
for q in datagen.phrase_queries():
    eng.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase")
assert "aux" in eng._cache.stats()
no_pandas("phrase aux")
# a hot pair outside the aux: its adjacency list is built on demand
pl = SearchEngine(out)
pl._aux_pairs, pl.PAIR_CACHE_MIN_COST = {}, 0
assert pl.search(f"{hot} {s2}", mode="phrase", limit=3)["result"]
assert "pair" in pl._cache.stats()
no_pandas("phrase pair list")

buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = cli.main(["search", hot, "--out", out, "--limit", "3", "--snippets"])
assert rc == 0 and json.loads(buf.getvalue())["count"] > 0
no_pandas("cli search --snippets")

srv = make_server(out, port=0)
threading.Thread(target=srv.serve_forever, daemon=True).start()
base = f"http://127.0.0.1:{srv.server_address[1]}"

def call(path, method="GET"):
    req = urllib.request.Request(base + path, method=method)
    with urllib.request.urlopen(req, timeout=120) as r:
        return json.loads(r.read())

assert call(f"/api/search?query={hot}&limit=3")["count"] > 0
no_pandas("http /api/search")
assert statistics(out)["total"]["docs"] > 0
assert call("/api/statistics")["total"]["docs"] > 0
no_pandas("statistics")
# below: endpoints that may still load pandas
assert call("/api/stopIndexing")["result"]
assert call("/api/indexPage?conv=conv-00000000", method="POST")["result"]
assert call("/api/statistics")["delta_generations"]

loaded = sorted(m for m in sys.modules if m == "ray" or m.startswith("ray."))
# a Ray Data endpoint still starts Ray on first use, in the same process
got = call(f"/api/export?query={hot}&dest={dest}")
print(json.dumps({"ray_before_export": loaded, "export": got, "pandas_at": pandas_at,
                  "ray_after_export": "ray.data" in sys.modules}))
srv.shutdown()
srv.server_close()
"""


def test_query_side_imports_no_ray(tiny_index, tmp_path):
    out = str(tmp_path / "idx")
    shutil.copytree(tiny_index["out_dir"], out)
    aux_mod.build_phrase_aux(out, top_terms=24, top_pairs=128)
    dest = str(tmp_path / "export")
    r = subprocess.run(
        [sys.executable, "-c", _SCRIPT, out, dest],
        capture_output=True, text=True, cwd=_REPO,
        env=dict(os.environ, RAY_DEDUP_LOGS="0"),
        timeout=600,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    got = json.loads(r.stdout.strip().splitlines()[-1])
    assert got["ray_before_export"] == [], got["ray_before_export"][:10]
    assert got["pandas_at"] == [], got["pandas_at"]
    assert got["export"]["result"] and got["export"]["count"] > 0, got["export"]
    assert got["ray_after_export"]


_DELTA_SCRIPT = r"""
import json, sys

from search_engine_ray import datagen
from search_engine_ray.search import SearchEngine

hot, s1 = datagen.stem(0), datagen.stem(1)
# reference mode drops lemmas above its df cutoff: a rare query lemma
rare = datagen.reference_queries()[0]["query_text"]
pandas_at = []
eng = SearchEngine(sys.argv[1])
assert eng._has_deltas
for step, kw in (("open", None), ("bm25", {}), ("phrase", {"mode": "phrase"}),
                 ("snippets", {"with_snippets": True}), ("reference", {"mode": "reference"})):
    if kw is not None:
        text = rare if step == "reference" else f"{hot} {s1}"
        assert eng.search(text, limit=3, **kw)["count"] > 0, step
    if "pandas" in sys.modules and not pandas_at:
        pandas_at.append(step)
print(json.dumps({"pandas_at": pandas_at}))
"""


def test_delta_engine_imports_no_pandas(tiny_index, tmp_path):
    """An engine over a live delta generation reads the generation's
    files and the tombstoned doc-store rows without pyarrow's pandas
    shim: no pandas after opening it, nor after bm25, phrase (positions
    merged by the overlay), snippet and reference-mode searches (the
    last reads the live docs' max doc_len)."""
    out = str(tmp_path / "idx")
    shutil.copytree(tiny_index["out_dir"], out)
    assert delta.reindex_conversations(out, ["conv-00000000", "conv-00000003"])["result"]
    r = subprocess.run(
        [sys.executable, "-c", _DELTA_SCRIPT, out],
        capture_output=True, text=True, cwd=_REPO, timeout=600,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["pandas_at"] == []


_FED_SCRIPT = r"""
import json, sys

from search_engine_ray import datagen
from search_engine_ray.federate import FederatedEngine

hot, s1 = datagen.stem(0), datagen.stem(1)
pandas_at = []


def no_pandas(step):
    if "pandas" in sys.modules and not pandas_at:
        pandas_at.append(step)


fed = FederatedEngine(sys.argv[1:])
no_pandas("open")
top = fed.search(f"{hot} {s1}", limit=5)["data"].to_pylist()
assert len(top) == 5
no_pandas("search")
assert fed.search(hot, exclude=s1, limit=5)["count"] > 0
no_pandas("filtered search")
keys = [(r["conv_id"], r["turn_idx"]) for r in top] + [("conv-none", 0)]
assert fed.mget(keys)["count"] == 5
no_pandas("mget")
assert fed.suggest(hot[:-1] + "x").num_rows
no_pandas("suggest")
print(json.dumps({"pandas_at": pandas_at}))
"""


def test_federated_engine_imports_no_pandas(fed_env):  # noqa: F811
    """A two-shard ``FederatedEngine`` merges its shards' search pages
    (plain and filtered), mget rows and suggestions without pyarrow's
    pandas shim."""
    r = subprocess.run(
        [sys.executable, "-c", _FED_SCRIPT, *fed_env["shard_outs"]],
        capture_output=True, text=True, cwd=_REPO, timeout=600,
    )
    assert r.returncode == 0, r.stderr[-3000:]
    assert json.loads(r.stdout.strip().splitlines()[-1])["pandas_at"] == []


def test_columns_convert_like_arrow():
    """The search path's Arrow <-> numpy conversions (``state.columns``)
    give Arrow's own values: offsets of sliced arrays, nulls, bools,
    non-ASCII strings, timestamps and empty arrays."""
    import numpy as np
    import pyarrow as pa

    from search_engine_ray.state.columns import to_arrow, to_numpy, to_table

    ints = pa.chunked_array([pa.array([5, None, 7], pa.int32()), pa.array([9], pa.int32())])
    assert to_numpy(ints, fill=-1).tolist() == [5, -1, 7, 9]
    assert to_numpy(pa.array([1.5, 2.5, 3.5])[1:]).tolist() == [2.5, 3.5]
    bools = pa.array([True, None, False, True, True, False, True, True, False, True])
    assert to_numpy(bools).tolist() == [bool(b) for b in bools.to_pylist()]
    assert to_numpy(bools[3:]).tolist() == bools[3:].to_pylist()
    strs = pa.array(["ab", "héllo", None, "", "z"])
    assert to_numpy(strs).tolist() == strs.to_pylist()
    assert to_numpy(strs[1:2]).tolist() == ["héllo"] and to_numpy(strs[3:]).tolist() == ["", "z"]
    ascii_ = pa.array(["lemma", "wbababa", "x"])[1:]
    assert to_numpy(ascii_).tolist() == ["wbababa", "x"]
    ts = pa.array([0, 1_700_000_000_000_000], pa.timestamp("us"))
    assert to_numpy(ts).tolist() == [0, 1_700_000_000_000_000]
    assert to_numpy(pa.array([], pa.string())).tolist() == []
    for vals, t in ((["a", None, "ü"], pa.string()), (np.arange(4), pa.int64()),
                    ([1, 2], pa.int32()), ([0.5], pa.float64()), ([7], pa.timestamp("us")),
                    ([], pa.string()), ([], pa.int64()), ([1, None, 3], pa.int64()),
                    ([True, None, False] * 4, pa.bool_()), (np.array([True, False]), pa.bool_()),
                    ([None, 5], pa.timestamp("us")), ([None, 0.5], pa.float64())):
        assert to_arrow(vals, t).equals(pa.array(list(vals), t)), (vals, t)
    schema = pa.schema([("s", pa.string()), ("n", pa.int64())])
    assert to_table(schema).equals(schema.empty_table())
    assert to_table(schema, zip(*[("a", 1), ("b", None)])).equals(
        pa.table({"s": ["a", "b"], "n": [1, None]}, schema=schema))
    assert to_table(schema, [pa.array(["x"]), np.array([2])]).equals(
        pa.table({"s": ["x"], "n": [2]}, schema=schema))
