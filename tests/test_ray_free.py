"""The query side imports no Ray: opening an engine, every search mode
the server answers from the posting index, statistics, a CLI read, the
served read endpoints and a delta write all run in a process where
``ray`` was never imported. Only a Ray Data endpoint (``export``) loads
Ray, on first use. Checked in a fresh subprocess, the way
``tests/test_cli.py`` runs the CLI, because the test session itself
holds a Ray session."""

import json
import os
import shutil
import subprocess
import sys

from search_engine_ray.pipelines import phrase_aux as aux_mod

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import contextlib, io, json, sys, threading, urllib.request

out, dest = sys.argv[1], sys.argv[2]

from search_engine_ray import __main__ as cli, datagen
from search_engine_ray.search import SearchEngine
from search_engine_ray.server import make_server
from search_engine_ray.stats import statistics

hot = datagen.stem(0)
eng = SearchEngine(out)
assert eng.search(hot, limit=3)["count"] > 0
assert eng.search(f"{hot} {datagen.stem(1)}", mode="phrase", limit=3)["result"]
snip = eng.search(hot, limit=3, with_snippets=True)["data"]
assert "snippet" in snip.column_names and snip.num_rows == 3
# the index carries a phrase aux: at least one phrase query reads a pair
assert eng._aux_pairs
for q in datagen.phrase_queries():
    eng.search(q["query_text"], scope=q["scope"], limit=q["k"], mode="phrase")
assert "aux" in eng._cache.stats()
assert statistics(out)["total"]["docs"] > 0

buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = cli.main(["search", hot, "--out", out, "--limit", "3", "--snippets"])
assert rc == 0 and json.loads(buf.getvalue())["count"] > 0

srv = make_server(out, port=0)
threading.Thread(target=srv.serve_forever, daemon=True).start()
base = f"http://127.0.0.1:{srv.server_address[1]}"

def call(path, method="GET"):
    req = urllib.request.Request(base + path, method=method)
    with urllib.request.urlopen(req, timeout=120) as r:
        return json.loads(r.read())

assert call(f"/api/search?query={hot}&limit=3")["count"] > 0
assert call("/api/statistics")["total"]["docs"] > 0
assert call("/api/stopIndexing")["result"]
assert call("/api/indexPage?conv=conv-00000000", method="POST")["result"]
assert call("/api/statistics")["delta_generations"]

loaded = sorted(m for m in sys.modules if m == "ray" or m.startswith("ray."))
# a Ray Data endpoint still starts Ray on first use, in the same process
got = call(f"/api/export?query={hot}&dest={dest}")
print(json.dumps({"ray_before_export": loaded, "export": got,
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
    assert got["export"]["result"] and got["export"]["count"] > 0, got["export"]
    assert got["ray_after_export"]
