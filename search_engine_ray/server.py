"""HTTP/JSON serving layer: the analog of the reference's REST surface
(``ApiController.java:20-47``) as a dependency-free stdlib ``http.server``
over one ``SearchEngine``.

The read endpoints are declared once, in ``surface.ENDPOINTS``, shared
with the CLI: each entry names its path (``GET /api/search``,
``/api/facets``, ``/api/metrics``, ... and ``POST /api/msearch``), its
engine method and its parameters; its CLI subcommand takes the same
parameters as ``--flags`` (``python -m search_engine_ray <cmd> -h``).
The reference's ``site`` parameter maps to this engine's ``scope`` (a
role value or ``tool:<name>``); ``site`` and ``scope`` are both accepted.
A read answers ``{"result", "count", "error", [extra keys], "data"}``.

Served by hand, because they have no engine method or no CLI twin:

- ``GET /`` — a statistics-dashboard + search page (the reference's
  ``templates/index.html``).
- ``GET /api/statistics`` — :func:`search_engine_ray.stats.statistics`.
- ``GET /api/stopIndexing`` — cooperative build cancel: writes the stop
  flag a running ``build_index`` on the same out_dir honors between
  batches (``IndexationServiceImpl.java:52-63``; in-flight partitions
  mark FAILED and the build stays resumable).
- ``POST /api/indexPage?conv=<conv_id>`` — incremental re-index
  (``pipelines/delta.reindex_conversations``).
- ``POST /api/updateByQuery?query=&pattern=&replacement=[&site=]
  [&conjunctive=1]`` — regex-rewrite every matching turn's text through a
  delta generation (ES ``_update_by_query``).
- ``POST /api/deleteByQuery?query=[&site=][&conjunctive=1]`` — tombstone
  every matching turn through a delta generation (ES
  ``_delete_by_query``); the next compaction folds it into the base.

After a mutation that wrote a generation the served engine reloads, so
the next query sees it.

Status codes: 200 for a successful answer; 400 for a refused request (a
parameter that does not convert is ``bad_request``; see ``surface`` for
the other refusals) and for an engine error response; 404
``unknown_endpoint``; 500 ``internal_error`` for any other fault, whose
traceback goes to the ``search_engine_ray.server`` logger.

``startIndexing`` is deliberately NOT served: a full build is a cluster
job (the ``build`` CLI / ``pipelines.build.build_index``), not something
to fork from a request thread — the reference's in-process crawl thread
(``IndexationServiceImpl.java:38-50``) has no safe analog on Ray.

The server owns no Ray session; ``SearchEngine`` reads parquet footers
and decodes blocks in-process (the Ray Data scans of ``/api/export``,
``/api/significant`` and ``/api/rareTerms`` auto-initialise Ray on first
use). Handler threads share one engine: its post-init state is
read-mostly, and the engine swap after a mutation is a single attribute
store.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from . import surface
from .search import SearchEngine
from .stats import statistics

log = logging.getLogger(__name__)

# Minimal statistics-dashboard + search page (the reference's
# ``templates/index.html`` analog) — dependency-free, served at GET /;
# all data comes from the JSON endpoints below.
_INDEX_HTML = """<!doctype html>
<html><head><meta charset="utf-8"><title>ray-transcript-search</title>
<style>
 body{font-family:system-ui,sans-serif;margin:2rem;max-width:60rem}
 input,select{padding:.3rem;margin-right:.4rem}
 table{border-collapse:collapse;margin-top:1rem;width:100%}
 td,th{border:1px solid #ccc;padding:.3rem .5rem;text-align:left;font-size:.9rem}
 .stat{display:inline-block;margin-right:2rem}
 b.hl{background:#ffec99}
</style></head><body>
<h1>ray-transcript-search</h1>
<div id="stats">loading statistics…</div>
<form id="f">
 <input id="q" size="40" placeholder="query text" autofocus>
 <select id="mode"><option>bm25</option><option>auto</option>
  <option>phrase</option><option>near</option><option>prefix</option>
  <option>fuzzy</option><option>reference</option></select>
 <input id="scope" size="12" placeholder="scope (role / tool:x)">
 <input id="limit" size="3" value="10">
 <button>Search</button>
</form>
<div id="count"></div><table id="res"></table>
<script>
async function loadStats(){
 const s = await (await fetch('/api/statistics')).json();
 const per = Object.entries(s.per_scope).map(([k,v])=>k+': '+v).join(' · ');
 document.getElementById('stats').innerHTML =
  '<span class=stat><b>docs</b> '+s.total.docs+'</span>'+
  '<span class=stat><b>lemmas</b> '+s.total.lemmas+'</span>'+
  '<span class=stat><b>postings</b> '+s.total.postings+'</span>'+
  '<span class=stat><b>generations</b> '+s.delta_generations.length+'</span>'+
  '<div>'+per+'</div>';
}
document.getElementById('f').onsubmit = async (e)=>{
 e.preventDefault();
 const q=encodeURIComponent(document.getElementById('q').value);
 const mode=document.getElementById('mode').value;
 const scope=document.getElementById('scope').value;
 const limit=document.getElementById('limit').value;
 let u=`/api/search?query=${q}&mode=${mode}&limit=${limit}&snippets=1`;
 if(scope) u+=`&site=${encodeURIComponent(scope)}`;
 const r=await (await fetch(u)).json();
 let facetLine='';
 if(r.result && mode==='bm25'){
  let fu=`/api/facets?query=${q}`;
  if(scope) fu+=`&site=${encodeURIComponent(scope)}`;
  const f=await (await fetch(fu)).json();
  if(f.result) facetLine=' — '+(f.data||[]).map(x=>
    `${x.facet}:${x.value||'(none)'} ${x.n_docs}`).join(' · ');
 }
 document.getElementById('count').innerHTML =
   r.result ? r.count+' results'+facetLine+(mode==='bm25'&&r.count>0?
     ` — <a href="#" onclick="return sig('${q}','${encodeURIComponent(scope)}')">significant terms</a>`:'')
   : 'error: '+r.error;
 const rows=(r.data||[]).map(d=>
  `<tr><td>${d.conv_id}/${d.turn_idx}</td><td>${d.role}</td>`+
  `<td>${d.score.toFixed(4)}</td><td>${d.snippet||''}</td>`+
  `<td><a href="#" onclick="return mlt('${d.conv_id}',${d.turn_idx})">similar</a></td></tr>`).join('');
 document.getElementById('res').innerHTML =
  rows?'<tr><th>doc</th><th>role</th><th>score</th><th>snippet</th><th></th></tr>'+rows:'';
};
async function sig(q, scope){
 document.getElementById('count').textContent='computing significant terms…';
 let u=`/api/significant?query=${q}&limit=10`;
 if(scope) u+=`&site=${scope}`;
 const r=await (await fetch(u)).json();
 document.getElementById('count').textContent =
   r.result ? 'terms overrepresented in '+r.count+' matching docs' : 'error: '+r.error;
 const rows=(r.data||[]).map(d=>
  `<tr><td>${d.rank}</td><td>${d.lemma}</td><td>${d.fg_docs}</td>`+
  `<td>${d.bg_docs}</td><td>${d.score.toFixed(4)}</td></tr>`).join('');
 document.getElementById('res').innerHTML =
  rows?'<tr><th>#</th><th>lemma</th><th>fg docs</th><th>bg docs</th><th>JLH</th></tr>'+rows:'';
 return false;
}
async function mlt(conv, turn){
 const r=await (await fetch(`/api/mlt?conv=${encodeURIComponent(conv)}&turn=${turn}&limit=10`)).json();
 document.getElementById('count').textContent =
   r.result ? r.count+' similar to '+conv+'/'+turn : 'error: '+r.error;
 const rows=(r.data||[]).map(d=>
  `<tr><td>${d.conv_id}/${d.turn_idx}</td><td>${d.role}</td>`+
  `<td>${d.score.toFixed(4)}</td><td></td>`+
  `<td><a href="#" onclick="return mlt('${d.conv_id}',${d.turn_idx})">similar</a></td></tr>`).join('');
 document.getElementById('res').innerHTML =
  rows?'<tr><th>doc</th><th>role</th><th>score</th><th></th><th></th></tr>'+rows:'';
 return false;
}
loadStats();
</script></body></html>
"""


# the mutating routes: (pipelines.delta function, its parameters)
_MUTATIONS = {
    "/api/indexPage": ("reindex_conversations", (
        surface.P("conv_ids", "conv", nargs="+", conv=list,
                  required="missing conv parameter"),)),
    "/api/updateByQuery": ("update_by_query", (
        surface.QUERY, surface.P("pattern", required="empty_query"),
        surface.P("replacement", default=""), surface.SCOPE, surface.CONJ)),
    "/api/deleteByQuery": ("delete_by_query",
                           (surface.QUERY, surface.SCOPE, surface.CONJ)),
}


def make_server(out_dir: str, host: str = "127.0.0.1", port: int = 8080):
    """Build (without starting) a ThreadingHTTPServer serving ``out_dir``."""
    state = {"engine": SearchEngine(out_dir)}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _send(self, code: int, body: bytes, ctype: str = "application/json") -> None:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):  # noqa: N802 (stdlib API)
            self._handle("GET")

        def do_POST(self):  # noqa: N802
            self._handle("POST")

        def _handle(self, verb: str) -> None:
            u = urlparse(self.path)
            ctype = "application/json"
            try:
                if verb == "GET" and u.path == "/":
                    code, body, ctype = 200, _INDEX_HTML.encode(), "text/html; charset=utf-8"
                else:
                    code, payload = self._route(verb, u.path, parse_qs(u.query))
                    body = json.dumps(payload, default=str).encode()
            except Exception:  # noqa: BLE001 — a server fault, not the client's
                log.exception("%s %s failed", verb, self.path)
                code, body = 500, b'{"result": false, "error": "internal_error"}'
            try:
                self._send(code, body, ctype)
            except OSError:  # the client went away
                pass

        def _raw(self, q: dict):
            """The raw value of a surface parameter in this request."""
            def raw(p):
                if p.body:
                    n = int(self.headers.get("Content-Length") or 0)
                    return self.rfile.read(n) or surface.MISSING
                for name in p.http:
                    if name in q:
                        return q[name] if p.nargs == "+" else q[name][0]
                return surface.MISSING

            return raw

        def _route(self, verb: str, path: str, q: dict) -> tuple[int, dict]:
            eps = surface.HTTP.get((verb, path))
            if eps:
                payload = surface.answer(eps, lambda ep: state["engine"], self._raw(q))
                return (200 if payload["result"] else 400), payload
            if verb == "GET" and path == "/api/statistics":
                return 200, statistics(out_dir)
            if verb == "GET" and path == "/api/stopIndexing":
                from .pipelines import build as build_mod

                return 200, build_mod.request_stop(out_dir)
            if verb == "POST" and path in _MUTATIONS:
                from .pipelines import delta as delta_mod

                fn, params = _MUTATIONS[path]
                try:
                    kw = surface.kwargs(params, self._raw(q))
                except surface.Refused as r:
                    return 400, {"result": False, "error": r.error}
                resp = getattr(delta_mod, fn)(out_dir, **kw)
                # a no-match update/delete writes no generation
                if resp["result"] and resp.get("generations", True):
                    with lock:  # new generation -> reload overlay state
                        state["engine"] = SearchEngine(out_dir)
                return (200 if resp["result"] else 400), resp
            return 404, {"result": False, "error": "unknown_endpoint"}

    return ThreadingHTTPServer((host, port), Handler)


def serve(out_dir: str, host: str = "127.0.0.1", port: int = 8080) -> None:
    srv = make_server(out_dir, host, port)
    print(json.dumps({"serving": f"http://{host}:{srv.server_address[1]}", "index": out_dir}))
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
