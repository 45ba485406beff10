"""HTTP/JSON serving layer: the analog of the reference's REST surface
(``ApiController.java:20-47``) as a small stdlib-only server over one
``SearchEngine``.

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

Protocol: one request per connection. The server reads the request line
and headers (at most ``HEAD_MAX`` bytes; past that it answers 431), and
the body only for a body parameter (``POST /api/msearch``, by its
``Content-Length``; an invalid length is ``bad_request``). It answers
HTTP/1.0 with status line, ``Content-Type``, ``Content-Length`` and body
in one write, then closes. A malformed request line answers 400
``bad_request`` and a method other than GET or POST 501
``unsupported_method``, both as JSON.

Threads: resident workers each block in ``accept()`` on the listening
socket; no thread starts per request and no queue hands a connection
over. The last idle worker starts one more before it answers, so a slow
request (a mutation that reloads the engine, the Ray Data scan behind
``/api/export``, a client that sends nothing) never stalls the others;
a worker that finishes while ``IDLE_WORKERS`` others wait exits, unless
its request started Ray (Ray's node processes die with the thread that
started them). ``shutdown()`` shuts the listening socket down, which wakes every
waiting worker, ends the reads of open connections and joins the
workers.

Access log: with INFO enabled on ``search_engine_ray.server.access``
(through the ``logging`` configuration), each answered request logs one
JSON line ``{"path", "status", "latency_ms", "count", "error"}``; off,
it costs one ``isEnabledFor`` check.

The server owns no Ray session and imports no Ray: ``SearchEngine``
reads parquet footers and decodes blocks in-process, the index layout
comes from ``state/layout.py``, and the delta writes behind the POST
routes run driver-side, so serving, the CLI reads and the delta writes
never load Ray. Only the Ray Data scans of ``/api/export``,
``/api/significant`` and ``/api/rareTerms`` import Ray, and
auto-initialise it, on first use. Worker threads share one engine: its
post-init state is read-mostly, and the engine swap after a mutation is
a single attribute store.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import sys
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from . import surface
from .search import SearchEngine
from .state import layout
from .stats import statistics

log = logging.getLogger(__name__)
access_log = logging.getLogger(__name__ + ".access")

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

IDLE_WORKERS = 4      # a worker that finishes while this many wait in accept() exits
HEAD_MAX = 65536      # bytes of request line plus headers
_LINGER_S = 1.0       # how long a refused request's unread input is drained
_CHUNK = 65536
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS = {s.value: b"HTTP/1.0 %d %s\r\n" % (s.value, s.phrase.encode()) for s in HTTPStatus}
_JSON = b"application/json"
_HTML = b"text/html; charset=utf-8"
_FAULT = {"result": False, "error": "internal_error"}


class _Refused(Exception):
    """A request answered before routing: (status, error code)."""


class _Request:
    """One request head read off a connection; the body is read on first
    use of :meth:`body`."""

    def __init__(self, conn: socket.socket, head: str, rest: bytes):
        lines = head.split("\n")
        words = lines[0].split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Refused(400, "bad_request")
        if words[0] not in ("GET", "POST"):
            raise _Refused(501, "unsupported_method")
        self.verb, self.target = words[0], words[1]
        if self.target.startswith("//"):  # as http.server: not a scheme-less URI
            self.target = "/" + self.target.lstrip("/")
        try:
            self.url = urlparse(self.target)
        except ValueError:
            raise _Refused(400, "bad_request") from None
        self._conn, self._lines, self._rest, self._body = conn, lines[1:], rest, None

    def _length(self) -> int:
        """The declared body length. Raises ValueError when it is not a
        non-negative integer."""
        for line in self._lines:
            name, sep, value = line.partition(":")
            if sep and name.strip().lower() == "content-length":
                n = int(value.strip() or 0)
                if n < 0:
                    raise ValueError(n)
                return n
        return 0

    def body(self) -> bytes:
        """The request body, short when the client closes early. Raises
        ValueError on an invalid Content-Length."""
        if self._body is None:
            n = self._length()
            buf = bytearray(self._rest[:n])
            while len(buf) < n and (chunk := self._conn.recv(min(_CHUNK, n - len(buf)))):
                buf += chunk
            self._body = bytes(buf)
        return self._body

    def drained(self) -> bool:
        """True when the client sent nothing this server has not read."""
        try:
            return self._body is not None or (self._length() == 0 and not self._rest)
        except ValueError:
            return False


def _read_head(conn: socket.socket) -> tuple[str, bytes] | None:
    """-> (request line and headers, the bytes read past them), or None
    when the client closed first. Raises _Refused past HEAD_MAX."""
    buf, pos = bytearray(), 0
    while not (m := _HEAD_END.search(buf, pos)):
        if len(buf) > HEAD_MAX:
            raise _Refused(431, "headers_too_large")
        pos = max(len(buf) - 3, 0)  # the end may straddle two reads
        chunk = conn.recv(_CHUNK)
        if not chunk:
            return None
        buf += chunk
    if m.start() > HEAD_MAX:
        raise _Refused(431, "headers_too_large")
    return buf[:m.start()].decode("iso-8859-1").replace("\r", ""), bytes(buf[m.end():])


def _ray_up() -> bool:
    ray = sys.modules.get("ray")
    return ray is not None and ray.is_initialized()


def _linger(conn: socket.socket) -> None:
    """Half-close, then drain what the client still sends for up to
    _LINGER_S: closing with unread input resets the connection, which can
    discard the response before the client reads it."""
    deadline = time.monotonic() + _LINGER_S
    conn.shutdown(socket.SHUT_WR)
    while (left := deadline - time.monotonic()) > 0:
        conn.settimeout(left)
        if not conn.recv(_CHUNK):
            return


class Server:
    """Resident workers over one listening socket, each blocked in
    ``accept()``; a worker answers one request per connection and goes
    back to ``accept()``. The last idle worker starts one more before it
    answers, so a slow request never stalls the others; a worker exits
    when IDLE_WORKERS others already wait, unless its request started
    Ray. ``handle(request) -> (status,
    content type, body, payload)`` answers a request; ``payload`` (a
    dict, or None) supplies the access log's count and error."""

    def __init__(self, address: tuple[str, int], handle):
        self.socket = socket.create_server(address)
        self.server_address = self.socket.getsockname()
        self._handle = handle
        self._name = f"{__name__}:{self.server_address[1]}"
        self._lock = threading.Lock()  # guards every field below
        self._idle = 0
        self._workers: set[threading.Thread] = set()
        self._conns: set[socket.socket] = set()
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        """Start the first worker; return once :meth:`shutdown` is done."""
        with self._lock:
            if not self._stopping:
                self._spawn()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting and wait for every worker to exit: a waiting
        worker wakes at once, one reading a request sees it end, one
        answering finishes its answer."""
        workers = self._stop()
        for t in workers:
            if t is not threading.current_thread():
                t.join()
        self._stopped.set()

    def server_close(self) -> None:
        self._stop()
        self.socket.close()

    def _stop(self) -> list[threading.Thread]:
        """Wake every worker; -> the workers. On Linux closing the
        listener wakes no thread blocked in its ``accept()`` (and the
        port stays bound while one is); shutting it down does."""
        with self._lock:
            self._stopping = True
            for s, how in [(self.socket, socket.SHUT_RDWR)] + [
                    (c, socket.SHUT_RD) for c in self._conns]:
                try:
                    s.shutdown(how)
                except OSError:
                    pass
            return list(self._workers)

    def _spawn(self) -> None:
        """Start one idle worker (the lock held)."""
        t = threading.Thread(target=self._work, name=self._name, daemon=True)
        self._workers.add(t)
        self._idle += 1
        t.start()

    def _accept(self) -> socket.socket | None:
        """Wait as an idle worker; -> a connection, or None once stopping."""
        while True:
            try:
                conn = self.socket.accept()[0]
            except OSError:  # shut down, or out of descriptors
                conn = None
            with self._lock:
                if self._stopping:
                    if conn:
                        conn.close()
                    self._idle -= 1
                    return None
                if conn:
                    self._idle -= 1
                    self._conns.add(conn)
                    if not self._idle:
                        self._spawn()
                    return conn
            time.sleep(0.01)

    def _work(self) -> None:
        # Ray kills the node processes it starts when the thread that
        # started them exits (PR_SET_PDEATHSIG), and a request may start
        # Ray (a Ray Data scan initialises it): the worker serving it
        # then stays for the server's life.
        resident = False
        while conn := self._accept():
            ray_was_up = _ray_up()
            try:
                self._serve(conn)
            except Exception:  # noqa: BLE001 — keep the worker
                log.exception("connection failed")
            resident = resident or (not ray_was_up and _ray_up())
            with self._lock:
                self._conns.discard(conn)
                conn.close()  # under the lock: _stop never sees a closed socket
                if self._stopping or (self._idle >= IDLE_WORKERS and not resident):
                    break
                self._idle += 1
        with self._lock:
            self._workers.discard(threading.current_thread())

    def _serve(self, conn: socket.socket) -> None:
        """Answer the one request on ``conn`` in one write, HTTP/1.0."""
        logged = access_log.isEnabledFor(logging.INFO)
        t0 = time.perf_counter() if logged else 0.0
        req = None
        try:
            got = _read_head(conn)
            if got is None:
                return  # the client left before a whole request
            req = _Request(conn, *got)
            code, ctype, body, payload = self._handle(req)
        except _Refused as r:
            code, error = r.args
            ctype, payload = _JSON, {"result": False, "error": error}
            body = json.dumps(payload).encode()
        except OSError:
            return  # the client went away
        try:
            conn.sendall(b"%sContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s" % (
                _STATUS[code], ctype, len(body), body))
        except OSError:
            pass  # the client went away
        if logged:
            access_log.info(json.dumps({
                "path": req.url.path if req else None, "status": code,
                "latency_ms": round(1e3 * (time.perf_counter() - t0), 3),
                "count": payload.get("count") if payload else None,
                "error": payload.get("error") if payload else None}))
        if req is None or not req.drained():
            try:
                _linger(conn)
            except OSError:
                pass


def make_server(out_dir: str, host: str = "127.0.0.1", port: int = 8080) -> Server:
    """Build (without starting) a :class:`Server` serving ``out_dir``."""
    state = {"engine": SearchEngine(out_dir)}
    lock = threading.Lock()
    index_html = _INDEX_HTML.encode()

    def handle(req: _Request):
        u = req.url
        try:
            if req.verb == "GET" and u.path == "/":
                return 200, _HTML, index_html, None
            code, payload = route(req, u.path, parse_qs(u.query))
            return code, _JSON, json.dumps(payload, default=str).encode(), payload
        except Exception:  # noqa: BLE001 — a server fault, not the client's
            log.exception("%s %s failed", req.verb, req.target)
            return 500, _JSON, json.dumps(_FAULT).encode(), _FAULT

    def raw_of(req: _Request, q: dict):
        """The raw value of a surface parameter in this request."""
        def raw(p):
            if p.body:
                return req.body() or surface.MISSING
            for name in p.http:
                if name in q:
                    return q[name] if p.nargs == "+" else q[name][0]
            return surface.MISSING

        return raw

    def route(req: _Request, path: str, q: dict) -> tuple[int, dict]:
        verb = req.verb
        eps = surface.HTTP.get((verb, path))
        if eps:
            payload = surface.answer(eps, lambda ep: state["engine"], raw_of(req, q))
            return (200 if payload["result"] else 400), payload
        if verb == "GET" and path == "/api/statistics":
            return 200, statistics(out_dir)
        if verb == "GET" and path == "/api/stopIndexing":
            return 200, layout.request_stop(out_dir)
        if verb == "POST" and path in _MUTATIONS:
            from .pipelines import delta as delta_mod

            fn, params = _MUTATIONS[path]
            try:
                kw = surface.kwargs(params, raw_of(req, q))
            except surface.Refused as r:
                return 400, {"result": False, "error": r.error}
            resp = getattr(delta_mod, fn)(out_dir, **kw)
            # a no-match update/delete writes no generation
            if resp["result"] and resp.get("generations", True):
                with lock:  # new generation -> reload overlay state
                    state["engine"] = SearchEngine(out_dir)
            return (200 if resp["result"] else 400), resp
        return 404, {"result": False, "error": "unknown_endpoint"}

    return Server((host, port), handle)


def serve(out_dir: str, host: str = "127.0.0.1", port: int = 8080) -> None:
    srv = make_server(out_dir, host, port)
    print(json.dumps({"serving": f"http://{host}:{srv.server_address[1]}", "index": out_dir}))
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
