"""stdlib HTTP transport for the orchestration engine.

One deliberately small layer: ``POST /v1/{admit,release,telemetry,inference}``
with a JSON body and ``GET /v1/health`` map straight onto
:meth:`~repro.serve.engine.OrchestrationEngine.handle`.  The server is
**single-threaded by design** — requests are serialized in arrival order,
which is what makes an HTTP replay produce the same placement trace as the
in-process fold (the determinism the ``serve-trace`` golden pins).  A
beekeeping fleet's control plane is a few requests per second; this is not
a throughput play.

Graceful shutdown: SIGTERM/SIGINT set a flag and stop the accept loop from
a helper thread (``HTTPServer.shutdown`` must not be called from the
serving thread); the process then flushes the final obs snapshot and the
full placement trace before exiting 0, so a supervised rollout never loses
the run's telemetry.
"""

from __future__ import annotations

import json
import math
import select
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, Optional

from repro.serve.engine import OPS, OrchestrationEngine

#: URL prefix of the serving API.
API_PREFIX = "/v1/"

#: Accept-backlog drain budget on graceful shutdown (seconds).
DRAIN_BUDGET_S = 2.0

#: Largest request body accepted (bytes).  A real request is well under
#: 1 KiB; anything bigger is answered 413 without being read.
MAX_BODY_BYTES = 64 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # A rude keep-alive client must not wedge the single serving thread
    # (nor the shutdown drain): idle connections are dropped after this.
    timeout = 5.0
    engine: OrchestrationEngine  # set by make_server on the class

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep stdout/stderr deterministic; obs carries the counters

    def _reply(self, status: int, payload: Dict[str, Any],
               headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _refuse_body(self, status: int, op: str, error: str) -> None:
        self._reply(status, {"ok": False, "op": op, "error": error},
                    headers={"Connection": "close"})

    def _route(self) -> Optional[str]:
        if not self.path.startswith(API_PREFIX):
            return None
        op = self.path[len(API_PREFIX):].rstrip("/")
        return op if op in OPS else None

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self._route() == "health":
            self._reply(200, self.engine.handle({"op": "health"}))
        else:
            self._reply(404, {"ok": False, "error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        op = self._route()
        if op is None:
            self._reply(404, {"ok": False, "error": f"no such endpoint: {self.path}"})
            return
        # Checked before reading: a negative length would make read() wait for
        # EOF and wedge the single serving thread.  A refused body is left
        # unread, so the reply closes the connection (``Connection: close``
        # also tells BaseHTTPRequestHandler not to parse it as a request).
        raw_length = self.headers.get("Content-Length", "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._refuse_body(400, op, f"bad Content-Length: {raw_length!r}")
            return
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            self._refuse_body(413, op, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"ok": False, "op": op, "error": f"bad request body: {exc}"})
            return
        request["op"] = op
        response = self.engine.handle(request)
        if response.get("shed"):
            # Deterministic overload rejection: 503 plus the engine's hint
            # for when the oldest in-flight request frees a queue slot.
            retry_after = max(1, math.ceil(float(response.get("retry_after_s", 1.0))))
            self._reply(503, response, headers={"Retry-After": str(retry_after)})
            return
        self._reply(200 if response.get("ok") else 422, response)


def make_server(engine: OrchestrationEngine, host: str = "127.0.0.1",
                port: int = 0) -> HTTPServer:
    """Bind an HTTP server on ``host:port`` (0 = ephemeral) for ``engine``."""
    handler = type("BoundHandler", (_Handler,), {"engine": engine})
    return HTTPServer((host, port), handler)


def drain_pending(server: HTTPServer, budget_s: float = DRAIN_BUDGET_S) -> int:
    """Serve connections already queued in the accept backlog.

    ``HTTPServer.shutdown`` only stops the *loop*: a request whose TCP
    connection was accepted by the kernel but not yet picked up by
    ``serve_forever`` would be silently dropped — offered but never
    counted, breaking the serve-conservation contract at the transport.
    This drains the backlog (bounded by ``budget_s``) before the socket
    closes, so every request that reached the listener gets an answer.
    Returns the number of drained connections.
    """
    deadline = time.monotonic() + budget_s
    drained = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        ready, _, _ = select.select([server], [], [], min(remaining, 0.05))
        if not ready:
            break  # backlog empty — nothing left to answer
        server.handle_request()
        drained += 1
    return drained


def serve_until_signal(server: HTTPServer) -> int:
    """Run the accept loop until SIGTERM/SIGINT; returns the signal number.

    Restores the previous handlers on exit so embedding callers (tests)
    keep their signal disposition.  Before the socket closes, the accept
    backlog is drained (:func:`drain_pending`) so a graceful stop never
    drops an already-connected client.
    """
    got = {"signum": 0}

    def _stop(signum: int, frame: Any) -> None:
        got["signum"] = signum
        # shutdown() blocks until serve_forever drains; hop threads so the
        # handler (which runs on the serving thread) cannot deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _stop) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever(poll_interval=0.05)
        drain_pending(server)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()
    return got["signum"]


__all__ = ["API_PREFIX", "DRAIN_BUDGET_S", "MAX_BODY_BYTES", "make_server", "serve_until_signal", "drain_pending"]
