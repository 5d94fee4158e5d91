"""A zero-dependency HTTP scrape endpoint over a :class:`LiveSink`.

:class:`TelemetryServer` wraps ``http.server.ThreadingHTTPServer`` (pure
stdlib, daemon threads) around three read-only routes:

``/metrics``
    The command's registry (what ``--metrics-out`` writes, so far) plus
    the sink's ``repro_live_*`` families, rendered by
    :func:`repro.obs.export.to_prometheus` — RS100-lintable, with
    ``Content-Type: text/plain; version=0.0.4`` as Prometheus expects.
``/healthz``
    ``ok`` — liveness only, for scrape-loop readiness checks.
``/run``
    The sink's run status as JSON, rendered from the same snapshot:
    per-task shard progress, worker utilization (busy seconds, RSS,
    CPU), heartbeat loss accounting, fault/retry totals, layer ledger.

The server binds ``127.0.0.1`` by default (telemetry is not an
experiment output and is never exposed beyond the host unless asked)
and accepts port 0 for an ephemeral port — :meth:`TelemetryServer.start`
returns the bound port so callers can print the URL.  Serving runs on a
daemon thread for the duration of the command; scrapes read consistent
snapshots (:meth:`~repro.obs.live.LiveSink.registry_snapshot`).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Type
from urllib.parse import urlsplit

from .export import to_prometheus
from .live import LiveSink

#: The content type Prometheus scrapers expect from a text endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _QuietThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    #: Scrapers reconnect constantly; let restarts rebind immediately.
    allow_reuse_address = True


def _make_handler(sink: LiveSink) -> Type[BaseHTTPRequestHandler]:
    """A request-handler class closed over one sink."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            path = urlsplit(self.path).path
            if path == "/metrics":
                body = to_prometheus(sink.registry_snapshot())
                self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/healthz":
                self._reply(200, "text/plain; charset=utf-8", "ok\n")
            elif path in ("/run", "/run/"):
                body = json.dumps(sink.run_status(), sort_keys=True) + "\n"
                self._reply(200, "application/json", body)
            else:
                self._reply(404, "text/plain; charset=utf-8",
                            f"unknown route {path!r}; try /metrics, "
                            f"/healthz or /run\n")

        def _reply(self, status: int, content_type: str,
                   body: str) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, format: str, *args: Any) -> None:
            """Silence per-request stderr chatter (scrapes are periodic)."""

    return Handler


class TelemetryServer:
    """Serve a sink's telemetry for the duration of a command.

    Usage::

        server = TelemetryServer(sink, port=0)
        port = server.start()        # bound (possibly ephemeral) port
        ...                          # run the experiment
        server.stop()
    """

    def __init__(self, sink: LiveSink,
                 host: str = "127.0.0.1",  # repro-lint: disable=RS007 (a deployment address)
                 port: int = 0) -> None:
        self.sink = sink
        self.host = host
        self.port = port
        self._server: Optional[_QuietThreadingServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._server is not None:
            return self.port
        server = _QuietThreadingServer((self.host, self.port),
                                       _make_handler(self.sink))
        self.port = server.server_address[1]
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever,
                                        name="repro-telemetry",
                                        daemon=True)
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the listener down; idempotent."""
        server = self._server
        thread = self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=2.0)
