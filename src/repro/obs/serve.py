"""Live metrics serving: scrape a run *while it executes*.

:class:`MetricsServer` wraps a stdlib ``ThreadingHTTPServer`` on a
daemon thread and exposes three endpoints backed by a recorder and an
optional SLO provider:

* ``GET /metrics``  — Prometheus text exposition, rendered from a
  lock-free :meth:`~repro.obs.Recorder.snapshot` (whole-dict copies
  are atomic under the GIL, so the run loop keeps appending with no
  locks on its hot path);
* ``GET /healthz``  — liveness JSON (uptime, metric family counts);
* ``GET /slo.json`` — the latest per-query SLO records, refreshed by
  the executors at every observed epoch barrier mid-run.

``python -m repro.obs serve`` wires this around a scenario execution;
embedding code can hand any recorder + provider pair::

    server = MetricsServer(recorder, slo_provider=lambda: sim.last_query_slos)
    server.start()
    ...  # run; scrape http://127.0.0.1:<server.port>/metrics meanwhile
    server.stop()
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, List, Optional

from .export import prometheus_text
from .recorder import Recorder
from .slo import QuerySLO

__all__ = ["MetricsServer"]


class MetricsServer:
    """Serve ``/metrics``, ``/healthz`` and ``/slo.json`` for a recorder.

    ``slo_provider`` returns the current list of
    :class:`~repro.obs.slo.QuerySLO` records; omit it and
    ``/slo.json`` serves an empty list.  ``port=0`` (the default) binds
    an ephemeral port — read :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        recorder: Recorder,
        slo_provider: Optional[Callable[[], List[QuerySLO]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.recorder = recorder
        self.slo_provider = slo_provider
        self.host = host
        self.port = port
        self.started_unix: Optional[float] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # no per-request stderr chatter

            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = server.render_metrics().encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif path == "/healthz":
                    body = json.dumps(server.health()).encode("utf-8")
                    ctype = "application/json"
                elif path == "/slo.json":
                    body = json.dumps(server.slo_records()).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "unknown endpoint")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        self.started_unix = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.stop()
        return False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Endpoint payloads (also the unit-testable surface)
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        return prometheus_text(self.recorder.snapshot())

    def health(self) -> dict:
        recorder = self.recorder
        return {
            "status": "ok",
            "uptime_s": (
                time.time() - self.started_unix if self.started_unix else 0.0
            ),
            "counters": len(recorder.counters),
            "gauges": len(recorder.gauges),
            "histograms": len(recorder.histograms),
            "spans": len(recorder.spans),
            "epochs": len(recorder.epochs),
        }

    def slo_records(self) -> List[dict]:
        if self.slo_provider is None:
            return []
        return [slo.to_dict() for slo in self.slo_provider()]
