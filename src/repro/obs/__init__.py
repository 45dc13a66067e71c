"""``repro.obs`` — end-to-end observability for the reproduction.

The paper's entire evaluation *is* observability: Figs. 6–7 plot CPU
load per super-peer and network traffic per link.  This package turns
those end-of-run totals into inspectable runs:

* :class:`Recorder` — the near-zero-overhead instrumentation core:
  counters, gauges, histograms, span-style structured events, and
  per-epoch time-series snapshots.  :data:`NULL_RECORDER` is a no-op
  stand-in, so instrumented hot paths cost one attribute check when
  observability is off.
* :class:`EpochSnapshot` — one epoch of the data-plane time series the
  executor emits (per-peer work, per-link bits, queue depths,
  per-operator item counts), turning the Fig. 6/7 totals into series
  that show fault/recovery transients.
* exporters — JSONL event logs, Chrome ``trace_event`` timelines
  (per-shard lanes with cut-edge flow arrows for sharded runs), and
  Prometheus text exposition with real labels
  (:mod:`repro.obs.export`).  Each reads a :class:`Recorder`, live
  or loaded back from a run log by :func:`load_jsonl`.
* cross-process tracing — each worker cell ships its own
  :class:`Recorder` once, on its final state; :mod:`repro.obs.merge`
  folds the cells in shard order into the parent's (DESIGN.md §12).
* :class:`QuerySLO` — per-query delivered service levels (delivery,
  epoch-lag freshness, loss, migrations, backpressure exposure),
  computed by both executors (:mod:`repro.obs.slo`).
* :class:`MetricsServer` — live ``/metrics`` / ``/healthz`` /
  ``/slo.json`` over HTTP while a run executes
  (:mod:`repro.obs.serve`).  It is imported on first use, so importing
  the package (and everything that records) loads no HTTP stack.
* a CLI — ``python -m repro.obs record|summarize|diff|chrome|serve``
  (:mod:`repro.obs.cli`).

See DESIGN.md §10 for the architecture, event schema and the overhead
budget of the disabled path, and §12 for distributed tracing and SLOs.
"""

from .recorder import (
    NULL_RECORDER,
    Histogram,
    NullRecorder,
    Recorder,
    Span,
)
from .timeseries import EpochSnapshot, snapshot_delta
from .drift import DriftAlert, DriftConfig, DriftDetector
from .export import (
    chrome_trace,
    load_jsonl,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from .merge import merge_segment
from .slo import QuerySLO, slos_from_events

__all__ = [
    "DriftAlert",
    "DriftConfig",
    "DriftDetector",
    "EpochSnapshot",
    "Histogram",
    "MetricsServer",
    "NULL_RECORDER",
    "NullRecorder",
    "QuerySLO",
    "Recorder",
    "Span",
    "chrome_trace",
    "load_jsonl",
    "merge_segment",
    "prometheus_text",
    "slos_from_events",
    "snapshot_delta",
    "write_chrome_trace",
    "write_jsonl",
]


def __getattr__(name: str) -> object:
    """``MetricsServer`` on first access (PEP 562): :mod:`http.server`
    is only loaded by the code that serves."""
    if name == "MetricsServer":
        from .serve import MetricsServer

        return MetricsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
