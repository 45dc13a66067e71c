"""Per-query service-level objective (SLO) records.

Every registered query gets one :class:`QuerySLO` summarizing what the
data plane actually delivered to it over a run (DESIGN.md §12):

* **delivery** — items fed to its restructuring step and results
  produced;
* **freshness** — the ``epoch_lag`` of its delivery chain (the most
  cell boundaries it crossed on the sharded plane over the run, each
  delaying an item one exchange epoch) and the derived worst-case
  stream-time delivery latency, ``epoch_lag × exchange-epoch width``;
* **loss and churn exposure** — items dropped while the query's
  recovery gate was closed, live migrations that moved it, and whether
  it ended the run parked (torn down, pending repair);
* **backpressure exposure** — epochs during which its host shard's
  in-flight peak exceeded the executor's batch size (the queue-depth
  signal the future serving front end will shed load on), plus the
  shard's peak queue depth.

The executor's control loop computes these from its cells'
accumulated counters, over one cell or many, and keeps the latest in
``StreamSimulator.last_query_slos``: refreshed at every epoch boundary
(the live ``/slo.json`` endpoint reads them mid-run) and at the end of
the run, when it also emits one ``query.slo`` event per query into a
traced run log — ``python -m repro.obs summarize RUN.jsonl`` renders
the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

__all__ = ["QuerySLO", "slos_from_events"]


@dataclass
class QuerySLO:
    """One query's delivered service level over (part of) a run."""

    query: str
    #: Worker cell hosting the query's delivery step (0 on the
    #: sequential executor).
    shard: int
    #: Exchange-epoch lag of the query's delivery chain: the most cell
    #: boundaries it crossed on any deployment of the run
    #: (:func:`~repro.engine.partition.query_lags`); 0 on the
    #: sequential executor.
    epoch_lag: int
    #: Worst-case added stream-time delivery latency from the
    #: exchange between cells: ``epoch_lag`` × exchange-epoch width, in stream
    #: seconds.  0 when delivery is same-epoch (sequential executor).
    delivery_latency_s: float
    #: Items fed to the query's restructuring step.
    delivered_inputs: int
    #: Restructured results produced for the subscriber.
    delivered_results: int
    #: Items dropped while the query's recovery gate was closed.
    items_lost: int
    #: Live rebalancer migrations that moved this query.
    migrations: int
    #: Epochs during which the host shard's in-flight peak exceeded
    #: the executor's batch size.
    backpressure_epochs: int
    #: Peak in-flight items on the host shard.
    queue_peak: int
    #: Query ended the run torn down (pending repair).
    parked: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query": self.query,
            "shard": self.shard,
            "epoch_lag": self.epoch_lag,
            "delivery_latency_s": self.delivery_latency_s,
            "delivered_inputs": self.delivered_inputs,
            "delivered_results": self.delivered_results,
            "items_lost": self.items_lost,
            "migrations": self.migrations,
            "backpressure_epochs": self.backpressure_epochs,
            "queue_peak": self.queue_peak,
            "parked": self.parked,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QuerySLO":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items() if key in known})


def slos_from_events(events: List[Dict[str, Any]]) -> List[QuerySLO]:
    """Parse the ``query.slo`` events of a run log, in query order."""
    slos = [
        QuerySLO.from_dict(event["fields"])
        for event in events
        if event.get("name") == "query.slo"
    ]
    slos.sort(key=lambda slo: slo.query)
    return slos
