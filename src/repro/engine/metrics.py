"""Measurement collectors for executed deployments.

Everything the paper's figures plot comes out of these counters:

* per-link transmitted bits → "Avg. Network Traffic (kbps)" (Fig. 6)
  and per-peer accumulated MBit (Fig. 7);
* per-peer work units → "Avg. CPU Load (%)" (Figs. 6/7), as work rate
  over peer capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..network.topology import Link, Network


@dataclass
class RunMetrics:
    """Raw counters of one executed simulation run."""

    duration: float
    link_bits: Dict[Tuple[str, str], float] = field(default_factory=dict)
    peer_work: Dict[str, float] = field(default_factory=dict)
    items_delivered: Dict[str, int] = field(default_factory=dict)
    items_generated: Dict[str, int] = field(default_factory=dict)

    # -- degradation under churn (all zero for fault-free runs) --------
    #: Fault events applied during the run.
    faults_applied: int = 0
    #: Items dropped because of faults: source items generated while the
    #: source's home super-peer was down, plus delivered items dropped
    #: while their subscription's recovery was still in progress.
    items_lost: int = 0
    #: Recovery-gate drops broken down by subscription (queries with no
    #: drops are omitted, so fault-free runs keep an empty dict).  Sums
    #: to the gate component of :attr:`items_lost`; feeds the per-query
    #: SLO records (DESIGN.md §12).
    items_lost_by_query: Dict[str, int] = field(default_factory=dict)
    #: Total stream time spent recovering (per fault: the slowest
    #: re-registration, capped at the remaining run horizon).
    recovery_time_s: float = 0.0
    #: Traffic carried by repair-created streams — the extra re-routing
    #: cost of recovering from the faults.
    rerouted_traffic_bits: float = 0.0
    #: Subscriptions successfully re-registered after faults.
    queries_repaired: int = 0
    #: Subscriptions still torn down (pending repair) at the end.
    queries_lost: int = 0

    # -- adaptive rebalancing (zero for static runs) -------------------
    #: Live plan migrations applied by a :class:`~repro.sharing
    #: .rebalance.Rebalancer` during the run.
    migrations_applied: int = 0

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add_link_bits(self, link: Link, bits: float) -> None:
        self.link_bits[link.ends] = self.link_bits.get(link.ends, 0.0) + bits

    def add_peer_work(self, peer: str, work: float) -> None:
        self.peer_work[peer] = self.peer_work.get(peer, 0.0) + work

    def count_delivery(self, query: str, items: int) -> None:
        self.items_delivered[query] = self.items_delivered.get(query, 0) + items

    def count_generated(self, stream: str, items: int) -> None:
        self.items_generated[stream] = self.items_generated.get(stream, 0) + items

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def link_kbps(self, link: Link) -> float:
        """Average traffic on a connection in kbit/s (Fig. 6 right)."""
        return self.link_bits.get(link.ends, 0.0) / self.duration / 1000.0

    def peer_cpu_percent(self, net: Network, peer: str) -> float:
        """Average CPU load in percent of capacity (Figs. 6/7 left)."""
        capacity = net.super_peer(peer).capacity
        return self.peer_work.get(peer, 0.0) / self.duration / capacity * 100.0

    def peer_accumulated_mbit(self, net: Network, peer: str) -> float:
        """Accumulated in+out traffic of a peer in MBit (Fig. 7 right).

        **In+out convention:** every link's bits count toward *both*
        endpoints — a peer's figure is the sum over all links it
        terminates, regardless of transfer direction.  Consequently one
        transferred bit appears in two peers' totals, and summing this
        method over all peers yields **twice** :meth:`total_mbit`.
        This matches the paper's Fig. 7 ("accumulated network traffic
        at the super-peers"), which charges a transfer to sender and
        receiver alike; pinned by ``test_peer_accumulated_mbit_in_out``
        so the figure stays comparable across refactors.
        """
        total = 0.0
        for (a, b), bits in self.link_bits.items():
            if peer in (a, b):
                total += bits
        return total / 1_000_000.0

    def total_mbit(self) -> float:
        return sum(self.link_bits.values()) / 1_000_000.0

    def rerouted_mbit(self) -> float:
        """Traffic carried by repair-created streams, in MBit."""
        return self.rerouted_traffic_bits / 1_000_000.0

    def recovery_overhead(self) -> float:
        """Re-routing traffic as a fraction of all transmitted traffic.

        The churn benchmark's regression gate watches this: it grows
        when plan repair starts choosing needlessly long detours.
        """
        total = sum(self.link_bits.values())
        return self.rerouted_traffic_bits / total if total else 0.0

    def cpu_series(self, net: Network) -> List[Tuple[str, float]]:
        return [
            (name, self.peer_cpu_percent(net, name))
            for name in net.super_peer_names()
        ]

    def traffic_series(self, net: Network) -> List[Tuple[str, float]]:
        return [(str(link), self.link_kbps(link)) for link in net.links()]
