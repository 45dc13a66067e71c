"""Benchmark harness: run a scenario under a strategy, collect the
paper's metrics.

The harness owns the pieces every experiment shares: building (and
optionally capacity-limiting) the network, registering the scenario on
it (:meth:`~repro.workload.scenarios.Scenario.register_on`), executing
the deployment, and packaging the series the paper's figures and tables
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..engine import RunMetrics
from ..network.topology import Network
from ..sharing import RegistrationResult, StreamGlobe
from ..workload.scenarios import Scenario


def scale_network(
    net: Network,
    capacity_factor: float = 1.0,
    link_bandwidth: Optional[float] = None,
) -> Network:
    """Clone a topology with scaled peer capacities / link bandwidths.

    Used by the rejection experiment: "we limited the maximum CPU load
    of peers to 10 % of their actual capacity and the maximum bandwidth
    of network connections between peers to 1 MBit/s" (Section 4).
    """
    scaled = Network()
    for peer in net.super_peers():
        scaled.add_super_peer(
            peer.name, capacity=peer.capacity * capacity_factor, pindex=peer.pindex
        )
    for link in net.links():
        scaled.add_link(
            link.a,
            link.b,
            bandwidth=link_bandwidth if link_bandwidth is not None else link.bandwidth,
        )
    for thin in net.thin_peers():
        scaled.add_thin_peer(thin.name, thin.super_peer)
    return scaled


@dataclass
class ScenarioRun:
    """Everything measured from one scenario × strategy execution."""

    scenario: str
    strategy: str
    system: StreamGlobe = field(repr=False)
    metrics: Optional[RunMetrics]
    registrations: List[RegistrationResult]

    # ------------------------------------------------------------------
    @property
    def accepted(self) -> int:
        return sum(1 for r in self.registrations if r.accepted)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.registrations if not r.accepted)

    def registration_stats_ms(self) -> Tuple[float, float, float]:
        """(average, minimum, maximum) registration time (Table 1)."""
        times = [r.registration_ms for r in self.registrations]
        if not times:
            return (0.0, 0.0, 0.0)
        return (sum(times) / len(times), min(times), max(times))

    def cpu_by_peer(self) -> Dict[str, float]:
        assert self.metrics is not None
        return dict(self.metrics.cpu_series(self.system.net))

    def traffic_by_link_kbps(self) -> Dict[str, float]:
        assert self.metrics is not None
        return dict(self.metrics.traffic_series(self.system.net))

    def accumulated_mbit_by_peer(self) -> Dict[str, float]:
        assert self.metrics is not None
        return {
            name: self.metrics.peer_accumulated_mbit(self.system.net, name)
            for name in self.system.net.super_peer_names()
        }

    def total_traffic_mbit(self) -> float:
        assert self.metrics is not None
        return self.metrics.total_mbit()


def run_scenario(
    scenario: Scenario,
    strategy: str,
    gamma: float = 0.5,
    match_mode: str = "edgewise",
    search_order: str = "bfs",
    admission_control: bool = False,
    share_aggregates: bool = True,
    enable_widening: bool = False,
    capacity_factor: float = 1.0,
    link_bandwidth: Optional[float] = None,
    execute: bool = True,
    use_index: bool = True,
    recorder=None,
    workers: Optional[int] = None,
) -> ScenarioRun:
    """Register a scenario's workload under ``strategy`` and execute it.

    ``execute=False`` skips the measured simulation (used by
    registration-only experiments like Table 1 and the rejection study,
    and by the analysis passes of ``python -m repro.analysis``).

    ``recorder`` — an optional :class:`~repro.obs.Recorder` handed to
    the system, capturing control-plane spans and the data-plane epoch
    series for the whole scenario (``python -m repro.obs record`` uses
    this).

    ``workers`` — execute on the sharded executor with this many worker
    cells (metrics stay byte-identical to the sequential executor; see
    :class:`~repro.engine.parallel.ShardedSimulator`).
    """
    net = scenario.build_network()
    if not math.isclose(capacity_factor, 1.0) or link_bandwidth is not None:
        net = scale_network(net, capacity_factor, link_bandwidth)

    system = StreamGlobe(
        net,
        strategy=strategy,
        gamma=gamma,
        match_mode=match_mode,
        search_order=search_order,
        admission_control=admission_control,
        share_aggregates=share_aggregates,
        enable_widening=enable_widening,
        use_index=use_index,
        recorder=recorder,
    )
    registrations = scenario.register_on(system)
    metrics = (
        system.run(scenario.duration, faults=scenario.faults, workers=workers)
        if execute
        else None
    )
    return ScenarioRun(
        scenario=scenario.name,
        strategy=strategy,
        system=system,
        metrics=metrics,
        registrations=registrations,
    )
