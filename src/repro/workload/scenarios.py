"""The two evaluation scenarios of Section 4, as declarative setups.

* **Scenario 1** — the extended running example: the 8-super-peer
  topology of Figures 1/2, one photon stream registered by the
  telescope thin-peer P0 at SP4, and 25 template queries registered by
  the astrophysicists' thin-peers P1–P4.
* **Scenario 2** — a 4×4 super-peer grid with two photon streams at
  opposite corners and 100 template queries registered across eight
  subscriber thin-peers.

Both are pure descriptions.  :meth:`Scenario.register_on` is the one
place a description becomes registrations, and :func:`run_scenario` the
one place it becomes a registered (and optionally executed) system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from ..faults import FaultSchedule, LinkFailure, SuperPeerCrash, SuperPeerRejoin
from ..network.topology import Network, example_topology, grid_topology
from .photons import HotSpot, PhotonGenerator, PhotonStreamConfig, SkyRegion
from .templates import QueryTemplateGenerator

if TYPE_CHECKING:  # pragma: no cover - repro.workload stays below repro.sharing
    from ..engine import RunMetrics
    from ..sharing import RegistrationResult, StreamGlobe


@dataclass(frozen=True)
class SourceSpec:
    """One registered original data stream."""

    name: str
    source_peer: str
    frequency: float
    config: PhotonStreamConfig

    def generator_factory(self) -> Callable[[], PhotonGenerator]:
        config = self.config
        return lambda: PhotonGenerator(config)


@dataclass(frozen=True)
class QuerySpec:
    """One subscription to register: name, text, subscriber, kind."""

    name: str
    text: str
    subscriber_peer: str
    kind: str


@dataclass
class Scenario:
    """A complete benchmark setup."""

    name: str
    network_factory: Callable[[], Network] = field(repr=False)
    sources: List[SourceSpec] = field(default_factory=list)
    queries: List[QuerySpec] = field(default_factory=list)
    #: Virtual seconds of stream input per execution.
    duration: float = 60.0
    #: Optional churn: faults applied (and repaired) during execution.
    faults: Optional[FaultSchedule] = None

    def build_network(self) -> Network:
        return self.network_factory()

    def register_on(self, system: Any) -> List[Any]:
        """Register the sources, then the queries, on ``system`` — a
        :class:`~repro.sharing.system.StreamGlobe` over
        :meth:`build_network`, or anything with its ``register_stream``
        / ``register_query``; returns the registration results in query
        order."""
        for source in self.sources:
            system.register_stream(
                source.name,
                "photons/photon",
                source.generator_factory(),
                frequency=source.frequency,
                source_peer=source.source_peer,
            )
        return [
            system.register_query(spec.name, spec.text, spec.subscriber_peer)
            for spec in self.queries
        ]


class ScenarioRun(NamedTuple):
    """One scenario registered under one strategy (and maybe executed)."""

    system: StreamGlobe
    #: The query registrations, in scenario order.
    registrations: List[RegistrationResult]
    #: ``None`` when the scenario was registered but not executed.
    metrics: Optional[RunMetrics]


def run_scenario(
    scenario: Scenario,
    strategy: str,
    *,
    execute: bool = True,
    workers: Optional[int] = None,
    **options: Any,
) -> ScenarioRun:
    """Register ``scenario`` on a fresh :class:`~repro.sharing.StreamGlobe`
    over its network and, unless ``execute=False``, run it for its
    duration under its fault schedule.

    ``options`` go to the :class:`~repro.sharing.StreamGlobe` constructor
    as they are (``gamma``, ``enable_widening``, ``recorder``, ...);
    ``workers`` to :meth:`~repro.sharing.StreamGlobe.run`.
    """
    from ..sharing import StreamGlobe

    system = StreamGlobe(scenario.build_network(), strategy=strategy, **options)
    registrations = scenario.register_on(system)
    metrics = (
        system.run(scenario.duration, faults=scenario.faults, workers=workers)
        if execute
        else None
    )
    return ScenarioRun(system, registrations, metrics)


def scenario_one(seed: int = 20060326, query_count: int = 25) -> Scenario:
    """8 super-peers, 1 data stream, 25 queries (Figure 6, Table 1)."""
    config = PhotonStreamConfig(seed=seed, frequency=100.0)
    generator = QueryTemplateGenerator(stream="photons", seed=seed)
    subscribers = ("P1", "P2", "P3", "P4")
    queries = [
        QuerySpec(
            name=generated.name,
            text=generated.text,
            subscriber_peer=subscribers[index % len(subscribers)],
            kind=generated.kind,
        )
        for index, generated in enumerate(generator.generate(query_count))
    ]
    return Scenario(
        name="scenario-1",
        network_factory=example_topology,
        sources=[SourceSpec("photons", "P0", 100.0, config)],
        queries=queries,
        duration=60.0,
    )


def _grid_network() -> Network:
    """The 4×4 grid plus the scenario's thin-peers."""
    net = grid_topology(4, 4)
    net.add_thin_peer("T0", "SP0")    # first telescope
    net.add_thin_peer("T1", "SP15")   # second telescope
    for index, home in enumerate(
        ("SP3", "SP5", "SP6", "SP9", "SP10", "SP12", "SP7", "SP14")
    ):
        net.add_thin_peer(f"U{index}", home)
    return net


#: A second survey field for the grid scenario's second stream.
_SECOND_STRIP = SkyRegion(100.0, 160.0, -60.0, -20.0)


def scenario_grid(
    rows: int,
    cols: int,
    query_count: int,
    seed: int = 20060328,
    duration: float = 60.0,
) -> Scenario:
    """A parameterized grid scenario (scalability studies, bench E10).

    One photon stream at the top-left corner, subscribers spread over
    every other super-peer round-robin.
    """
    net_rows, net_cols = rows, cols

    def build() -> Network:
        net = grid_topology(net_rows, net_cols)
        net.add_thin_peer("T0", "SP0")
        peers = [name for name in net.super_peer_names() if name != "SP0"]
        for index, home in enumerate(peers):
            net.add_thin_peer(f"U{index}", home)
        return net

    subscriber_count = rows * cols - 1
    generator = QueryTemplateGenerator(stream="photons", seed=seed)
    queries = [
        QuerySpec(
            name=generated.name,
            text=generated.text,
            subscriber_peer=f"U{index % subscriber_count}",
            kind=generated.kind,
        )
        for index, generated in enumerate(generator.generate(query_count))
    ]
    return Scenario(
        name=f"grid-{rows}x{cols}",
        network_factory=build,
        sources=[SourceSpec("photons", "T0", 100.0, PhotonStreamConfig(seed=seed, frequency=100.0))],
        queries=queries,
        duration=duration,
    )


def scenario_churn(
    rows: int = 3,
    cols: int = 3,
    query_count: int = 12,
    seed: int = 20060329,
    duration: float = 30.0,
    crash_peer: str = "SP1",
    crash_at: float = 10.0,
    rejoin_at: Optional[float] = 20.0,
    fail_link: Optional[tuple] = None,
) -> Scenario:
    """A grid scenario under churn: one super-peer crashes mid-run.

    The stream enters at the grid's top-left corner, so with the
    default 3×3 grid the crash of ``SP1`` (the corner's right
    neighbour) severs live routes and forces plan repair to detour the
    affected subscriptions around the hole.  ``rejoin_at=None`` keeps
    the peer down for the rest of the run; ``fail_link=(a, b)`` adds an
    independent link failure at ``crash_at + 2``.
    """
    scenario = scenario_grid(
        rows, cols, query_count, seed=seed, duration=duration
    )
    events: List[object] = [SuperPeerCrash(time=crash_at, peer=crash_peer)]
    if fail_link is not None:
        a, b = fail_link
        events.append(LinkFailure(time=crash_at + 2.0, a=a, b=b))
    if rejoin_at is not None:
        events.append(SuperPeerRejoin(time=rejoin_at, peer=crash_peer))
    return Scenario(
        name=f"churn-{rows}x{cols}",
        network_factory=scenario.network_factory,
        sources=scenario.sources,
        queries=scenario.queries,
        duration=duration,
        faults=FaultSchedule(events),
    )


def scenario_churn_hotspots(
    rows: int = 3,
    cols: int = 4,
    query_count: int = 24,
    seed: int = 20060330,
    duration: float = 40.0,
    crash_start: float = 12.0,
    crash_peers: Sequence[str] = ("SP1", "SP6"),
    crash_spacing: float = 6.0,
    downtime: float = 8.0,
) -> Scenario:
    """Multi-hotspot sky survey under rolling churn (bench PR7).

    The photon stream carries **three** hot spots, so selection-heavy
    subscriptions stay busy across disjoint sky regions and the
    certified shard partition gets genuinely unbalanced cells — the
    interesting regime for the sharded executor.  ``crash_peers`` then
    crash one after another (each rejoining ``downtime`` later),
    forcing repeated plan repair and shard re-certification mid-run.
    """
    from ..faults.schedule import staggered_crashes

    base = scenario_grid(rows, cols, query_count, seed=seed, duration=duration)
    config = PhotonStreamConfig(
        seed=seed,
        frequency=100.0,
        hot_spots=(
            HotSpot(ra=150.0, dec=2.0, sigma=2.0, weight=0.20, mean_energy=1.4),
            HotSpot(ra=186.0, dec=12.0, sigma=3.5, weight=0.15, mean_energy=0.9),
            HotSpot(ra=210.0, dec=-5.0, sigma=1.2, weight=0.12, mean_energy=2.1),
        ),
    )
    return Scenario(
        name=f"churn-hotspots-{rows}x{cols}",
        network_factory=base.network_factory,
        sources=[SourceSpec("photons", "T0", 100.0, config)],
        queries=base.queries,
        duration=duration,
        faults=staggered_crashes(
            crash_start, crash_peers, spacing=crash_spacing, downtime=downtime
        ),
    )


def scenario_drift(
    rows: int = 3,
    cols: int = 3,
    query_count: int = 12,
    seed: int = 20060331,
    duration: float = 30.0,
    rate_factor: float = 4.0,
) -> Scenario:
    """A grid scenario whose source rate jumps mid-run (bench PR8).

    The photon stream starts at its registered 100 items/s and steps to
    ``rate_factor`` times that at ``duration / 3`` — the registered
    catalog keeps advertising the base rate, so the planner's cost
    model is genuinely wrong for the last two thirds of the run.  A
    static plan keeps grinding the originally cheapest peers; the
    adaptive rebalancer sees the sustained CPU% surge in the epoch
    series and migrates the affected subscriptions off the hot
    peers.  No faults: the load shift alone drives the churn.
    """
    base = scenario_grid(rows, cols, query_count, seed=seed, duration=duration)
    config = PhotonStreamConfig(
        seed=seed,
        frequency=100.0,
        rate_profile=((duration / 3.0, 100.0 * rate_factor),),
    )
    return Scenario(
        name=f"drift-{rows}x{cols}",
        network_factory=base.network_factory,
        sources=[SourceSpec("photons", "T0", 100.0, config)],
        queries=base.queries,
        duration=duration,
    )


def scenario_hotspot_shift(
    rows: int = 3,
    cols: int = 4,
    query_count: int = 24,
    seed: int = 20060332,
    duration: float = 40.0,
) -> Scenario:
    """A sky survey whose hot spots rotate mid-run (bench PR8).

    The stream starts concentrated on one survey field and shifts to a
    disjoint field at ``duration / 2`` — selection-heavy subscriptions
    that were nearly idle suddenly match most items and vice versa, so
    the per-peer load distribution pivots without any change in the
    total rate.  Combined with a ``rate_profile`` step this is the
    hardest drift the rebalancer handles: both *where* and *how much*.
    """
    base = scenario_grid(rows, cols, query_count, seed=seed, duration=duration)
    early = (
        HotSpot(ra=150.0, dec=2.0, sigma=2.0, weight=0.35, mean_energy=1.4),
        HotSpot(ra=186.0, dec=12.0, sigma=3.5, weight=0.20, mean_energy=0.9),
    )
    late = (
        HotSpot(ra=210.0, dec=-5.0, sigma=1.2, weight=0.40, mean_energy=2.1),
        HotSpot(ra=112.0, dec=-33.0, sigma=3.0, weight=0.25, mean_energy=1.1),
    )
    config = PhotonStreamConfig(
        seed=seed,
        frequency=100.0,
        hot_spots=early,
        hot_spot_schedule=((duration / 2.0, late),),
        rate_profile=((duration / 2.0, 250.0),),
    )
    return Scenario(
        name=f"hotspot-shift-{rows}x{cols}",
        network_factory=base.network_factory,
        sources=[SourceSpec("photons", "T0", 100.0, config)],
        queries=base.queries,
        duration=duration,
    )


def scenario_two(seed: int = 20060327, query_count: int = 100) -> Scenario:
    """16 super-peers (4×4 grid), 2 data streams, 100 queries (Fig. 7)."""
    first = PhotonStreamConfig(seed=seed, frequency=100.0)
    second = PhotonStreamConfig(
        seed=seed + 1,
        frequency=80.0,
        strip=_SECOND_STRIP,
        hot_spots=(
            HotSpot(ra=112.0, dec=-33.0, sigma=3.0, weight=0.25, mean_energy=1.1),
            HotSpot(ra=148.0, dec=-47.0, sigma=1.5, weight=0.20, mean_energy=1.7),
        ),
    )
    rng_queries: List[QuerySpec] = []
    generators = {
        "photons": QueryTemplateGenerator(stream="photons", seed=seed),
        "photons2": QueryTemplateGenerator(stream="photons2", seed=seed + 7),
    }
    subscribers = tuple(f"U{i}" for i in range(8))
    import random

    chooser = random.Random(seed + 13)
    for index in range(query_count):
        stream = chooser.choice(("photons", "photons2"))
        generated = generators[stream].generate_one()
        rng_queries.append(
            QuerySpec(
                name=f"{'A' if stream == 'photons' else 'B'}{generated.name}",
                text=generated.text,
                subscriber_peer=subscribers[index % len(subscribers)],
                kind=generated.kind,
            )
        )
    return Scenario(
        name="scenario-2",
        network_factory=_grid_network,
        sources=[
            SourceSpec("photons", "T0", 100.0, first),
            SourceSpec("photons2", "T1", 80.0, second),
        ],
        queries=rng_queries,
        duration=60.0,
    )


#: The scenarios the command-line tools run, by the name their
#: ``--scenario`` option takes (``python -m repro.analysis``,
#: ``python -m repro.obs record|serve``).
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "1": scenario_one,
    "2": scenario_two,
    "grid": partial(scenario_grid, rows=3, cols=3, query_count=24),
    "churn": scenario_churn,
    "churn-smoke": partial(
        scenario_churn, rows=2, cols=2, query_count=4, duration=12.0,
        crash_peer="SP1", crash_at=4.0, rejoin_at=8.0,
    ),
}
