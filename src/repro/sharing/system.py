"""The StreamGlobe facade: one object tying the whole system together.

Typical use (see ``examples/quickstart.py``)::

    system = StreamGlobe(example_topology(), strategy="stream-sharing")
    system.register_stream("photons", "photons/photon",
                           lambda: PhotonGenerator(config), source_peer="P0")
    result = system.register_query("Q1", QUERY_TEXT, subscriber_peer="P1")
    metrics = system.run(duration=60.0)
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..costmodel import (
    DEFAULT_LATENCY_MODEL,
    CostModel,
    PlanEffects,
    StatisticsCatalog,
    StreamStatistics,
)
from ..diagnostics import AnalysisReport, InvariantViolation
from ..engine import RunMetrics, StreamSimulator
from ..engine.executor import ExecutionError, ItemGenerator
from ..network.topology import Network
from ..obs.recorder import NULL_RECORDER
from ..predicates import interned_graph_count
from ..properties import (
    Properties,
    StreamProperties,
    extract_from_analysis,
    raw_stream_properties,
)
from ..properties.typecheck import SchemaView, check_content, check_pipeline
from ..wxquery import AnalyzedQuery, Query, analyze, parse_query
from ..xmlkit import Path
from .deregister import tear_down
from .index import admission_order_key
from .plan import Deployment, InstalledStream, RegisteredQuery
from .planner import Planner
from .repair import RepairReport, damaged_streams, replan
from .subscribe import RegistrationResult, Subscriber

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..faults import FaultEvent

#: Number of sample items used to build a stream's statistics entry.
STATISTICS_SAMPLE_SIZE = 400

#: Distinct query texts (or parsed queries) whose analysis one system
#: keeps, least recently used first out.
ANALYSIS_MEMO_SIZE = 1024


@dataclass
class SourceRegistration:
    """Bookkeeping for one registered original data stream."""

    name: str
    item_path: Path
    home_node: str
    frequency: float
    generator_factory: Callable[[], ItemGenerator] = field(repr=False)
    #: The sampled item structure every chain over the stream is typed against.
    schema: SchemaView = field(repr=False)

    def stream(self) -> InstalledStream:
        """The original stream's record, available at its home only."""
        return InstalledStream(
            stream_id=self.name,
            content=raw_stream_properties(self.name, self.item_path).single_input(),
            origin_node=self.home_node,
            route=(self.home_node,),
        )


class StreamGlobe:
    """A super-peer DSMS network with incremental query registration."""

    def __init__(
        self,
        net: Network,
        strategy: str = "stream-sharing",
        gamma: float = 0.5,
        match_mode: str = "edgewise",
        search_order: str = "bfs",
        admission_control: bool = False,
        share_aggregates: bool = True,
        enable_widening: bool = False,
        use_index: bool = True,
        verify: bool = False,
        recorder: Optional[object] = None,
    ) -> None:
        self.net = net
        self.verify = verify
        #: Observability sink, owned per system (never shared between
        #: systems — benchmark baselines must not pollute each other's
        #: series, exactly like the MatchMemo ownership rule); the no-op
        #: singleton unless one is handed in.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.catalog = StatisticsCatalog()
        self.cost_model = CostModel(net, gamma=gamma)
        self.planner = Planner(net, self.catalog, self.cost_model, recorder=self.recorder)
        self.subscriber = Subscriber(
            self.planner,
            strategy,
            match_mode=match_mode,
            search_order=search_order,
            admission_control=admission_control,
            share_aggregates=share_aggregates,
            enable_widening=enable_widening,
            use_index=use_index,
        )
        self.deployment = Deployment(net)
        self.sources: Dict[str, SourceRegistration] = {}
        self.results: List[RegistrationResult] = []
        #: Subscriptions a repair or a migration could not re-register
        #: yet, name → (record, reason): every later re-plan pass retries them first.
        self.parked: Dict[str, Tuple[RegisteredQuery, str]] = {}
        #: ``query`` argument -> (analysis, input properties, rejection
        #: reason or ``None``): they depend on its text only, its name
        #: aside.  Per system, like the match memo.
        self._analyses: OrderedDict[
            Union[str, Query],
            Tuple[AnalyzedQuery, Tuple[StreamProperties, ...], Optional[str]],
        ] = OrderedDict()
        self.analysis_hits = 0
        self.analysis_misses = 0
        #: The executor of the latest :meth:`run` (``None`` before one).
        self.last_simulator: Optional[StreamSimulator] = None
        #: The collector around the latest run (``cache_stats()["gc"]``).
        self._gc_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Stream registration
    # ------------------------------------------------------------------
    def register_stream(
        self,
        name: str,
        item_path: Union[str, Path],
        generator_factory: Callable[[], ItemGenerator],
        frequency: float,
        source_peer: str,
    ) -> None:
        """Register an original data stream delivered by a thin-peer.

        ``generator_factory`` must return a *fresh, identically seeded*
        generator on every call: one instance samples the statistics
        catalog, later instances drive executions.
        """
        if name in self.sources:
            raise ValueError(f"stream {name!r} already registered")
        path = item_path if isinstance(item_path, Path) else Path(item_path)
        home = self.net.home_of(source_peer)

        sample_generator = generator_factory()
        sample = [sample_generator.next_item() for _ in range(STATISTICS_SAMPLE_SIZE)]
        statistics = StreamStatistics.from_sample(name, path, sample, frequency)
        self.catalog.register(statistics)

        self.sources[name] = SourceRegistration(
            name=name,
            item_path=path,
            home_node=home,
            frequency=frequency,
            generator_factory=generator_factory,
            schema=SchemaView.from_statistics(statistics),
        )
        self.deployment.install_stream(self.sources[name].stream())

    # ------------------------------------------------------------------
    # Programmatic derived streams (user-defined operators)
    # ------------------------------------------------------------------
    def install_derived_stream(
        self,
        stream_id: str,
        parent_id: str,
        pipeline,
        target: str,
        tap_node: Optional[str] = None,
    ) -> InstalledStream:
        """Install an administratively deployed derived stream.

        The WXQuery fragment cannot express user-defined operators
        (Definition 2.1), but the properties/matching machinery supports
        them (Algorithm 2's unknown-operator case).  This method is the
        deployment path for such streams: ``pipeline`` is a sequence of
        operator specs (typically ending in a
        :class:`~repro.properties.UdfSpec`), applied at ``tap_node``
        (default: the parent stream's origin) and routed to ``target``.

        Returns the installed stream; it participates in sharing like
        any query-generated stream.  An ill-typed pipeline (``T2xx``)
        raises :class:`~repro.diagnostics.InvariantViolation` first.
        """
        parent = self.deployment.stream(parent_id)
        origin = tap_node or parent.origin_node
        if origin not in parent.route:
            raise ValueError(
                f"tap node {origin!r} is not on the route of {parent_id!r}"
            )
        pipeline = tuple(pipeline)
        schema = self.sources[parent.content.stream].schema
        diagnostics = check_pipeline(parent.content, pipeline, schema, f"stream {stream_id!r}")
        if diagnostics:
            context = f"installing derived stream {stream_id!r}"
            raise InvariantViolation(context, AnalysisReport(f"typing {context}", diagnostics))
        content = StreamProperties(
            stream=parent.content.stream,
            item_path=parent.content.item_path,
            operators=parent.content.operators + pipeline,
        )
        stream = InstalledStream(
            stream_id=stream_id,
            content=content,
            origin_node=origin,
            route=self.planner.routes.path(origin, self.net.home_of(target)),
            parent_id=parent_id,
            pipeline=pipeline,
        )
        # Commit what the stream uses, as query registration does for
        # the streams it installs: the same walk, so removing the stream
        # returns the ledger to what it was.
        self.deployment.install_stream(stream)
        effects = PlanEffects()
        self.planner.installed_effects(effects, self.deployment, stream)
        self.deployment.commit_effects(effects)
        self.preflight(f"after installing derived stream {stream_id!r}")
        return stream

    # ------------------------------------------------------------------
    # Static verification
    # ------------------------------------------------------------------
    def preflight(self, context: str) -> None:
        """Run the static analysis passes when ``verify=True``.

        Two passes gate every plan mutation: the P1xx plan verifier
        (T2xx on compensation pipelines) and the F4xx flow analyzer
        (span-traced through the system's recorder).  Raises
        :class:`~repro.analysis.InvariantViolation` carrying the merged
        report if either finds an error.
        """
        if not self.verify:
            return
        # Imported lazily: repro.analysis depends on repro.sharing.plan.
        from ..analysis import flow_system, verify_system

        report = verify_system(self, title=f"pre-flight {context}")
        report.merge(flow_system(self, title=f"flow pre-flight {context}"))
        if not report.ok:
            raise InvariantViolation(context, report)

    # ------------------------------------------------------------------
    # Query registration
    # ------------------------------------------------------------------
    def register_query(
        self,
        name: str,
        query: Union[str, Query],
        subscriber_peer: str,
    ) -> RegistrationResult:
        """Register a continuous WXQuery subscription.

        Returns the registration result; an ill-typed text (typed
        before the plan search, ``verify`` or not: its ``T2xx`` codes in
        ``rejection_reason``, nothing committed) and capacity rejections
        (with admission control enabled) are reported, not raised.
        """
        self._require_free_name(name)
        result = self._register(
            name, lambda: self._analysis(name, query), subscriber_peer
        )
        self.preflight(f"after registering query {name!r}")
        return result

    def _analysis(
        self, name: str, query: Union[str, Query]
    ) -> Tuple[Properties, AnalyzedQuery, Optional[str]]:
        """Parse, analyze, extract and type ``query`` for the subscription
        ``name`` — once per distinct ``query`` while it stays in the
        memo (errors are raised afresh on every attempt, never kept; nor
        is a text whose sources are not all registered to type it)."""
        memo = self._analyses
        entry = memo.get(query)
        if entry is not None:
            self.analysis_hits += 1
            memo.move_to_end(query)
            analyzed, inputs, rejection = entry
            return Properties(name=name, inputs=inputs), analyzed, rejection
        self.analysis_misses += 1
        recorder = self.recorder
        with recorder.span("parse"):
            parsed = parse_query(query) if isinstance(query, str) else query
        with recorder.span("analyze"):
            analyzed = analyze(parsed)
            properties = extract_from_analysis(analyzed, name)
            sources = [self.sources.get(sp.stream) for sp in properties.inputs]
            rejection = "; ".join(
                f"{d.code}: {d.subject}: {d.message}"
                for sp, source in zip(properties.inputs, sources)
                if source is not None
                for d in check_content(sp, source.schema, f"input {sp.stream!r}")
            ) or None
        if None not in sources:
            memo[query] = (analyzed, properties.inputs, rejection)
            if len(memo) > ANALYSIS_MEMO_SIZE:
                memo.popitem(last=False)
        return properties, analyzed, rejection

    def register_queries(
        self,
        batch: Sequence[Tuple[str, Union[str, Query], str]],
    ) -> List[RegistrationResult]:
        """Batch admission: register many subscriptions in one call.

        ``batch`` is a sequence of ``(name, query, subscriber_peer)``
        entries.  Compared to a loop over :meth:`register_query`, batch
        admission

        * admits the batch most-general-first
          (:func:`~repro.sharing.index.admission_order_key`), so broad
          subscriptions install the streams the narrow ones then tap —
          maximizing intra-batch sharing regardless of caller order,
        * runs the (optional) verification pre-flight once per batch
          instead of once per query.

        Results are returned in the *caller's* order (an ill-typed entry
        is rejected alone).  Admission order is an optimization heuristic
        only — every plan is still chosen by the same cost-based search,
        and each registration sees all previously admitted streams.
        """
        names = [name for name, _, _ in batch]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(
                f"duplicate query name(s) in batch: {', '.join(sorted(duplicates))}"
            )
        for name in names:
            self._require_free_name(name)

        prepared = [
            (name, self._analysis(name, query), self.net.home_of(subscriber_peer))
            for name, query, subscriber_peer in batch
        ]

        prepared.sort(key=lambda entry: admission_order_key(entry[1][0]))
        by_name = {
            name: self._register(name, lambda: analysis, subscriber_node, batch=True)
            for name, analysis, subscriber_node in prepared
        }
        self.preflight(f"after batch registration of {len(prepared)} queries")
        return [by_name[name] for name in names]

    def _register(
        self,
        name: str,
        analysis: Callable[[], Tuple[Properties, AnalyzedQuery, Optional[str]]],
        subscriber_peer: str,
        **tags: object,
    ) -> RegistrationResult:
        """The registration body: analyze and type (inside the ``register``
        span, unless the caller already has), plan, record the outcome."""
        recorder = self.recorder
        with recorder.span(
            "register", query=name, strategy=self.subscriber.strategy, **tags
        ) as span:
            properties, analyzed, rejection = analysis()
            subscriber_node = self.net.home_of(subscriber_peer)
            if rejection is not None:
                # No search, nothing committed: the latency model charges
                # the parsing alone.
                base_ms = DEFAULT_LATENCY_MODEL.base_ms
                result = RegistrationResult(name, False, None, base_ms, rejection)
            else:
                with recorder.span("plan"):
                    result = self.subscriber.subscribe(
                        self.deployment, properties, analyzed, subscriber_node
                    )
            if recorder.enabled:
                span.set(accepted=result.accepted)
        self.results.append(result)
        self._record_decision(result)
        return result

    def reregister(self, record: RegisteredQuery) -> RegistrationResult:
        """Plan and commit a torn-down subscription again (plan repair,
        rebalancing): the same search, admission check and commit, but
        no new entry in :attr:`results` and no ``plan.decision``."""
        return self.subscriber.subscribe(
            self.deployment, record.properties, record.analyzed, record.subscriber_node
        )

    def _require_free_name(self, name: str) -> None:
        """A name is taken while its subscription is installed — or
        parked by plan repair, which registers it again at a rejoin."""
        if name in self.parked or name in self.deployment.queries:
            raise ValueError(f"query {name!r} already registered")

    def deregister_query(self, name: str) -> List[str]:
        """Remove a subscription and garbage-collect its streams.

        Streams shared with other live subscriptions survive; streams
        no subscription needs anymore are removed and their estimated
        resource commitments released.  Returns the removed stream ids
        (none for a subscription plan repair had parked: it holds
        nothing, and is forgotten).
        """
        if self.parked.pop(name, None) is not None:
            return []
        with self.recorder.span("deregister", query=name) as span:
            _, removed = tear_down(self.planner, self.deployment, [name])
            if self.recorder.enabled:
                span.set(removed_streams=list(removed))
        return removed

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record_decision(self, result: RegistrationResult) -> None:
        """Emit the machine-readable "why this plan" event (traced only)."""
        if not self.recorder.enabled:
            return
        from .explain import decision_record

        record = decision_record(result, self.deployment)
        record["strategy"] = self.subscriber.strategy
        self.recorder.event("plan.decision", **record)
        self._sync_cache_gauges()

    def cache_stats(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss/invalidation counters of every control-plane cache,
        the entry counts of the intern tables (``"intern"``) and the
        collector's work during the latest run (``"gc"``).

        Always available (the counters are plain ints kept regardless of
        tracing); the same numbers feed the recorder's
        ``cache.*`` counter registry on traced systems and the bench
        reports' cache-hit-rate fields.
        """

        def rated(hits: float, misses: float, **extra: float) -> Dict[str, float]:
            total = hits + misses
            stats = {"hits": hits, "misses": misses}
            stats["hit_rate"] = hits / total if total else 0.0
            stats.update(extra)
            return stats

        routes = self.planner.routes
        stats = {
            "route": rated(
                routes.hits,
                routes.misses,
                invalidations=routes.invalidations,
                entries=len(routes),
                profiles=routes.profiles,
            ),
            "rate": rated(
                self.planner.rate_cache_hits, self.planner.rate_cache_misses
            ),
            "stages": rated(
                self.planner.stage_load_hits,
                self.planner.stage_load_misses,
                entries=self.planner.stage_loads,
            ),
            "analysis": rated(
                self.analysis_hits, self.analysis_misses, entries=len(self._analyses)
            ),
        }
        # The intern tables: contents live as long as the system (the
        # table never evicts), graphs as long as some spec uses them.
        stats["intern"] = {
            "content_entries": self.planner.interned_contents,
            "graph_entries": interned_graph_count(),
        }
        memo = self.subscriber.match_memo
        if memo is not None:
            stats["match"] = rated(
                memo.hits,
                memo.misses,
                properties_entries=len(memo.properties),
                operator_entries=len(memo.operators),
            )
        # The cyclic collector around the latest run (empty before
        # one): collections per generation ``gen0``… while it ran, in
        # this process.
        stats["gc"] = dict(self._gc_stats)
        return stats

    def _sync_cache_gauges(self) -> None:
        """Mirror the always-on cache counters into the recorder."""
        recorder = self.recorder
        for cache, stats in self.cache_stats().items():
            for key, value in stats.items():
                if key == "hit_rate":
                    recorder.set_gauge(f"cache.{cache}.hit_rate", value)
                else:
                    recorder.counters[f"cache.{cache}.{key}"] = value
        recorder.counters["planner.plans_costed"] = self.planner.plans_costed
        recorder.counters["planner.plans_bounded"] = self.planner.plans_bounded

    # ------------------------------------------------------------------
    # Fault handling and plan repair
    # ------------------------------------------------------------------
    def repair(self, context: str = "topology fault") -> RepairReport:
        """One repair pass against the current topology.

        Reinstalls the original streams whose home rejoined, tears down
        every subscription whose subscriber is gone or whose delivery
        chain touches a damaged stream, and registers them again — the
        parked ones first (:func:`~repro.sharing.repair.replan`); what
        still cannot be placed stays parked for the next re-plan pass.
        """
        deployment = self.deployment
        net = self.net
        recorder = self.recorder
        report = RepairReport(context=context)

        with recorder.span("repair", context=context) as repair_span:
            with recorder.span("repair.damage") as span:
                for name, source in self.sources.items():
                    if name not in deployment.streams and source.home_node in net:
                        deployment.install_stream(source.stream())
                        report.reinstalled_sources.append(name)

                damaged = damaged_streams(deployment, net)
                report.damaged_streams = sorted(damaged)
                affected = [
                    name
                    for name, record in deployment.queries.items()
                    if record.subscriber_node not in net
                    or any(
                        stream_id not in deployment.streams or stream_id in damaged
                        for _, stream_id in record.delivered
                    )
                ]
                report.torn_down_queries = sorted(affected)
                if recorder.enabled:
                    span.set(
                        damaged_streams=len(damaged),
                        torn_down_queries=len(report.torn_down_queries),
                    )

            # Damaged *original* streams (their source's home crashed)
            # are never garbage: the pass drops them after the sweep.
            # They carry no committed effects (single-node route, no
            # pipeline).
            originals = [
                stream_id
                for stream_id in report.damaged_streams
                if deployment.streams[stream_id].is_original
            ]
            _, report.removed_streams, report.reregistered = replan(
                self, "repair", affected, release=originals
            )
            report.pending = [
                (name, reason) for name, (_, reason) in sorted(self.parked.items())
            ]
            if recorder.enabled:
                repair_span.set(summary=report.summary())

        if recorder.enabled:
            recorder.event(
                "repair.report",
                context=context,
                damaged_streams=len(report.damaged_streams),
                removed_streams=len(report.removed_streams),
                torn_down_queries=len(report.torn_down_queries),
                queries_repaired=len(report.repaired_queries),
                queries_lost=len(report.pending),
                sources_reinstalled=len(report.reinstalled_sources),
                recovery_time_ms=report.recovery_time_ms(),
            )

        self.preflight(f"after plan repair ({context})")
        return report

    def apply_fault(self, event: "FaultEvent") -> RepairReport:
        """Apply one :class:`~repro.faults.FaultEvent` and repair the plan.

        Mutates the topology, tears down every affected stream and
        subscription, re-registers what the surviving topology can
        still serve, and (with ``verify=True``) verifies the repaired
        deployment.  Returns the :class:`~repro.sharing.repair.RepairReport`.
        """
        event.apply(self.net)
        return self.repair(context=event.describe())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        duration: float,
        max_items_per_source: Optional[int] = None,
        faults=None,
        capture=None,
        workers: Optional[int] = None,
        rebalancer=None,
    ) -> RunMetrics:
        """Execute the deployed network for ``duration`` virtual seconds.

        Every call replays the sources from fresh, identically seeded
        generators, so repeated runs are bit-for-bit reproducible.

        ``faults`` — an optional :class:`~repro.faults.FaultSchedule`.
        Scheduled events are applied at their simulated times; after
        each one the plan repairer rebuilds affected subscriptions and
        the run continues on the surviving topology, with degradation
        (items lost, recovery time, re-routed traffic) reported in the
        returned :class:`RunMetrics`.  Topology and deployment changes
        persist after the run — churn is real state, not a what-if.

        ``capture`` — optional ``(query_name, result_item)`` hook
        observing every restructured result as it is delivered.

        ``workers`` — run on the sharded executor
        (:class:`~repro.engine.parallel.ShardedSimulator`) with up to
        this many worker cells, the live super-peers packed by load —
        the same control loop over several cells instead of one, so
        ``RunMetrics`` is byte-identical to the sequential run at every
        worker count and under any partition.  ``None`` or ``1`` means
        sequential, a count below 1 is rejected; the backend (forked or
        in-process cells) is the executor's choice from what it observes
        of the host and the plan.

        ``rebalancer`` — an optional
        :class:`~repro.sharing.rebalance.Rebalancer` (constructed over
        *this* system).  The executor feeds it the per-epoch time
        series; on sustained load drift it migrates affected plans live
        at a quiescent epoch barrier, each migration re-running the
        verified pre-flight (``verify=True``); on the sharded executor
        the run keeps its cells, exactly like churn.
        """
        self.preflight("before execution")
        generators = {
            name: source.generator_factory() for name, source in self.sources.items()
        }
        if workers is not None and workers < 1:
            raise ExecutionError("workers must be >= 1")
        options: Dict[str, Any] = dict(
            max_items_per_source=max_items_per_source,
            schedule=faults,
            repair=self.repair if faults else None,
            capture=capture,
            recorder=self.recorder,
            rebalancer=rebalancer,
        )
        simulator: StreamSimulator
        if workers is not None and workers > 1:
            from ..engine.parallel import ShardedSimulator

            simulator = ShardedSimulator(
                self.net,
                self.deployment,
                generators,
                duration,
                workers=workers,
                **options,
            )
        else:
            simulator = StreamSimulator(
                self.net, self.deployment, generators, duration, **options
            )
        self.last_simulator = simulator
        before = gc.get_stats()
        try:
            metrics = simulator.run()
        finally:
            self._gc_stats = {
                f"gen{generation}": after["collections"] - start["collections"]
                for generation, (start, after) in enumerate(zip(before, gc.get_stats()))
            }
        if self.recorder.enabled:
            self._sync_cache_gauges()
        return metrics

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def accepted_queries(self) -> List[str]:
        return [r.query for r in self.results if r.accepted]

    def rejected_queries(self) -> List[str]:
        return [r.query for r in self.results if not r.accepted]

    def registration_times_ms(self) -> List[float]:
        return [r.registration_ms for r in self.results]
