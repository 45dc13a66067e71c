"""The materializing reference executor (test oracle).

The seed's executor, kept beside ``test_engine_streaming.py`` as the
oracle the streaming executor is pinned against: the golden equivalence
test requires both to produce identical
:class:`~repro.engine.metrics.RunMetrics` on every built-in scenario.
It shares no execution code with :mod:`repro.engine.executor` beyond
the topological order and the round-robin interleave.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.costmodel import base_load
from repro.engine.executor import (
    ExecutionError,
    ItemGenerator,
    interleave_round_robin,
    topological_streams,
)
from repro.engine.metrics import RunMetrics
from repro.engine.pipeline import Pipeline
from repro.engine.restructure import Restructurer
from repro.network.topology import Network
from repro.sharing.plan import Deployment, InstalledStream, RegisteredQuery
from repro.xmlkit import Element


class MaterializingSimulator:
    """The seed executor: materialize every stream's full item list.

    It evaluates every derived stream with its own private pipeline
    over the parent's fully materialized item list, exactly as the
    original implementation did.  Peak memory is O(all items × all
    streams); ``peak_live_items`` reports the total number of
    materialized items.
    """

    def __init__(
        self,
        net: Network,
        deployment: Deployment,
        generators: Dict[str, ItemGenerator],
        duration: float,
        max_items_per_source: Optional[int] = None,
    ) -> None:
        if duration <= 0:
            raise ExecutionError("duration must be positive")
        self.net = net
        self.deployment = deployment
        self.generators = generators
        self.duration = duration
        self.max_items = max_items_per_source
        self.peak_live_items = 0

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        metrics = RunMetrics(duration=self.duration)
        items: Dict[str, List[Element]] = {}

        for stream in self._topological_streams():
            if stream.is_original:
                items[stream.stream_id] = self._generate(stream, metrics)
            else:
                items[stream.stream_id] = self._derive(stream, items, metrics)
            self._account_transport(stream, items[stream.stream_id], metrics)

        self.peak_live_items = sum(len(produced) for produced in items.values())
        self._postprocess(items, metrics)
        return metrics

    # ------------------------------------------------------------------
    # Stream production
    # ------------------------------------------------------------------
    def _topological_streams(self) -> List[InstalledStream]:
        return topological_streams(self.deployment)

    def _generate(self, stream: InstalledStream, metrics: RunMetrics) -> List[Element]:
        generator = self.generators.get(stream.stream_id)
        if generator is None:
            raise ExecutionError(f"no generator for original stream {stream.stream_id!r}")
        produced: List[Element] = []
        peer = self.net.super_peer(stream.origin_node)
        ingest = base_load("ingest") * peer.pindex
        while generator.clock < self.duration:
            if self.max_items is not None and len(produced) >= self.max_items:
                break
            produced.append(generator.next_item())
        metrics.count_generated(stream.stream_id, len(produced))
        metrics.add_peer_work(stream.origin_node, ingest * len(produced))
        return produced

    def _derive(
        self,
        stream: InstalledStream,
        items: Dict[str, List[Element]],
        metrics: RunMetrics,
    ) -> List[Element]:
        assert stream.parent_id is not None
        parent_items = items[stream.parent_id]
        peer = self.net.super_peer(stream.origin_node)

        # Tapping an existing stream duplicates it at the tap node.
        duplicate = base_load("duplicate") * peer.pindex
        metrics.add_peer_work(stream.origin_node, duplicate * len(parent_items))

        if not stream.pipeline:
            return parent_items  # pure relay: content unchanged

        pipeline = Pipeline.from_specs(stream.pipeline, stream.content.item_path)
        out: List[Element] = []
        for item in parent_items:
            out.extend(pipeline.process_batch((item,)))
        for operator, inputs in zip(pipeline.operators, pipeline.input_counts):
            udf_name = getattr(getattr(operator, "spec", None), "name", None)
            work = base_load(operator.kind, udf_name) * peer.pindex * inputs
            metrics.add_peer_work(stream.origin_node, work)
        return out

    # ------------------------------------------------------------------
    # Transport and delivery
    # ------------------------------------------------------------------
    def _account_transport(
        self, stream: InstalledStream, produced: List[Element], metrics: RunMetrics
    ) -> None:
        hops = stream.links()
        if not hops or not produced:
            return
        bits_per_item = [item.serialized_size() * 8 for item in produced]
        total_bits = float(sum(bits_per_item))
        for a, b in hops:
            metrics.add_link_bits(self.net.link(a, b), total_bits)
        # Forwarding work: the sender side of every hop touches each item.
        for sender, _ in hops:
            peer = self.net.super_peer(sender)
            work = base_load("transfer") * peer.pindex * len(produced)
            metrics.add_peer_work(sender, work)

    def _postprocess(self, items: Dict[str, List[Element]], metrics: RunMetrics) -> None:
        """Run each subscription's restructuring at its super-peer."""
        for record in self.deployment.queries.values():
            peer = self.net.super_peer(record.subscriber_node)
            work_per_item = base_load("restructure") * peer.pindex
            if len(record.delivered) > 1:
                self._postprocess_multi(record, items, metrics, work_per_item)
                continue
            restructurer = Restructurer(record.analyzed)
            for _, stream_id in record.delivered:
                delivered = items.get(stream_id, [])
                metrics.add_peer_work(
                    record.subscriber_node, work_per_item * len(delivered)
                )
                results = 0
                for item in delivered:
                    results += len(restructurer.build(item))
                metrics.count_delivery(record.name, results)

    def _postprocess_multi(
        self,
        record: RegisteredQuery,
        items: Dict[str, List[Element]],
        metrics: RunMetrics,
        work_per_item: float,
    ) -> None:
        """Multi-input combination: latest-value semantics over a
        deterministic round-robin interleaving of the delivered streams
        (see :class:`repro.engine.combine.LatestValueCombiner`)."""
        from repro.engine.combine import LatestValueCombiner

        combiner = LatestValueCombiner(record.analyzed)
        per_stream = [
            (input_stream, items.get(stream_id, []))
            for input_stream, stream_id in record.delivered
        ]
        total_inputs = sum(len(delivered) for _, delivered in per_stream)
        metrics.add_peer_work(record.subscriber_node, work_per_item * total_inputs)
        results = 0
        for input_stream, item in interleave_round_robin(per_stream):
            results += len(combiner.push(input_stream, item))
        metrics.count_delivery(record.name, results)
