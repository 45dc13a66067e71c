"""Tests for the single-pass streaming executor.

The central contract: :class:`StreamSimulator` (streaming) and
:class:`MaterializingSimulator` (the seed executor, kept beside this
test as the oracle, ``tests/oracle_materializing.py``) produce
*identical* ``RunMetrics`` — same link bits, same peer work, same
delivery counts — on every built-in scenario and strategy.
"""

from fractions import Fraction

import pytest

from tests.conftest import PAPER_QUERIES, make_system, on_every_executor
from tests.oracle_materializing import MaterializingSimulator
from repro.engine.executor import (
    ExecutionError,
    StreamSimulator,
    interleave_round_robin,
    topological_streams,
)
from repro.engine.columnar import encode_ingest
from repro.engine.fanout import PrefixTree, group_pipelines
from repro.engine.pipeline import Pipeline
from repro.predicates import PredicateGraph, normalize_comparison
from repro.properties import ProjectionSpec, SelectionSpec, raw_stream_properties
from repro.sharing.plan import Deployment, InstalledStream
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.scenarios import run_scenario, scenario_grid, scenario_one, scenario_two
from repro.xmlkit import Path, element

STRATEGIES = ("data-shipping", "query-shipping", "stream-sharing")


def _fresh_generators(system):
    return {name: s.generator_factory() for name, s in system.sources.items()}


def _assert_identical_metrics(system, duration):
    streaming = StreamSimulator(
        system.net, system.deployment, _fresh_generators(system), duration
    ).run()
    materialized = MaterializingSimulator(
        system.net, system.deployment, _fresh_generators(system), duration
    ).run()
    assert streaming.items_generated == materialized.items_generated
    assert streaming.items_delivered == materialized.items_delivered
    assert streaming.link_bits == materialized.link_bits
    assert streaming.peer_work == materialized.peer_work


class TestGoldenEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_scenario_one(self, strategy):
        run = run_scenario(scenario_one(query_count=10), strategy, execute=False)
        _assert_identical_metrics(run.system, duration=10.0)

    def test_scenario_two(self):
        run = run_scenario(scenario_two(), "stream-sharing", execute=False)
        _assert_identical_metrics(run.system, duration=10.0)

    def test_scenario_grid(self):
        run = run_scenario(scenario_grid(3, 3, 15), "query-shipping", execute=False)
        _assert_identical_metrics(run.system, duration=10.0)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_paper_queries(self, strategy):
        system = make_system(strategy)
        for name, peer in [("Q1", "P1"), ("Q2", "P2"), ("Q3", "P3"), ("Q4", "P4")]:
            system.register_query(name, PAPER_QUERIES[name], peer)
        _assert_identical_metrics(system, duration=25.0)

    def test_varying_batch_size_is_invisible(self):
        """Against the default ``SOURCE_BATCH``: the old default (64),
        smaller and larger batches report the very same metrics."""
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P3")
        baseline = StreamSimulator(
            system.net, system.deployment, _fresh_generators(system), 15.0
        ).run()
        for batch_size in (1, 7, 64, 256):
            other = StreamSimulator(
                system.net,
                system.deployment,
                _fresh_generators(system),
                15.0,
                batch_size=batch_size,
            ).run()
            assert other == baseline, batch_size


class TestPeakMemory:
    def test_streaming_peak_bounded_in_duration(self):
        """4× the input must not move the in-flight peak materially —
        it saturates at O(batch_size × DAG depth), not O(items)."""
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        peaks = {}
        for duration in (10.0, 40.0):
            simulator = StreamSimulator(
                system.net, system.deployment, _fresh_generators(system), duration
            )
            simulator.run()
            peaks[duration] = simulator.peak_live_items
        assert peaks[40.0] <= peaks[10.0] * 1.25

    def test_materializing_peak_grows_with_duration(self):
        system = make_system("stream-sharing")
        system.register_query("Q1", PAPER_QUERIES["Q1"], "P1")
        peaks = {}
        for duration in (10.0, 40.0):
            simulator = MaterializingSimulator(
                system.net, system.deployment, _fresh_generators(system), duration
            )
            simulator.run()
            peaks[duration] = simulator.peak_live_items
        assert peaks[40.0] > 3.0 * peaks[10.0]


def _install(deployment, stream_id, parent_id=None):
    deployment.install_stream(
        InstalledStream(
            stream_id=stream_id,
            content=raw_stream_properties(stream_id, "photons/photon").single_input(),
            origin_node="SP4",
            route=("SP4",),
            parent_id=parent_id,
        )
    )


class TestTopologicalStreams:
    def test_parents_before_children(self, example_net):
        run = run_scenario(scenario_one(query_count=10), "stream-sharing", execute=False)
        order = topological_streams(run.system.deployment)
        position = {stream.stream_id: i for i, stream in enumerate(order)}
        assert len(order) == len(run.system.deployment.streams)
        for stream in order:
            if stream.parent_id is not None:
                assert position[stream.parent_id] < position[stream.stream_id]

    def test_cycle_diagnostic_names_streams(self, example_net):
        deployment = Deployment(example_net)
        _install(deployment, "root")
        _install(deployment, "a", parent_id="root")
        # Rewire a's parent to a not-yet-placed stream and add the cycle
        # directly (install_stream validates parents, so bypass it).
        looped_a = InstalledStream(
            stream_id="loop_a",
            content=raw_stream_properties("loop_a", "photons/photon").single_input(),
            origin_node="SP4",
            route=("SP4",),
            parent_id="loop_b",
        )
        looped_b = InstalledStream(
            stream_id="loop_b",
            content=raw_stream_properties("loop_b", "photons/photon").single_input(),
            origin_node="SP4",
            route=("SP4",),
            parent_id="loop_a",
        )
        deployment.streams["loop_a"] = looped_a
        deployment.streams["loop_b"] = looped_b
        with pytest.raises(ExecutionError, match="stream dependency cycle: loop_a, loop_b"):
            topological_streams(deployment)


class TestInterleaveRoundRobin:
    def test_uneven_lengths(self):
        merged = list(
            interleave_round_robin(
                [("a", ["a0", "a1", "a2", "a3"]), ("b", ["b0"]), ("c", ["c0", "c1"])]
            )
        )
        assert merged == [
            ("a", "a0"), ("b", "b0"), ("c", "c0"),
            ("a", "a1"), ("c", "c1"),
            ("a", "a2"),
            ("a", "a3"),
        ]

    def test_empty_streams_skipped(self):
        assert list(interleave_round_robin([("a", []), ("b", ["b0"])])) == [("b", "b0")]
        assert list(interleave_round_robin([])) == []

    def test_total_preserves_every_item(self):
        per_stream = [("x", list(range(5))), ("y", list(range(3))), ("z", [])]
        merged = list(interleave_round_robin(per_stream))
        assert len(merged) == 8
        assert [i for name, i in merged if name == "x"] == list(range(5))
        assert [i for name, i in merged if name == "y"] == list(range(3))


ITEM = Path("photons/photon")


def _selection(path, op, const):
    atoms = normalize_comparison(ITEM / path, op, None, Fraction(str(const)))
    return SelectionSpec(graph=PredicateGraph(atoms))


def _projection(*paths):
    out = frozenset(ITEM / p for p in paths)
    return ProjectionSpec(output_elements=out, referenced_elements=out)


def _photon(ra=130.0, en=1.5, det=1.0):
    return element(
        "photon",
        element("coord", element("cel", element("ra", text=ra), element("dec", text=-45.0))),
        element("en", text=en),
        element("det_time", text=det),
    )


class TestPrefixTree:
    def test_common_prefix_shares_stages(self):
        shared = _selection("en", ">=", "1.0")
        tree = PrefixTree(ITEM)
        tree.add("s1", (shared, _projection("en")))
        tree.add("s2", (shared, _projection("det_time")))
        # selection shared, two distinct projections: 3 stages, not 4
        assert tree.stage_count() == 3

    def test_disjoint_pipelines_do_not_share(self):
        tree = PrefixTree(ITEM)
        tree.add("s1", (_selection("en", ">=", "1.0"),))
        tree.add("s2", (_selection("en", ">=", "2.0"),))
        assert tree.stage_count() == 2

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            PrefixTree(ITEM).add("s1", ())

    def test_outputs_match_private_pipelines(self):
        specs1 = (_selection("en", ">=", "1.0"), _projection("en"))
        specs2 = (_selection("en", ">=", "1.0"), _projection("det_time"))
        tree = PrefixTree(ITEM)
        path1 = tree.add("s1", specs1)
        path2 = tree.add("s2", specs2)

        items = [_photon(en=e) for e in (0.5, 1.2, 2.0, 0.9, 1.8)]
        emitted = {}
        tree.evaluate(
            encode_ingest(items),
            lambda sid, out: emitted.setdefault(sid, []).extend(out.decode()),
        )

        for sid, specs, stage_path in (("s1", specs1, path1), ("s2", specs2, path2)):
            pipeline = Pipeline.from_specs(specs, ITEM)
            expected = pipeline.process_batch([i.copy() for i in items])
            assert emitted.get(sid, []) == expected
            # per-stream work accounting matches the private pipeline
            assert [s.input_count for s in stage_path] == pipeline.input_counts

    def test_group_pipelines_splits_by_item_path(self):
        other = Path("photons/burst")
        burst_selection = SelectionSpec(
            graph=PredicateGraph(
                normalize_comparison(other / "en", ">=", None, Fraction("1"))
            )
        )
        groups = group_pipelines(
            [
                ("s1", ITEM, (_selection("en", ">=", "1.0"),)),
                ("s2", ITEM, (_selection("en", ">=", "1.0"),)),
                ("s3", other, (burst_selection,)),
            ]
        )
        assert len(groups) == 2
        by_path = {str(path): tree for path, tree, _ in groups}
        assert by_path["photons/photon"].stage_count() == 1  # s1+s2 share
        assert by_path["photons/burst"].stage_count() == 1


class TestFlushSemantics:
    """The executor never flushes: a run's horizon is a measurement
    window over continuous queries, not an end-of-stream marker."""

    def test_pipeline_holds_open_windows_until_explicit_flush(self):
        system = make_system("stream-sharing")
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P1")
        record = system.deployment.queries["Q3"]
        stream = system.deployment.streams[record.delivered[0][1]]
        pipeline = Pipeline.from_specs(stream.pipeline, stream.content.item_path)
        generator = PhotonGenerator(PhotonStreamConfig(seed=20060326, frequency=100.0))
        outputs = []
        while generator.clock < 45.0:
            outputs.extend(pipeline.process(generator.next_item()))
        drained = pipeline.flush()
        assert drained  # open windows existed at the horizon...
        assert len(outputs) == 3  # ...but only completed windows streamed out

    @on_every_executor
    def test_executor_delivers_exactly_the_unflushed_windows(self, executor):
        system = executor.system("stream-sharing")
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P1")
        metrics = executor.run(system, duration=45.0)
        # 3 completed |det_time diff 20 step 10| windows in 45s; the two
        # still-open windows at the horizon are NOT emitted.
        assert metrics.items_delivered["Q3"] == 3

    def test_both_executors_agree_on_open_windows(self):
        system = make_system("stream-sharing")
        system.register_query("Q3", PAPER_QUERIES["Q3"], "P3")
        system.register_query("Q4", PAPER_QUERIES["Q4"], "P4")
        _assert_identical_metrics(system, duration=45.0)
