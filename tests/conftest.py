"""Shared fixtures: the paper's example queries, streams, and systems."""

from __future__ import annotations

import contextlib
import inspect
import os
import pathlib
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest
from hypothesis import settings

from repro.costmodel import StatisticsCatalog, StreamStatistics
from repro.network.topology import example_topology
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.properties import extract_properties
from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.wxquery import parse_query
from repro.xmlkit import Path

#: The paper's four example subscriptions (Sections 1 and 2), verbatim
#: modulo whitespace.
Q1_TEXT = """<photons>
{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0
  return <vela> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/phc } { $p/en } { $p/det_time } </vela> }
</photons>"""

Q2_TEXT = """<photons>
{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3
  and $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/coord/cel/ra } { $p/coord/cel/dec }
  { $p/en } { $p/det_time } </rxj> }
</photons>"""

Q3_TEXT = """<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
  and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 20 step 10|
  let $a := avg($w/en)
  return <avg_en> { $a } </avg_en> }
</photons>"""

Q4_TEXT = """<photons>
{ for $w in stream("photons")/photons/photon
  [coord/cel/ra >= 120.0 and coord/cel/ra <= 138.0
  and coord/cel/dec >= -49.0 and coord/cel/dec <= -40.0]
  |det_time diff 60 step 40|
  let $a := avg($w/en)
  where $a >= 1.3
  return <avg_en> { $a } </avg_en> }
</photons>"""

PAPER_QUERIES = {"Q1": Q1_TEXT, "Q2": Q2_TEXT, "Q3": Q3_TEXT, "Q4": Q4_TEXT}

PHOTON_ITEM_PATH = Path("photons/photon")

#: CI runs the suite once (``--hypothesis-profile=ci``): the same
#: examples every run, so a red leg is a red leg again on the re-run.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session", autouse=True)
def _product_does_not_read_the_environment():
    """How a run executes and what it records are arguments, never the
    environment: nothing under ``src/repro`` reads ``os.environ``, so no
    variable a test (or a shell) leaves behind can change another test."""
    root = pathlib.Path(__file__).parent.parent / "src" / "repro"
    readers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text(encoding="utf-8"))
    )
    assert not readers, f"src/repro reads the environment: {readers}"


@contextlib.contextmanager
def pinned_cells(mode):
    """Pin what ``ShardedSimulator``'s backend rule observes of the
    host: one core gives ``inline`` cells, two give forked ``process``
    cells — whatever machine runs the suite."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            "repro.engine.parallel.os.cpu_count",
            lambda: {"inline": 1, "process": 2}[mode],
        )
        yield


@pytest.fixture()
def inline_cells():
    """Sharded runs of this test use same-process cells."""
    with pinned_cells("inline"):
        yield


@dataclass(frozen=True)
class Executor:
    """How a run executes, as a test input: over how many cells, and
    into which recorder.  Nothing a test asserts about *what* a run
    delivers or bills may depend on either."""

    workers: int
    traced: bool

    def recorder(self):
        """A recorder for one system (never shared between systems)."""
        return Recorder() if self.traced else NULL_RECORDER

    def system(self, *args, **kwargs):
        """``make_system`` recording into this executor's recorder."""
        return make_system(*args, recorder=self.recorder(), **kwargs)

    def run(self, system, *args, **kwargs):
        """``system.run`` over this executor's cells."""
        return system.run(*args, workers=self.workers, **kwargs)

    def __str__(self):
        cells = "one-cell" if self.workers == 1 else f"{self.workers}-inline-cells"
        return f"{cells}-{'traced' if self.traced else 'untraced'}"


#: {one cell, two inline cells} x {null recorder, live recorder}.
EXECUTORS = tuple(
    Executor(workers, traced) for traced in (False, True) for workers in (1, 2)
)


def on_every_executor(test):
    """Run ``test(..., executor=...)`` once per entry of ``EXECUTORS``
    under its one test id: what it asserts must hold however the run
    executes.  The failing executor is printed (pytest shows captured
    output); fixtures are shared between the passes."""
    signature = inspect.signature(test)

    def on_each(*args, **kwargs):
        for executor in EXECUTORS:
            print(f"executor: {executor}")
            with pinned_cells("inline"):
                test(*args, executor=executor, **kwargs)

    on_each.__name__ = test.__name__
    on_each.__doc__ = test.__doc__
    on_each.__signature__ = signature.replace(
        parameters=[p for p in signature.parameters.values() if p.name != "executor"]
    )
    return on_each


@pytest.fixture(scope="session")
def photon_config():
    return PhotonStreamConfig(seed=20060326, frequency=100.0)


@pytest.fixture(scope="session")
def photon_sample(photon_config):
    """A fixed sample of 300 photons."""
    return PhotonGenerator(photon_config).take(300)


@pytest.fixture(scope="session")
def photon_stats(photon_sample):
    return StreamStatistics.from_sample(
        "photons", PHOTON_ITEM_PATH, photon_sample, frequency=100.0
    )


@pytest.fixture(scope="session")
def catalog(photon_stats):
    cat = StatisticsCatalog()
    cat.register(photon_stats)
    return cat


@pytest.fixture(scope="session")
def paper_properties():
    """Properties of the paper's four example queries."""
    return {
        name: extract_properties(parse_query(text), name)
        for name, text in PAPER_QUERIES.items()
    }


@pytest.fixture()
def example_net():
    return example_topology()


def make_system(
    strategy="stream-sharing", seed=20060326, frequency=100.0, net=None, **kwargs
):
    """Build a StreamGlobe over ``net`` (default: the example topology)
    with one stream."""
    from repro.sharing import StreamGlobe

    config = PhotonStreamConfig(seed=seed, frequency=frequency)
    system = StreamGlobe(net or example_topology(), strategy=strategy, **kwargs)
    system.register_stream(
        "photons",
        "photons/photon",
        lambda: PhotonGenerator(config),
        frequency=frequency,
        source_peer="P0",
    )
    return system


def available_at(deployment, node):
    """The ids the availability index lists at ``node``, sorted."""
    return sorted(
        {stream_id for at, stream_id, _ in deployment.sharing_index.entries() if at == node}
    )


@pytest.fixture()
def sharing_system():
    return make_system("stream-sharing")


def assert_ledger_is_the_walk(system):
    """The control plane's invariant: the usage ledger is a function of
    the deployment — ``Planner.stream_effects`` summed over every
    installed stream plus one ``restructure`` charge per delivered input,
    on removed peers and links too."""
    from repro.costmodel import PlanEffects

    planner, deployment = system.planner, system.deployment
    walk = PlanEffects()
    for stream in deployment.streams.values():
        planner.installed_effects(walk, deployment, stream)
    for record in deployment.queries.values():
        for _, stream_id in record.delivered:
            rate = planner.stream_rate(deployment.streams[stream_id].content)
            planner.charge(walk, record.subscriber_node, "restructure", rate.frequency)
    usage = deployment.usage
    expected_links = {link.ends: bits for link, bits in walk.link_bits.items()}
    for ledger, expected in (
        (usage._peer_work, walk.peer_work),
        (usage._link_bits, expected_links),
    ):
        for key in set(ledger) | set(expected):
            assert ledger.get(key, 0.0) == pytest.approx(
                expected.get(key, 0.0), rel=1e-6, abs=1e-6
            ), key
