"""Pickle round-trips for everything the sharded executor ships across
process boundaries: elements (item batches), compiled pipelines and
restructurers (reconcile payloads) and plan records."""

import pickle

import pytest

from repro.engine.pipeline import Pipeline
from repro.engine.restructure import Restructurer
from repro.workload import PhotonGenerator, PhotonStreamConfig
from repro.xmlkit import Element, Path, serialize

from .conftest import PAPER_QUERIES, make_system


def deployed_system():
    system = make_system()
    for name, text in PAPER_QUERIES.items():
        system.register_query(name, text, subscriber_peer=f"P{name[1]}")
    return system


# ----------------------------------------------------------------------
# Elements (exchange batches)
# ----------------------------------------------------------------------
def test_frozen_element_roundtrip_preserves_pinned_size():
    item = PhotonGenerator(PhotonStreamConfig(seed=11)).next_item()
    item.freeze()
    clone = pickle.loads(pickle.dumps(item))
    assert clone == item
    assert clone.frozen
    assert clone.serialized_size() == item.serialized_size()
    assert serialize(clone) == serialize(item)
    with pytest.raises(ValueError):
        clone.append(Element("extra"))


def test_unfrozen_element_roundtrip_stays_mutable():
    tree = Element("a", children=[Element("b", text=1.5)])
    clone = pickle.loads(pickle.dumps(tree))
    assert clone == tree
    assert not clone.frozen
    clone.append(Element("c"))  # must not raise


def test_path_roundtrip():
    path = Path("coord/cel/ra")
    clone = pickle.loads(pickle.dumps(path))
    assert clone == path
    with pytest.raises(AttributeError):
        clone.steps = ()


# ----------------------------------------------------------------------
# Compiled pipelines and restructurers (reconcile payloads)
# ----------------------------------------------------------------------
def pipelined_stream(system):
    for stream in system.deployment.streams.values():
        if stream.pipeline:
            return stream
    raise AssertionError("no pipelined stream deployed")


def test_pipeline_from_specs_roundtrip_processes_identically():
    system = deployed_system()
    stream = pipelined_stream(system)
    original = Pipeline.from_specs(stream.pipeline, stream.content.item_path)
    clone = pickle.loads(pickle.dumps(original))
    items = PhotonGenerator(PhotonStreamConfig(seed=3)).take(200)
    out_a = [serialize(x) for x in original.process_batch(items)]
    out_b = [serialize(x) for x in clone.process_batch(items)]
    assert out_a == out_b
    assert clone.input_counts == original.input_counts


def test_bare_pipeline_refuses_to_pickle():
    system = deployed_system()
    stream = pipelined_stream(system)
    compiled = Pipeline.from_specs(stream.pipeline, stream.content.item_path)
    bare = Pipeline(list(compiled.operators))
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(bare)


def test_restructurer_roundtrip_builds_identically():
    system = deployed_system()
    record = system.deployment.queries["Q1"]
    original = Restructurer(record.analyzed)
    clone = pickle.loads(pickle.dumps(original))
    for item in PhotonGenerator(PhotonStreamConfig(seed=9)).take(100):
        a = [serialize(x) for x in original.build(item)]
        b = [serialize(x) for x in clone.build(item)]
        assert a == b


# ----------------------------------------------------------------------
# Plan records (reconcile add/rewire payloads)
# ----------------------------------------------------------------------
def test_installed_stream_and_registered_query_roundtrip():
    system = deployed_system()
    for stream in system.deployment.streams.values():
        clone = pickle.loads(pickle.dumps(stream))
        assert clone == stream
    for record in system.deployment.queries.values():
        clone = pickle.loads(pickle.dumps(record))
        assert clone.name == record.name
        assert clone.delivered == record.delivered
        assert clone.subscriber_node == record.subscriber_node

