"""Pickle round-trips for what the sharded executor's protocol ships
across process boundaries: elements (item batches) and plan records
(reconcile diffs).  Cells are forked, not pickled, so compiled
pipelines and restructurers never cross one."""

import pickle

import pytest

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

