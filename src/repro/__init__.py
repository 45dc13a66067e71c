"""Reproduction of *Data Stream Sharing* (Kuntschke & Kemper, EDBT 2006).

A StreamGlobe-style data stream management system for grid-based P2P
networks: continuous WXQuery subscriptions over XML data streams,
answered by reusing (parts of) streams already flowing in the network.

Top-level convenience imports cover the common entry points:

>>> from repro import StreamGlobe, parse_query, example_topology
>>> from repro import PhotonGenerator, PhotonStreamConfig

Subpackages
-----------
``repro.xmlkit``      XML substrate (elements, parser, paths, schemas)
``repro.wxquery``     the WXQuery subscription language (Section 2)
``repro.predicates``  predicate graphs and implication (Section 3.3)
``repro.properties``  the properties representation (Section 3.1)
``repro.matching``    MatchProperties / MatchAggregations (Algorithm 2)
``repro.costmodel``   statistics, size/freq estimation, C(P) (Section 3.2)
``repro.network``     the super-peer backbone
``repro.engine``      push operators and the measured simulator
``repro.sharing``     Algorithm 1, strategies, the StreamGlobe facade
``repro.workload``    synthetic RASS photons, query templates, scenarios
                      and the runner that registers and executes them
"""

from .network.topology import Network, example_topology, grid_topology
from .properties import Properties, extract_properties
from .sharing import RegistrationResult, StreamGlobe
from .workload import PhotonGenerator, PhotonStreamConfig, scenario_one, scenario_two
from .wxquery import analyze, parse_query

__version__ = "1.0.0"

__all__ = [
    "Network",
    "PhotonGenerator",
    "PhotonStreamConfig",
    "Properties",
    "RegistrationResult",
    "StreamGlobe",
    "analyze",
    "example_topology",
    "extract_properties",
    "grid_topology",
    "parse_query",
    "scenario_one",
    "scenario_two",
    "__version__",
]
