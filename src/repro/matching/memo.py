"""Memoized matching verdicts for the indexed registration path.

Algorithm 2's expensive checks — predicate implication (Bellman–Ford
per edge), projection coverage, aggregation compatibility — are pure
functions of immutable operator specs.  At scale the same spec pairs
recur constantly: template-generated subscriptions share predicates,
and an installed stream is matched once per node it is available at.

:class:`MatchMemo` caches two layers of verdicts:

* ``properties`` — whole :func:`~repro.matching.match_stream_properties`
  calls keyed on ``(stream content, subscription input, mode)``;
* ``operators`` — per-operator ``_conditions_compatible`` verdicts
  keyed on ``(stream op, subscription op, mode)``, which also serve
  matches of *different* contents sharing individual operators.

Keys rely on the cached hashes of the frozen spec classes
(:mod:`repro.properties.model`) and of
:class:`~repro.predicates.PredicateGraph`.  The memo is owned by a
:class:`~repro.sharing.subscribe.Subscriber` — per system, so separate
systems (e.g. benchmark baselines) never share state.
"""

from __future__ import annotations

from typing import Dict, Tuple


class MatchMemo:
    """Caches for the pure matching checks of Algorithms 2 and 3."""

    __slots__ = ("properties", "operators", "hits", "misses")

    def __init__(self) -> None:
        self.properties: Dict[Tuple[object, object, str], bool] = {}
        self.operators: Dict[Tuple[object, object, str], bool] = {}
        self.hits = 0
        self.misses = 0
