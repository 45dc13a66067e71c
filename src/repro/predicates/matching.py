"""Predicate matching — Algorithm 3 of the paper (``MatchPredicates``).

Given the predicate graph ``G`` of a data stream considered for sharing
and the graph ``G'`` of a newly registered subscription, decide whether
the predicates of ``G'`` *imply* those of ``G`` — i.e. every item the
new subscription wants survives the filter that produced the candidate
stream, so the stream is a superset of what the subscription needs.

Two modes are provided:

``edgewise`` (the paper's Algorithm 3)
    For each node ``v ∈ V`` there must be an equivalent ``v' ∈ V'``, and
    for each edge ``x`` connected to ``v`` an edge ``y`` connected to
    ``v'`` with ``ζ(x) ⇐ ζ(y)``.  Sound, and complete on minimized
    graphs for the paper's workloads, but it can miss implications that
    are only *derivable* in ``G'`` (e.g. ``a ≤ b ∧ b ≤ 5`` implies
    ``a ≤ 7`` without any direct ``a → 0`` edge).

``closure`` (documented strengthening, see DESIGN.md)
    Compare each edge of ``G`` against the all-pairs tightest bounds of
    ``G'``.  Sound *and* complete for conjunctions of the fragment's
    atoms.  The ablation bench E8 quantifies the difference.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .atoms import Bound, NodeLabel, NormalizedAtom
from .graph import PredicateGraph

#: The matching modes, Algorithm 3 first: what :func:`match_predicates`
#: accepts and what a system is built with (``match_mode``).
MATCH_MODES = ("edgewise", "closure")


def match_predicates(
    stream_graph: PredicateGraph,
    subscription_graph: PredicateGraph,
    mode: str = "edgewise",
) -> bool:
    """``True`` iff the subscription's predicates imply the stream's.

    Parameters
    ----------
    stream_graph:
        ``G`` — predicates of the existing data stream.
    subscription_graph:
        ``G'`` — predicates of the subscription to be registered.
    mode:
        ``"edgewise"`` (Algorithm 3) or ``"closure"`` (complete variant).
    """
    if mode == "edgewise":
        return _match_edgewise(stream_graph, subscription_graph)
    if mode == "closure":
        return _match_closure(stream_graph, subscription_graph)
    raise ValueError(f"unknown predicate matching mode {mode!r}; pick one of {MATCH_MODES}")


def _match_edgewise(g: PredicateGraph, g_new: PredicateGraph) -> bool:
    """Line-by-line transcription of Algorithm 3.

    Node equivalence ``v ≙ v'`` (line 4) holds when both labels refer to
    the same absolute element path (or both are the zero node) — labels
    are value objects here, so equivalence is equality.
    """
    new_nodes = set(g_new.nodes)
    for v in g.nodes:                                   # line 1
        if v not in new_nodes:                          # lines 2–4, 20–22
            if not g.edges_at(v):
                continue  # isolated node: carries no constraint
            return False
        for x in g.edges_at(v):                         # line 6
            if not _edge_matched(x, v, g_new):          # lines 7–15
                return False
    return True                                         # line 24


def _edge_matched(x: NormalizedAtom, v: NodeLabel, g_new: PredicateGraph) -> bool:
    """Lines 7–12: find ``y`` at the equivalent node with ζ(x) ⇐ ζ(y).

    ζ(x) ⇐ ζ(y) requires the same orientation between the equivalent
    endpoints and ``weight(y)`` at least as tight as ``weight(x)``.
    """
    for y in g_new.edges_at(v):
        if y.source == x.source and y.target == x.target and y.bound.implies(x.bound):
            return True
    return False


def _match_closure(g: PredicateGraph, g_new: PredicateGraph) -> bool:
    """Compare every stream atom against the derived bounds of G'."""
    if g.is_empty():
        return True
    closure: Dict[Tuple[NodeLabel, NodeLabel], Bound] = g_new.closure()
    for (source, target), bound in g.edges.items():
        derived = closure.get((source, target))
        if derived is None or not derived.implies(bound):
            return False
    return True
