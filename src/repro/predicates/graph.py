"""Weighted directed predicate graphs (Section 3.3, Figure 3/4).

A conjunction of normalized atoms becomes a graph ``G = (V, E)``:

* each variable (absolute path) is a node, plus the constant-zero node;
* an atom ``u ≤ v + c`` is a directed edge ``u → v`` weighted ``c``
  (a strictness-aware :class:`~repro.predicates.atoms.Bound`);
* parallel edges collapse to the tightest bound.

On top of that representation the class provides the three operations
the paper uses during subscription registration:

* **satisfiability** — the conjunction is unsatisfiable iff the graph
  has a cycle whose total weight is negative (or zero with a strict
  edge); checked with Bellman–Ford from a virtual source.
* **minimization** — an edge is redundant iff the shortest path between
  its endpoints *not using the edge* is at least as tight; the minimized
  graph drops all redundant edges (Rosenkrantz–Hunt [5]).
* **closure** — all-pairs tightest derived bounds (Floyd–Warshall),
  used by the complete variant of predicate matching and by the
  selectivity estimator.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from ..xmlkit import Path
from .atoms import ZERO, Bound, NodeLabel, NormalizedAtom, ZERO_BOUND


class UnsatisfiableError(ValueError):
    """Raised when a subscription's predicate can never hold.

    The paper rejects such subscriptions at registration time.
    """


#: Canonical graphs by presentation (:meth:`PredicateGraph.interned`).
_INTERNED: "weakref.WeakValueDictionary[tuple, PredicateGraph]" = (
    weakref.WeakValueDictionary()
)


def interned_graph_count() -> int:
    """Live entries of the graph intern table."""
    return len(_INTERNED)


class PredicateGraph:
    """Immutable-after-build weighted digraph over path/zero nodes."""

    __slots__ = ("_edges", "_nodes", "_hash", "__weakref__")

    def __init__(self, atoms: Iterable[NormalizedAtom] = ()) -> None:
        self._edges: Dict[Tuple[NodeLabel, NodeLabel], Bound] = {}
        self._nodes: Dict[NodeLabel, None] = {}  # insertion-ordered set
        self._hash: Optional[int] = None
        for atom in atoms:
            self.add_atom(atom)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_atom(self, atom: NormalizedAtom) -> None:
        self.add_edge(atom.source, atom.target, atom.bound)

    def add_edge(self, source: NodeLabel, target: NodeLabel, bound: Bound) -> None:
        if source == target:
            if bound.is_infeasible_cycle():
                raise UnsatisfiableError(f"self-contradictory atom: {source} < itself")
            return  # trivially true, carries no information
        self._nodes.setdefault(source)
        self._nodes.setdefault(target)
        key = (source, target)
        existing = self._edges.get(key)
        if existing is None or bound < existing:
            self._edges[key] = bound
            self._hash = None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeLabel]:
        return list(self._nodes)

    @property
    def edges(self) -> Dict[Tuple[NodeLabel, NodeLabel], Bound]:
        return dict(self._edges)

    def atoms(self) -> List[NormalizedAtom]:
        return [NormalizedAtom(s, t, b) for (s, t), b in self._edges.items()]

    def edges_at(self, node: NodeLabel) -> List[NormalizedAtom]:
        """All edges connected to ``node`` (either direction)."""
        return [
            NormalizedAtom(s, t, b)
            for (s, t), b in self._edges.items()
            if s == node or t == node
        ]

    def bound(self, source: NodeLabel, target: NodeLabel) -> Optional[Bound]:
        return self._edges.get((source, target))

    def variables(self) -> List[Path]:
        return [n for n in self._nodes if isinstance(n, Path)]

    def is_empty(self) -> bool:
        return not self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PredicateGraph):
            return NotImplemented
        if (
            self._hash is not None
            and other._hash is not None
            and self._hash != other._hash
        ):
            return False
        return self._edges == other._edges

    def __hash__(self) -> int:
        # Hashes and compares over the edge set only (node insertion
        # order is presentation, not meaning).  Cached: graphs are
        # immutable after build, and the memoized matching layer hashes
        # the same graphs once per candidate pair.
        cached = self._hash
        if cached is None:
            cached = hash(frozenset(self._edges.items()))
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        return f"PredicateGraph({len(self._nodes)} nodes, {len(self._edges)} edges)"

    def interned(self) -> "PredicateGraph":
        """The canonical live instance of this graph (this one if none).

        Operator specs intern their graphs at construction, so equal
        selections share one object and every ``==``, dict probe and
        memo key on them hits the identity fast path.  The canonical
        instance is keyed on the edges *and* the node and edge order:
        equal graphs built in another order stay distinct, because that
        order is the order :meth:`StreamStatistics.selectivity
        <repro.costmodel.statistics.StreamStatistics.selectivity>`
        multiplies its factors in and :meth:`describe` prints.  The
        table holds its graphs weakly: a graph no spec uses any more
        leaves it.
        """
        key = (tuple(self._edges.items()), tuple(self._nodes))
        return _INTERNED.setdefault(key, self)

    def describe(self) -> str:
        """Human-readable listing of all atomic constraints."""
        return " and ".join(str(atom) for atom in self.atoms()) or "true"

    # ------------------------------------------------------------------
    # Satisfiability (Bellman–Ford negative-cycle detection)
    # ------------------------------------------------------------------
    def is_satisfiable(self) -> bool:
        """``False`` iff the conjunction admits no variable assignment."""
        nodes = self.nodes
        if not nodes:
            return True
        # Virtual source at distance zero to every node makes all cycles
        # reachable; |V| - 1 relaxation rounds, then one probe round.
        distance: Dict[NodeLabel, Bound] = {node: ZERO_BOUND for node in nodes}
        for _ in range(len(nodes) - 1):
            changed = False
            for (source, target), bound in self._edges.items():
                candidate = distance[source] + bound
                if candidate < distance[target]:
                    distance[target] = candidate
                    changed = True
            if not changed:
                return True
        for (source, target), bound in self._edges.items():
            if distance[source] + bound < distance[target]:
                return False
        return True

    def check_satisfiable(self) -> None:
        if not self.is_satisfiable():
            raise UnsatisfiableError(
                f"predicate is unsatisfiable: {self.describe()}"
            )

    # ------------------------------------------------------------------
    # Closure and minimization
    # ------------------------------------------------------------------
    def closure(self) -> Dict[Tuple[NodeLabel, NodeLabel], Bound]:
        """All-pairs tightest derived bounds (Floyd–Warshall).

        Requires a satisfiable graph; raises otherwise (distances would
        diverge on a negative cycle).
        """
        self.check_satisfiable()
        dist: Dict[Tuple[NodeLabel, NodeLabel], Bound] = dict(self._edges)
        nodes = self.nodes
        for via in nodes:
            for source in nodes:
                first = dist.get((source, via))
                if first is None or source == via:
                    continue
                for target in nodes:
                    if target == via or target == source:
                        continue
                    second = dist.get((via, target))
                    if second is None:
                        continue
                    combined = first + second
                    existing = dist.get((source, target))
                    if existing is None or combined < existing:
                        dist[(source, target)] = combined
        return dist

    def minimized(self) -> "PredicateGraph":
        """Drop every redundant atomic predicate.

        An edge ``u → v`` with bound ``b`` is redundant iff the remaining
        edges derive a bound from ``u`` to ``v`` at least as tight.
        Removal is *sequential* against the shrinking working set — with
        an all-at-once test, two equally tight alternative derivations
        (e.g. an equality cycle) would each justify removing the other
        and the conjunction would silently weaken.  The construction is
        performed once per subscription at registration (Section 3.3).
        """
        self.check_satisfiable()
        working: Dict[Tuple[NodeLabel, NodeLabel], Bound] = dict(self._edges)
        for key in list(working):
            bound = working.pop(key)
            derived = _shortest(working, key[0], key[1], len(self._nodes))
            if derived is None or not derived <= bound:
                working[key] = bound  # not derivable: keep
        result = PredicateGraph()
        for (source, target), bound in working.items():
            result.add_edge(source, target, bound)
        # Preserve isolated nodes for faithful node-set comparisons.
        for node in self._nodes:
            result._nodes.setdefault(node)
        return result

    # ------------------------------------------------------------------
    # Derived intervals (selectivity estimation input)
    # ------------------------------------------------------------------
    def derived_interval(
        self, node: NodeLabel
    ) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Tightest derived ``(lower, upper)`` numeric bounds vs zero.

        Strictness is dropped — over continuous value distributions the
        selectivity of ``<`` and ``≤`` coincide.
        """
        closure = self.closure()
        upper = closure.get((node, ZERO))
        lower = closure.get((ZERO, node))
        return (
            None if lower is None else -lower.value,
            None if upper is None else upper.value,
        )


def _shortest(
    edges: Dict[Tuple[NodeLabel, NodeLabel], Bound],
    source: NodeLabel,
    target: NodeLabel,
    node_count: int,
) -> Optional[Bound]:
    """Tightest derived ``source → target`` bound over ``edges``.

    Bellman–Ford from ``source``; callers guarantee satisfiability, so
    ``node_count`` rounds suffice for convergence.
    """
    distance: Dict[NodeLabel, Bound] = {source: ZERO_BOUND}
    for _ in range(max(node_count, 1)):
        changed = False
        for (s, t), b in edges.items():
            if s not in distance:
                continue
            candidate = distance[s] + b
            if t not in distance or candidate < distance[t]:
                distance[t] = candidate
                changed = True
        if not changed:
            break
    return distance.get(target)


def graph_from_atoms(atoms: Iterable[NormalizedAtom]) -> PredicateGraph:
    """Build, satisfiability-check, and minimize a predicate graph.

    This is the once-per-registration pipeline of Section 3.3: reject
    unsatisfiable subscriptions, then keep the minimized graph inside
    the properties.  :meth:`PredicateGraph.minimized` runs the one
    satisfiability check (and raises :class:`UnsatisfiableError`).
    """
    return PredicateGraph(atoms).minimized()
