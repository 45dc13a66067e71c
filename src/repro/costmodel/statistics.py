"""Statistics catalog feeding the cost model (Section 3.2).

"Cost function inputs like average frequencies of data stream items,
average sizes and occurrences of elements, and selectivities of
operators are obtained from statistics and selectivity estimations."

:class:`StreamStatistics` holds, per registered input stream:

* the average arrival frequency ``freq(s)`` (items per virtual second);
* the average serialized item size ``size(s)`` in bytes;
* per element path: average occurrence ``occ(n_s)`` per item, average
  serialized subtree size ``size(n_s)``, and — for numeric leaves — the
  observed value range (the uniform-distribution input to selectivity
  estimation) and the average increment between successive items (the
  time-based-window frequency estimator's input).

Statistics are *measured from a sample* of the actual generator output
(:meth:`StreamStatistics.from_sample`), which keeps the estimator and
the executed system consistent by construction.

The sample is held the way the columnar engine holds a batch
(:mod:`repro.xmlkit.columns`): items are grouped by shape signature
once, each group keeps its item count and the summed serialized size
of every leaf, and a projection's measured size is read off the pruned
shape (:meth:`~repro.xmlkit.columns.ShapeNode.prune`,
:meth:`~repro.xmlkit.columns.ShapeNode.size_info`) — the pruner the
projection kernel runs — instead of pruning and re-measuring every
sample tree.  Only items beyond the sniffing bounds stay trees and go
through :func:`~repro.xmlkit.transform.prune_to_paths`, the same split
the engine makes.  The groups are private: building them interns and
compiles nothing in the engine's shape registry.  Every estimate is
integer-for-integer the tree measurement's
(``tests/test_prop_estimation.py`` holds the tree reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, cast

from ..predicates import ZERO, PredicateGraph
from ..xmlkit import Element, Path, prune_to_paths
from ..xmlkit.columns import ShapeNode, Signature, leaf_sizes, shape_tree, signature_of

#: Selectivity floor: even a predicate selecting "nothing" in the sample
#: is estimated above zero, matching classic catalog practice.
MIN_SELECTIVITY = 1e-4


#: Buckets per equi-width histogram on numeric leaves.
HISTOGRAM_BUCKETS = 24


@dataclass
class PathStatistics:
    """Catalog entry of one element path within a stream item."""

    occurrence: float = 0.0
    avg_size: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    avg_increment: Optional[float] = None
    #: Largest sampled item-to-item increment — the flow analyzer's
    #: upper bound on how fast a time-based window reference can
    #: advance per arriving item.
    max_increment: Optional[float] = None
    #: ``True`` when the sampled values never decreased item-to-item —
    #: the static qualification for a time-based window's reference
    #: element (streams must be sorted by it, Section 2).
    nondecreasing: Optional[bool] = None
    #: Equi-width histogram over ``[minimum, maximum]`` — captures the
    #: value skew (hot spots) the uniform model misses.
    histogram: Optional[List[int]] = None

    @property
    def spread(self) -> Optional[float]:
        if self.minimum is None or self.maximum is None:
            return None
        return self.maximum - self.minimum

    def mass_fraction(self, low: Optional[float], high: Optional[float]) -> float:
        """Estimated fraction of values inside ``[low, high]``.

        Uses the histogram when available (linear interpolation within
        boundary buckets), falling back to the uniform model.
        """
        if self.minimum is None or self.maximum is None:
            return 1.0
        effective_low = self.minimum if low is None else max(low, self.minimum)
        effective_high = self.maximum if high is None else min(high, self.maximum)
        if effective_high <= effective_low:
            if effective_high == effective_low and self.minimum == self.maximum:
                return 1.0  # constant-valued element
            return 0.0
        spread = self.maximum - self.minimum
        if spread <= 0:
            return 1.0
        if not self.histogram:
            return (effective_high - effective_low) / spread
        total = sum(self.histogram)
        if total == 0:
            return (effective_high - effective_low) / spread
        width = spread / len(self.histogram)
        mass = 0.0
        for index, count in enumerate(self.histogram):
            bucket_low = self.minimum + index * width
            bucket_high = bucket_low + width
            overlap = min(effective_high, bucket_high) - max(effective_low, bucket_low)
            if overlap <= 0:
                continue
            mass += count * min(1.0, overlap / width)
        return min(1.0, mass / total)


@dataclass
class StreamStatistics:
    """Measured statistics of one registered input stream."""

    stream: str
    item_path: Path
    frequency: float
    avg_item_size: float
    paths: Dict[Path, PathStatistics] = field(default_factory=dict)
    #: Items in the sample.
    sample_size: int = 0
    #: The sample within the sniffing bounds, one group per shape.
    _groups: List["_ShapeGroup"] = field(default_factory=list, repr=False)
    #: Sample items beyond the sniffing bounds, kept as trees.
    _loose: List[Element] = field(default_factory=list, repr=False)
    #: Memoization: plan search re-estimates the same projections and
    #: selections thousands of times during registration.
    _projection_cache: Dict[frozenset, float] = field(default_factory=dict, repr=False)
    _selectivity_cache: Dict[PredicateGraph, float] = field(
        default_factory=dict, repr=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sample(
        cls,
        stream: str,
        item_path: Path,
        items: Sequence[Element],
        frequency: float,
    ) -> "StreamStatistics":
        """Measure statistics from ``items`` (stream items, e.g. photons).

        ``item_path`` is the absolute path to the items (including the
        stream root tag, e.g. ``photons/photon``); all catalog paths are
        stored in absolute form to align with predicate-graph labels.
        """
        if not items:
            raise ValueError(f"stream {stream!r}: cannot build statistics from nothing")
        if frequency <= 0:
            raise ValueError(f"stream {stream!r}: frequency must be positive")
        # A unit is a shape group (its signature) or a loose item
        # (``None``), listed at its first item.
        by_signature: Dict[Signature, List[int]] = {}
        units: List[Tuple[int, Optional[Signature]]] = []
        for index, item in enumerate(items):
            signature = signature_of(item)
            if signature is None:
                units.append((index, None))
            elif signature in by_signature:
                by_signature[signature].append(index)
            else:
                by_signature[signature] = [index]
                units.append((index, signature))

        stats = cls(
            stream=stream,
            item_path=item_path,
            frequency=frequency,
            avg_item_size=0.0,
            sample_size=len(items),
        )
        # Units in order of their first item, entries of a unit in walk
        # order (last child first): the catalog lists paths in the order
        # the sample first shows them, and a path's values keep item
        # order, then walk order within an item.
        samples: Dict[Tuple[str, ...], _PathSample] = {}
        total_size = 0
        for index, signature in units:
            if signature is None:
                entries, size = _loose_entries(items[index], index)
                stats._loose.append(items[index])
            else:
                members = by_signature[signature]
                group, entries = _ShapeGroup.measure(
                    signature, members, [items[member] for member in members]
                )
                size = group.item_sizes()
                stats._groups.append(group)
            total_size += size
            for steps, occurrences, sizes, part in entries:
                sample = samples.get(steps)
                if sample is None:
                    sample = samples[steps] = _PathSample()
                sample.add(occurrences, sizes, part)

        stats.avg_item_size = total_size / len(items)
        count = len(items)
        for steps, sample in samples.items():
            entry = PathStatistics(
                occurrence=sample.count / count,
                avg_size=sample.size / sample.count,
            )
            values = sample.values()
            if values:
                entry.minimum = min(values)
                entry.maximum = max(values)
                if len(values) > 1:
                    increments = [b - a for a, b in zip(values, values[1:])]
                    # Added left to right, as ``sum`` adds floats before
                    # Python 3.12 (which compensates): the same catalog
                    # on every supported interpreter.
                    entry.avg_increment = reduce(add, increments, 0) / len(increments)
                    entry.max_increment = max(increments)
                    entry.nondecreasing = all(step >= 0 for step in increments)
                entry.histogram = _build_histogram(
                    values, entry.minimum, entry.maximum
                )
            stats.paths[Path(item_path.steps + steps)] = entry
        return stats

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def has_path(self, path: Path) -> bool:
        return path in self.paths

    def value_range(self, path: Path) -> Optional[Tuple[float, float]]:
        entry = self.paths.get(path)
        if entry is None or entry.minimum is None or entry.maximum is None:
            return None
        return entry.minimum, entry.maximum

    def avg_increment(self, path: Path) -> Optional[float]:
        entry = self.paths.get(path)
        return None if entry is None else entry.avg_increment

    def max_increment(self, path: Path) -> Optional[float]:
        """Largest sampled item-to-item increment of ``path``."""
        entry = self.paths.get(path)
        return None if entry is None else entry.max_increment

    def is_nondecreasing(self, path: Path) -> Optional[bool]:
        """Whether the sampled values of ``path`` never decreased."""
        entry = self.paths.get(path)
        return None if entry is None else entry.nondecreasing

    # ------------------------------------------------------------------
    # Derived estimates
    # ------------------------------------------------------------------
    def projected_size(self, output_paths: Iterable[Path]) -> float:
        """Measured average size of items projected to ``output_paths``.

        Paths are absolute; they are rebased onto the item.  Each shape
        group answers from its pruned shape — ``count`` times the pruned
        interior markup plus the summed sizes of the kept leaves — and
        each loose item is pruned and measured as a tree; the sum is the
        same integer the pruned sample trees serialize to.  This
        replaces the paper's subtraction formula with a measurement over
        the same sample — the two agree for disjoint projection elements
        (the formula is the reference of
        ``tests/test_costmodel_statistics.py``).
        """
        key = frozenset(output_paths)
        cached = self._projection_cache.get(key)
        if cached is not None:
            return cached
        keep = tuple(self._rebase(path) for path in key)
        total = 0
        for group in self._groups:
            total += group.projected_total(keep)
        if self._loose:
            relative = [Path(steps) for steps in keep]
            for item in self._loose:
                pruned = prune_to_paths(item, relative)
                if pruned is not None:
                    total += pruned.serialized_size()
        result = total / self.sample_size
        self._projection_cache[key] = result
        return result

    def selectivity(self, graph: PredicateGraph) -> float:
        """Estimated fraction of items satisfying ``graph``.

        Histogram-and-independence model: each constrained variable
        contributes the histogram mass of its derived interval (falling
        back to the uniform overlap when no histogram exists);
        variable-to-variable constraints contribute a fixed factor of ½
        (no correlation statistics).
        """
        if graph.is_empty():
            return 1.0
        cached = self._selectivity_cache.get(graph)
        if cached is not None:
            return cached
        selectivity = 1.0
        closure = graph.closure()
        for node in graph.variables():
            lower, upper = None, None
            up = closure.get((node, ZERO))
            lo = closure.get((ZERO, node))
            if up is not None:
                upper = float(up.value)
            if lo is not None:
                lower = -float(lo.value)
            if lower is None and upper is None:
                continue
            value_range = self.value_range(node)
            if value_range is None:
                selectivity *= 0.5  # no statistics: textbook default
                continue
            low, high = value_range
            if high <= low:
                continue  # constant-valued element: no discrimination
            entry = self.paths[node]
            selectivity *= entry.mass_fraction(lower, upper)
        for (source, target), _ in graph.edges.items():
            if source != ZERO and target != ZERO:
                selectivity *= 0.5
        result = max(MIN_SELECTIVITY, min(1.0, selectivity))
        self._selectivity_cache[graph] = result
        return result

    # ------------------------------------------------------------------
    def _rebase(self, path: Path) -> Tuple[str, ...]:
        """The steps of ``path`` below the item."""
        if path.starts_with(self.item_path):
            return path.steps[len(self.item_path.steps) :]
        raise KeyError(
            f"path {path} is not under item path {self.item_path} "
            f"of stream {self.stream!r}"
        )


class StatisticsCatalog:
    """Per-stream statistics registry used by the optimizer."""

    def __init__(self) -> None:
        self._streams: Dict[str, StreamStatistics] = {}

    def register(self, stats: StreamStatistics) -> None:
        if stats.stream in self._streams:
            raise ValueError(f"statistics for stream {stats.stream!r} already registered")
        self._streams[stats.stream] = stats

    def for_stream(self, stream: str) -> StreamStatistics:
        try:
            return self._streams[stream]
        except KeyError:
            raise KeyError(f"no statistics registered for stream {stream!r}") from None

    def __contains__(self, stream: str) -> bool:
        return stream in self._streams

    def streams(self) -> List[str]:
        return list(self._streams)


def _build_histogram(
    values: List[float], minimum: float, maximum: float
) -> Optional[List[int]]:
    """Equi-width histogram of the sample, or ``None`` when degenerate."""
    if maximum <= minimum or len(values) < 2:
        return None
    width = (maximum - minimum) / HISTOGRAM_BUCKETS
    buckets = [0] * HISTOGRAM_BUCKETS
    for value in values:
        index = min(HISTOGRAM_BUCKETS - 1, int((value - minimum) / width))
        buckets[index] += 1
    return buckets


def _numbers(texts: List[Optional[str]]) -> Optional[List[Optional[float]]]:
    """Numeric value of each text (``None`` where there is none), or
    ``None`` when no text of the column is a number."""
    try:
        return list(map(float, cast("List[str]", texts)))
    except (TypeError, ValueError):  # a row without text, or not a number
        numbers = [_number(text) for text in texts]
        return numbers if any(value is not None for value in numbers) else None


def _number(text: Optional[str]) -> Optional[float]:
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return None


#: Values of one path in one unit of the sample: the unit's item
#: indices and, per occurrence of the path in an item (in walk order),
#: the value of each item (``None``: not a number).
_Part = Tuple[Sequence[int], List[List[Optional[float]]]]

#: One path of one unit: relative steps, occurrences, summed subtree
#: sizes, and its values (``None`` when it has none).
_Entry = Tuple[Tuple[str, ...], int, int, Optional[_Part]]


class _PathSample:
    """One path's occurrences, sizes and values over the whole sample."""

    __slots__ = ("count", "size", "parts")

    def __init__(self) -> None:
        self.count = 0
        self.size = 0
        self.parts: List[_Part] = []

    def add(self, occurrences: int, size: int, part: Optional[_Part]) -> None:
        self.count += occurrences
        self.size += size
        if part is not None:
            self.parts.append(part)

    def values(self) -> List[float]:
        """The path's numeric values in item order, walk order within
        an item: the order a walk over the sample trees meets them."""
        keyed = [
            pair for indices, columns in self.parts for pair in zip(indices, zip(*columns))
        ]
        keyed.sort(key=itemgetter(0))  # item indices are distinct across parts
        return [value for _, row in keyed for value in row if value is not None]


class _ShapeGroup:
    """The sample items of one shape, held as summed leaf sizes.

    ``leaf_totals[leaf]`` is the summed serialized size of a leaf node
    over the group's ``count`` items.  ``root`` is a private
    :func:`~repro.xmlkit.columns.shape_tree`: its prune and size caches
    belong to this group, and the engine's registry never sees it.
    """

    __slots__ = ("root", "count", "leaf_totals")

    def __init__(
        self, root: ShapeNode, count: int, leaf_totals: Dict[ShapeNode, int]
    ) -> None:
        self.root = root
        self.count = count
        self.leaf_totals = leaf_totals

    @classmethod
    def measure(
        cls, signature: Signature, indices: Sequence[int], items: Sequence[Element]
    ) -> Tuple["_ShapeGroup", List[_Entry]]:
        """The group of ``items`` (all of ``signature``, at sample
        ``indices``) and its per-path entries in walk order."""
        root = shape_tree(signature)
        count = len(items)
        totals: Dict[ShapeNode, int] = {}
        if not root.children:
            texts = [item.text for item in items]
            totals[root] = sum(leaf_sizes(texts, root.tag_len))
        # steps -> (nodes at those steps, value columns), walk order.
        seen: Dict[Tuple[str, ...], Tuple[List[ShapeNode], List[List[Optional[float]]]]] = {}
        stack: List[Tuple[Tuple[str, ...], ShapeNode, List[Element]]] = [
            ((child.tag,), child, [item.children[i] for item in items])
            for i, child in enumerate(root.children)
        ]
        while stack:
            steps, node, members = stack.pop()
            at = seen.get(steps)
            if at is None:
                at = seen[steps] = ([], [])
            at[0].append(node)
            if node.children:
                stack.extend(
                    (steps + (child.tag,), child, [member.children[i] for member in members])
                    for i, child in enumerate(node.children)
                )
                continue
            texts = [member.text for member in members]
            totals[node] = sum(leaf_sizes(texts, node.tag_len))
            numbers = _numbers(texts)
            if numbers is not None:
                at[1].append(numbers)
        group = cls(root, count, totals)
        entries: List[_Entry] = []
        for steps, (positions, columns) in seen.items():
            size = sum(group._subtree_total(node) for node in positions)
            part = (indices, columns) if columns else None
            entries.append((steps, count * len(positions), size, part))
        return group, entries

    def _subtree_total(self, node: ShapeNode) -> int:
        """Summed serialized size of ``node``'s subtree over the group."""
        static, leaves = node.size_info()
        totals = self.leaf_totals
        return self.count * static + sum(totals[leaf] for leaf in leaves)

    def item_sizes(self) -> int:
        """Summed serialized size of the group's items."""
        return self._subtree_total(self.root)

    def projected_total(self, keep: Tuple[Tuple[str, ...], ...]) -> int:
        """Summed serialized size of the group's items pruned to
        ``keep`` (steps relative to the item)."""
        pruned = self.root.prune(keep)
        return 0 if pruned is None else self._subtree_total(pruned)


def _loose_entries(item: Element, index: int) -> Tuple[List[_Entry], int]:
    """Per-path entries of one item walked as a tree and its serialized
    size.  The walk pops the last child first; a shape group replays
    the same order."""
    counts: Dict[Tuple[str, ...], int] = {}
    sizes: Dict[Tuple[str, ...], int] = {}
    values: Dict[Tuple[str, ...], List[List[Optional[float]]]] = {}
    stack: List[Tuple[Tuple[str, ...], Element]] = [
        ((child.tag,), child) for child in item.children
    ]
    while stack:
        steps, node = stack.pop()
        counts[steps] = counts.get(steps, 0) + 1
        sizes[steps] = sizes.get(steps, 0) + node.serialized_size()
        value = _number(node.text)
        if value is not None:
            values.setdefault(steps, []).append([value])
        stack.extend((steps + (child.tag,), child) for child in node.children)
    entries: List[_Entry] = [
        (steps, count, sizes[steps], ((index,), values[steps]) if steps in values else None)
        for steps, count in counts.items()
    ]
    return entries, item.serialized_size()
