"""Window machinery: the sliding windower, reorder buffering, and the
window-contents operator.

Window semantics (Section 2): a window specification ``|… ∆ step µ|``
denotes the window sequence ``W_k = [k·µ, k·µ + ∆)`` over *positions* —
item indices for ``count`` windows, reference-element values for
``diff`` windows.  ``W_k`` is emitted when the first position at or
beyond its upper boundary arrives; time-based windows with no matching
items are emitted empty so that downstream re-aggregation sees a
regular cadence.

Positions never decrease, so :class:`SlidingWindower` buffers two
sorted columns, positions and payloads.  Arrivals enter as two such
columns (:meth:`SlidingWindower.add_columns`, the one arrival path):
a run is appended a slice per stretch between window ends, a window's
contents are one ``bisect`` and one slice, pruning is one ``del``; a
run that decreases or holds a non-finite position is added up to that
arrival, which raises.  The operators gather a batch's positions
through :class:`WindowPositions`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, islice
from operator import le
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar, cast

from ..properties import WindowContentsSpec, WindowSpec
from ..xmlkit import Element, Path
from .columnar import Batch, RowBatch
from .eval import rebase
from .operators import EngineError, Operator

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class WindowBatch(Generic[T]):
    """One completed window: its index, bounds, and ordered contents."""

    index: int
    start: float
    end: float
    contents: Tuple[T, ...]

    def __len__(self) -> int:
        return len(self.contents)


class SlidingWindower(Generic[T]):
    """Assign position-stamped payloads to ``[k·µ, k·µ + ∆)`` windows.

    Positions must be non-decreasing (the paper requires streams sorted
    by the reference element; see :class:`ReorderBuffer` for the fuzzy
    relaxation), so the buffer is two parallel sorted columns,
    positions and payloads: a window's contents are one ``bisect`` and
    one slice, and pruning is one ``del`` of a prefix.  ``add`` returns
    every window completed by the new arrival, in order.
    """

    def __init__(self, size: float, step: float, origin: float = 0.0) -> None:
        if size <= 0 or step <= 0:
            raise EngineError("window size and step must be positive")
        self.size = size
        self.step = step
        self.origin = origin
        self._next_index = 0
        self._positions: List[float] = []
        self._payloads: List[T] = []
        self._last_position: Optional[float] = None

    @property
    def _buffer(self) -> List[Tuple[float, T]]:
        """The buffered ``(position, payload)`` arrivals (a copy)."""
        return list(zip(self._positions, self._payloads))

    def add(self, position: float, payload: T) -> List[WindowBatch[T]]:
        return self.add_columns((position,), (payload,))

    def add_columns(
        self, positions: Sequence[float], payloads: Sequence[T]
    ) -> List[WindowBatch[T]]:
        """Add the arrivals ``zip(positions, payloads)`` in order; return
        every window they complete, in order.

        The run is appended stretch by stretch: each stretch up to the
        next window end is one slice.  A decreasing position raises with
        every arrival before it added, and so does ``inf`` or ``nan`` (no
        window ends after either; ``-inf`` completes none and is added
        like any position); the windows that prefix completed are
        dropped with the error.
        """
        count = len(positions)
        if not count:
            return []
        last = self._last_position
        if not (
            (last is None or last <= positions[0])
            and all(map(le, positions, islice(positions, 1, None)))
            and positions[-1] < math.inf
        ):
            count = self._addable(positions)
        out: List[WindowBatch[T]] = []
        buffered, carried = self._positions, self._payloads
        low = 0
        while True:
            end = self.origin + self._next_index * self.step + self.size
            high = bisect_left(positions, end, low, count)
            buffered += positions[low:high]
            carried += payloads[low:high]
            if high == count:
                break
            out.extend(self._complete_up_to(positions[high]))
            low = high
        if count:
            self._last_position = last = positions[count - 1]
        if count < len(positions):
            position = positions[count]
            if last is not None and position < last:
                raise EngineError(
                    f"out-of-order position {position} after {last}; "
                    "time-based windows need a sorted reference element"
                )
            raise EngineError(
                f"window position {position} is not finite; "
                "time-based windows need a finite reference element"
            )
        return out

    def _addable(self, positions: Sequence[float]) -> int:
        """How many leading arrivals of a run can be added: the index of
        the first that decreases or is not finite."""
        last = self._last_position
        for index, position in enumerate(positions):
            if (last is not None and position < last) or not position < math.inf:
                return index
            last = position
        return len(positions)

    def _complete_up_to(self, position: float) -> List[WindowBatch[T]]:
        """Emit every window ending at or before ``position``, then drop
        what no later window holds."""
        out: List[WindowBatch[T]] = []
        while self.origin + self._next_index * self.step + self.size <= position:
            out.append(self._next_window())
        self._prune()
        return out

    def _next_window(self) -> WindowBatch[T]:
        """Emit the current window.  Every buffered position lies below
        its end (a window completes before the first arrival at or
        beyond its end is added), so it holds the buffer from its start
        on."""
        start = self.origin + self._next_index * self.step
        contents = tuple(self._payloads[bisect_left(self._positions, start) :])
        batch = WindowBatch(self._next_index, start, start + self.size, contents)
        self._next_index += 1
        return batch

    def _prune(self) -> None:
        keep_from = bisect_left(
            self._positions, self.origin + self._next_index * self.step
        )
        del self._positions[:keep_from]
        del self._payloads[:keep_from]

    def flush(self) -> List[WindowBatch[T]]:
        """Emit the remaining partially filled windows (explicit drain)."""
        out: List[WindowBatch[T]] = []
        while self._positions:
            out.append(self._next_window())
            self._prune()
        return out


class ReorderBuffer(Generic[T]):
    """Fixed-size buffer deriving a total order from a fuzzy one.

    Section 2 allows relaxing the sortedness premise of time-based
    windows "by requiring that a fixed sized buffer is sufficient to
    derive the total order": hold up to ``capacity`` items and release
    the smallest-position item whenever the buffer overflows (a heap on
    ``(position, arrival sequence)``: equal positions leave in arrival
    order).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise EngineError("reorder buffer capacity must be at least 1")
        self.capacity = capacity
        self._items: List[Tuple[float, int, T]] = []
        self._sequence = 0

    def add_columns(
        self, positions: Sequence[float], payloads: Sequence[T]
    ) -> Tuple[List[float], List[T]]:
        """Insert the arrivals ``zip(positions, payloads)`` in order;
        return the items each insertion forces out, in release order,
        as two columns."""
        items, capacity = self._items, self.capacity
        sequence = self._sequence
        released: Tuple[List[float], List[T]] = ([], [])
        for position, payload in zip(positions, payloads):
            heapq.heappush(items, (position, sequence, payload))
            sequence += 1
            if len(items) > capacity:
                position, _, payload = heapq.heappop(items)
                released[0].append(position)
                released[1].append(payload)
        self._sequence = sequence
        return released

    def flush(self) -> Tuple[List[float], List[T]]:
        """Release everything, sorted, as two columns."""
        ordered = sorted(self._items)
        self._items.clear()
        return [entry[0] for entry in ordered], [entry[2] for entry in ordered]

    def __len__(self) -> int:
        return len(self._items)


class WindowPositions:
    """Where a window operator's rows fall (Section 2): item indices for
    ``count`` windows, the reference element's value for ``diff``
    windows, where a row without one is skipped."""

    def __init__(self, window: WindowSpec, item_path: Path) -> None:
        #: The reference path rebased once (same value as item_number
        #: on the spec path); ``None`` for count windows.
        self._steps = (
            None if window.reference is None else rebase(window.reference, item_path).steps
        )
        self._count = 0

    def gather(self, batch: Batch, rows: Sequence[R]) -> Tuple[List[float], Sequence[R]]:
        """The positions of ``batch``'s rows, and the entries of ``rows``
        (parallel to ``batch.rows``) that have one."""
        if self._steps is None:
            first = self._count
            self._count += len(rows)
            return list(map(float, range(first, self._count))), rows
        column = batch.number_column(self._steps)
        if column is None:
            return [], []  # the reference path never resolves: every row skipped
        positions = list(map(column.__getitem__, batch.rows))
        if None in positions:
            kept = [p is not None for p in positions]
            return list(compress(positions, kept)), list(compress(rows, kept))
        return cast(List[float], positions), rows


class WindowContentsOperator(Operator):
    """Emit one ``<window>`` element per completed data window.

    Used by WXQueries that bind a window and return the items
    themselves (no aggregation).
    """

    kind = "window"

    def __init__(self, spec: WindowContentsSpec, item_path: Path) -> None:
        self.spec = spec
        self.item_path = item_path
        self._windower: SlidingWindower[Element] = SlidingWindower(
            float(spec.window.size), float(spec.window.step)
        )
        self._positions = WindowPositions(spec.window, item_path)

    def process_columns(self, batch: Batch) -> Batch:
        """Fill windows with the batch's rows in order: payloads are the
        decoded items — the emitted ``<window>`` elements copy the items
        themselves, so trees are needed here anyway."""
        positions, items = self._positions.gather(batch, batch.decode())
        return RowBatch(list(map(self._emit, self._windower.add_columns(positions, items))))

    def flush(self) -> List[Element]:
        return [self._emit(batch) for batch in self._windower.flush()]

    @staticmethod
    def _emit(batch: WindowBatch[Element]) -> Element:
        return Element("window", children=[item.copy() for item in batch.contents])
