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
sorted columns, positions and payloads.  The operators hand it a
batch as two such columns (:meth:`SlidingWindower.add_columns`): an
ordered, finite run is appended a slice per stretch between window
ends, a window's contents are one ``bisect`` and one slice, pruning is
one ``del``; any other run takes the per-arrival
:meth:`SlidingWindower.add_run`, which raises at the offending arrival.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Generic, Iterable, List, Optional, Sequence, Tuple, TypeVar, cast

from ..properties import WindowContentsSpec
from ..xmlkit import Element, Path
from .columnar import Batch, RowBatch
from .eval import rebase
from .operators import EngineError, Operator

T = TypeVar("T")


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
        return self.add_run(((position, payload),))

    def add_columns(
        self, positions: Sequence[float], payloads: Sequence[T]
    ) -> List[WindowBatch[T]]:
        """Add the arrivals ``zip(positions, payloads)`` in order; return
        every window they complete, in order.

        A finite run that does not decrease (checked at C speed) is
        appended stretch by stretch: each stretch up to the next window
        end is one slice.  Any other run goes through :meth:`add_run`,
        which raises at the offending arrival.
        """
        if not positions:
            return []
        last = self._last_position
        if not (
            (last is None or last <= positions[0])
            and all(map(le, positions, islice(positions, 1, None)))
            and positions[-1] < math.inf
        ):
            return self.add_run(zip(positions, payloads))
        out: List[WindowBatch[T]] = []
        buffered, carried = self._positions, self._payloads
        low, count = 0, len(positions)
        while True:
            end = self.origin + self._next_index * self.step + self.size
            high = bisect_left(positions, end, low)
            buffered += positions[low:high]
            carried += payloads[low:high]
            if high == count:
                break
            out.extend(self._complete_up_to(positions[high]))
            low = high
        self._last_position = positions[-1]
        return out

    def add_run(self, run: Iterable[Tuple[float, T]]) -> List[WindowBatch[T]]:
        """Add a run of ``(position, payload)`` arrivals one by one, in
        order; return every window they complete, in order.

        An arrival inside the current window is one append: the window
        arithmetic runs only when a position reaches the window's end.
        A decreasing position raises with everything before it added,
        and so does ``inf`` or ``nan`` (no window ends after either;
        ``-inf`` completes none and is added like any position).
        """
        out: List[WindowBatch[T]] = []
        buffered, carried = self._positions, self._payloads
        last = self._last_position
        end = self.origin + self._next_index * self.step + self.size
        for position, payload in run:
            if last is not None and position < last:
                self._last_position = last
                raise EngineError(
                    f"out-of-order position {position} after {last}; "
                    "time-based windows need a sorted reference element"
                )
            if not position < end:
                if not position < math.inf:
                    self._last_position = last
                    raise EngineError(
                        f"window position {position} is not finite; "
                        "time-based windows need a finite reference element"
                    )
                out.extend(self._complete_up_to(position))
                end = self.origin + self._next_index * self.step + self.size
            last = position
            buffered.append(position)
            carried.append(payload)
        self._last_position = last
        return out

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

    def add(self, position: float, payload: T) -> List[Tuple[float, T]]:
        """Insert; return items forced out in sorted order."""
        items = self._items
        heapq.heappush(items, (position, self._sequence, payload))
        self._sequence += 1
        released: List[Tuple[float, T]] = []
        while len(items) > self.capacity:
            position, _, payload = heapq.heappop(items)
            released.append((position, payload))
        return released

    def flush(self) -> List[Tuple[float, T]]:
        """Release everything, sorted."""
        released = [(pos, payload) for pos, _, payload in sorted(self._items)]
        self._items.clear()
        return released

    def __len__(self) -> int:
        return len(self._items)


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
        self._count = 0
        # Rebase the reference path once (same value as item_number on
        # the spec path).
        self._reference_steps = (
            None
            if spec.window.reference is None
            else rebase(spec.window.reference, item_path).steps
        )

    def process_columns(self, batch: Batch) -> Batch:
        """Fill windows with the batch's rows in order: positions come
        from the reference column (rows without one are skipped),
        payloads are the decoded items — the emitted ``<window>``
        elements copy the items themselves, so trees are needed here
        anyway."""
        items: Sequence[Element] = batch.decode()
        positions: Sequence[float]
        if self.spec.window.kind == "count":
            first = self._count
            self._count += len(items)
            positions = list(map(float, range(first, self._count)))
        else:
            assert self._reference_steps is not None
            column = batch.number_column(self._reference_steps)
            if column is None:
                return RowBatch(())  # reference path never resolves: every row skipped
            referenced = list(map(column.__getitem__, batch.rows))
            if None in referenced:
                items = [item for item, p in zip(items, referenced) if p is not None]
                positions = [p for p in referenced if p is not None]
            else:
                positions = cast(List[float], referenced)
        return RowBatch(list(map(self._emit, self._windower.add_columns(positions, items))))

    def flush(self) -> List[Element]:
        return [self._emit(batch) for batch in self._windower.flush()]

    @staticmethod
    def _emit(batch: WindowBatch[Element]) -> Element:
        return Element("window", children=[item.copy() for item in batch.contents])
