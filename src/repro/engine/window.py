"""Window machinery: the sliding windower, reorder buffering, and the
window-contents operator.

Window semantics (Section 2): a window specification ``|… ∆ step µ|``
denotes the window sequence ``W_k = [k·µ, k·µ + ∆)`` over *positions* —
item indices for ``count`` windows, reference-element values for
``diff`` windows.  ``W_k`` is emitted when the first position at or
beyond its upper boundary arrives; time-based windows with no matching
items are emitted empty so that downstream re-aggregation sees a
regular cadence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generic, Iterable, List, Optional, Tuple, TypeVar

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
    relaxation).  ``add`` returns every window completed by the new
    arrival, in order.
    """

    def __init__(self, size: float, step: float, origin: float = 0.0) -> None:
        if size <= 0 or step <= 0:
            raise EngineError("window size and step must be positive")
        self.size = size
        self.step = step
        self.origin = origin
        self._next_index = 0
        self._buffer: List[Tuple[float, T]] = []
        self._last_position: Optional[float] = None

    def add(self, position: float, payload: T) -> List[WindowBatch[T]]:
        return self.add_run(((position, payload),))

    def add_run(self, run: Iterable[Tuple[float, T]]) -> List[WindowBatch[T]]:
        """Add a run of ``(position, payload)`` arrivals in order;
        return every window they complete, in order.

        An arrival inside the current window is one append: the window
        arithmetic runs only when a position reaches the window's end.
        A decreasing position raises with everything before it added,
        and so does ``inf`` or ``nan`` (no window ends after either;
        ``-inf`` completes none and is added like any position).
        """
        out: List[WindowBatch[T]] = []
        buffer = self._buffer
        last = self._last_position
        end = self.origin + self._next_index * self.step + self.size
        for arrival in run:
            position = arrival[0]
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
                buffer = self._buffer
                end = self.origin + self._next_index * self.step + self.size
            last = position
            buffer.append(arrival)
        self._last_position = last
        return out

    def _complete_up_to(self, position: float) -> List[WindowBatch[T]]:
        out: List[WindowBatch[T]] = []
        while True:
            start = self.origin + self._next_index * self.step
            end = start + self.size
            if position < end:
                return out
            contents = tuple(p for pos, p in self._buffer if start <= pos < end)
            out.append(WindowBatch(self._next_index, start, end, contents))
            self._next_index += 1
            keep_from = self.origin + self._next_index * self.step
            self._buffer = [(pos, p) for pos, p in self._buffer if pos >= keep_from]

    def flush(self) -> List[WindowBatch[T]]:
        """Emit the remaining partially filled windows (explicit drain)."""
        out: List[WindowBatch[T]] = []
        while self._buffer:
            start = self.origin + self._next_index * self.step
            end = start + self.size
            contents = tuple(p for pos, p in self._buffer if start <= pos < end)
            out.append(WindowBatch(self._next_index, start, end, contents))
            self._next_index += 1
            keep_from = self.origin + self._next_index * self.step
            self._buffer = [(pos, p) for pos, p in self._buffer if pos >= keep_from]
        return out


class ReorderBuffer(Generic[T]):
    """Fixed-size buffer deriving a total order from a fuzzy one.

    Section 2 allows relaxing the sortedness premise of time-based
    windows "by requiring that a fixed sized buffer is sufficient to
    derive the total order": hold up to ``capacity`` items and release
    the smallest-position item whenever the buffer overflows.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise EngineError("reorder buffer capacity must be at least 1")
        self.capacity = capacity
        self._items: List[Tuple[float, int, T]] = []
        self._sequence = 0

    def add(self, position: float, payload: T) -> List[Tuple[float, T]]:
        """Insert; return items forced out in sorted order."""
        self._items.append((position, self._sequence, payload))
        self._sequence += 1
        self._items.sort(key=lambda entry: (entry[0], entry[1]))
        released: List[Tuple[float, T]] = []
        while len(self._items) > self.capacity:
            position, _, payload = self._items.pop(0)
            released.append((position, payload))
        return released

    def flush(self) -> List[Tuple[float, T]]:
        """Release everything, sorted."""
        released = [(pos, payload) for pos, _, payload in self._items]
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
        """Fill windows row by row in batch order: positions come from
        the reference column (rows without one are skipped), payloads
        are the decoded items — the emitted ``<window>`` elements copy
        the items themselves, so trees are needed here anyway."""
        count_kind = self.spec.window.kind == "count"
        if not count_kind:
            assert self._reference_steps is not None
            positions = batch.number_column(self._reference_steps)
            if positions is None:
                return RowBatch(())  # reference path never resolves: every row skipped
        items = batch.decode()
        out: List[Element] = []
        windower_add = self._windower.add
        emit = self._emit
        for offset, i in enumerate(batch.rows):
            if count_kind:
                position = float(self._count)
                self._count += 1
            else:
                reference = positions[i]
                if reference is None:
                    continue
                position = reference
            out.extend(map(emit, windower_add(position, items[offset])))
        return RowBatch(out)

    def flush(self) -> List[Element]:
        return [self._emit(batch) for batch in self._windower.flush()]

    @staticmethod
    def _emit(batch: WindowBatch[Element]) -> Element:
        return Element("window", children=[item.copy() for item in batch.contents])
