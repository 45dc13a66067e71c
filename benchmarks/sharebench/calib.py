"""Host-speed calibration: timing metrics in *calibrated* seconds.

The sandbox this benchmark was built on is a 2-vCPU micro-VM whose
effective speed drifts by up to 1.5x over seconds (same work, same
process, CPU time tracks wall time, no steal is reported), so raw wall
time repeats only to 13-39 % between back-to-back runs.  Every timed
region is therefore interleaved with a fixed pure-Python *spin* (small
object allocation, attribute access, dict updates, float formatting;
independent of the program under test) and reported as

    calibrated seconds = wall seconds * SPIN_REF_S / mean(spin seconds)

i.e. the time the region would have taken had the host run at the
reference speed throughout.  Spins run in-band (every ``SPIN_INTERVAL_S``
of item generation, every few registrations) and on both edges of a
region; the in-band ones are part of the measured wall time (3-5 % of
it on every workload), the edge ones are not.  On 10 runs of
``fig7-steady`` this cut the inter-quartile spread of the median from
27 % (raw) to 2.3 % (calibrated) in one hour and from 13 % to 3.5 % in
another.
"""

from __future__ import annotations

import mmap
import statistics
from time import perf_counter
from typing import Callable, Iterable, List, Sequence

#: Iterations of the spin loop (about 0.3 ms on the reference host when
#: it interrupts other work, 0.2 ms back to back).
SPIN_ROUNDS = 350

#: Wall seconds between two in-band spins of a source generator.
SPIN_INTERVAL_S = 0.008

#: Duration of one spin on the reference host (the 2-core sandbox the
#: benchmark was sized on) in a quiet phase.  Only a scale constant:
#: it cancels in every comparison between two commits.
SPIN_REF_S = 0.00030


class _Node:
    __slots__ = ("tag", "kids")

    def __init__(self, tag: str, kids: list) -> None:
        self.tag = tag
        self.kids = kids


def spin() -> float:
    """Run the fixed reference loop once; return its wall seconds.

    Mostly small-object allocation and attribute access, like the
    program under test: of four candidate loops (arithmetic and string
    work, pointer chasing over a 20 MB object graph, random reads of an
    8 MB array, allocation) the allocation-heavy one tracked the
    workloads' slow phases best and the memory-bound ones worst.
    """
    start = perf_counter()
    acc = 0
    table: dict = {}
    out: List[_Node] = []
    for i in range(SPIN_ROUNDS):
        key = i & 63
        table[key] = table.get(key, 0) + 1
        out.append(_Node("p", [_Node("a", []), _Node("b", [])]))
        if len(out) >= 64:
            acc += sum(len(node.kids) for node in out if node.tag == "p")
            out = []
        acc += len(str(i * 0.5))
    return perf_counter() - start


def speed_of(spins: Sequence[float]) -> float:
    """Host speed relative to the reference over a set of spins.

    Spins are spaced evenly in time, so the mean of their speeds is the
    region's speed; each spin is clipped at three medians so that one
    spin hit by a preemption or by a full garbage collection of the
    program's heap does not read as a slow host.
    """
    cap = 3.0 * statistics.median(spins)
    return SPIN_REF_S * statistics.fmean(1.0 / min(value, cap) for value in spins)


class SpinLog:
    """Spin durations of one writer, readable across ``fork``.

    Backed by an anonymous shared mapping: a source generator that ends
    up inside a forked worker cell of the sharded executor still
    reports its spins to the parent.  One writer per log (each source
    is pumped by exactly one cell), so no locking.
    """

    CAPACITY = 1 << 15

    def __init__(self) -> None:
        self._map = mmap.mmap(-1, 8 * (self.CAPACITY + 1))
        self._slots = memoryview(self._map).cast("d")

    def spin(self) -> float:
        seconds = spin()
        slots = self._slots
        count = int(slots[0])
        if count < self.CAPACITY:
            slots[count + 1] = seconds
            slots[0] = count + 1
        return seconds

    def mark(self) -> int:
        return int(self._slots[0])

    def since(self, mark: int) -> List[float]:
        return list(self._slots[mark + 1 : self.mark() + 1])


class Region:
    """One timed region: ``with calibrator.region() as r: ...``.

    ``wall`` is the raw duration, ``speed`` the host's speed relative
    to the reference during the region (>1 = faster), ``seconds`` the
    calibrated duration.
    """

    def __init__(self, logs: Sequence[SpinLog], edge: SpinLog) -> None:
        self._logs = logs
        self._edge = edge
        self.wall = 0.0
        self.speed = 1.0
        self.seconds = 0.0

    def __enter__(self) -> "Region":
        self._lead = self._edge.spin()
        self._marks = [log.mark() for log in self._logs]
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.wall = perf_counter() - self._start
        spins = [self._lead]
        for log, mark in zip(self._logs, self._marks):
            spins.extend(log.since(mark))
        spins.append(self._edge.spin())
        self.speed = speed_of(spins)
        self.seconds = self.wall * self.speed


class Calibrator:
    """The spin logs of one benchmark process."""

    def __init__(self) -> None:
        #: Spins of the benchmark's own (parent) process.
        self.main = SpinLog()
        self._logs: List[SpinLog] = [self.main]

    def new_log(self) -> SpinLog:
        """A log for one in-band writer (one source generator)."""
        log = SpinLog()
        self._logs.append(log)
        return log

    def region(self) -> Region:
        return Region(list(self._logs), self.main)

    def timed_calls(
        self, calls: Iterable[Callable[[], object]], block: int = 8
    ) -> List[float]:
        """Run ``calls`` in order; calibrated seconds of each.

        One spin after every ``block`` calls; each call is scaled by
        the mean of the two spins around its block.
        """
        out: List[float] = []
        raws: List[float] = []
        before = self.main.spin()

        def close_block() -> None:
            nonlocal before
            after = self.main.spin()
            speed = speed_of((before, after))
            out.extend(raw * speed for raw in raws)
            raws.clear()
            before = after

        for call in calls:
            start = perf_counter()
            call()
            raws.append(perf_counter() - start)
            if len(raws) >= block:
                close_block()
        if raws:
            close_block()
        return out
