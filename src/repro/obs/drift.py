"""Sustained-overload detection over the per-epoch time series.

The rebalancer (DESIGN.md §13) must not react to the data plane's
natural burstiness: photon hot spots, window flushes and fault
transients all spike a super-peer's per-epoch CPU% for an epoch or
two without meaning the *plan* is wrong.  :class:`DriftDetector`
therefore looks at windowed means with hysteresis:

* per peer, keep a rolling window of the last ``window`` epochs'
  CPU% (from :attr:`EpochSnapshot.peer_cpu_percent`);
* a peer *breaches* when its windowed mean is at or above
  ``cpu_threshold``; the breach streak only resets once the mean
  falls below ``clear_threshold`` (< ``cpu_threshold``), so a mean
  oscillating around the trigger line does not restart the count
  (classic hysteresis);
* only ``sustain`` consecutive breaching epochs raise an alert, and
  after an alert the detector stays quiet for ``cooldown`` epochs so
  one migration gets to take effect (and the window to refill with
  post-migration data) before the next is considered.

Everything is driven by the executor's epoch snapshots — stream-time
deltas, not wall clock — so detection is exactly as deterministic as
the run itself: the same scenario produces the same alerts at the
same epoch indices on every host and on both executors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Tuple

from .timeseries import EpochSnapshot

__all__ = ["DriftAlert", "DriftConfig", "DriftDetector"]


@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs for :class:`DriftDetector`.

    The defaults suit the benchmark scenarios' capacity scale (peers
    saturate around 100%): trigger at a sustained 80% of capacity,
    re-arm only below 56%, over a 4-epoch window with 3 consecutive
    breaching epochs and a 6-epoch post-alert cooldown.
    """

    #: Windowed-mean CPU% at or above which a peer counts as breaching.
    cpu_threshold: float = 80.0
    #: Mean below which a breach streak resets (hysteresis); must be
    #: strictly below ``cpu_threshold``.
    clear_threshold: float = 45.0
    #: Rolling-window length in epochs.
    window: int = 4
    #: Consecutive breaching epochs required to alert.
    sustain: int = 3
    #: Epochs to stay silent after an alert.
    cooldown: int = 6

    def __post_init__(self) -> None:
        if self.cpu_threshold <= 0:
            raise ValueError("cpu_threshold must be positive")
        if not 0 <= self.clear_threshold < self.cpu_threshold:
            raise ValueError(
                "clear_threshold must lie in [0, cpu_threshold) — "
                "hysteresis needs a strictly lower re-arm line"
            )
        if self.window < 1:
            raise ValueError("window must be at least 1 epoch")
        if self.sustain < 1:
            raise ValueError("sustain must be at least 1 epoch")
        if self.cooldown < 0:
            raise ValueError("cooldown cannot be negative")


@dataclass(frozen=True)
class DriftAlert:
    """One detected sustained-overload condition.

    ``hot_peers`` is sorted by descending windowed-mean CPU% (ties by
    name) so migration planners treat the worst peer first.
    """

    epoch_index: int
    t_end: float
    #: ``(peer, windowed mean CPU%)`` for every peer alerting now.
    hot_peers: Tuple[Tuple[str, float], ...]

    @property
    def peer_names(self) -> Tuple[str, ...]:
        return tuple(peer for peer, _ in self.hot_peers)


@dataclass
class _PeerState:
    window: Deque[float]
    streak: int = 0
    cooldown_left: int = 0


class DriftDetector:
    """Feed epoch snapshots in; get sustained-overload alerts out.

    One detector instance observes exactly one run's epoch series (a
    multi-cell run has one too, built from the cells' merged counters).
    """

    def __init__(self, config: DriftConfig = DriftConfig()) -> None:
        self.config = config
        self._peers: Dict[str, _PeerState] = {}
        #: Every alert raised so far, in epoch order.
        self.alerts: List[DriftAlert] = []

    def observe(self, snapshot: EpochSnapshot) -> List[DriftAlert]:
        """Account one epoch; return the alerts it raises (0 or 1).

        A single :class:`DriftAlert` covers *all* peers alerting at
        this epoch, so one migration pass can consider them together.
        """
        config = self.config
        hot: List[Tuple[str, float]] = []
        # Peers are visited in sorted order so state updates (and any
        # float accumulation in future estimators) are order-stable.
        for peer in sorted(snapshot.peer_cpu_percent):
            cpu = snapshot.peer_cpu_percent[peer]
            state = self._peers.get(peer)
            if state is None:
                state = _PeerState(window=deque(maxlen=config.window))
                self._peers[peer] = state
            state.window.append(cpu)
            if state.cooldown_left > 0:
                state.cooldown_left -= 1
                state.streak = 0
                continue
            mean = sum(state.window) / len(state.window)
            if mean >= config.cpu_threshold:
                state.streak += 1
            elif mean < config.clear_threshold:
                state.streak = 0
            # else: between the thresholds — hold the streak steady.
            if mean >= config.cpu_threshold and state.streak >= config.sustain:
                hot.append((peer, mean))
                state.streak = 0
                state.cooldown_left = config.cooldown
        if not hot:
            return []
        hot.sort(key=lambda entry: (-entry[1], entry[0]))
        alert = DriftAlert(
            epoch_index=snapshot.index,
            t_end=snapshot.t_end,
            hot_peers=tuple(hot),
        )
        self.alerts.append(alert)
        return [alert]
