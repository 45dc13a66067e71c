"""The cost model ``C`` (Section 3.2).

Two layers over the rate rules of :mod:`repro.costmodel.rates` (``size(p)``
and ``freq(p)`` of a stream):

* :class:`NetworkUsage` — the current bandwidth/load commitments of the
  network, yielding the available fractions ``a_b(e)`` and ``a_l(v)``;
* :class:`CostModel` — the weighted cost function with the exponential
  overload penalty, plus the hard overload test used by admission
  control in the rejection experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..network.topology import Link, Network


# ----------------------------------------------------------------------
# Network usage bookkeeping
# ----------------------------------------------------------------------
#: Register/deregister round-trips release commitments by float
#: subtraction; the residues they leave (positive *or* negative) are
#: many orders of magnitude below any real commitment (which is at
#: least one item per second through one operator).  Totals within this
#: tolerance of zero are clamped to exactly 0.0 so churn cannot
#: accumulate dust that the static verifier's P13x invariants would
#: misread as stale or negative commitments.
RESIDUE_TOLERANCE = 1e-6


def _clamp_residue(total: float) -> float:
    return 0.0 if -RESIDUE_TOLERANCE < total < RESIDUE_TOLERANCE else total


class NetworkUsage:
    """Committed bandwidth per link and computational load per peer.

    Tracks absolute quantities (bits/s, work units/s); the relative
    ``u_b``/``u_l`` and available ``a_b``/``a_l`` fractions of the cost
    function are derived against the topology's capacities.
    """

    def __init__(self, net: Network) -> None:
        self._net = net
        self._link_bits: Dict[Tuple[str, str], float] = {}
        self._peer_work: Dict[str, float] = {}

    # -- commitments ----------------------------------------------------
    def add_link_traffic(self, link: Link, bits_per_second: float) -> None:
        self._link_bits[link.ends] = _clamp_residue(
            self._link_bits.get(link.ends, 0.0) + bits_per_second
        )

    def add_peer_work(self, peer: str, work_per_second: float) -> None:
        self._peer_work[peer] = _clamp_residue(
            self._peer_work.get(peer, 0.0) + work_per_second
        )

    # -- fractions ------------------------------------------------------
    def link_traffic(self, link: Link) -> float:
        return self._link_bits.get(link.ends, 0.0)

    def peer_work(self, peer: str) -> float:
        return self._peer_work.get(peer, 0.0)

    def used_bandwidth_fraction(self, link: Link) -> float:
        return self.link_traffic(link) / link.bandwidth

    def used_load_fraction(self, peer: str) -> float:
        capacity = self._net.super_peer(peer).capacity
        return self.peer_work(peer) / capacity

    def available_bandwidth_fraction(self, link: Link) -> float:
        """``a_b(e)`` — clamped at zero when already overcommitted."""
        return max(0.0, 1.0 - self.used_bandwidth_fraction(link))

    def available_load_fraction(self, peer: str) -> float:
        """``a_l(v)``."""
        return max(0.0, 1.0 - self.used_load_fraction(peer))

    def copy(self) -> "NetworkUsage":
        clone = NetworkUsage(self._net)
        clone._link_bits = dict(self._link_bits)
        clone._peer_work = dict(self._peer_work)
        return clone


@dataclass
class PlanEffects:
    """The additional commitments a candidate evaluation plan causes.

    ``link_bits``: added stream traffic per affected connection (``P_e``
    aggregated to bits/s); ``peer_work``: added operator load per
    affected peer (``O_v`` aggregated to work units/s).
    """

    link_bits: Dict[Link, float] = field(default_factory=dict)
    peer_work: Dict[str, float] = field(default_factory=dict)

    def add_link(self, link: Link, bits_per_second: float) -> None:
        self.link_bits[link] = self.link_bits.get(link, 0.0) + bits_per_second

    def add_peer(self, peer: str, work_per_second: float) -> None:
        self.peer_work[peer] = self.peer_work.get(peer, 0.0) + work_per_second

    def merge(self, other: "PlanEffects", sign: float = 1.0) -> None:
        """Add ``other`` (``sign=-1.0``: subtract it)."""
        for link, bits in other.link_bits.items():
            self.add_link(link, sign * bits)
        for peer, work in other.peer_work.items():
            self.add_peer(peer, sign * work)


class CostModel:
    """The cost function ``C(P)`` with weighting factor γ.

    ``γ ∈ [0, 1]`` balances network traffic (γ) against peer load
    (1 − γ); overload beyond the available fractions incurs the paper's
    exponential penalty ``max(0, u − a) · e^(u − a)``.
    """

    def __init__(self, net: Network, gamma: float = 0.5) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        self._net = net
        self.gamma = gamma

    def peer_capacity(self, peer: str) -> float:
        """Work units/s the named super-peer can sustain."""
        return self._net.super_peer(peer).capacity

    def plan_cost(self, effects: PlanEffects, usage: NetworkUsage) -> float:
        """``C(P)`` of a candidate plan against the current usage.

        The search prices every variant it examines, so this reads the
        ledger's dicts directly; ``a_b``/``a_l`` are the float
        expressions of :meth:`NetworkUsage.available_bandwidth_fraction`
        and :meth:`~NetworkUsage.available_load_fraction`
        (``max(0.0, …)`` maps a NaN to 0).
        """
        link_bits = usage._link_bits
        traffic_cost = 0.0
        for link, bits in effects.link_bits.items():
            bandwidth = link.bandwidth
            u_b = bits / bandwidth
            a_b = max(0.0, 1.0 - link_bits.get(link.ends, 0.0) / bandwidth)
            traffic_cost += u_b + _overload_penalty(u_b, a_b)
        peer_work = usage._peer_work
        super_peer = self._net.super_peer
        load_cost = 0.0
        for peer, work in effects.peer_work.items():
            capacity = super_peer(peer).capacity
            u_l = work / capacity
            a_l = max(0.0, 1.0 - peer_work.get(peer, 0.0) / capacity)
            load_cost += u_l + _overload_penalty(u_l, a_l)
        return self.gamma * traffic_cost + (1.0 - self.gamma) * load_cost

    def utilisation_cost(self, effects: PlanEffects) -> float:
        """The γ-weighted utilisation sum of ``effects``: :meth:`plan_cost`
        with every overload penalty 0, by its own expressions in its own
        order — so a plan that overloads nothing costs exactly this."""
        traffic_cost = 0.0
        for link, bits in effects.link_bits.items():
            traffic_cost += bits / link.bandwidth
        super_peer = self._net.super_peer
        load_cost = 0.0
        for peer, work in effects.peer_work.items():
            load_cost += work / super_peer(peer).capacity
        return self.gamma * traffic_cost + (1.0 - self.gamma) * load_cost

    def added_cost_floor(self, effects: PlanEffects) -> float:
        """The least non-negative ``effects`` add to any plan's cost: the
        usage-free, penalty-free terms of :meth:`plan_cost`, since no
        term grows slower than its utilization (``-inf``, no bound, if
        an entry is negative)."""
        if min((*effects.link_bits.values(), *effects.peer_work.values()), default=0.0) < 0.0:
            return -math.inf
        return self.utilisation_cost(effects)

    def overloads(self, effects: PlanEffects, usage: NetworkUsage) -> bool:
        """Hard overload test for admission control (Section 4).

        ``True`` when the plan would push any connection or peer past
        its available capacity.
        """
        for link, bits in effects.link_bits.items():
            if bits / link.bandwidth > usage.available_bandwidth_fraction(link) + 1e-12:
                return True
        for peer, work in effects.peer_work.items():
            capacity = self._net.super_peer(peer).capacity
            if work / capacity > usage.available_load_fraction(peer) + 1e-12:
                return True
        return False


def _overload_penalty(used: float, available: float) -> float:
    """``max(0, u − a) · e^(u − a)`` — zero while within capacity."""
    over = used - available
    if over <= 0.0:
        return 0.0
    return over * math.exp(over)
