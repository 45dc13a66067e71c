"""Synthetic ROSAT-All-Sky-Survey-like photon streams.

The paper evaluates on real RASS photon data obtained from MPE.  That
data is not available, so this module generates a statistically faithful
substitute (see DESIGN.md, Substitutions): a stream of ``photon`` XML
items conforming to :data:`repro.xmlkit.schema.PHOTON_SCHEMA` with

* celestial coordinates drawn from a mixture of a uniform sky background
  and Gaussian hot spots at the two supernova remnants the paper's
  example queries select (*vela* and *RX J0852.0-4622*);
* energies from a truncated exponential spectrum (soft X-ray band,
  0.1–2.4 keV, matching ROSAT's PSPC range);
* a strictly increasing ``det_time`` whose mean increment is the inverse
  of the configured stream frequency — this is the ordered reference
  element time-based windows require (Section 2);
* detector coordinates and pulse-height channel correlated with energy.

All randomness is drawn from a single seeded :class:`random.Random`, so
streams are reproducible bit-for-bit: the order of the draws is the
contract (``tests/test_workload.py`` pins a digest of the stream).

Each photon is built once, by the compiled builder of the configured
schema (:meth:`repro.xmlkit.schema.Schema.builder`): the generator
renders its numbers to their canonical texts and the builder fills the
tree with leaves that already know their serialized size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..xmlkit import Element, PHOTON_SCHEMA, Schema


@dataclass(frozen=True)
class SkyRegion:
    """A rectangular region of the sky in equatorial coordinates."""

    ra_min: float
    ra_max: float
    dec_min: float
    dec_max: float

    def contains(self, ra: float, dec: float) -> bool:
        return self.ra_min <= ra <= self.ra_max and self.dec_min <= dec <= self.dec_max

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.ra_min + self.ra_max) / 2, (self.dec_min + self.dec_max) / 2)


#: The vela supernova remnant region selected by Query 1.
VELA_REGION = SkyRegion(120.0, 138.0, -49.0, -40.0)

#: The RX J0852.0-4622 region selected by Query 2 (contained in vela).
RXJ_REGION = SkyRegion(130.5, 135.5, -48.0, -45.0)

#: Portion of the visible sky strip the simulated telescope scans.
SKY_STRIP = SkyRegion(100.0, 160.0, -60.0, -20.0)


@dataclass(frozen=True)
class HotSpot:
    """A Gaussian photon over-density, e.g. a supernova remnant."""

    ra: float
    dec: float
    sigma: float
    #: Relative probability that a photon originates from this spot.
    weight: float
    #: Mean energy of photons from this spot in keV.
    mean_energy: float


@dataclass
class PhotonStreamConfig:
    """Configuration of one synthetic photon stream.

    Parameters mirror the knobs the cost model consumes: ``frequency``
    is the average number of photons per (virtual) second, and the
    energy/coordinate distributions control operator selectivities.
    """

    seed: int = 20060326
    frequency: float = 100.0
    strip: SkyRegion = SKY_STRIP
    hot_spots: Tuple[HotSpot, ...] = (
        HotSpot(ra=129.0, dec=-44.5, sigma=4.0, weight=0.30, mean_energy=0.9),
        HotSpot(ra=133.0, dec=-46.5, sigma=1.2, weight=0.15, mean_energy=1.6),
    )
    #: Truncated-exponential energy spectrum bounds (ROSAT PSPC band).
    energy_min: float = 0.1
    energy_max: float = 2.4
    energy_scale: float = 0.8
    #: Jitter of det_time increments around the mean 1/frequency.
    time_jitter: float = 0.4
    #: Piecewise-constant rate drift: ``(start_time, frequency)`` steps
    #: in ascending virtual time.  Empty keeps ``frequency`` for the
    #: whole run; a step at time 0 overrides it from the start.  Drives
    #: ``scenario_drift`` — the *registered* (catalog) frequency stays
    #: the base ``frequency``, so a rate step is genuine model drift
    #: the planner did not see.
    rate_profile: Tuple[Tuple[float, float], ...] = ()
    #: Skew rotation: ``(start_time, hot_spots)`` steps replacing the
    #: active hot-spot mixture from that virtual time on (ascending).
    hot_spot_schedule: Tuple[Tuple[float, Tuple[HotSpot, ...]], ...] = ()
    schema: Schema = field(default_factory=lambda: PHOTON_SCHEMA)

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        self._check_spots(self.hot_spots)
        last_start = float("-inf")
        for start, frequency in self.rate_profile:
            if frequency <= 0:
                raise ValueError("rate_profile frequencies must be positive")
            if start <= last_start:
                raise ValueError("rate_profile must ascend in start time")
            last_start = start
        last_start = float("-inf")
        for start, spots in self.hot_spot_schedule:
            self._check_spots(spots)
            if start <= last_start:
                raise ValueError("hot_spot_schedule must ascend in start time")
            last_start = start

    @staticmethod
    def _check_spots(spots: Tuple[HotSpot, ...]) -> None:
        total_weight = sum(spot.weight for spot in spots)
        if total_weight > 1.0:
            raise ValueError("hot spot weights must sum to at most 1")

    def frequency_at(self, time: float) -> float:
        """The active photon rate at virtual ``time``."""
        frequency = self.frequency
        if not self.rate_profile:
            return frequency
        for start, stepped in self.rate_profile:
            if time >= start:
                frequency = stepped
            else:
                break
        return frequency

    def hot_spots_at(self, time: float) -> Tuple[HotSpot, ...]:
        """The active hot-spot mixture at virtual ``time``."""
        spots = self.hot_spots
        if not self.hot_spot_schedule:
            return spots
        for start, stepped in self.hot_spot_schedule:
            if time >= start:
                spots = stepped
            else:
                break
        return spots


#: The leaves :meth:`PhotonGenerator._build_photon` fills, in the order
#: it passes them to the schema's builder.
_PHOTON_LEAVES = (
    "phc",
    "coord/cel/ra",
    "coord/cel/dec",
    "coord/det/dx",
    "coord/det/dy",
    "en",
    "det_time",
)


class PhotonGenerator:
    """Deterministic generator of photon :class:`Element` items.

    >>> gen = PhotonGenerator(PhotonStreamConfig(seed=1))
    >>> photon = gen.next_item()
    >>> photon.tag
    'photon'
    """

    def __init__(self, config: Optional[PhotonStreamConfig] = None) -> None:
        self.config = config or PhotonStreamConfig()
        schema = self.config.schema
        leaves = tuple(str(path) for path in schema.leaf_paths())
        if leaves != _PHOTON_LEAVES:
            raise ValueError(
                f"the photon generator fills the leaves {_PHOTON_LEAVES}, "
                f"the configured schema declares {leaves}"
            )
        self._build = schema.builder()
        self._rng = random.Random(self.config.seed)
        self._clock = 0.0
        self._emitted = 0

    @property
    def emitted(self) -> int:
        """Number of items produced so far."""
        return self._emitted

    @property
    def clock(self) -> float:
        """Virtual time of the last emitted photon."""
        return self._clock

    # ------------------------------------------------------------------
    # Item generation
    # ------------------------------------------------------------------
    def next_item(self) -> Element:
        """Generate the next photon in the stream.

        Its text leaves are born frozen; the root and the interior
        nodes are not, so a wrapping source may still restructure the
        item (drop or reorder subtrees) before the executor's
        ``freeze()`` pins the rest.
        """
        rng = self._rng
        cfg = self.config

        mean_step = 1.0 / cfg.frequency_at(self._clock)
        jitter = cfg.time_jitter
        step = mean_step * (1.0 + rng.uniform(-jitter, jitter))
        self._clock += max(step, mean_step * 0.01)

        ra, dec, spot = self._draw_position()
        energy = self._draw_energy(spot)
        self._emitted += 1
        return self._build_photon(ra, dec, energy)

    def items(self, count: int) -> Iterator[Element]:
        """Yield the next ``count`` photons."""
        for _ in range(count):
            yield self.next_item()

    def take(self, count: int) -> List[Element]:
        """Materialize the next ``count`` photons as a list."""
        return list(self.items(count))

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    def _draw_position(self) -> Tuple[float, float, Optional[HotSpot]]:
        rng = self._rng
        strip = self.config.strip
        roll = rng.random()
        cumulative = 0.0
        for spot in self.config.hot_spots_at(self._clock):
            cumulative += spot.weight
            if roll < cumulative:
                for _ in range(16):
                    ra = rng.gauss(spot.ra, spot.sigma)
                    dec = rng.gauss(spot.dec, spot.sigma)
                    if strip.contains(ra, dec):
                        return round(ra, 4), round(dec, 4), spot
                break  # pathological sigma: fall through to background
        ra = rng.uniform(strip.ra_min, strip.ra_max)
        dec = rng.uniform(strip.dec_min, strip.dec_max)
        return round(ra, 4), round(dec, 4), None

    def _draw_energy(self, spot: Optional[HotSpot]) -> float:
        rng = self._rng
        cfg = self.config
        scale = spot.mean_energy if spot is not None else cfg.energy_scale
        for _ in range(64):
            energy = rng.expovariate(1.0 / scale)
            if cfg.energy_min <= energy <= cfg.energy_max:
                return round(energy, 3)
        return round((cfg.energy_min + cfg.energy_max) / 2, 3)

    def _build_photon(self, ra: float, dec: float, energy: float) -> Element:
        rng = self._rng
        cfg = self.config
        # Pulse-height channel roughly proportional to energy (PSPC has
        # 256 channels over the band), jittered by -8..8.
        band = cfg.energy_max - cfg.energy_min
        phc = max(1, min(255, int(256 * (energy - cfg.energy_min) / band)
                         - 8 + rng.randrange(17)))
        dx = rng.randrange(8192)
        dy = rng.randrange(8192)
        return self._build(
            str(phc),
            repr(ra),
            repr(dec),
            str(dx),
            str(dy),
            repr(energy),
            repr(round(self._clock, 4)),
        )
