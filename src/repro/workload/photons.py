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
streams are reproducible bit-for-bit: the draws and their order are the
contract (``tests/test_workload.py`` and ``tests/stream_digests.py``
pin digests of the stream).  A photon reads, in this order:

1. the ``det_time`` jitter, ``uniform(-j, j)``: ``-j + (j - -j) * random()``;
2. the mixture roll, ``random()``;
3. for a hot spot, up to 16 ``(ra, dec)`` pairs of ``gauss(mu, sigma)``
   — Box–Muller as ``random`` spells it: a fresh pair draws
   ``random() * 2π`` and ``sqrt(-2 log(1 - random()))``, the cosine
   leg is returned and the sine leg is parked in ``rng.gauss_next``
   for the next call, which takes it instead of drawing;
4. for the background (no spot, or 16 misses), ``uniform`` over the
   strip: ``ra_min + (ra_max - ra_min) * random()``, then ``dec``;
5. up to 64 energies ``expovariate(1 / scale)``:
   ``-log(1 - random()) / (1 / scale)`` — a division by the rate, not a
   multiplication by ``scale``;
6. ``randrange(17)`` for the channel jitter, then ``randrange(8192)``
   for ``dx`` and ``dy``: ``getrandbits(n.bit_length())`` redrawn while
   ``>= n`` (5 bits, then 14 bits each).

These are ``random``'s own formulas on every supported Python, so the
stream does not depend on the interpreter version.  Coordinates and
``det_time`` are rounded to 4 places, energies to 3.

Each photon is built once, by the compiled builder of the configured
schema (:meth:`repro.xmlkit.schema.Schema.builder`): the generator
renders its numbers to their canonical texts and the builder fills the
tree with leaves that already know their serialized size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import cos, log, pi, sin, sqrt
from typing import Any, Iterator, List, Optional, Tuple

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


#: The leaves :meth:`PhotonGenerator.next_item` fills, in the order it
#: passes them to the schema's builder.
_PHOTON_LEAVES = (
    "phc",
    "coord/cel/ra",
    "coord/cel/dec",
    "coord/det/dx",
    "coord/det/dy",
    "en",
    "det_time",
)

#: ``random.gauss``'s constant (Box–Muller angle scale).
_TWOPI = 2.0 * pi

#: Below this magnitude a 4-place number has at most 15 significant
#: digits, so its ``'%.4f'`` digits are the shortest text that reads
#: back as ``round(x, 4)`` (a double holds 15 decimal digits exactly).
_FOUR_PLACE_EXACT = 1e11

#: A hot-spot mixture as :meth:`PhotonGenerator.next_item` walks it:
#: per spot, the running weight sum it compares the roll with, then
#: ``ra``, ``dec``, ``sigma`` and the rate of its energy spectrum.
_Mixture = Tuple[Tuple[float, float, float, float, float], ...]


def _mixture(spots: Tuple[HotSpot, ...]) -> _Mixture:
    cumulative = 0.0
    entries = []
    for spot in spots:
        cumulative += spot.weight
        entries.append((cumulative, spot.ra, spot.dec, spot.sigma, 1.0 / spot.mean_energy))
    return tuple(entries)


def _four_place_text(x: float) -> str:
    """``repr(round(x, 4))`` for finite ``x``, without the round trip
    through a float."""
    if -_FOUR_PLACE_EXACT < x < _FOUR_PLACE_EXACT:
        text = ("%.4f" % x).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(x, 4))


class PhotonGenerator:
    """Deterministic generator of photon :class:`Element` items.

    The configuration is read once, at construction: the draws use
    constants derived from it, so later edits of ``config`` do not
    reach the stream.

    >>> gen = PhotonGenerator(PhotonStreamConfig(seed=1))
    >>> photon = gen.next_item()
    >>> photon.tag
    'photon'
    """

    def __init__(self, config: Optional[PhotonStreamConfig] = None) -> None:
        self.config = cfg = config or PhotonStreamConfig()
        schema = cfg.schema
        leaves = tuple(str(path) for path in schema.leaf_paths())
        if leaves != _PHOTON_LEAVES:
            raise ValueError(
                f"the photon generator fills the leaves {_PHOTON_LEAVES}, "
                f"the configured schema declares {leaves}"
            )
        self._build = schema.builder()
        self._rng = random.Random(cfg.seed)
        self._clock = 0.0
        self._emitted = 0
        # Per-config invariants of next_item's draws.
        self._mean_step = 1.0 / cfg.frequency
        self._rate_steps = tuple((start, 1.0 / f) for start, f in cfg.rate_profile)
        self._mixture = _mixture(cfg.hot_spots)
        self._mixture_steps = tuple(
            (start, _mixture(spots)) for start, spots in cfg.hot_spot_schedule
        )
        low = -cfg.time_jitter  # uniform(low, high) is low + (high - low) * random()
        self._jitter = (low, cfg.time_jitter - low)
        strip = cfg.strip
        self._strip = (
            strip.ra_min,
            strip.ra_max,
            strip.ra_max - strip.ra_min,
            strip.dec_min,
            strip.dec_max,
            strip.dec_max - strip.dec_min,
        )
        self._band = (
            cfg.energy_min,
            cfg.energy_max,
            cfg.energy_max - cfg.energy_min,
            1.0 / cfg.energy_scale,
            round((cfg.energy_min + cfg.energy_max) / 2, 3),
        )

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

        Each draw is its ``random`` method's formula spelled out over
        ``random()`` / ``getrandbits()`` (module docstring), in the
        order of the methods it replaces.
        """
        rng = self._rng
        random = rng.random
        getrandbits = rng.getrandbits

        # det_time: mean step 1/frequency, uniform(-jitter, jitter)
        # relative jitter, at least 1 % of the mean step.
        mean_step = self._mean_step
        if self._rate_steps:
            mean_step = _stepped(mean_step, self._rate_steps, self._clock)
        low, span = self._jitter
        step = mean_step * (1.0 + (low + span * random()))
        least = mean_step * 0.01
        clock = self._clock = self._clock + (least if least > step else step)

        # Position: a hot spot by weight (gauss around it, 16 tries to
        # land in the strip), else — or after 16 misses — uniform over
        # the strip.
        ra_min, ra_max, ra_span, dec_min, dec_max, dec_span = self._strip
        e_min, e_max, band, rate, e_mid = self._band
        mixture = self._mixture
        if self._mixture_steps:
            mixture = _stepped(mixture, self._mixture_steps, clock)
        roll = random()
        placed = False
        for cumulative, mu_ra, mu_dec, sigma, spot_rate in mixture:
            if roll < cumulative:
                for _ in range(16):
                    carried = rng.gauss_next
                    if carried is None:
                        angle = random() * _TWOPI
                        radius = sqrt(-2.0 * log(1.0 - random()))
                        ra = mu_ra + cos(angle) * radius * sigma
                        dec = mu_dec + sin(angle) * radius * sigma
                    else:
                        ra = mu_ra + carried * sigma
                        angle = random() * _TWOPI
                        radius = sqrt(-2.0 * log(1.0 - random()))
                        dec = mu_dec + cos(angle) * radius * sigma
                        rng.gauss_next = sin(angle) * radius
                    if ra_min <= ra <= ra_max and dec_min <= dec <= dec_max:
                        rate = spot_rate
                        placed = True
                        break
                break
        if not placed:
            ra = ra_min + ra_span * random()
            dec = dec_min + dec_span * random()

        # Energy: expovariate(rate) redrawn up to 64 times into the band.
        for _ in range(64):
            energy = -log(1.0 - random()) / rate
            if e_min <= energy <= e_max:
                energy = round(energy, 3)
                break
        else:
            energy = e_mid

        # Pulse-height channel roughly proportional to energy (PSPC has
        # 256 channels over the band), jittered by randrange(17) - 8;
        # detector coordinates randrange(8192) each.
        jitter = getrandbits(5)
        while jitter >= 17:
            jitter = getrandbits(5)
        phc = int(256 * (energy - e_min) / band) - 8 + jitter
        phc = 1 if phc < 1 else 255 if phc > 255 else phc
        dx = getrandbits(14)
        while dx >= 8192:
            dx = getrandbits(14)
        dy = getrandbits(14)
        while dy >= 8192:
            dy = getrandbits(14)

        self._emitted += 1
        return self._build(
            str(phc),
            _four_place_text(ra),
            _four_place_text(dec),
            str(dx),
            str(dy),
            repr(energy),
            _four_place_text(clock),
        )

    def items(self, count: int) -> Iterator[Element]:
        """Yield the next ``count`` photons."""
        for _ in range(count):
            yield self.next_item()

    def take(self, count: int) -> List[Element]:
        """Materialize the next ``count`` photons as a list."""
        return list(self.items(count))


def _stepped(value: Any, steps: Tuple[Tuple[float, Any], ...], time: float) -> Any:
    """A piecewise-constant schedule's value at ``time``: ``value``
    until the first ``(start, value)`` step, each step from its start
    on (``steps`` ascend)."""
    for start, stepped in steps:
        if time >= start:
            value = stepped
        else:
            break
    return value
