"""The photon stream's draw contract, checked on any interpreter.

``PhotonGenerator.next_item`` spells ``random``'s ``uniform``,
``gauss``, ``expovariate`` and ``randrange`` out over ``random()`` and
``getrandbits()``.  The seeded stream must stay the one those methods
draw on every Python the package supports (``requires-python``), so
this script needs nothing but the package and the standard library::

    PYTHONPATH=src python tests/stream_digests.py

It prints one line per pinned stream and exits 1 if any digest of the
first 1 000 serialized photons, or the clock after them, moved.
``tests/test_workload.py::TestPhotonGenerator::test_draw_order_is_pinned``
pins the same streams under the suite's interpreter.
"""

import dataclasses
import hashlib
import sys

from repro.workload import (
    HotSpot,
    PhotonGenerator,
    PhotonStreamConfig,
    scenario_churn_hotspots,
    scenario_drift,
    scenario_hotspot_shift,
)
from repro.xmlkit import serialize


def drifting_config():
    """``scenario_drift``'s rate step plus a hot-spot schedule whose
    last mixture has a spot outside the strip (the 16-try fall-through
    to the background)."""
    return dataclasses.replace(
        scenario_drift(duration=12.0).sources[0].config,
        hot_spot_schedule=(
            (2.0, (HotSpot(ra=150.0, dec=-30.0, sigma=2.0, weight=0.5, mean_energy=1.4),)),
            (
                4.5,
                (
                    HotSpot(ra=210.0, dec=-5.0, sigma=1.2, weight=0.40, mean_energy=2.1),
                    HotSpot(ra=112.0, dec=-33.0, sigma=3.0, weight=0.25, mean_energy=1.1),
                ),
            ),
        ),
    )


def scheduled_config():
    """``scenario_hotspot_shift``'s rotation at 4 s, its rate step
    dropped: the scheduled mixture on a constant mean step."""
    return dataclasses.replace(
        scenario_hotspot_shift(duration=8.0).sources[0].config, rate_profile=()
    )


#: name -> (config factory, sha256 of the first 1 000 photons, clock).
PINNED = {
    "default": (
        PhotonStreamConfig,
        "416d25705094acba1bebf14b4a330a5ac11b1b26e6048a6b50332b8dc629a9fb",
        9.987996754722694,
    ),
    "drift": (
        drifting_config,
        "de25e68c119c5cff2d55d3731d03de10548b0736428e6267807f0e3204608df4",
        5.518781626175259,
    ),
    "churn-hotspots": (
        lambda: scenario_churn_hotspots().sources[0].config,
        "2996f3f12f29d80fa4bf04be7545125c6268874e15e022db6048f2d6dfc4fe6b",
        10.015165888034044,
    ),
    "schedule": (
        scheduled_config,
        "796fe782ef85233fb3895ee0451eabe0894d6a207913c40a115133700e5ceebe",
        10.045474468533861,
    ),
}


def stream_digest(config, count=1000):
    """sha256 of the first ``count`` serialized photons, and the clock
    after them."""
    generator = PhotonGenerator(config)
    seen = hashlib.sha256()
    for item in generator.items(count):
        seen.update(serialize(item).encode())
    return seen.hexdigest(), generator.clock


def main():
    moved = []
    for name, (config, digest, clock) in PINNED.items():
        seen = stream_digest(config())
        ok = seen == (digest, clock)
        print(f"{name:15} {seen[0][:16]} {seen[1]!r:20} {'ok' if ok else 'MOVED'}")
        if not ok:
            moved.append(name)
    print(f"Python {sys.version.split()[0]}: "
          + (f"moved: {', '.join(moved)}" if moved else "every pinned stream ok"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
