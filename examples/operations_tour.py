"""Operating a StreamGlobe deployment: explain, audit, export, churn.

A tour of the operational API around the optimizer:

* ``explain_registration`` — why the optimizer chose a plan;
* ``verify_deployment`` — audit the network state's invariants;
* ``deployment_to_json`` — export the state for dashboards;
* ``deregister_query`` — tear down subscriptions with reference-counted
  stream garbage collection.

Run with::

    python examples/operations_tour.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import PhotonGenerator, PhotonStreamConfig, StreamGlobe, example_topology
from repro.analysis import verify_deployment
from repro.sharing import (
    deployment_to_json,
    explain_deployment,
    explain_registration,
)

CONFIG = PhotonStreamConfig(seed=20060326, frequency=100.0)

VELA = """<photons>{ for $p in stream("photons")/photons/photon
  where $p/coord/cel/ra >= 120.0 and $p/coord/cel/ra <= 138.0
  and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0
  return <vela> { $p/coord/cel/ra } { $p/coord/cel/dec } { $p/en } { $p/det_time } </vela> }</photons>"""

RXJ = """<photons>{ for $p in stream("photons")/photons/photon
  where $p/en >= 1.3 and $p/coord/cel/ra >= 130.5 and $p/coord/cel/ra <= 135.5
  and $p/coord/cel/dec >= -48.0 and $p/coord/cel/dec <= -45.0
  return <rxj> { $p/en } { $p/det_time } </rxj> }</photons>"""


def main() -> None:
    system = StreamGlobe(example_topology(), strategy="stream-sharing")
    system.register_stream(
        "photons", "photons/photon", lambda: PhotonGenerator(CONFIG),
        frequency=100.0, source_peer="P0",
    )

    print("=== registering two subscriptions ===\n")
    for name, text, peer in [("vela", VELA, "P1"), ("rxj", RXJ, "P2")]:
        result = system.register_query(name, text, peer)
        print(explain_registration(result, system.deployment))
        print()

    print("=== deployment audit ===")
    report = verify_deployment(system.deployment)
    print("invariant violations:", "none" if report.ok else report.render())
    print()
    print(explain_deployment(system.deployment))

    print("\n=== JSON export (excerpt) ===")
    text = deployment_to_json(system.deployment)
    print("\n".join(text.splitlines()[:20]))
    print(f"... ({len(text.splitlines())} lines total)")

    print("\n=== churn: the vela subscriber leaves ===")
    removed = system.deregister_query("vela")
    print(f"removed streams: {removed or 'none (all still shared)'}")
    print("note: rxj consumed vela's stream, so the stream survives:")
    print(explain_deployment(system.deployment))

    print("\n=== and then rxj leaves too ===")
    removed = system.deregister_query("rxj")
    print(f"removed streams: {sorted(removed)}")
    print("only the original source stream remains:",
          list(system.deployment.streams))
    assert verify_deployment(system.deployment).ok


if __name__ == "__main__":
    main()
