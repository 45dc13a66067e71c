"""What registration reads off a text and a sample, checked on any interpreter.

Registration tokenizes each subscription text and prices its plans from
the statistics catalog (Section 3.2): the statistics of each source's
sample, each projection's measured ``projected_size`` and each
selection's ``selectivity``.  Those must stay the same on every Python
the package supports (``requires-python``), so this script needs
nothing but the package and the standard library::

    PYTHONPATH=src python tests/registration_digests.py

For every benchmark scenario — the ``--scenario`` table of
``python -m repro.analysis`` and the scenarios of the sharebench
workloads — it prints one line of four digests (the token stream of
every query text, the catalog of every source, the projected sizes and
the selectivities of every query's projections and selections) and
exits 1 if any moved.  ``tests/test_prop_lexer.py`` and
``tests/test_prop_estimation.py`` check the same under the suite's
interpreter against the tree and character-scanner references.
"""

import hashlib
import sys

from repro.properties import ProjectionSpec, SelectionSpec, extract_properties
from repro.sharing import StreamGlobe
from repro.workload import scenario_churn_hotspots, scenario_grid
from repro.workload.scenarios import SCENARIOS
from repro.wxquery import parse_query, tokenize

#: The scenarios of the sharebench workloads ``fig7-*`` (scenario "2"),
#: ``grid-register-800`` and ``hotspots-rolling-churn``.
BENCHMARK_SCENARIOS = {
    **SCENARIOS,
    "grid-800": lambda: scenario_grid(4, 4, 800),
    "hotspots": lambda: scenario_churn_hotspots(rows=3, cols=4, query_count=48),
}

#: name -> sha256 prefixes of (tokens, catalog, projected sizes, selectivities).
PINNED = {
    "1": (
        "d2f91ce8ea681a8f",
        "d047b7c7bc5001e3",
        "e37002c79e5d83a8",
        "555705cccc96b06b",
    ),
    "2": (
        "efb28604acf1f574",
        "74f0f2a63aef55f2",
        "267815922d00fc92",
        "f5efd9e2ae084fe1",
    ),
    "grid": (
        "ef51af508866abce",
        "e9a90af154d4f5b9",
        "0cf893b2c6d963d0",
        "96058cb77115239d",
    ),
    "churn": (
        "d46033b5a6e8f0c7",
        "e6c1d53cbeca7ce5",
        "b02862f8ef10625a",
        "bb24517db8353fd8",
    ),
    "churn-smoke": (
        "0bb16ccedb304bb7",
        "e6c1d53cbeca7ce5",
        "40145e6c404aa517",
        "f765d68a313e0ae9",
    ),
    "grid-800": (
        "292f2a6787e85ca7",
        "e9a90af154d4f5b9",
        "e3f5663c9b5c645e",
        "b909023b63455411",
    ),
    "hotspots": (
        "d3b5f902b5fc69e0",
        "b39e26e76c5f0c93",
        "28c1e9c52fedca39",
        "d2ea87b06523f846",
    ),
}


def _digest(lines):
    seen = hashlib.sha256()
    for line in lines:
        seen.update(line.encode("utf-8") + b"\n")
    return seen.hexdigest()[:16]


def scenario_digests(scenario):
    """The four digests of one scenario, its sources registered on a
    fresh system the way a benchmark registers them."""
    system = StreamGlobe(scenario.build_network())
    for source in scenario.sources:
        system.register_stream(
            source.name,
            "photons/photon",
            source.generator_factory(),
            frequency=source.frequency,
            source_peer=source.source_peer,
        )
    tokens, catalog, sizes, selectivities = [], [], [], []
    for name in sorted(system.sources):
        stats = system.catalog.for_stream(name)
        catalog.append(f"{name} {stats.avg_item_size!r}")
        catalog.extend(f"{path} {entry!r}" for path, entry in stats.paths.items())
    for query in scenario.queries:
        tokens.extend(repr(token) for token in tokenize(query.text))
        properties = extract_properties(parse_query(query.text), query.name)
        for stream in properties.inputs:
            stats = system.catalog.for_stream(stream.stream)
            for spec in stream.operators:
                if isinstance(spec, ProjectionSpec):
                    outputs = sorted(spec.output_elements)
                    sizes.append(f"{outputs} {stats.projected_size(outputs)!r}")
                elif isinstance(spec, SelectionSpec):
                    selectivities.append(f"{spec.graph!r} {stats.selectivity(spec.graph)!r}")
    return tuple(map(_digest, (tokens, catalog, sizes, selectivities)))


def main():
    moved = []
    for name, build in BENCHMARK_SCENARIOS.items():
        seen = scenario_digests(build())
        ok = seen == PINNED.get(name)
        print(f"{name:12} {' '.join(seen)} {'ok' if ok else 'MOVED'}")
        if not ok:
            moved.append(name)
    print(f"Python {sys.version.split()[0]}: "
          + (f"moved: {', '.join(moved)}" if moved else "every pinned scenario ok"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
