"""Each rate rule's point lies inside its interval (Section 3.2).

:data:`repro.costmodel.RATE_RULES` gives every operator kind a point
side (what the cost model commits) and an interval side (what the flow
pass derives).  The two must agree: given an input point inside its
input interval, a rule's output point lies inside its output interval.

Specs are drawn from the pools of :mod:`repro.workload.templates` over
the photon statistics.  An input pair is a valid pipeline prefix folded
from the source — the point rules from the catalog means, the interval
rules from :func:`~repro.costmodel.rates.source_facts` — with the point
then moved anywhere inside the prefix's interval.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.costmodel import DEFAULT_DESCRIPTIONS, RATE_RULES, UdfDescription
from repro.costmodel.rates import source_facts
from repro.predicates import PredicateGraph, graph_from_atoms, normalize_comparison
from repro.properties import (
    RESULT_NODE,
    AggregationSpec,
    ProjectionSpec,
    ReAggregationSpec,
    RestructureSpec,
    SelectionSpec,
    UdfSpec,
    WindowContentsSpec,
    WindowSpec,
)
from repro.workload.templates import (
    AGG_FUNCTIONS,
    AVG_FILTERS,
    COUNT_WINDOWS,
    ENERGY_MINS,
    OUTPUT_SETS,
    REGIONS,
    TIME_WINDOWS,
)
from repro.xmlkit import Path

ITEM = Path("photons/photon")

#: Declared descriptions the UDF rule reads: thinning, fan-out, none.
DESCRIPTIONS = (
    UdfDescription("thin", selectivity=0.25, size_factor=0.5),
    UdfDescription("fan", selectivity=3.0, size_factor=2.0),
)


@pytest.fixture(scope="module", autouse=True)
def declared_udfs():
    for description in DESCRIPTIONS:
        DEFAULT_DESCRIPTIONS.register(description)
    yield
    DEFAULT_DESCRIPTIONS._descriptions.clear()


def _atoms(path, op, value):
    return normalize_comparison(path, op, None, Fraction(str(value)))


@st.composite
def selections(draw):
    ra0, ra1, dec0, dec1 = draw(st.sampled_from(REGIONS))
    atoms = [
        *_atoms(ITEM / "coord/cel/ra", ">=", ra0),
        *_atoms(ITEM / "coord/cel/ra", "<=", ra1),
        *_atoms(ITEM / "coord/cel/dec", ">=", dec0),
        *_atoms(ITEM / "coord/cel/dec", "<=", dec1),
    ]
    energy = draw(st.sampled_from(ENERGY_MINS))
    if energy is not None:
        atoms.extend(_atoms(ITEM / "en", ">=", energy))
    return SelectionSpec(graph_from_atoms(atoms))


projections = st.sampled_from(OUTPUT_SETS).map(
    lambda outputs: ProjectionSpec(
        frozenset(ITEM / path for path in outputs), frozenset(ITEM / path for path in outputs)
    )
)


def _window(kind, size, step):
    reference = ITEM / "det_time" if kind == "diff" else None
    return WindowSpec(kind, Fraction(size), Fraction(step), reference)


windows = st.one_of(
    st.sampled_from(TIME_WINDOWS).map(lambda pair: _window("diff", *pair)),
    st.sampled_from(COUNT_WINDOWS).map(lambda pair: _window("count", *pair)),
)


def _aggregation(function, window, threshold):
    having = PredicateGraph()
    if threshold is not None:
        having = graph_from_atoms(_atoms(RESULT_NODE, ">=", threshold))
    return AggregationSpec(function, ITEM / "en", window, PredicateGraph(), having)


aggregations = st.builds(
    _aggregation, st.sampled_from(AGG_FUNCTIONS), windows, st.sampled_from(AVG_FILTERS)
)


@st.composite
def reaggregations(draw):
    pairs = [
        (reused, new)
        for kind, pool in (("diff", TIME_WINDOWS), ("count", COUNT_WINDOWS))
        for reused in pool
        for new in pool
        if _window(kind, *new).shareable_from(_window(kind, *reused))
    ]
    reused, new = draw(st.sampled_from(pairs))
    kind = "diff" if reused in TIME_WINDOWS else "count"
    function = draw(st.sampled_from(AGG_FUNCTIONS))
    threshold = draw(st.sampled_from(AVG_FILTERS))
    return ReAggregationSpec(
        _aggregation(function, _window(kind, *reused), None),
        _aggregation(function, _window(kind, *new), threshold),
    )


udfs = st.sampled_from(["thin", "fan", "undescribed"]).map(UdfSpec)

#: Per kind: the spec under test and the valid pipeline prefixes before it.
CASES = {
    "selection": (selections(), [[], [udfs]]),
    "projection": (projections, [[], [selections()], [udfs], [selections(), udfs]]),
    "window": (
        windows.map(WindowContentsSpec),
        [[], [selections()], [projections], [selections(), projections]],
    ),
    "aggregation": (aggregations, [[], [selections()], [udfs]]),
    "reaggregation": (reaggregations(), None),
    "restructure": (
        st.just(RestructureSpec("Q")),
        [[selections(), projections], [selections(), aggregations], [udfs]],
    ),
    "udf": (udfs, [[], [selections(), projections], [aggregations]]),
}


def test_every_kind_in_the_table_is_drawn():
    assert set(CASES) == set(RATE_RULES)


@st.composite
def rule_inputs(draw, kind):
    """``(spec, prefix)``: a spec of ``kind`` and the specs before it."""
    spec_strategy, prefixes = CASES[kind]
    spec = draw(spec_strategy)
    if kind == "reaggregation":
        prefix = [spec.reused] if draw(st.booleans()) else [draw(selections()), spec.reused]
        return spec, prefix
    return spec, [draw(strategy) for strategy in draw(st.sampled_from(prefixes))]


def _inside(interval, fraction, fallback):
    """A value of ``interval`` (``fallback`` scaled, when unbounded)."""
    if interval.hi == float("inf"):
        return fallback * 4.0 * fraction
    return interval.lo + (interval.hi - interval.lo) * fraction


@pytest.mark.parametrize("kind", sorted(RATE_RULES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rule_point_lies_inside_its_interval(photon_stats, kind, data):
    spec, prefix = data.draw(rule_inputs(kind))
    stats = photon_stats
    size, frequency = stats.avg_item_size, stats.frequency
    facts = source_facts(stats)
    assert facts.frequency.contains(frequency) and facts.item_size.contains(size)
    for stage in prefix:
        rule = RATE_RULES[stage.kind]
        size, frequency = (
            rule.size(stage, size, frequency, stats),
            rule.frequency(stage, frequency, stats),
        )
        facts = rule.interval(stage, facts, stats)
    unit = st.floats(min_value=0.0, max_value=1.0)
    frequency = _inside(facts.frequency, data.draw(unit), frequency)
    size = _inside(facts.item_size, data.draw(unit), size)

    rule = RATE_RULES[kind]
    out = rule.interval(spec, facts, stats)
    out_frequency = rule.frequency(spec, frequency, stats)
    out_size = rule.size(spec, size, frequency, stats)
    assert out.frequency.contains(out_frequency), (spec, frequency, out)
    assert out.item_size.contains(out_size), (spec, size, out)
