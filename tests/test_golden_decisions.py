"""Golden snapshot of the scenario-1 optimizer decisions.

Pins, per query, which stream Algorithm 1 reuses and where the
compensation operators run.  Any refactoring of matching, costing, or
search that silently changes a decision trips this test — an
intentional behavioral change should update the table *and* explain
itself in the commit that does so.

The snapshot is deterministic: the workload, statistics sample, and
search tie-breaking are all seeded.
"""

from repro.workload.scenarios import run_scenario, scenario_one

#: (query, reused stream, operator placement node).  Reuse clusters:
#: Q002 (a popular vela-region selection) feeds seven later queries,
#: which in turn spawn second-generation reuse (Q011, Q005, Q012, ...).
GOLDEN_DECISIONS = [
    ("Q001", "photons", "SP4"),
    ("Q002", "photons", "SP4"),
    ("Q003", "Q002:photons", "SP7"),
    ("Q004", "photons", "SP4"),
    ("Q005", "Q002:photons", "SP7"),
    ("Q006", "Q002:photons", "SP7"),
    ("Q007", "photons", "SP4"),
    ("Q008", "Q002:photons", "SP4"),
    ("Q009", "photons", "SP4"),
    ("Q010", "photons", "SP4"),
    ("Q011", "Q002:photons", "SP7"),
    ("Q012", "Q002:photons", "SP4"),
    ("Q013", "photons", "SP4"),
    ("Q014", "Q011:photons", "SP7"),
    ("Q015", "Q005:photons", "SP1"),
    ("Q016", "photons", "SP4"),
    ("Q017", "Q005:photons", "SP1"),
    ("Q018", "Q003:photons", "SP7"),
    ("Q019", "photons", "SP4"),
    ("Q020", "Q012:photons", "SP0"),
    ("Q021", "photons", "SP4"),
    ("Q022", "photons", "SP4"),
    ("Q023", "Q020:photons", "SP0"),
    ("Q024", "photons", "SP4"),
    ("Q025", "Q005:photons", "SP1"),
]


def test_scenario_one_decisions_pinned():
    run = run_scenario(scenario_one(), "stream-sharing", execute=False)
    actual = [
        (r.query, r.plan.inputs[0].reused_id, r.plan.inputs[0].placement_node)
        for r in run.registrations
    ]
    assert actual == GOLDEN_DECISIONS


def test_golden_reuse_rate():
    """13 of the 25 queries share previously generated streams."""
    shared = [row for row in GOLDEN_DECISIONS if row[1] != "photons"]
    assert len(shared) == 13


def test_golden_reuse_chains_are_acyclic():
    producers = {row[0] for row in GOLDEN_DECISIONS}
    for query, reused, _ in GOLDEN_DECISIONS:
        if reused == "photons":
            continue
        producer = reused.split(":")[0]
        assert producer in producers
        assert producer < query  # only earlier registrations are reused
