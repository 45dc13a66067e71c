"""Experiment E9 (extension) — stream widening (paper Section 6).

The paper's announced enhancement: streams that do not contain all the
data a new query needs can be *altered* (widened) in the network and
then shared.  Findings of this ablation (scenario 1):

* **safety** — delivered results are bit-identical with and without
  widening, always;
* **the trade is γ's trade** — under the default balanced cost
  (γ = 0.5) widening buys *computational load* (compensations run on
  thinner shared streams) at the price of *traffic* (widened streams
  carry more items over their whole route); under traffic-only costing
  (γ = 1.0) widening correctly never fires and traffic is unchanged.
"""

import pytest

from conftest import registration_stats_ms, series_table, write_result
from repro.analysis import verify_deployment
from repro.workload.scenarios import run_scenario, scenario_one


@pytest.fixture(scope="module")
def baseline():
    return run_scenario(scenario_one(), "stream-sharing")


@pytest.fixture(scope="module")
def widened():
    return run_scenario(scenario_one(), "stream-sharing", enable_widening=True)


def widening_count(run):
    return sum(
        1
        for result in run.registrations
        if result.plan is not None
        and any(plan.widening is not None for plan in result.plan.inputs)
    )


def total_work(run):
    return sum(run.metrics.peer_work.values())


class TestWideningAblation:
    def test_all_queries_accepted(self, widened):
        assert not widened.system.rejected_queries()

    def test_results_bit_identical(self, baseline, widened):
        """Widening must never change what subscribers receive."""
        assert widened.metrics.items_delivered == baseline.metrics.items_delivered

    def test_widening_actually_fires(self, widened):
        assert widening_count(widened) >= 3

    def test_widened_deployment_verifies_and_tears_down_clean(self):
        """What widening rewrites (consumers, restores) verifies clean,
        and deregistering everything releases exactly what it committed."""
        system = run_scenario(
            scenario_one(), "stream-sharing", enable_widening=True, execute=False
        ).system
        deployment = system.deployment
        report = verify_deployment(deployment, catalog=system.catalog)
        assert report.ok, report.render()
        for name in list(deployment.queries):
            system.deregister_query(name)
        assert all(stream.is_original for stream in deployment.streams.values())
        usage = deployment.usage
        assert not any(usage._peer_work.values())
        assert not any(usage._link_bits.values())

    def test_widening_buys_load_with_traffic(self, baseline, widened):
        """Under γ = 0.5, widening trades traffic for computational
        load — total peer work must drop."""
        assert total_work(widened) < total_work(baseline)

    def test_traffic_only_costing_disables_the_trade(self):
        """Under γ = 1.0 the cost function only sees traffic, so the
        widening variants can never win and traffic is unchanged."""
        base = run_scenario(scenario_one(), "stream-sharing", gamma=1.0)
        wide = run_scenario(
            scenario_one(), "stream-sharing", gamma=1.0, enable_widening=True
        )
        assert wide.metrics.total_mbit() == pytest.approx(
            base.metrics.total_mbit(), rel=0.01
        )

    def test_registration_overhead_bounded(self, widened, baseline):
        widened_avg = registration_stats_ms(widened)[0]
        baseline_avg = registration_stats_ms(baseline)[0]
        assert widened_avg <= baseline_avg * 2.0

    def test_write_report(self, baseline, widened):
        series = {
            "sharing (paper)": {
                "total MBit": baseline.metrics.total_mbit(),
                "total work (M units)": total_work(baseline) / 1e6,
                "widened plans": 0.0,
            },
            "sharing + widening": {
                "total MBit": widened.metrics.total_mbit(),
                "total work (M units)": total_work(widened) / 1e6,
                "widened plans": float(widening_count(widened)),
            },
        }
        write_result(
            "ablation_widening.txt",
            series_table("Metric", "scenario 1, gamma=0.5", series),
        )
