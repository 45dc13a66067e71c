"""Experiment E7 (extension) — γ sweep of the cost function.

γ weighs network traffic (γ) against peer load (1 − γ) in ``C(P)``.
The ablation registers scenario 2's workload under stream sharing for a
range of γ values and executes the result, showing the expected
trade-off direction: traffic-dominated costing (γ→1) yields the least
measured traffic; load-dominated costing (γ→0) never beats it on
traffic.
"""

import pytest

from conftest import cpu_by_peer, series_table, write_result
from repro.workload.scenarios import run_scenario, scenario_one

GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.fixture(scope="module")
def gamma_runs():
    scenario = scenario_one()
    return {
        gamma: run_scenario(scenario, "stream-sharing", gamma=gamma)
        for gamma in GAMMAS
    }


class TestGammaSweep:
    def test_all_accept(self, gamma_runs):
        for run in gamma_runs.values():
            assert not run.system.rejected_queries()

    def test_traffic_weighting_minimizes_traffic(self, gamma_runs):
        traffic = {gamma: run.metrics.total_mbit() for gamma, run in gamma_runs.items()}
        assert traffic[1.0] <= min(traffic.values()) + 1e-6

    def test_load_weighting_minimizes_peak_cpu(self, gamma_runs):
        """With γ = 0 the optimizer only sees peer load; the resulting
        peak CPU must not exceed the traffic-only plan's peak."""
        def peak(run):
            return max(cpu_by_peer(run).values())

        assert peak(gamma_runs[0.0]) <= peak(gamma_runs[1.0]) * 1.25

    def test_sweep_stays_reasonable(self, gamma_runs):
        """Every γ still beats data shipping's traffic by a wide margin
        (sharing decisions dominate the γ fine-tuning)."""
        shipping = run_scenario(scenario_one(), "data-shipping")
        for run in gamma_runs.values():
            assert run.metrics.total_mbit() < shipping.metrics.total_mbit() / 2

    def test_write_report(self, gamma_runs):
        series = {
            f"gamma={gamma}": {
                "total MBit": run.metrics.total_mbit(),
                "peak CPU %": max(cpu_by_peer(run).values()),
            }
            for gamma, run in gamma_runs.items()
        }
        write_result(
            "ablation_gamma.txt",
            series_table("Metric", "scenario 1, stream sharing", series, precision=2),
        )
