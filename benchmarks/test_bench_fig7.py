"""Experiment E3/E4 — Figure 7: 4×4 grid scenario.

16 super-peers, 2 data streams, 100 template queries.  Reproduced
claims (Section 4):

* stream sharing significantly reduces network traffic at single peers
  and overall in the network;
* query shipping already reduces traffic via early filtering but still
  transmits one stream per query;
* CPU load comparable across approaches on most peers, except the
  query-shipping peaks at the two stream source nodes.
"""

from conftest import (
    accumulated_mbit_by_peer,
    accumulated_traffic_report,
    cpu_by_peer,
    cpu_report,
    write_result,
)

SOURCES = ("SP0", "SP15")


class TestFigure7Shapes:
    def test_query_shipping_peaks_at_both_sources(self, scenario2_runs):
        cpu = cpu_by_peer(scenario2_runs["query-shipping"])
        ranked = sorted(cpu, key=cpu.get, reverse=True)
        assert set(ranked[:2]) == set(SOURCES)

    def test_total_traffic_ordering(self, scenario2_runs):
        totals = {s: r.metrics.total_mbit() for s, r in scenario2_runs.items()}
        assert totals["stream-sharing"] < totals["query-shipping"] < totals["data-shipping"]
        assert totals["data-shipping"] > 10 * totals["stream-sharing"]

    def test_sharing_reduces_traffic_at_single_peers(self, scenario2_runs):
        """Per-peer accumulated traffic: sharing ≤ data shipping
        everywhere, and strictly better on most peers."""
        sharing = accumulated_mbit_by_peer(scenario2_runs["stream-sharing"])
        shipping = accumulated_mbit_by_peer(scenario2_runs["data-shipping"])
        strictly_better = 0
        for peer, mbit in sharing.items():
            assert mbit <= shipping[peer] + 1.0
            if mbit < shipping[peer] * 0.5:
                strictly_better += 1
        assert strictly_better >= 10

    def test_sharing_beats_query_shipping_overall(self, scenario2_runs):
        sharing = scenario2_runs["stream-sharing"].metrics.total_mbit()
        shipping = scenario2_runs["query-shipping"].metrics.total_mbit()
        assert sharing < shipping

    def test_cpu_comparable_on_non_source_peers(self, scenario2_runs):
        """'CPU load is comparable to the other approaches on most peers
        in this scenario' — sharing never exceeds data shipping's load
        by more than a small factor off-source."""
        sharing = cpu_by_peer(scenario2_runs["stream-sharing"])
        shipping = cpu_by_peer(scenario2_runs["data-shipping"])
        for peer in sharing:
            if peer in SOURCES:
                continue
            assert sharing[peer] <= max(shipping[peer] * 1.5, 2.0)

    def test_deliveries_identical(self, scenario2_runs):
        reference = scenario2_runs["data-shipping"].metrics.items_delivered
        for run in scenario2_runs.values():
            assert run.metrics.items_delivered == reference

    def test_write_report(self, scenario2_runs):
        write_result(
            "fig7.txt",
            cpu_report(scenario2_runs)
            + "\n\n"
            + accumulated_traffic_report(scenario2_runs),
        )
