"""Experiment E1/E2 — Figure 6: extended example scenario.

8 super-peers, 1 data stream, 25 template queries.  Reproduced claims
(Section 4):

* query shipping causes a massive CPU peak at the stream source SP4;
* data shipping causes much more network traffic, and relatively high
  CPU over the whole range of super-peers (forwarding);
* stream sharing distributes load better than query shipping, causes
  less overall CPU than data shipping, and greatly reduces traffic.
"""

from conftest import (
    cpu_by_peer,
    cpu_report,
    traffic_by_link_kbps,
    traffic_report,
    write_result,
)

SOURCE_PEER = "SP4"


class TestFigure6Shapes:
    def test_query_shipping_cpu_peak_at_source(self, scenario1_runs):
        cpu = cpu_by_peer(scenario1_runs["query-shipping"])
        peak = max(cpu, key=cpu.get)
        others = [v for k, v in cpu.items() if k != SOURCE_PEER]
        assert peak == SOURCE_PEER
        assert cpu[SOURCE_PEER] > 4 * max(others)

    def test_data_shipping_spreads_cpu(self, scenario1_runs):
        """Forwarding the full stream loads most peers noticeably."""
        cpu = cpu_by_peer(scenario1_runs["data-shipping"])
        loaded = [v for v in cpu.values() if v > 0.5]
        assert len(loaded) >= 5

    def test_stream_sharing_source_peak_below_query_shipping(self, scenario1_runs):
        sharing = cpu_by_peer(scenario1_runs["stream-sharing"])[SOURCE_PEER]
        shipping = cpu_by_peer(scenario1_runs["query-shipping"])[SOURCE_PEER]
        assert sharing < shipping

    def test_traffic_ordering(self, scenario1_runs):
        totals = {s: r.metrics.total_mbit() for s, r in scenario1_runs.items()}
        assert totals["stream-sharing"] < totals["query-shipping"]
        assert totals["query-shipping"] < totals["data-shipping"]
        # Data shipping floods: the paper shows roughly an order of
        # magnitude over the optimized strategies.
        assert totals["data-shipping"] > 5 * totals["stream-sharing"]

    def test_per_link_sharing_never_dramatically_worse(self, scenario1_runs):
        """Stream sharing's per-connection traffic stays below data
        shipping on every connection."""
        sharing = traffic_by_link_kbps(scenario1_runs["stream-sharing"])
        shipping = traffic_by_link_kbps(scenario1_runs["data-shipping"])
        for link, kbps in sharing.items():
            assert kbps <= shipping[link] + 100.0

    def test_all_queries_accepted(self, scenario1_runs):
        for run in scenario1_runs.values():
            assert not run.system.rejected_queries()

    def test_deliveries_identical(self, scenario1_runs):
        reference = scenario1_runs["data-shipping"].metrics.items_delivered
        for run in scenario1_runs.values():
            assert run.metrics.items_delivered == reference

    def test_write_report(self, scenario1_runs):
        write_result(
            "fig6.txt",
            cpu_report(scenario1_runs) + "\n\n" + traffic_report(scenario1_runs),
        )
