"""Epoch snapshot tests, including the churn recovery transient."""

import pytest

from repro.engine.metrics import RunMetrics
from repro.network.topology import example_topology
from repro.obs import EpochSnapshot, Recorder, snapshot_delta
from repro.workload.scenarios import run_scenario, scenario_churn

from .conftest import pinned_cells


@pytest.fixture()
def net():
    return example_topology()


def _metrics(net, bits, work, generated, lost=0, rerouted=0.0, faults=0):
    m = RunMetrics(duration=10.0)
    m.add_link_bits(net.link("SP4", "SP5"), bits)
    m.add_peer_work("SP4", work)
    m.count_generated("photons", generated)
    m.items_lost = lost
    m.rerouted_traffic_bits = rerouted
    m.faults_applied = faults
    return m


class TestSnapshotDelta:
    def test_first_epoch_uses_absolute_values(self, net):
        current = _metrics(net, bits=1_000_000.0, work=500_000.0, generated=100)
        snap = snapshot_delta(0, 0.0, 5.0, current, None, net, {"select": 10})
        assert snap.link_bits == {"SP4-SP5": 1_000_000.0}
        # 1 Mbit over 5 s = 200 kbit/s.
        assert snap.link_kbps["SP4-SP5"] == pytest.approx(200.0)
        # 0.5 M units over 5 s on a 1 M units/s peer = 10 %.
        assert snap.peer_cpu_percent["SP4"] == pytest.approx(10.0)
        assert snap.items_generated == 100
        assert snap.operator_inputs == {"select": 10}

    def test_delta_against_previous_epoch(self, net):
        previous = _metrics(net, bits=1_000_000.0, work=500_000.0, generated=100)
        current = _metrics(
            net, bits=1_600_000.0, work=800_000.0, generated=150,
            lost=3, rerouted=20_000.0, faults=1,
        )
        snap = snapshot_delta(
            1, 5.0, 10.0, current, previous, net,
            {"select": 25}, {"select": 10}, inflight_items=4, inflight_peak=9,
        )
        assert snap.link_bits == {"SP4-SP5": pytest.approx(600_000.0)}
        assert snap.items_generated == 50
        assert snap.items_lost == 3
        assert snap.rerouted_traffic_bits == pytest.approx(20_000.0)
        assert snap.faults_applied == 1
        assert snap.operator_inputs == {"select": 15}
        assert snap.inflight_items == 4 and snap.inflight_peak == 9

    def test_unchanged_series_are_omitted(self, net):
        previous = _metrics(net, bits=1_000_000.0, work=500_000.0, generated=100)
        current = _metrics(net, bits=1_000_000.0, work=500_000.0, generated=100)
        snap = snapshot_delta(1, 5.0, 10.0, current, previous, net, {})
        assert snap.link_bits == {} and snap.peer_work == {}

    def test_removed_peer_capacity_still_resolves(self, net):
        current = _metrics(net, bits=0.0, work=0.0, generated=0)
        current.add_peer_work("SP5", 100_000.0)
        net.remove_super_peer("SP5")
        snap = snapshot_delta(0, 0.0, 1.0, current, None, net, {})
        assert snap.peer_cpu_percent["SP5"] > 0.0

    def test_dict_round_trip(self):
        snap = EpochSnapshot(
            index=2, t_start=5.0, t_end=10.0, wall_s=0.25,
            peer_work={"SP4": 1.0}, items_delivered=7, inflight_peak=3,
        )
        assert EpochSnapshot.from_dict(snap.to_dict()) == snap


class TestChurnTransient:
    """Satellite: the recovery transient is visible in the epoch series."""

    @pytest.fixture(scope="class")
    def churn_runs(self):
        """The same traced churn run over one cell and over two."""
        runs = []
        with pinned_cells("inline"):
            for workers in (1, 2):
                scenario = scenario_churn(
                    rows=2, cols=2, query_count=4, duration=12.0,
                    crash_peer="SP1", crash_at=4.0, rejoin_at=8.0,
                )
                recorder = Recorder()
                run = run_scenario(
                    scenario, "stream-sharing", recorder=recorder, workers=workers
                )
                runs.append((scenario, recorder, run))
        return runs

    def test_epochs_cover_the_whole_run(self, churn_runs):
        for scenario, recorder, _ in churn_runs:
            epochs = recorder.epochs
            assert epochs[0].t_start == 0.0
            assert epochs[-1].t_end == pytest.approx(scenario.duration)
            for before, after in zip(epochs, epochs[1:]):
                assert after.t_start == pytest.approx(before.t_end)

    def test_rerouted_bits_only_after_the_crash(self, churn_runs):
        for _, recorder, _ in churn_runs:
            pre_fault = [e for e in recorder.epochs if e.t_end <= 4.0]
            post_fault = [e for e in recorder.epochs if e.t_start >= 4.0]
            assert pre_fault and post_fault
            # Epochs are emitted before the boundary's fault applies, so
            # the recovery transient lands strictly in post-fault epochs.
            assert all(e.rerouted_traffic_bits == 0.0 for e in pre_fault)
            assert sum(e.rerouted_traffic_bits for e in post_fault) > 0.0

    def test_fault_epochs_are_marked(self, churn_runs):
        for _, recorder, run in churn_runs:
            assert run.metrics is not None
            assert sum(e.faults_applied for e in recorder.epochs) == 2
            assert all(
                e.faults_applied == 0 for e in recorder.epochs if e.t_end <= 4.0
            )

    def test_epoch_deltas_sum_to_run_totals(self, churn_runs):
        for _, recorder, run in churn_runs:
            metrics = run.metrics
            epochs = recorder.epochs
            assert sum(e.items_generated for e in epochs) == sum(
                metrics.items_generated.values()
            )
            assert sum(e.items_delivered for e in epochs) == sum(
                metrics.items_delivered.values()
            )
            assert sum(e.items_lost for e in epochs) == metrics.items_lost
            assert sum(e.rerouted_traffic_bits for e in epochs) == pytest.approx(
                metrics.rerouted_traffic_bits
            )
            total_bits = sum(sum(e.link_bits.values()) for e in epochs)
            assert total_bits == pytest.approx(sum(metrics.link_bits.values()))
