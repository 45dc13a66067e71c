"""CLI tests: ``python -m repro.obs record|summarize|diff|chrome``."""

import json
import re

import pytest

from repro.obs import chrome_trace, load_jsonl
from repro.obs.cli import main

from .conftest import pinned_cells


@pytest.fixture(scope="module")
def run_log_path(tmp_path_factory):
    """One recorded churn-smoke run, shared by the read-only commands."""
    path = tmp_path_factory.mktemp("obs") / "run.jsonl"
    exit_code = main(
        ["record", "--scenario", "churn-smoke", "-o", str(path)]
    )
    assert exit_code == 0
    return str(path)


class TestNotARunLog:
    @pytest.mark.parametrize("command", ["summarize", "diff", "chrome"])
    def test_one_line_and_exit_2(self, command, run_log_path, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        other.write_text('{"type": "counter", "name": "x", "value": 1}\n')
        paths = [run_log_path, str(other)] if command == "diff" else [str(other)]
        assert main([command, *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{other}:1: not a repro.obs/1 run log " \
            "(the first record must be its meta header)\n"


class TestRecord:
    def test_record_writes_all_artifacts(self, tmp_path, capsys, inline_cells):
        for workers in ("1", "2"):
            out = tmp_path / f"run{workers}.jsonl"
            prom = tmp_path / f"metrics{workers}.txt"
            code = main(
                [
                    "record", "--scenario", "churn-smoke", "--workers", workers,
                    "-o", str(out), "--prom", str(prom),
                ]
            )
            assert code == 0
            assert out.exists() and prom.exists()
            assert prom.read_text().startswith("# TYPE repro_")
            assert "spans" in capsys.readouterr().out

    def test_unknown_scenario_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["record", "--scenario", "nope", "-o", str(tmp_path / "x.jsonl")])


class TestSummarize:
    def test_prints_every_section(self, run_log_path, tmp_path, capsys, inline_cells):
        """The log of a one-cell run and of a two-cell run."""
        sharded = str(tmp_path / "sharded.jsonl")
        recorded = main(
            ["record", "--scenario", "churn-smoke", "--workers", "2", "-o", sharded]
        )
        assert recorded == 0
        capsys.readouterr()
        for path in (run_log_path, sharded):
            assert main(["summarize", path]) == 0
            out = capsys.readouterr().out
            # The acceptance-criterion surface: per-epoch peer CPU / link
            # traffic series, planner span timings, and cache hit rates.
            assert "Per-epoch peer CPU load" in out
            assert "Per-epoch link traffic" in out
            assert "Per-epoch item flow and churn transients" in out
            assert "planner span timings" in out
            assert "register" in out and "search" in out
            assert "cache.route" in out and "hit_rate" in out
            assert "== plan decisions ==" in out
            assert "== repairs ==" in out

    def test_churn_columns_present(self, run_log_path, capsys):
        main(["summarize", run_log_path])
        out = capsys.readouterr().out
        assert "rerouted_bits" in out and "faults" in out


class TestDiff:
    def test_self_diff_reports_identical_counters(self, run_log_path, capsys):
        assert main(["diff", run_log_path, run_log_path]) == 0
        out = capsys.readouterr().out
        assert "(identical)" in out
        assert "Epoch aggregates:" in out

    def test_diff_shows_changed_counters(self, run_log_path, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        with open(run_log_path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        for record in lines:
            if record.get("type") == "counter" and record["name"] == "exec.runs":
                record["value"] += 1
        with open(other, "w", encoding="utf-8") as handle:
            for record in lines:
                handle.write(json.dumps(record) + "\n")
        main(["diff", run_log_path, str(other)])
        out = capsys.readouterr().out
        assert "exec.runs" in out


class TestChromeCommand:
    def test_converts_run_log(self, run_log_path, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["chrome", run_log_path, "-o", str(out)]) == 0
        with open(out, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert {"X", "C"} <= phases


class TestShardedRunLog:
    """A traced multi-cell run logs the one-cell run's epoch series."""

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("sharded")
        paths = []
        with pinned_cells("inline"):
            for workers in ("1", "2"):
                path = str(directory / f"run{workers}.jsonl")
                code = main(
                    ["record", "--scenario", "churn-smoke", "--workers", workers,
                     "-o", path]
                )
                assert code == 0
                paths.append(path)
        return paths

    def test_one_series_on_the_one_cell_boundaries(self, logs):
        one, two = (load_jsonl(path) for path in logs)
        assert two.meta["workers"] == 2
        assert [(e.index, e.t_start, e.t_end) for e in two.epochs] == [
            (e.index, e.t_start, e.t_end) for e in one.epochs
        ]
        assert [e.items_generated for e in two.epochs] == [
            e.items_generated for e in one.epochs
        ]
        assert sum(e.items_delivered for e in two.epochs) == sum(
            e.items_delivered for e in one.epochs
        )

    def test_summarize_prints_each_epoch_once(self, logs, capsys):
        assert main(["summarize", logs[1]]) == 0
        out = capsys.readouterr().out
        table = out.split("Per-epoch item flow and churn transients:\n")[1]
        rows = table.split("\n\n")[0].splitlines()[2:]
        indices = [int(row.split()[0]) for row in rows]
        assert indices == list(range(len(load_jsonl(logs[0]).epochs)))

    def test_diff_reads_equal_epochs(self, logs, capsys):
        assert main(["diff", *logs]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^\s*epochs\s+(\d+)\s+\1\s+0$", out, re.MULTILINE)

    def test_one_cpu_counter_per_epoch(self, logs):
        one, two = (load_jsonl(path) for path in logs)
        cpu = [
            event["args"]["value"]
            for event in chrome_trace(two)["traceEvents"]
            if event["name"] == "data-plane CPU (%)"
        ]
        assert len(cpu) == len(one.epochs)
        assert cpu == [round(e.total_cpu_percent(), 3) for e in two.epochs]
