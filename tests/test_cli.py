"""Tests for the command-line entry points."""

import io

import pytest

from repro.workload.scenarios import SCENARIOS
from tests.conftest import PAPER_QUERIES


class TestWXQueryCli:
    def _run(self, command, text, tmp_path):
        from repro.wxquery.__main__ import main

        path = tmp_path / "query.xq"
        path.write_text(text)
        out = io.StringIO()
        code = main([command, str(path)], out=out)
        return code, out.getvalue()

    def test_check_valid(self, tmp_path):
        code, output = self._run("check", PAPER_QUERIES["Q1"], tmp_path)
        assert code == 0
        assert "OK" in output

    def test_check_invalid(self, tmp_path):
        from repro.wxquery.__main__ import main

        path = tmp_path / "bad.xq"
        path.write_text("<a>{ for $p in }</a>")
        assert main(["check", str(path)]) == 1

    def test_missing_file(self):
        from repro.wxquery.__main__ import main

        assert main(["check", "/nonexistent/query.xq"]) == 2

    def test_ast_round_trips(self, tmp_path):
        from repro.wxquery import parse_query

        code, output = self._run("ast", PAPER_QUERIES["Q2"], tmp_path)
        assert code == 0
        assert parse_query(output).body == parse_query(PAPER_QUERIES["Q2"]).body

    def test_info_lists_bindings(self, tmp_path):
        code, output = self._run("info", PAPER_QUERIES["Q4"], tmp_path)
        assert code == 0
        assert "$w: for over photons" in output
        assert "$a: let" in output
        assert "aggregate filters:" in output

    def test_props_shows_operators(self, tmp_path):
        code, output = self._run("props", PAPER_QUERIES["Q3"], tmp_path)
        assert code == 0
        assert "selection:" in output
        assert "aggregation:" in output
        assert "predicate graph edges:" in output

    def test_props_raw_stream(self, tmp_path):
        code, output = self._run(
            "props", '<r>{ for $p in stream("s")/a/b return $p }</r>', tmp_path
        )
        assert code == 0
        assert "raw" in output


class TestScenarioNames:
    """One table names the scenarios of both run-driving tools."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_name_runs_on_both_tools(self, name, tmp_path, monkeypatch, capsys):
        from repro.analysis.cli import main as analysis_main
        from repro.obs import cli as obs_cli
        from repro.obs.export import load_jsonl

        scenario = SCENARIOS[name]()
        assert scenario.queries
        assert analysis_main(
            ["--plan", "--scenario", name, "--strategy", "stream-sharing", "--quiet"]
        ) == 0
        log = tmp_path / "run.jsonl"
        assert obs_cli.main(["record", "--scenario", name, "-o", str(log)]) == 0
        assert load_jsonl(str(log)).meta["scenario"] == scenario.name
        served = []
        monkeypatch.setattr(obs_cli, "serve", lambda args: served.append(args.scenario))
        assert obs_cli.main(["serve", "--scenario", name]) == 0
        assert served == [name]
