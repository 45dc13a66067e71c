"""Tests for the command-line entry points."""

import io

import pytest

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


class TestBenchCli:
    def test_rejection_command_runs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["rejection"]) == 0
        output = capsys.readouterr().out
        assert "Stream Sharing" in output
        assert "Rejected" in output

    def test_table1_command_runs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Query registration times" in output

    def test_caches_command_runs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["caches"]) == 0
        output = capsys.readouterr().out
        assert "Cache hit rate" in output
        assert "Planner phase wall time" in output

    def test_unknown_experiment_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure99"])
