"""``python -m repro.analysis`` exit codes and output — the CI contract."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.cli import main


def test_code_pass_exits_zero_on_clean_tree(capsys):
    assert main(["--code", "src/repro"]) == 0
    out = capsys.readouterr().out
    assert "code lint" in out
    assert out.strip().endswith("OK")


def test_code_pass_exits_nonzero_on_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        textwrap.dedent(
            """
            def f(items=[]):
                try:
                    return items == 1.0
                except:
                    pass
            """
        )
    )
    assert main(["--code", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "L301" in out and "L302" in out and "L303" in out
    assert f"{bad}:" in out  # pointed diagnostics carry file:line:col
    assert out.strip().endswith("FAIL")


def test_plan_pass_verifies_scenario_one(capsys):
    code = main(["--plan", "--scenario", "1", "--strategy", "stream-sharing"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "scenario 1" in out
    assert "clean: no violations found" in out


def test_quiet_suppresses_passing_reports(capsys):
    assert main(["--code", "src/repro", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "code lint" not in out
    assert out.strip() == "OK"


# ----------------------------------------------------------------------
# The exit-code contract (see the module docstring of repro.analysis.cli)
# ----------------------------------------------------------------------
def test_missing_code_path_exits_one_with_a_diagnostic(capsys):
    assert main(["--code", "/no/such/path"]) == 1
    out = capsys.readouterr().out
    assert "L307" in out
    assert "/no/such/path" in out
    assert "no such file or directory" in out
    assert out.strip().endswith("FAIL")


def test_python_free_code_path_exits_one(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("nothing to lint here\n")
    assert main(["--code", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "L308" in out
    assert out.strip().endswith("FAIL")


def test_unknown_strategy_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--plan", "--scenario", "1", "--strategy", "wishful-thinking"])
    assert exc.value.code == 2


def test_unknown_scenario_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["--plan", "--scenario", "99"])
    assert exc.value.code == 2


def test_flow_pass_exits_zero_on_the_paper_scenario(capsys):
    code = main(["--flow", "--scenario", "1", "--strategy", "stream-sharing"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "flow analysis: scenario 1" in out
    assert out.strip().endswith("OK")


def test_shards_pass_prints_a_parseable_plan(capsys, tmp_path):
    out_file = tmp_path / "plan.json"
    code = main(
        [
            "--shards",
            "--scenario",
            "grid",
            "--strategy",
            "stream-sharing",
            "--shard-plan-out",
            str(out_file),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    plan_lines = [l for l in out.splitlines() if l.startswith("SHARD-PLAN ")]
    assert len(plan_lines) == 1
    _tag, scenario, strategy, payload = plan_lines[0].split(" ", 3)
    assert (scenario, strategy) == ("grid", "stream-sharing")
    plan = json.loads(payload)
    assert plan["certified"]
    assert len(plan["shards"]) >= 2  # the acceptance bar
    # --shard-plan-out wrote the same certificate to disk.
    assert json.loads(out_file.read_text()) == plan


def test_churn_pass_revalidates_certificates(capsys):
    code = main(["--churn", "--strategy", "stream-sharing", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.strip() == "OK"


def test_every_pass_reads_one_registration(monkeypatch, capsys):
    """--plan --flow --shards registers each (scenario, strategy) once,
    plus scenario 1 with widening enabled for the plan pass."""
    from repro.sharing import STRATEGIES
    from repro.workload import scenarios

    register = scenarios.run_scenario
    calls = []

    def counted(scenario, strategy, **options):
        calls.append((scenario.name, strategy, options.get("enable_widening", False)))
        return register(scenario, strategy, **options)

    monkeypatch.setattr(scenarios, "run_scenario", counted)
    assert main(["--plan", "--flow", "--shards", "--quiet"]) == 0
    expected = [
        (scenario, strategy, False)
        for scenario in ("scenario-1", "scenario-2", "grid-3x3")
        for strategy in STRATEGIES
    ]
    expected.insert(3, ("scenario-1", "stream-sharing", True))
    assert calls == expected
