"""``python -m repro.analysis`` exit codes and output — the CI contract."""

from __future__ import annotations

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


def test_shards_is_an_unknown_flag(capsys):
    """The shard certifier is gone: its flags are usage errors."""
    for flags in (["--shards"], ["--plan", "--shard-plan-out", "plan.json"]):
        with pytest.raises(SystemExit) as exc:
            main(flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_churn_pass_reruns_plan_and_flow(capsys):
    code = main(["--churn", "--strategy", "stream-sharing"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.strip().endswith("OK")
    titles = [line for line in out.splitlines() if line.startswith("==")]
    assert titles and len(titles) % 2 == 0
    assert all("flow churn verification" in line for line in titles[1::2])
    assert not any("flow" in line for line in titles[::2])


def test_every_pass_reads_one_registration(monkeypatch, capsys):
    """--plan --flow registers each (scenario, strategy) once, stream
    sharing also with widening enabled."""
    from repro.sharing import STRATEGIES
    from repro.workload import scenarios

    register = scenarios.run_scenario
    calls = []

    def counted(scenario, strategy, **options):
        calls.append((scenario.name, strategy, options.get("enable_widening", False)))
        return register(scenario, strategy, **options)

    monkeypatch.setattr(scenarios, "run_scenario", counted)
    assert main(["--plan", "--flow", "--quiet"]) == 0
    expected = [
        (scenario, strategy, widening)
        for scenario in ("scenario-1", "scenario-2", "grid-3x3")
        for strategy in STRATEGIES
        for widening in ((False, True) if strategy == "stream-sharing" else (False,))
    ]
    assert calls == expected
