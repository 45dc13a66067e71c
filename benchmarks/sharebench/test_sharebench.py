"""Tests of the benchmark itself (outside tier-1):

    python -m pytest benchmarks/sharebench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from calib import Calibrator  # noqa: E402
from run import MANIFEST  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Deterministic for a given seed: must repeat bit for bit.
EXACT = (
    "backbone_mbit_per_kitem",
    "peak_peer_cpu_pct",
    "traffic_vs_data_shipping",
    "items_delivered_share",
)


def test_manifest_names_the_workloads() -> None:
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/sharebench"]


def test_quick_report_prints_every_name_in_time(tmp_path: Path) -> None:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(tmp_path / "quick.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 30.0
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in MANIFEST[key]
    ]
    for name in names:
        assert NAME.match(name), name
        assert re.search(rf"(^|\s){re.escape(name)}(\s|:|$)", done.stdout, re.M), name
    report = json.loads((tmp_path / "quick.json").read_text())
    assert set(report["fingerprint"]) == {"cpu_count", "python", "platform", "git_commit"}
    for name, entry in report["workloads"].items():
        assert entry["failed_ops_share"] == 0, (name, entry["failures"])
        layers = {k: v["median"] for k, v in entry["per_layer"].items()}
        parallel = [v for k, v in layers.items() if k.startswith("parallel.")]
        if name == "fig7-sharded-w2":
            assert layers["parallel.exchange_items"] > 0
        else:
            assert not any(parallel), name
        assert (layers["sharing.repairs"] > 0) == (name == "hotspots-rolling-churn")
    steady = report["workloads"]["fig7-steady"]["per_layer"]
    irregular = report["workloads"]["fig7-irregular"]["per_layer"]
    assert steady["xmlkit.encode_ratio"]["median"] == 1.0
    assert irregular["xmlkit.encode_ratio"]["median"] == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_metrics_repeat(name: str) -> None:
    def exact() -> dict:
        ctx, workload = workloads.measure(name, 3, 0.0, False, True, Calibrator())
        assert ctx.out.failed == 0, ctx.out.failures
        values = workloads.end_to_end(ctx, workload, 0.0)
        return {metric: values[metric] for metric in EXACT}

    assert exact() == exact()


def test_corrupted_pin_counts_as_failed() -> None:
    key = "fig7-steady/quick"
    assert key in workloads.PINS
    ctx, _ = workloads.measure("fig7-steady", 0, 0.0, False, True, Calibrator())
    assert ctx.out.failed == 0, ctx.out.failures
    wrong = {key: {**workloads.PINS[key], "delivered": workloads.PINS[key]["delivered"] + 1}}
    ctx, _ = workloads.measure("fig7-steady", 0, 0.0, False, True, Calibrator(), pins=wrong)
    assert ctx.out.failed > 0
    assert ctx.out.failed / ctx.out.attempted > 0
