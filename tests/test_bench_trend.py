"""The benchmark trend gate (``tools/bench_trend.py``).

The churn-storm rows of ``BENCH_control_plane.json`` carry exact message
and install counts next to their wall times.  Counts are deterministic,
so the gate holds them equal to the committed baseline and fails on any
difference even when floor checks are advisory.  The gate finds its
files from the baselines: a baseline without a fresh copy in the current
directory fails it, and only ``BENCH_PERF_NONBLOCKING=1`` softens floors.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_trend", ROOT / "tools" / "bench_trend.py")
bench_trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trend)

BASELINE = json.loads((ROOT / "benchmarks" / "baselines" / "BENCH_control_plane.json").read_text())


def _gate(tmp_path, monkeypatch, fresh: dict | None, env: str) -> int:
    """Run the gate from ``tmp_path`` against the control-plane baseline.

    ``fresh=None`` leaves the fresh file absent.  Each fresh section gets
    the provenance stamp the suites record, which the gate must ignore.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "BENCH_control_plane.json").write_text(json.dumps(BASELINE))
    if fresh is not None:
        for section in fresh.values():
            section["provenance"] = {"commit": "0" * 40, "python": "3.11.0", "cpus": 1}
        (tmp_path / "BENCH_control_plane.json").write_text(json.dumps(fresh))
    monkeypatch.setenv("BENCH_PERF_NONBLOCKING", env)
    return bench_trend.main(["--baseline-dir", "base"])


def _fresh() -> dict:
    return json.loads(json.dumps(BASELINE))


def test_wall_time_drift_is_not_a_mismatch(tmp_path, monkeypatch):
    fresh = _fresh()
    for row in fresh["bgp_churn_storms"]["rows"]:
        row["wall_ms"] *= 3
    assert _gate(tmp_path, monkeypatch, fresh, env="0") == 0


@pytest.mark.parametrize("key", ["events", "updates", "imported", "removed", "withdrawn"])
def test_count_mismatch_blocks_even_when_nonblocking(tmp_path, monkeypatch, capsys, key):
    fresh = _fresh()
    fresh["bgp_churn_storms"]["rows"][0][key] += 1
    assert _gate(tmp_path, monkeypatch, fresh, env="1") == 1
    assert f".{key}:" in capsys.readouterr().out


def test_missing_storm_row_blocks(tmp_path, monkeypatch):
    fresh = _fresh()
    fresh["bgp_churn_storms"]["rows"].pop()
    assert _gate(tmp_path, monkeypatch, fresh, env="1") == 1


def test_missing_fresh_file_blocks(tmp_path, monkeypatch, capsys):
    assert _gate(tmp_path, monkeypatch, None, env="0") == 1
    assert "BENCH_control_plane.json: MISSING" in capsys.readouterr().out


def test_nonblocking_other_than_1_is_strict(tmp_path, monkeypatch, capsys):
    fresh = _fresh()
    section = fresh["converge_backbone"]
    section["speedup"] = section["min_required"] / 2
    assert _gate(tmp_path, monkeypatch, fresh, env="true") == 1
    assert "FLOOR-REGRESSION" in capsys.readouterr().out
