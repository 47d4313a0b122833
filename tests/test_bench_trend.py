"""The benchmark trend gate's exact-count rule (``tools/bench_trend.py``).

The churn-storm rows of ``BENCH_control_plane.json`` carry exact message
and install counts next to their wall times.  Counts are deterministic,
so the gate holds them equal to the committed baseline and fails on any
difference even when floor checks are advisory.
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


def _gate(tmp_path, fresh: dict, monkeypatch, nonblocking: bool) -> int:
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "BENCH_control_plane.json").write_text(json.dumps(BASELINE))
    path = tmp_path / "BENCH_control_plane.json"
    path.write_text(json.dumps(fresh))
    monkeypatch.setenv("BENCH_PERF_NONBLOCKING", "1" if nonblocking else "0")
    return bench_trend.main([str(path), "--baseline-dir", str(tmp_path / "base")])


def test_committed_rows_match_their_baseline(tmp_path, monkeypatch):
    committed = json.loads((ROOT / "BENCH_control_plane.json").read_text())
    assert _gate(tmp_path, committed, monkeypatch, nonblocking=True) == 0


def test_wall_time_drift_is_not_a_mismatch(tmp_path, monkeypatch):
    fresh = json.loads(json.dumps(BASELINE))
    for row in fresh["bgp_churn_storms"]["rows"]:
        row["wall_ms"] *= 3
    assert _gate(tmp_path, fresh, monkeypatch, nonblocking=False) == 0


@pytest.mark.parametrize("key", ["events", "updates", "imported", "removed", "withdrawn"])
def test_count_mismatch_blocks_even_when_nonblocking(tmp_path, monkeypatch, capsys, key):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["bgp_churn_storms"]["rows"][0][key] += 1
    assert _gate(tmp_path, fresh, monkeypatch, nonblocking=True) == 1
    assert f".{key}:" in capsys.readouterr().out


def test_missing_storm_row_blocks(tmp_path, monkeypatch):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["bgp_churn_storms"]["rows"].pop()
    assert _gate(tmp_path, fresh, monkeypatch, nonblocking=True) == 1
