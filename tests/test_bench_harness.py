"""The perf suites' shared ``record()`` (``benchmarks/harness.py``).

Each suite merges its sections into one ``BENCH_<name>.json``; a later
section must not clobber an earlier one, and every section carries the
provenance stamp (commit, interpreter, usable CPUs) the trend log keys on.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("harness", ROOT / "benchmarks" / "harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_record_merges_sections_with_provenance(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    harness.record("demo", "first", {"speedup": 3.5, "min_required": 3.0})
    harness.record("demo", "second", {"wall_s": 1.25})

    data = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert sorted(data) == ["first", "second"]
    assert data["first"]["speedup"] == 3.5
    assert data["second"]["wall_s"] == 1.25
    for section in data.values():
        assert sorted(section["provenance"]) == ["commit", "cpus", "python"]
        assert section["provenance"]["cpus"] >= 1
