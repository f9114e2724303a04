"""``scripts/bench_record.py``: records appended to a BENCH file.

The perfbench runs and the commit lookup are stubbed and the repo root
points at a temporary directory; what is checked is the record shape,
the quartiles and the alternation of a baseline with the checkout.
"""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "bench_record.py")


@pytest.fixture
def bench_record(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 7,
        "end_to_end": [{"name": "ops_per_s"}, {"name": "latency_p50_ms"},
                       {"name": "ok_share"}],
        "per_layer": [{"name": "runtime.compiled.busy_s"},
                      {"name": "deps.analysis.busy_s"},
                      {"name": "deps.analysis.deps_out"},
                      {"name": "core.codegen.errors"},
                      {"name": "service.run.calls"}]}))
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    monkeypatch.setattr(module, "commit_of",
                        lambda checkout: f"head of {checkout}")
    return module


def test_quartiles(bench_record):
    assert bench_record.quartiles([5.0]) == {"median": 5.0, "q1": 5.0,
                                             "q3": 5.0}
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_alternating_records_appended(bench_record, monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        assert seconds == 7.0  # BENCHMARK.json's run_seconds
        calls.append((checkout, seed, trace))
        fast = checkout == bench_record.ROOT
        return {"ops_per_s": seed * (2.0 if fast else 1.0),
                "latency_p50_ms": 10.0, "ok_share": 1.0,
                "peak_rss_mb": 50.0,
                "runtime.compiled.busy_s": 1.5 if trace else 0.0,
                "deps.analysis.busy_s": 0.0,
                "deps.analysis.deps_out": 1017.0 if trace else 0.0,
                "core.codegen.errors": 0,
                "bench.undeclared_s": 9.0}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    out = tmp_path / "BENCH_execute.json"
    out.write_text(json.dumps({"workload": "execute", "records": [{}]}))
    code = bench_record.main([
        "--workload", "execute", "--seeds", "1,2,3",
        "--baseline", "/elsewhere", "--baseline-commit", "abc"])
    assert code == 0
    assert calls == [("/elsewhere", 1, 0), (bench_record.ROOT, 1, 0),
                     (bench_record.ROOT, 2, 0), ("/elsewhere", 2, 0),
                     ("/elsewhere", 3, 0), (bench_record.ROOT, 3, 0),
                     ("/elsewhere", 1, 1), (bench_record.ROOT, 1, 1)]
    records = json.loads(out.read_text())["records"]
    assert len(records) == 3  # the earlier record is kept
    base, change = records[1:]
    assert (base["commit"], change["commit"]) == (
        "abc", f"head of {tmp_path}")
    assert base["seconds"] == change["seconds"] == 7.0
    assert base["seeds"] == change["seeds"] == [1, 2, 3]
    assert base["summary"]["ops_per_s"]["median"] == 2.0
    assert change["summary"]["ops_per_s"] == {"median": 4.0, "q1": 3.0,
                                              "q3": 5.0}
    # Every end-to-end metric BENCHMARK.json declares, and no other.
    assert set(change["summary"]) == {"ops_per_s", "latency_p50_ms",
                                      "ok_share"}
    assert change["runs"][0] == {"seed": 1, "ops_per_s": 2.0,
                                 "latency_p50_ms": 10.0, "ok_share": 1.0}
    # Every per-layer metric BENCHMARK.json declares that the traced run
    # reports, counts and zeros included; nothing undeclared.
    assert change["traced"] == {
        "seed": 1, "runtime.compiled.busy_s": 1.5,
        "deps.analysis.busy_s": 0.0, "deps.analysis.deps_out": 1017.0,
        "core.codegen.errors": 0}


def test_failed_run_writes_nothing(bench_record, monkeypatch, tmp_path):
    def failing(*args):
        raise RuntimeError("wrong answer")

    monkeypatch.setattr(bench_record, "run_perfbench", failing)
    out = tmp_path / "BENCH_execute.json"
    assert bench_record.main(["--workload", "execute", "--seeds", "1"]) == 1
    assert not out.exists()
