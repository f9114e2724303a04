"""Tests for the observability layer (repro.obs) and its wiring.

Covers the ISSUE-2 checklist: span nesting/ordering, histogram
bucketing, JSON-lines schema round-trip, the ``profile`` CLI emitting
valid JSON, and the guard that a disabled tracer adds no spans and no
metrics state to the instrumented pipeline.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.deps import depset
from repro.deps.analysis import analyze
from repro.ir import parse_nest
from repro.obs.metrics import Metrics, bucket_key
from repro.obs.trace import Tracer
from repro.optimize.search import SearchConfig, search

MATMUL = """
do i = 1, n
  do j = 1, n
    do k = 1, n
      A(i, j) += B(i, k) * C(k, j)
    enddo
  enddo
enddo
"""


@pytest.fixture
def matmul_file(tmp_path):
    path = tmp_path / "matmul.loop"
    path.write_text(MATMUL)
    return str(path)


@pytest.fixture
def clean_obs():
    """Guarantee the global switch is off and registry empty afterwards."""
    obs.disable()
    obs.get_metrics().clear()
    yield
    obs.disable()
    obs.get_metrics().clear()


class TestTracer:
    def test_nesting_and_ordering(self, clean_obs):
        tracer = obs.enable()
        with obs.span("outer", kind="test"):
            with obs.span("inner.a"):
                pass
            with obs.span("inner.b") as sp:
                sp.tag(extra=1)
        spans = tracer.spans()
        # Completion order: children close before their parent.
        assert [s.name for s in spans] == ["inner.a", "inner.b", "outer"]
        outer = spans[2]
        assert outer.parent_id is None and outer.depth == 0
        for child in spans[:2]:
            assert child.parent_id == outer.span_id
            assert child.depth == 1
        assert spans[1].tags == {"extra": 1}
        # Start timestamps reconstruct open order.
        assert outer.start <= spans[0].start <= spans[1].start
        assert outer.wall >= 0 and outer.cpu >= 0

    def test_exception_closes_and_marks_span(self, clean_obs):
        tracer = obs.enable()
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        (sp,) = tracer.spans()
        assert sp.error == "ValueError"
        # The stack unwound: a new span is again top-level.
        with obs.span("after"):
            pass
        assert tracer.spans()[-1].parent_id is None

    def test_ring_buffer_bounds_memory(self, clean_obs):
        tracer = Tracer(ring_size=4)
        for k in range(10):
            with tracer.span(f"s{k}"):
                pass
        assert len(tracer.spans()) == 4
        assert tracer.completed == 10
        assert tracer.dropped == 6
        assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_disabled_span_is_shared_noop(self, clean_obs):
        sp = obs.span("anything", tag=1)
        assert sp is obs.NULL_SPAN
        with sp as inner:
            inner.tag(more=2)  # must not raise or record


class TestMetrics:
    def test_counter_and_gauge(self):
        m = Metrics()
        m.counter("c").inc()
        m.counter("c").inc(5)
        m.gauge("g").set(7)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 6}
        assert snap["gauges"] == {"g": 7}
        with pytest.raises(ValueError):
            m.counter("c").inc(-1)

    def test_kind_collision_rejected(self):
        m = Metrics()
        m.counter("x")
        with pytest.raises(ValueError):
            m.gauge("x")

    def test_histogram_bucketing(self):
        # Power-of-two upper bounds; exact powers sit in their own bucket.
        assert bucket_key(1) == "1"
        assert bucket_key(2) == "2"
        assert bucket_key(3) == "4"
        assert bucket_key(4) == "4"
        assert bucket_key(5) == "8"
        assert bucket_key(1000) == "1024"
        assert bucket_key(0) == "<=0"
        assert bucket_key(-3) == "<=0"
        assert bucket_key(0.3) == "0.5"
        m = Metrics()
        h = m.histogram("h")
        for v in (1, 2, 3, 4, 5, 0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 6 and d["sum"] == 15
        assert d["min"] == 0 and d["max"] == 5
        assert d["buckets"] == {"1": 1, "2": 1, "4": 2, "8": 1, "<=0": 1}


class TestJsonlRoundTrip:
    def test_schema_and_reconstruction(self, clean_obs, tmp_path):
        tracer = obs.enable()
        with obs.span("parent", n=3):
            with obs.span("child"):
                pass
        path = str(tmp_path / "trace.jsonl")
        assert tracer.export_jsonl(path) == 2
        records = obs.load_trace(path)
        assert len(records) == 2
        for rec in records:
            assert set(rec) == {"name", "id", "parent", "depth", "start",
                                "wall", "cpu", "tags", "error"}
        by_name = {r["name"]: r for r in records}
        assert by_name["child"]["parent"] == by_name["parent"]["id"]
        assert by_name["parent"]["tags"] == {"n": 3}
        # The on-disk records agree with the in-memory dicts.
        assert records == tracer.to_dicts()


class TestInstrumentedPipeline:
    def _pipeline(self):
        nest = parse_nest(MATMUL)
        deps = analyze(nest)
        return search(nest, deps)

    def test_disabled_tracer_adds_no_state(self, clean_obs):
        """The guard: tracer off => no spans anywhere, no metrics names
        registered, and search results still carry cache stats."""
        assert not obs.enabled()
        result = self._pipeline()
        assert obs.get_tracer() is None
        assert obs.get_metrics().is_empty()
        # The satellite API works regardless of the obs switch.
        assert result.cache_stats is not None
        assert result.cache_stats["misses"] > 0

    def test_enabled_pipeline_records_phases(self, clean_obs):
        tracer = obs.enable()
        result = self._pipeline()
        names = {s.name for s in tracer.spans()}
        assert {"search", "search.level", "search.candidate",
                "deps.analyze", "legality.map_deps",
                "legality.bounds"} <= names
        snap = obs.get_metrics().snapshot()
        assert snap["counters"]["search.explored"] == result.explored
        assert snap["counters"]["search.legal"] == result.legal_count
        assert (snap["gauges"]["legality_cache.misses"] ==
                result.cache_stats["misses"])
        assert snap["histograms"]["search.score"]["count"] > 0
        # Per-phase aggregation covers every recorded name.
        phases = obs.aggregate_phases(tracer)
        assert {p["phase"] for p in phases} == names
        assert phases == sorted(phases, key=lambda p: -p["wall_s"])

    def test_search_cache_stats_with_supplied_cache(self, clean_obs):
        from repro.core.legality_cache import LegalityCache
        nest = parse_nest(MATMUL)
        deps = depset((0, 0, "+"))
        cache = LegalityCache()
        first = search(nest, deps, config=SearchConfig(cache=cache))
        second = search(nest, deps, config=SearchConfig(cache=cache))
        # Cumulative: the reused cache turns repeat queries into hits.
        assert second.cache_stats["hits"] > first.cache_stats["hits"]


class TestProfileCli:
    def test_profile_emits_valid_json(self, clean_obs, matmul_file,
                                      capsys, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        assert main(["profile", matmul_file, "--size", "8",
                     "--trace-json", trace_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"phases", "metrics", "spans", "search", "run",
                "cachesim", "input"} <= set(doc)
        phase_names = {p["phase"] for p in doc["phases"]}
        assert {"search", "deps.analyze", "legality.map_deps",
                "compiled.run"} <= phase_names
        assert doc["run"]["legal"] is True
        assert doc["cachesim"]["accesses"] > 0
        # --trace-json: parseable JSON lines, with the same phases.
        records = obs.load_trace(trace_path)
        assert records and {"search", "compiled.run"} <= \
            {r["name"] for r in records}
        # The command cleaned up after itself.
        assert not obs.enabled()

    def test_profile_with_steps_and_no_search(self, clean_obs, matmul_file,
                                              capsys):
        assert main(["profile", matmul_file, "--no-search",
                     "--steps", "interchange(1,2)", "--size", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["search"] is None
        assert "ReversePermute" in doc["run"]["sequence"]
        assert doc["run"]["iterations"] == 6 ** 3

    def test_profile_flag_on_ordinary_command(self, clean_obs, matmul_file,
                                              capsys):
        assert main(["legality", matmul_file, "--profile",
                     "--steps", "interchange(1,2)"]) == 0
        captured = capsys.readouterr()
        assert "legal: True" in captured.out
        assert "phase" in captured.err and "legality.map_deps" in captured.err
        assert not obs.enabled()
