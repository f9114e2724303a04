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
        assert {"ir.parse", "search", "search.level", "search.candidate",
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

    def test_self_times_sum_to_root_wall(self, clean_obs):
        tracer = obs.enable()
        self._pipeline()
        spans = tracer.spans()
        roots = [sp for sp in spans if sp.parent_id is None]
        assert len(roots) < len(spans)  # the pipeline nests spans
        phases = obs.aggregate_phases(tracer)
        root_wall = sum(sp.wall for sp in roots)
        assert sum(p["self_s"] for p in phases) == pytest.approx(
            root_wall, rel=1e-6, abs=1e-6)
        for ph in phases:
            assert -1e-6 <= ph["self_s"] <= ph["wall_s"] + 1e-9

    def test_self_time_excludes_direct_children_only(self, clean_obs):
        tracer = obs.enable()
        with obs.span("outer"):
            with obs.span("middle"):
                with obs.span("inner"):
                    sum(range(20000))
        by_name = {sp.name: sp for sp in tracer.spans()}
        phases = {p["phase"]: p for p in obs.aggregate_phases(tracer)}
        for name, child in (("outer", "middle"), ("middle", "inner")):
            assert phases[name]["self_s"] == pytest.approx(
                by_name[name].wall - by_name[child].wall, abs=1e-9)
        assert phases["inner"]["self_s"] == phases["inner"]["wall_s"]

    def test_analysis_traces_one_projection_per_solved_pair(self, clean_obs):
        tracer = obs.enable()
        analyze(parse_nest(MATMUL))
        counters = obs.get_metrics().snapshot()["counters"]
        projections = [sp for sp in tracer.spans()
                       if sp.name == "deps.project"]
        assert projections
        assert counters["deps.pairs_projected"] == len(projections)
        assert counters["deps.pairs_projected"] <= (
            counters["deps.pairs"] - counters["deps.pairs_reused"]
            - counters["deps.pairs_conservative"])
        assert all(sp.depth > 0 for sp in projections)

    def test_unimodular_scan_traces_one_span_per_map_loops(self, clean_obs):
        from repro.core.codegen import collect_taken
        from repro.core.sequence import Transformation
        from repro.core.templates.unimodular import Unimodular
        from repro.util.errors import CodegenError

        tracer = obs.enable()
        nest = parse_nest(MATMUL)
        skew = Unimodular(3, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        for _ in range(3):
            skew.map_loops(nest.loops, collect_taken(nest))
        Transformation.of(skew).apply(nest, check=False)
        nonlinear = parse_nest("do i = 1, n\n  do j = 1, n*i\n"
                               "    a(i, j) = 0\n  enddo\nenddo\n")
        with pytest.raises(CodegenError):
            Unimodular(2, [[0, 1], [1, 0]]).map_loops(
                nonlinear.loops, collect_taken(nonlinear))
        spans = tracer.spans()
        scans = [sp for sp in spans if sp.name == "codegen.fm_scan"]
        assert len(scans) == 5
        assert [sp.tags["depth"] for sp in scans] == [3, 3, 3, 3, 2]
        assert [sp.error for sp in scans] == [None] * 4 + ["CodegenError"]
        [apply_span] = [sp for sp in spans if sp.name == "codegen.apply"]
        assert scans[3].parent_id == apply_span.span_id

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
        assert {"ir.parse", "search", "deps.analyze", "legality.map_deps",
                "codegen.apply", "compiled.run"} <= phase_names
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
        lines = captured.err.splitlines()
        assert "self ms" in lines[0]
        total = [ln for ln in lines if ln.startswith("total (by phase)")]
        assert len(total) == 1 and len(total[0].split()) == 5
        assert not obs.enabled()
