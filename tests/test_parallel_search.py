"""Sharded parallel beam search: determinism, robustness, regressions.

The headline property is differential: ``search(..., jobs=N)`` must be
*field-for-field identical* to ``jobs=1`` — winner signature, score,
``explored``, ``legal_count`` and the merged ``cache_stats`` — across
the example corpus and under injected worker crashes.  The satellite
regressions (NaN scores, error narrowing, worker exception transport,
wire/pickle round-trips) live here too because they are all boundaries
of the same subsystem.
"""

import math
import pickle
import time
from pathlib import Path

import pytest

from repro.cache import Layout
from repro.core.legality_cache import LegalityCache, template_key
from repro.core.sequence import LegalityReport, Transformation
from repro.core.templates.reverse_permute import ReversePermute, interchange
from repro.core.templates.unimodular import Unimodular
from repro.deps.analysis import analyze
from repro.deps.vector import depset
from repro.ir import parse_nest
from repro.optimize.search import (
    coerce_score,
    default_candidates,
    make_locality_score,
    parallelism_score,
    search,
    SearchConfig,
)
from repro.resilience import chaos
from repro.parallel.worker import (
    call_with_timeout,
    candidate_from_spec,
    candidate_to_spec,
    step_from_spec,
    step_roundtrips,
    step_to_spec,
)
from repro.util.errors import PreconditionViolation
from repro.util.matrices import IntMatrix
from tests.test_corpus import CORPUS, load_case

MATMUL = """
do i = 1, n
  do j = 1, n
    do k = 1, n
      A(i, j) += B(i, k) * C(k, j)
    enddo
  enddo
enddo
"""


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    yield
    chaos.clear()


def assert_identical(serial, parallel):
    assert parallel.transformation.signature() == \
        serial.transformation.signature()
    assert parallel.score == serial.score
    assert parallel.explored == serial.explored
    assert parallel.legal_count == serial.legal_count
    assert parallel.cache_stats == serial.cache_stats


# -- the determinism guarantee ---------------------------------------------

@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_jobs2_identical_across_corpus(path):
    """Property over the corpus: every field of the result, including
    the merged cache stats, matches the serial search."""
    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    serial = search(nest, deps, config=SearchConfig(depth=2, beam=6))
    parallel = search(nest, deps,
                      config=SearchConfig(depth=2, beam=6, jobs=2))
    assert_identical(serial, parallel)
    assert serial.parallel is None
    stats = parallel.parallel
    assert stats["jobs"] == 2 and not stats["degraded"]
    assert stats["crashes"] == 0 and stats["fallbacks"] == 0
    # Every worker-evaluated candidate is accounted to some worker.
    assert sum(stats["per_worker"].values()) == stats["dispatched"]


def test_jobs4_identical_with_locality_score():
    """End-to-end through the compiled engine + cache simulator inside
    forked workers (closures over arrays cross via fork, not pickle)."""
    from repro.runtime import Array

    n = 8
    nest = parse_nest(MATMUL)
    deps = depset((0, 0, "+"))
    layout = Layout(element_bytes=8, order="row")
    for name in ("A", "B", "C"):
        layout.register(name, [(1, n), (1, n)])
    arrays = {name: Array(0, name) for name in ("A", "B", "C")}
    score = make_locality_score(arrays, {"n": n}, layout)
    serial = search(nest, deps,
                    config=SearchConfig(score=score, depth=1, beam=4))
    parallel = search(nest, deps, config=SearchConfig(score=score, depth=1,
                                                      beam=4, jobs=4))
    assert_identical(serial, parallel)


def test_shared_cache_keeps_serving_after_parallel_search(matmul_nest):
    """Entries merged from worker deltas are first-class: a follow-up
    serial search on the same cache hits them."""
    deps = depset((0, 0, "+"))
    cache = LegalityCache()
    search(matmul_nest, deps,
           config=SearchConfig(depth=2, beam=6, jobs=2, cache=cache))
    after = dict(cache.stats)
    rerun = search(matmul_nest, deps,
                   config=SearchConfig(depth=2, beam=6, cache=cache))
    # The rerun asks about content-identical candidates only: all
    # verdict lookups hit, nothing is recomputed.
    assert rerun.cache_stats["misses"] == after["misses"]
    assert rerun.cache_stats["dep_map_evals"] == after["dep_map_evals"]
    assert rerun.cache_stats["bounds_step_evals"] == \
        after["bounds_step_evals"]
    assert rerun.cache_stats["hits"] > after["hits"]


# -- crash robustness -------------------------------------------------------

def test_worker_crash_requeues_once_and_results_match(matmul_nest):
    deps = depset((0, 0, "+"))
    serial = search(matmul_nest, deps, config=SearchConfig(depth=2, beam=6))
    chaos.install(chaos.FaultPlan(crash_indices={0},
                                  kinds=("primary",)))
    parallel = search(matmul_nest, deps,
                      config=SearchConfig(depth=2, beam=6, jobs=2))
    assert_identical(serial, parallel)
    stats = parallel.parallel
    assert stats["crashes"] >= 1
    assert stats["requeues"] >= 1
    assert not stats["degraded"]


def test_repeated_crash_degrades_to_serial_and_results_match(matmul_nest):
    deps = depset((0, 0, "+"))
    serial = search(matmul_nest, deps, config=SearchConfig(depth=2, beam=6))
    chaos.install(chaos.FaultPlan(crash_indices={0},
                                  kinds=("primary", "requeue")))
    parallel = search(matmul_nest, deps,
                      config=SearchConfig(depth=2, beam=6, jobs=2))
    assert_identical(serial, parallel)
    stats = parallel.parallel
    assert stats["degraded"]
    assert stats["fallbacks"] >= 1
    assert stats["requeues"] == 1  # one retry, then graceful degradation
    assert stats["parent_evals"] > 0  # the caller picked up the slack


def test_unserializable_menu_degrades_but_still_searches(matmul_nest):
    class Opaque(ReversePermute):
        def to_spec(self):
            raise NotImplementedError("no spelling")

    menu = [Opaque(3, [False] * 3, [2, 1, 3])] + default_candidates(3)
    deps = depset((0, 0, "+"))
    serial = search(matmul_nest, deps, candidates=menu,
                    config=SearchConfig(depth=2, beam=6))
    parallel = search(matmul_nest, deps, candidates=menu,
                      config=SearchConfig(depth=2, beam=6, jobs=2))
    assert_identical(serial, parallel)
    assert parallel.parallel["degraded"]
    assert "round-trip" in parallel.parallel["degrade_reason"]


def test_cache_without_delta_protocol_degrades(matmul_nest):
    class PlainPolicy:
        def legality(self, transformation, nest, deps):
            return transformation.legality(nest, deps)

    deps = depset((0, 0, "+"))
    serial = search(matmul_nest, deps,
                    config=SearchConfig(depth=1, beam=6, cache=PlainPolicy()))
    parallel = search(matmul_nest, deps,
                      config=SearchConfig(depth=1, beam=6,
                                          cache=PlainPolicy(), jobs=2))
    assert parallel.transformation.signature() == \
        serial.transformation.signature()
    assert parallel.parallel["degraded"]
    assert "delta protocol" in parallel.parallel["degrade_reason"]


def test_worker_exception_propagates_to_parent(matmul_nest):
    def bad_score(transformation, nest, deps):
        if len(transformation):
            raise TypeError("scoring fn is broken")
        return 0.0

    deps = depset((0, 0, "+"))
    with pytest.raises(TypeError, match="scoring fn is broken"):
        search(matmul_nest, deps, config=SearchConfig(depth=1, beam=4, jobs=2,
                                                      score=bad_score))


# -- per-candidate timeouts -------------------------------------------------

def test_timeout_scores_neg_inf_serially(matmul_nest):
    def slow_score(transformation, nest, deps):
        if len(transformation):
            time.sleep(5.0)
        return 0.0

    deps = depset((0, 0, "+"))
    start = time.monotonic()
    result = search(matmul_nest, deps, candidates=[interchange(3, 1, 2)],
                    config=SearchConfig(depth=1, beam=4, score=slow_score,
                                        candidate_timeout=0.2))
    assert time.monotonic() - start < 5.0
    assert result.timeouts == 1
    assert len(result.transformation) == 0  # identity wins at 0.0
    assert result.explored == 2 and result.legal_count == 2


def test_timeout_applies_inside_workers(matmul_nest):
    chaos.install(chaos.FaultPlan(hang_indices={1}, hang_seconds=20.0,
                                  kinds=("primary",)))
    deps = depset((0, 0, "+"))
    start = time.monotonic()
    result = search(matmul_nest, deps,
                    config=SearchConfig(depth=1, beam=6, jobs=2,
                                        candidate_timeout=0.3))
    assert time.monotonic() - start < 20.0
    assert result.timeouts >= 1
    assert result.parallel["timeouts"] >= 1
    assert result.transformation is not None


def test_call_with_timeout_contract():
    value, timed_out = call_with_timeout(lambda: 41 + 1, None)
    assert (value, timed_out) == (42, False)
    value, timed_out = call_with_timeout(lambda: 42, 5.0)
    assert (value, timed_out) == (42, False)
    _, timed_out = call_with_timeout(lambda: time.sleep(3.0), 0.1)
    assert timed_out


# -- NaN scores (regression) ------------------------------------------------

def test_coerce_score_boundary():
    assert coerce_score(2.5) == 2.5
    assert coerce_score(float("inf")) == float("inf")
    assert coerce_score(float("nan")) == float("-inf")
    with pytest.raises((TypeError, ValueError)):
        coerce_score("seven")  # non-numeric scores are bugs, not -inf


@pytest.mark.parametrize("jobs", [1, 2])
def test_nan_score_cannot_win_or_scramble_the_beam(matmul_nest, jobs):
    """A NaN-returning scorer used to poison the search: NaN never
    compares greater (so ``best`` silently stuck) and an unsortable
    frontier propagated NaN into later levels.  Coerced to ``-inf``,
    such candidates simply lose."""
    def nan_score(transformation, nest, deps):
        if len(transformation):
            return float("nan")
        return 1.5

    deps = depset((0, 0, "+"))
    result = search(matmul_nest, deps,
                    config=SearchConfig(depth=2, beam=6, jobs=jobs,
                                        score=nan_score))
    assert len(result.transformation) == 0
    assert result.score == 1.5
    assert not math.isnan(result.score)


# -- error narrowing in make_locality_score (regression) --------------------

def _scalar_layout(n):
    layout = Layout(element_bytes=8, order="row")
    layout.register("a", [(1, n), (1, n)])
    layout.register("s", [(0, 0)])
    return layout


def test_locality_score_lets_programming_errors_escape():
    """The scorer catches *domain* rejections (ReproError) only; a
    typo'd symbol table raising TypeError must propagate instead of
    silently scoring -inf."""
    nest = parse_nest("""
    do j = 1, n
      do i = 1, n
        s(0) += a(i, j)
      enddo
    enddo
    """)
    deps = depset(("0+", "0+"))
    score = make_locality_score({}, {"n": None}, _scalar_layout(4))
    with pytest.raises(TypeError):
        score(Transformation.identity(2), nest, deps)


def test_locality_score_still_tolerates_domain_rejections():
    nest = parse_nest("""
    do j = 1, n
      do i = 1, n
        s(0) += a(i, j)
      enddo
    enddo
    """)
    deps = depset((1, 1))
    score = make_locality_score({}, {"n": 4}, _scalar_layout(4))
    illegal = Transformation.of(
        ReversePermute(2, [True, False], [1, 2]))  # reversal breaks (1,1)
    assert score(illegal, nest, deps) == float("-inf")


# -- wire forms and pickling ------------------------------------------------

def test_default_menu_steps_roundtrip():
    for n in (2, 3, 4):
        for step in default_candidates(n):
            assert step_roundtrips(step), step.signature()
            rebuilt = step_from_spec(step_to_spec(step))
            assert template_key(rebuilt) == template_key(step)


def test_unimodular_names_survive_the_wire():
    step = Unimodular(2, IntMatrix([[1, 1], [0, 1]]), names=["u", "v"])
    rebuilt = step_from_spec(step_to_spec(step))
    assert rebuilt.names == step.names
    assert template_key(rebuilt) == template_key(step)


def test_candidate_wire_preserves_unreduced_shape(matmul_nest):
    base = Transformation.identity(3).then(interchange(3, 1, 2),
                                           reduce=False)
    candidate = base.then(interchange(3, 1, 2), reduce=False)
    rebuilt = candidate_from_spec(candidate_to_spec(candidate))
    assert len(rebuilt) == 2  # no peephole fusion on rebuild
    assert rebuilt.signature() == candidate.signature()


def test_domain_objects_pickle_roundtrip(matmul_nest):
    deps = depset((1, "-", "0+"))
    assert pickle.loads(pickle.dumps(deps)) == deps
    T = Transformation.of(interchange(3, 1, 2))
    assert pickle.loads(pickle.dumps(T)).signature() == T.signature()
    report = T.legality(matmul_nest, depset((0, 0, "+")))
    back = pickle.loads(pickle.dumps(report))
    assert back.legal == report.legal
    assert back.final_deps == report.final_deps
    violation = PreconditionViolation("block", "needs rectangular bounds",
                                      loop=2, var="j")
    back = pickle.loads(pickle.dumps(violation))
    assert back.template == "block" and back.loop == 2 and back.var == "j"
    assert str(back) == str(violation)


# -- the delta protocol directly --------------------------------------------

def test_delta_replay_reproduces_serial_stats(matmul_nest):
    deps = depset((0, 0, "+"))
    candidates = [Transformation.of(step)
                  for step in default_candidates(3)]

    worker_cache = LegalityCache()
    parent = LegalityCache()
    serial = LegalityCache()
    for T in candidates:
        report, delta = worker_cache.legality_with_delta(
            T, matmul_nest, deps)
        merged = parent.merge_delta(matmul_nest, deps, delta)
        direct = serial.legality(T, matmul_nest, deps)
        assert merged.legal == direct.legal == report.legal
        assert merged.reason == direct.reason
    assert parent.stats == serial.stats

    # Replaying the same deltas again only produces verdict hits, like
    # re-asking the serial cache.
    for T in candidates:
        _, delta = worker_cache.legality_with_delta(T, matmul_nest, deps)
        parent.merge_delta(matmul_nest, deps, delta)
        serial.legality(T, matmul_nest, deps)
    assert parent.stats == serial.stats


def test_merge_delta_rejects_unknown_entries(matmul_nest):
    with pytest.raises(ValueError):
        LegalityCache().merge_delta(matmul_nest, depset((0, 0, "+")),
                                    [("bogus",)])
