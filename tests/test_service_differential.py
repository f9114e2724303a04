"""The service must be a *transparent* cache: every answer
field-identical to a cold in-process call through ``repro.api``.

The jobs=2 variants additionally pin down that the shared pool —
rebound across requests, batching same-nest legality — changes nothing
about the answers, only about the forking economics.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    LegalityCache,
    SearchConfig,
    Transformation,
    analyze,
    parse_nest,
    search,
)
from repro.optimize.search import parallelism_score
from repro.service import TransformationService

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""

MATMUL = """
do i = 1, n
  do j = 1, n
    do k = 1, n
      A(i, j) += B(i, k) * C(k, j)
    enddo
  enddo
enddo
"""

SPECS = ["interchange(1,2)", "reverse(1)", "parallelize(2)",
         "block(1,2,16)", "parallelize(1)", "skew(2,1); interchange(1,2)"]


def drive(service, requests):
    replies = []
    for req in requests:
        service.ingest(json.dumps(req), replies.append)
    service.request_drain("test")
    service.run()
    return {r["id"]: r for r in replies}


@pytest.mark.parametrize("jobs", [1, 2])
def test_legality_batch_matches_in_process(jobs):
    service = TransformationService(jobs=jobs, batch_max=len(SPECS))
    replies = drive(service, [
        {"id": i, "op": "legality",
         "params": {"text": STENCIL, "steps": spec}}
        for i, spec in enumerate(SPECS)])

    nest = parse_nest(STENCIL)
    deps = analyze(nest)
    for i, spec in enumerate(SPECS):
        transformation = Transformation.from_spec(spec, nest.depth)
        report = transformation.legality(nest, deps)
        got = replies[i]["result"]
        assert got["legal"] == report.legal, spec
        assert got["sequence"] == transformation.signature()
        assert got["spec"] == transformation.to_spec()
        if not report.legal:
            assert got["reason"] == report.reason
    if jobs == 2 and not service.pool.degraded:
        assert int(service.counters["batched_legality"]) > 0, \
            "same-batch legality requests should ride the shared pool"
        assert int(service.pool.stats["rebinds"]) >= 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("src,depth,beam", [(STENCIL, 2, 4),
                                            (MATMUL, 2, 6)])
def test_search_matches_in_process(jobs, src, depth, beam):
    """A fresh service's first search answers exactly like a cold
    ``repro.api.search`` — including ``cache_stats``, because both
    start from an empty legality cache."""
    service = TransformationService(jobs=jobs)
    replies = drive(service, [
        {"id": 1, "op": "search",
         "params": {"text": src, "depth": depth, "beam": beam}},
    ])
    got = replies[1]["result"]

    nest = parse_nest(src)
    deps = analyze(nest)
    expected = search(nest, deps,
                      config=SearchConfig(score=parallelism_score,
                                          depth=depth, beam=beam,
                                          cache=LegalityCache()))
    winner = expected.transformation
    assert got["winner"] == (winner.signature() if winner else None)
    assert got["spec"] == (winner.to_spec() if winner is not None
                           else None)
    assert got["score"] == (expected.score
                            if expected.score != float("-inf") else None)
    assert got["explored"] == expected.explored
    assert got["legal"] == expected.legal_count
    assert got["timeouts"] == expected.timeouts
    for key in ("hits", "misses", "verdicts", "dep_map_evals",
                "bounds_step_evals"):
        assert got["cache_stats"][key] == expected.cache_stats[key], key


def test_warm_search_repeat_same_answer_fewer_evals():
    """Repeating a search against the warm cache changes the *work*
    (all hits), never the *answer*."""
    service = TransformationService()
    replies = drive(service, [
        {"id": i, "op": "search",
         "params": {"text": STENCIL, "depth": 2, "beam": 4}}
        for i in (1, 2)])
    first, second = replies[1]["result"], replies[2]["result"]
    for key in ("winner", "spec", "score", "explored", "legal"):
        assert first[key] == second[key], key
    # Second pass: no new legality evaluations at all.
    assert second["cache_stats"]["dep_map_evals"] == \
        first["cache_stats"]["dep_map_evals"]
    assert second["cache_stats"]["hits"] > first["cache_stats"]["hits"]


def test_apply_matches_in_process():
    service = TransformationService()
    replies = drive(service, [
        {"id": 1, "op": "apply",
         "params": {"text": STENCIL,
                    "steps": "skew(2,1); interchange(1,2)"}},
    ])
    nest = parse_nest(STENCIL)
    deps = analyze(nest)
    transformation = Transformation.from_spec(
        "skew(2,1); interchange(1,2)", nest.depth)
    expected = transformation.apply(nest, deps)
    assert replies[1]["result"]["code"] == expected.pretty()
