"""Model-guided search: the differential-identity contract.

The tentpole claim is that cost-model pruning and speculative legality
change *what the search pays*, never *what it returns*: on every nest
of the example corpus the guided winner and score are identical to
brute beam search, ``jobs=2`` is field-identical to ``jobs=1``, and a
misspeculated frontier candidate is caught by exact re-verification
and evicted — the returned winner is always exactly legal.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.api import SearchConfig, analyze, parse_nest, search
from repro.core.legality_cache import LegalityCache
from repro.core.templates.reverse_permute import ReversePermute
from repro.optimize.model import CostModel, Evidence, resolve_model
from repro.optimize.search import parallelism_score

EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples" / "loops").glob("*.loop"))
assert EXAMPLES, "examples/loops is empty"

TRIANGULAR = """
do i = 1, n
  do j = i, n
    a(i, j) = i + j
  enddo
enddo
"""


def _load(path):
    nest = parse_nest(path.read_text())
    return nest, analyze(nest)


def assert_field_identical(a, b):
    assert a.transformation.signature() == b.transformation.signature()
    assert a.score == b.score
    assert a.explored == b.explored
    assert a.legal_count == b.legal_count
    assert a.timeouts == b.timeouts
    assert a.pruned == b.pruned
    assert a.prune_reasons == b.prune_reasons
    assert a.speculated == b.speculated
    assert a.evicted == b.evicted
    assert a.exact_verdicts == b.exact_verdicts
    assert a.cache_stats == b.cache_stats


# -- the differential-identity contract -------------------------------------

@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_guided_matches_brute_across_corpus(path):
    """Pruning and speculation must return the brute winner and score
    on every example nest, while paying strictly fewer exact verdicts."""
    nest, deps = _load(path)
    brute = search(nest, deps, config=SearchConfig())
    pruned = search(nest, deps, config=SearchConfig(prune=True))
    guided = search(nest, deps,
                    config=SearchConfig(prune=True, speculate=True))
    for result in (pruned, guided):
        if brute.transformation is None:
            assert result.transformation is None
        else:
            assert (result.transformation.signature() ==
                    brute.transformation.signature())
        assert result.score == brute.score
        assert result.explored == brute.explored
        assert result.exact_verdicts <= brute.exact_verdicts
    assert guided.speculated > 0
    assert guided.exact_verdicts < brute.exact_verdicts


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_guided_jobs2_field_identical(path):
    """The parallel determinism contract extends to the guided paths:
    every SearchResult field, including the prune/speculation counters
    and merged cache stats, matches the serial guided search."""
    nest, deps = _load(path)
    base = SearchConfig(prune=True, speculate=True)
    serial = search(nest, deps, config=base)
    parallel = search(nest, deps,
                      config=dataclasses.replace(base, jobs=2))
    assert_field_identical(serial, parallel)


# -- the speculative verdict folds each candidate's headers once ------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_speculative_scorer_never_refolds(tmp_path, jobs):
    """Every candidate a speculative search scores already holds its
    final headers for the nest (the dep-legal verdict folded them
    through the cache), unless its bounds fold fails; reading them is
    one ``legality.folds_reused`` each.  The scorer may run in a forked
    worker, so it logs to a file."""
    import json

    from repro import obs
    from repro.core.sequence import Transformation

    log = tmp_path / "scored.jsonl"

    def reused():
        return obs.get_metrics().snapshot()["counters"].get(
            "legality.folds_reused", 0)

    def scorer(candidate, nest, deps):
        fold = candidate._fold
        held = fold is not None and fold[0] is nest
        fresh = Transformation(candidate.steps, n=nest.depth)
        trace, error = fresh.folded_loop_trace(nest)
        before = reused()
        value = parallelism_score(candidate, nest, deps)
        with log.open("a") as fh:
            fh.write(json.dumps({
                "steps": len(candidate.steps), "held": held,
                "right": held and error is None and fold[1] == trace[-1],
                "fails": error is not None,
                "reused": reused() - before}) + "\n")
        return value

    obs.enable()
    try:
        for path in EXAMPLES:
            nest, deps = _load(path)
            result = search(nest, deps, config=SearchConfig(
                score=scorer, prune=True, speculate=True, jobs=jobs))
            if jobs > 1:
                assert result.parallel["dispatched"] > 0
    finally:
        obs.disable()
        obs.get_metrics().clear()
    scored = [json.loads(line) for line in log.read_text().splitlines()]
    candidates = [s for s in scored if s["steps"]]
    assert candidates
    for s in candidates:
        assert s["held"] == s["right"] == (not s["fails"]), s
    assert sum(s["reused"] for s in candidates) == \
        sum(s["held"] for s in candidates) > 0


# -- misspeculation is caught at the frontier -------------------------------

def _favor_interchange(candidate, nest, deps):
    """Scores the (bounds-illegal) triangular interchange highest, so
    speculation pushes it to the top of the beam frontier."""
    for step in candidate.steps:
        if isinstance(step, ReversePermute) and \
                tuple(step.perm) != tuple(range(1, step.n + 1)):
            return 10.0
    return 0.0


def test_misspeculation_evicted_at_frontier():
    """The triangular nest has no dependences, so interchange is
    dep-legal — but its non-invariant bounds fail the ReversePermute
    precondition.  Speculation admits it, the exact re-verification at
    the frontier must evict it, and the returned winner is exactly
    legal."""
    nest = parse_nest(TRIANGULAR)
    deps = analyze(nest)
    result = search(nest, deps, config=SearchConfig(
        score=_favor_interchange, speculate=True))
    assert result.speculated > 0
    assert result.evicted >= 1
    winner = result.transformation
    report = winner.legality(nest, deps)
    assert report.legal
    assert result.score == 0.0


# -- prefix seeding: the beam's survivors stay warm -------------------------

def test_beam_prefix_seeding_produces_cache_hits():
    """Bases surviving into level 2 were already verified at level 1;
    seeding the cache with their prefixes before expansion must turn
    that reuse into hits (the regression was hits=0 on this exact
    workload)."""
    nest, deps = _load(EXAMPLES[0])  # matmul
    result = search(nest, deps, config=SearchConfig(depth=2, beam=8))
    assert result.cache_stats["hits"] > 0


# -- the config surface ------------------------------------------------------

def test_search_config_is_frozen_and_replaceable():
    config = SearchConfig(depth=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.depth = 1
    wider = dataclasses.replace(config, beam=16)
    assert wider.depth == 3 and wider.beam == 16
    assert config.beam == 8  # original untouched


def test_search_config_defaults_match_legacy_defaults():
    config = SearchConfig()
    assert config.score is parallelism_score
    assert (config.depth, config.beam, config.jobs) == (2, 8, 1)
    assert config.cache is None and config.pool is None
    assert not config.prune and not config.speculate
    assert config.model is None


def test_guided_flags_silently_disable_on_foreign_cache():
    """A duck-typed cache without the dep-legality protocol degrades
    the guided paths to brute behavior instead of crashing, mirroring
    the pool's degradation contract."""

    class MinimalCache:
        stats = {"hits": 0, "misses": 0}

        def __init__(self):
            self._real = LegalityCache()
            self.stats = self._real.stats

        def legality(self, transformation, nest, deps):
            return self._real.legality(transformation, nest, deps)

    nest, deps = _load(EXAMPLES[0])
    brute = search(nest, deps, config=SearchConfig())
    guided = search(nest, deps, config=SearchConfig(
        cache=MinimalCache(), prune=True, speculate=True))
    assert (guided.transformation.signature() ==
            brute.transformation.signature())
    assert guided.score == brute.score
    assert guided.pruned == 0 and guided.speculated == 0


# -- the cost model ----------------------------------------------------------

def test_resolve_model_names_and_errors():
    assert resolve_model("static").name == "static"
    assert resolve_model("evidence").name == "evidence"
    with pytest.raises(ValueError, match="unknown cost model"):
        resolve_model("oracle")


def test_cost_model_calibrates_from_observations():
    """A kind that keeps failing its exact verdict loses speculative
    admission; one that keeps passing keeps it."""
    model = CostModel(threshold=0.5)

    class FakeStep:
        kernel_name = "Block"
        n = 3

    step = FakeStep()
    assert model.favored(step)
    for _ in range(20):
        model.observe(step, legal=False)
    assert not model.favored(step)
    assert model.observations == 20
    snap = model.snapshot()
    assert snap["outcomes"]["Block"] == (0, 20)


def test_evidence_collection_is_safe_when_obs_disabled():
    evidence = Evidence.collect(cache=LegalityCache())
    assert evidence.refuted == {}
    assert evidence.cachesim_hit_ratio is None
    assert "hits" in evidence.legality


@pytest.mark.parametrize(
    "text", [p.read_text() for p in EXAMPLES] + [TRIANGULAR],
    ids=[p.stem for p in EXAMPLES] + ["triangular-inline"])
def test_evidence_tiers_survive_pair_reuse(text):
    """Pairs answered from the analyzer's per-call memo skip the test
    ladder, so the ``deps.refuted.*`` counts shrink; the evidence model
    reads only which tiers are non-zero, and those must be the tiers a
    run of every pair's ladder sees."""
    from repro import obs
    from tests.test_analysis import _unmemoized

    nest = parse_nest(text)

    def tiers(run):
        obs.enable()
        try:
            run()
            return set(Evidence.collect().refuted)
        finally:
            obs.disable()
            obs.get_metrics().clear()

    memoized = tiers(lambda: analyze(nest))
    assert memoized == tiers(lambda: _unmemoized(nest))
    assert memoized  # the inputs do exercise the ladder
