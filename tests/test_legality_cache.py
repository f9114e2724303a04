"""LegalityCache must be report-identical to Transformation.legality.

The cache is only allowed to change *when* work happens, never the
answer: every ``LegalityReport`` field (verdict, reason string, failed
step index, final dependence set in vector order, violation message)
must match the uncached implementation, for legal and illegal sequences,
on cold and warm queries alike.
"""

import random

import pytest

from repro.core import (
    Block,
    Coalesce,
    Interleave,
    LegalityCache,
    Parallelize,
    ReversePermute,
    Transformation,
    Unimodular,
)
from repro.core.legality_cache import depset_key, template_key
from repro.deps import DepEntry, DepSet, DepVector, depset
from repro.expr.nodes import Const, var
from repro.ir import Loop, LoopNest, parse_nest
from repro.ir.loopnest import ArrayRef, Assign
from repro.optimize.search import SearchConfig, default_candidates, search
from repro.util.errors import IllegalTransformationError
from repro.util.matrices import IntMatrix


def rectangular_nest(depth):
    loops = [Loop(f"i{k}", Const(1), var("n")) for k in range(depth)]
    body = [Assign(ArrayRef("a", tuple(var(f"i{k}") for k in range(depth))),
                   Const(1))]
    return LoopNest(loops, body)


TRIANGULAR_TEXT = """
do i = 1, n
  do j = i, n
    a(i, j) = i + j
  enddo
enddo
"""
TRIANGULAR = parse_nest(TRIANGULAR_TEXT)


def rand_step(rng, n):
    """A random template instantiation consuming an *n*-deep nest."""
    kinds = ["perm", "par", "uni"]
    if n >= 2:
        kinds += ["block", "coalesce", "interleave"]
    kind = rng.choice(kinds)
    if kind == "perm":
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return ReversePermute(n, [rng.random() < 0.3 for _ in range(n)],
                              perm)
    if kind == "par":
        return Parallelize(n, [rng.random() < 0.3 for _ in range(n)])
    if kind == "uni":
        if n == 1:
            return Unimodular(1, IntMatrix([[rng.choice((1, -1))]]))
        return Unimodular(n, IntMatrix.skew(n, rng.randrange(1, n + 1) % n
                                            or 1, 0, rng.choice((1, -1))))
    i = rng.randrange(1, n)
    j = rng.randrange(i + 1, n + 1)
    if kind == "block":
        return Block(n, i, j, [rng.choice((2, 3, 4))
                               for _ in range(j - i + 1)])
    if kind == "coalesce":
        return Coalesce(n, i, j)
    return Interleave(n, i, j, [rng.choice((2, 3))
                                for _ in range(j - i + 1)])


def rand_sequence(rng, n, max_len=3):
    T = Transformation.identity(n)
    for _ in range(rng.randrange(1, max_len + 1)):
        T = T.then(rand_step(rng, T.output_depth), reduce=False)
    return T


def rand_deps(rng, depth, count=4):
    codes = ["0", "1", "2", "-1", "+", "0+", "0-", "*"]
    vectors = []
    while len(vectors) < count:
        vec = DepVector([DepEntry.of(rng.choice(codes))
                         for _ in range(depth)])
        if not vec.can_be_lex_negative():
            vectors.append(vec)
    return DepSet(vectors)


def assert_same_report(ref, got):
    assert ref.legal == got.legal
    assert ref.reason == got.reason
    assert ref.failed_step == got.failed_step
    if ref.final_deps is None:
        assert got.final_deps is None
    else:
        assert tuple(ref.final_deps.vectors) == tuple(got.final_deps.vectors)
    assert str(ref.violation) == str(got.violation)


def test_property_matches_uncached():
    """Random sequences x random dependence sets, rectangular and
    triangular nests: cold and warm cached reports both equal the
    uncached report, field for field.  The trace and the dep-only
    verdict read the same walk: the trace ends in the report's final
    set, and ``dep_legality`` is the report's dependence half."""
    rng = random.Random(2026)
    for trial in range(120):
        depth = rng.choice((1, 2, 3))
        nest = TRIANGULAR if depth == 2 and rng.random() < 0.4 \
            else rectangular_nest(depth)
        deps = rand_deps(rng, depth)
        cache = LegalityCache()
        for _ in range(4):
            T = rand_sequence(rng, depth)
            ref = T.legality(nest, deps)
            assert_same_report(ref, cache.legality(T, nest, deps))  # cold
            assert_same_report(ref, cache.legality(T, nest, deps))  # warm
            final = tuple(ref.final_deps.vectors)
            assert tuple(T.dep_set_trace(deps, nest)[-1].vectors) == final
            dep = cache.dep_legality(T, nest, deps)
            assert tuple(dep.final_deps.vectors) == final
            assert dep.legal == (not ref.final_deps.can_be_lex_negative())
            if not dep.legal:
                assert_same_report(ref, dep)


def test_illegal_reason_strings_match():
    """The reason string enumerates the offending vectors in order; the
    cache must reproduce it byte for byte."""
    nest = rectangular_nest(2)
    deps = depset((1, -1), (1, 1))
    T = Transformation.of(ReversePermute(2, [True, False], [1, 2]))
    ref = T.legality(nest, deps)
    assert not ref.legal
    got = LegalityCache().legality(T, nest, deps)
    assert_same_report(ref, got)


def test_bounds_failure_report_matches():
    """Interchanging triangular loops violates a bounds precondition;
    the cached report carries the same reason and violation."""
    T = Transformation.of(ReversePermute(2, [False, False], [2, 1]))
    deps = depset((0, "+"))
    ref = T.legality(TRIANGULAR, deps)
    assert not ref.legal and ref.failed_step == 0
    got = LegalityCache().legality(T, TRIANGULAR, deps)
    assert_same_report(ref, got)


def test_depth_mismatch_report_matches():
    nest = rectangular_nest(3)
    deps = rand_deps(random.Random(0), 2)
    T = Transformation.of(Parallelize(2, [True, False]))
    ref = T.legality(nest, deps)
    got = LegalityCache().legality(T, nest, deps)
    assert_same_report(ref, got)


def test_search_with_cache_matches_uncached_search():
    class Passthrough:
        def legality(self, transformation, nest, deps):
            return transformation.legality(nest, deps)

    nest = rectangular_nest(3)
    deps = depset((1, 0, "0+"), (0, 0, 1))
    plain = search(nest, deps, config=SearchConfig(cache=Passthrough()))
    cached = search(nest, deps, config=SearchConfig(cache=LegalityCache()))
    assert plain.score == cached.score
    assert plain.explored == cached.explored
    assert plain.legal_count == cached.legal_count
    assert plain.transformation.signature() == \
        cached.transformation.signature()


def test_prefix_sharing_avoids_rework():
    """Extending an already-tested sequence maps and bounds-checks only
    the new step."""
    nest = rectangular_nest(3)
    deps = depset((1, 0, 0))
    s1 = ReversePermute(3, [False] * 3, [2, 1, 3])
    s2 = Parallelize(3, [False, False, True])
    cache = LegalityCache()
    cache.legality(Transformation.of(s1), nest, deps)
    assert cache.dep_map_evals == 1 and cache.bounds_step_evals == 1
    cache.legality(Transformation.of(s1).then(s2, reduce=False), nest, deps)
    assert cache.dep_map_evals == 2 and cache.bounds_step_evals == 2


def test_failed_prefix_rejects_extensions_without_rework():
    T_bad = Transformation.of(ReversePermute(2, [False, False], [2, 1]))
    deps = depset((0, 1))
    cache = LegalityCache()
    ref = cache.legality(T_bad, TRIANGULAR, deps)
    assert not ref.legal
    evals = cache.bounds_step_evals
    ext = T_bad.then(Parallelize(2, [False, False]), reduce=False)
    got = cache.legality(ext, TRIANGULAR, deps)
    assert not got.legal
    assert got.reason == ref.reason and got.failed_step == ref.failed_step
    assert cache.bounds_step_evals == evals  # no template code re-ran


def test_hits_counted_for_equal_content_distinct_objects():
    nest = rectangular_nest(2)
    deps = depset((1, 0))
    cache = LegalityCache()
    make = lambda: Transformation.of(
        ReversePermute(2, [False, False], [2, 1]))
    cache.legality(make(), nest, deps)
    assert cache.misses == 1 and cache.hits == 0
    cache.legality(make(), nest, deps)  # new objects, same content
    assert cache.hits == 1 and cache.misses == 1


def test_beam_stream_hit_rate():
    """The workload the cache exists for: identical beam queries on the
    second pass are all hits, and dep-map work never repeats."""
    nest = rectangular_nest(3)
    deps = rand_deps(random.Random(3), 3)
    menu = default_candidates(3)
    base = Transformation.identity(3)
    stream = [base.then(s, reduce=False) for s in menu if s.n == 3]
    cache = LegalityCache()
    for T in stream:
        cache.legality(T, nest, deps)
    misses = cache.misses
    evals = cache.dep_map_evals
    for T in stream:  # same objects: identity fast path
        cache.legality(T, nest, deps)
    for s in menu:  # fresh wrappers: content-key path
        if s.n == 3:
            cache.legality(base.then(s, reduce=False), nest, deps)
    assert cache.misses == misses
    assert cache.hits == 2 * len(stream)
    assert cache.dep_map_evals == evals


def test_clear_resets_everything():
    nest = rectangular_nest(2)
    deps = depset((1, 0))
    cache = LegalityCache()
    T = Transformation.of(Parallelize(2, [False, True]))
    cache.legality(T, nest, deps)
    cache.clear()
    assert cache.stats == {"hits": 0, "misses": 0, "dep_map_evals": 0,
                           "bounds_step_evals": 0, "verdicts": 0}
    assert_same_report(T.legality(nest, deps),
                       cache.legality(T, nest, deps))


class TestKeys:
    def test_depset_key_preserves_order(self):
        a = DepSet([DepVector([DepEntry.of(1), DepEntry.of(0)]),
                    DepVector([DepEntry.of(0), DepEntry.of(1)])])
        b = DepSet(list(reversed(list(a.vectors))))
        assert a == b  # DepSet equality is order-insensitive...
        assert depset_key(a) != depset_key(b)  # ...the cache key is not

    def test_template_key_separates_unimodular_names(self):
        m = IntMatrix.skew(2, 1, 0, 1)
        plain = Unimodular(2, m)
        named = Unimodular(2, m, names=["p", "q"])
        assert template_key(plain) != template_key(named)
        assert template_key(named) == template_key(
            Unimodular(2, m, names=["p", "q"]))

    def test_template_key_separates_block_depth(self):
        # block(1, 2, [4, 4]) spells the same for any n; the key keeps n.
        assert template_key(Block(2, 1, 2, [4, 4])) != \
            template_key(Block(3, 1, 2, [4, 4]))

    def test_spec_less_template_keys_never_collide_across_gc(self):
        """Regression: spec-less templates used to key by ``id(step)``.
        CPython reuses a freed object's address for the next same-sized
        allocation, so a cache outliving a step could serve the dead
        step's verdict to a brand-new instantiation.  The key now embeds
        (and pins) the step object itself, so every distinct
        instantiation keeps a distinct, never-recycled key."""
        class Opaque(ReversePermute):
            def to_spec(self):
                raise NotImplementedError("no step-language spelling")

        keys = set()
        for _ in range(64):
            step = Opaque(2, [False, False], [2, 1])
            keys.add(template_key(step))
            # Drop our only reference; with id()-keying the next
            # iteration's allocation typically lands on the same address
            # and collides in `keys`.
            del step
        assert len(keys) == 64


# -- the fold memo the cache seeds for the scorer ----------------------------

def _counters():
    from repro import obs

    return obs.get_metrics().snapshot()["counters"]


@pytest.fixture
def observed():
    from repro import obs

    tracer = obs.enable()
    try:
        yield tracer
    finally:
        obs.disable()
        obs.get_metrics().clear()


def _tiled_parallel():
    return Transformation.of(
        Block(2, 1, 2, [4, 4]),
        Parallelize(4, [False, True, False, False]),
        ReversePermute(4, [False] * 4, [1, 3, 2, 4]))


def test_fold_memo_is_per_nest():
    """One transformation scored on two same-depth nests gets each
    nest's own headers, whichever nest it last folded."""
    from repro.optimize.search import parallelism_score

    plain = rectangular_nest(2)
    outer_pardo = parse_nest("pardo i = 1, n\n do j = 1, n\n"
                             "  a(i, j) = 1\n enddo\nenddo")
    T = Transformation.of(Parallelize(2, [False, True]))
    deps = depset((0, 0))
    assert LegalityCache().legality(T, plain, deps).legal
    for _ in range(2):
        assert parallelism_score(T, plain, deps) == 1.0
        assert parallelism_score(T, outer_pardo, deps) == 3.0


@pytest.mark.parametrize("content_hit", [False, True])
def test_seeded_fold_scores_like_a_fresh_transformation(observed,
                                                        content_hit):
    from repro.optimize.search import parallelism_score

    nest = rectangular_nest(2)
    deps = depset((1, 0))
    cache = LegalityCache()
    if content_hit:
        assert cache.legality(_tiled_parallel(), nest, deps).legal
    T = _tiled_parallel()
    assert cache.legality(T, nest, deps).legal
    assert (cache.hits, cache.misses) == ((1, 1) if content_hit else (0, 1))
    fresh = Transformation.from_spec(T.to_spec(), 2, reduce=False)
    expected = parallelism_score(fresh, nest, deps)
    assert "legality.folds_reused" not in _counters()
    assert parallelism_score(T, nest, deps) == expected == 2.0
    assert _counters()["legality.folds_reused"] == 1
    seeded = T.final_loops(nest)
    assert seeded == fresh.loop_trace(nest)[-1]
    # A plain legality test keeps the headers the cache shares.
    assert T.legality(nest, deps).legal
    assert T.final_loops(nest) is seeded


def test_uncached_legality_seeds_the_fold(observed):
    from repro.optimize.search import parallelism_score

    nest = rectangular_nest(2)
    T = _tiled_parallel()
    assert T.legality(nest, depset((1, 0))).legal
    assert parallelism_score(T, nest, depset((1, 0))) == 2.0
    assert _counters()["legality.folds_reused"] == 1


def test_pickled_transformation_carries_no_fold():
    import pickle

    nest = rectangular_nest(2)
    T = _tiled_parallel()
    T.final_loops(nest)
    assert T._fold is not None
    restored = pickle.loads(pickle.dumps(T))
    assert restored._fold is None
    assert restored.signature() == T.signature()


def test_failed_fold_is_never_memoized(observed):
    from repro.optimize.search import parallelism_score

    T = Transformation.of(ReversePermute(2, [False, False], [2, 1]))
    for _ in range(3):
        assert parallelism_score(T, TRIANGULAR, depset((0, 1))) == \
            float("-inf")
        assert T._fold is None
    assert "legality.folds_reused" not in _counters()


@pytest.mark.parametrize("use", ["legality", "score", "cache"])
def test_failed_fold_leaves_no_reference_cycle(use):
    """A bounds failure keeps no traceback: its frames would form a
    reference cycle holding the caller's transformation until the cyclic
    collector runs — which made evictions under a bounded cache depend on
    collection timing.  With the collector off, dropping the caller's
    objects frees them."""
    import gc
    import weakref

    from repro.optimize.search import parallelism_score

    nest = parse_nest(TRIANGULAR_TEXT)
    deps = depset((0, 1))
    cache = LegalityCache(max_entries=3)
    gc.disable()
    try:
        T = Transformation.of(ReversePermute(2, [False, False], [2, 1]))
        if use == "legality":
            report = T.legality(nest, deps)
            assert report.violation.__traceback__ is None
        elif use == "score":
            assert parallelism_score(T, nest, deps) == float("-inf")
        else:
            assert not cache.legality(T, nest, deps).legal
        refs = [weakref.ref(obj) for obj in (T, nest, *T.steps)]
        del T, nest
        report = None
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# -- apply reuses the verdict it already holds --------------------------------

def _map_deps_spans(tracer):
    return sum(1 for s in tracer.spans() if s.name == "legality.map_deps")


@pytest.mark.parametrize("memo", ["one-shot", "cache", "cache-then-dep"])
def test_apply_after_a_legal_verdict_runs_no_second_test(observed, memo):
    """Also when a dep-legal verdict, which seeds headers only, follows
    the legal one."""
    nest = rectangular_nest(2)
    deps = depset((1, 0))
    T = _tiled_parallel()
    cache = LegalityCache()
    verdict = (T.legality(nest, deps) if memo == "one-shot"
               else cache.legality(T, nest, deps))
    assert verdict.legal
    if memo == "cache-then-dep":
        assert cache.dep_legality(T, nest, deps).legal
    spans = _map_deps_spans(observed)
    out = T.apply(nest, deps)
    assert _map_deps_spans(observed) == spans
    assert [s.name for s in observed.spans()][-1] == "codegen.apply"
    fresh = Transformation.from_spec(T.to_spec(), 2, reduce=False)
    assert out == fresh.apply(nest, deps)


@pytest.mark.parametrize("memo", ["one-shot", "cache"])
def test_apply_checks_any_other_dependence_set(observed, memo):
    nest = rectangular_nest(2)
    legal, illegal = depset((1, 1)), depset((1, -1))
    T = Transformation.of(ReversePermute(2, [False, False], [2, 1]))
    verdict = (T.legality(nest, legal) if memo == "one-shot"
               else LegalityCache().legality(T, nest, legal))
    assert verdict.legal
    with pytest.raises(IllegalTransformationError):
        T.apply(nest, illegal)
    # An equal set in another object is checked too, and passes.
    spans = _map_deps_spans(observed)
    T.apply(nest, depset((1, 1)))
    assert _map_deps_spans(observed) == spans + 1


def test_apply_checks_after_the_slot_moved_to_another_nest(observed):
    first, second = rectangular_nest(2), rectangular_nest(2)
    legal, illegal = depset((1, 1)), depset((1, -1))
    T = Transformation.of(ReversePermute(2, [False, False], [2, 1]))
    assert T.legality(first, legal).legal
    T.final_loops(second)
    with pytest.raises(IllegalTransformationError):
        T.apply(second, illegal)
    spans = _map_deps_spans(observed)
    T.apply(first, legal)
    assert _map_deps_spans(observed) == spans + 1


# -- the cache keeps no caller object alive ----------------------------------

@pytest.mark.parametrize("max_entries", [None, 3])
def test_cache_keeps_no_caller_object_alive(max_entries):
    """Once the caller drops its nests, dependence sets, transformations
    and steps, none is alive — after legal, dep-illegal, bounds-failing
    and speculative verdicts, prefix folds and a whole guided search —
    and no identity shortcut entry outlives its object."""
    import gc
    import weakref
    from pathlib import Path

    from repro.deps.analysis import analyze

    examples = Path(__file__).resolve().parent.parent / "examples" / "loops"
    texts = [TRIANGULAR_TEXT] + [p.read_text()
                                 for p in sorted(examples.glob("*.loop"))]
    specs = {2: ("", "interchange(1,2)", "skew(1,2,1); block(1,2,4)",
                 "reverse(1); stripmine(2,4)", "wavefront(); coalesce(1,2)"),
             3: ("", "interchange(2,3)", "skew(1,2,1); block(1,3,4)",
                 "permute(3,1,2); reverse(3)", "reverse(1); coalesce(1,2)")}
    cache = LegalityCache(max_entries=max_entries)
    refs = []

    def run():
        for text in texts:
            nest = parse_nest(text)
            deps = analyze(nest)
            for spec in specs[nest.depth]:
                T = (Transformation.from_spec(spec, nest.depth) if spec
                     else Transformation.identity(nest.depth))
                cache.dep_legality(T, nest, deps)
                cache.legality(T, nest, deps)
                cache.prefix_loops(T, nest)
                refs.extend(weakref.ref(obj) for obj in (T, *T.steps))
            result = search(nest, deps, config=SearchConfig(
                cache=cache, prune=True, speculate=True))
            refs.extend(weakref.ref(obj) for obj in
                        (nest, deps, result.transformation))

    run()
    gc.collect()
    assert cache.stats["misses"] > 0
    assert [type(r()).__name__ for r in refs if r() is not None] == []
    for table in (cache._step_by_obj, cache._nest_by_obj,
                  cache._deps_by_obj, cache._verdict_by_obj):
        assert not table


def test_speculative_verdict_keeps_a_raising_bounds_fold_in(observed):
    """A typed error the bounds fold raises (not a precondition or
    codegen rejection) escapes the exact test, but the dep-legal verdict
    stands without it; the transformation stays unseeded and the scorer
    still answers -inf."""
    from repro.optimize.search import parallelism_score
    from repro.util.errors import ReproError

    class Exploding(ReversePermute):
        def map_loops(self, loops, taken):
            raise ReproError("bounds fold exploded")

    nest = rectangular_nest(2)
    deps = depset((1, 0))
    T = Transformation.of(Parallelize(2, [False, True]),
                          Exploding(2, [False, False], [1, 2]))
    cache = LegalityCache()
    assert cache.dep_legality(T, nest, deps).legal
    assert T._fold is None
    assert parallelism_score(T, nest, deps) == float("-inf")
    with pytest.raises(ReproError, match="exploded"):
        cache.legality(T, nest, deps)
