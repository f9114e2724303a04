"""Tests for the optimization drivers (hyperplane, parallelize, tile,
search) — the paper's 'future work' layer built on the framework."""

import random

import pytest

from repro.core.sequence import Transformation
from repro.deps.analysis import analyze
from repro.deps.vector import depset, depv
from repro.ir.loopnest import PARDO
from repro.ir.parser import parse_nest
from repro.optimize import (
    auto_tile,
    complete_to_unimodular,
    find_schedule,
    hyperplane_method,
    maximal_parallelize,
    outermost_parallel,
    parallelism_score,
    parallelizable_loops,
    schedule_dot,
    search,
    tilable_ranges,
)
from repro.optimize.search import SearchConfig
from repro.runtime import check_equivalence
from repro.util.errors import ReproError
from tests.conftest import random_array_2d


class TestScheduleSearch:
    def test_wavefront_for_stencil(self):
        pi = find_schedule(depset((1, 0), (0, 1)))
        assert pi == [1, 1]

    def test_prefers_small(self):
        pi = find_schedule(depset((1, 0)))
        assert pi == [1, 0]

    def test_direction_vectors_handled(self):
        pi = find_schedule(depset(("+", "0-")))
        # pi . (+, 0-) must be definitely positive: needs weight only on
        # entry 1... but 0- can be hugely negative, so pi2 must be 0.
        assert pi is not None
        assert pi[1] == 0

    def test_no_schedule_within_budget(self):
        # (+,-) and (-,+): any nonnegative pi gives dot that can be <= 0.
        assert find_schedule(depset((1, -1), (-1, 1))) is None

    def test_schedule_dot(self):
        d = schedule_dot([2, 1], depv(1, -1))
        assert d.value == 1


class TestCompletion:
    @pytest.mark.parametrize("pi", [
        [1, 1], [1, 2, 3], [2, 3], [3, 5, 7], [1, 0, 0, 1]])
    def test_first_row_and_unimodularity(self, pi):
        m = complete_to_unimodular(pi)
        assert list(m.row(0)) == pi
        assert m.is_unimodular()

    def test_gcd_requirement(self):
        with pytest.raises(ReproError):
            complete_to_unimodular([2, 4])


class TestHyperplane:
    def test_stencil_wavefront_legal_and_parallel(self, stencil_nest):
        deps = analyze(stencil_nest)
        result = hyperplane_method(deps)
        assert result is not None
        assert result.schedule == [1, 1]
        report = result.transformation.legality(stencil_nest, deps)
        assert report.legal
        out = result.transformation.apply(stencil_nest, deps)
        assert out.loops[1].kind == PARDO
        rng = random.Random(0)
        arrays = {"a": random_array_2d(rng, 0, 9, "a")}
        check_equivalence(stencil_nest, out, arrays, symbols={"n": 8})

    def test_empty_deps_trivial_schedule(self):
        result = hyperplane_method(depset(), n=3)
        assert result.schedule == [1, 0, 0]

    def test_no_schedule_returns_none(self):
        assert hyperplane_method(depset((1, -1), (-1, 1))) is None


class TestParallelizer:
    def test_parallelizable_loops(self):
        # (1, 0): loop 1 carries it; loop 2 is free.
        assert parallelizable_loops(depset((1, 0)), 2) == [2]

    def test_none_parallelizable(self):
        assert parallelizable_loops(depset(("0+", "0+")), 2) == []

    def test_all_parallelizable(self, matmul_nest):
        deps = depset((0, 0, "+"))
        assert parallelizable_loops(deps, 3) == [1, 2]

    def test_maximal_parallelize_matmul(self, matmul_nest):
        deps = depset((0, 0, "+"))
        t = maximal_parallelize(matmul_nest, deps)
        assert t.legality(matmul_nest, deps).legal
        out = t.apply(matmul_nest, deps)
        assert [lp.kind for lp in out.loops] == [PARDO, PARDO, "do"]

    def test_outermost_parallel_reorders(self):
        """(0, 1): only loop 1 is parallel as-is; interchange makes the
        parallel dimension outermost."""
        nest = parse_nest("""
        do i = 1, n
          do j = 2, n
            a(i, j) = a(i, j-1) + 1
          enddo
        enddo
        """)
        deps = analyze(nest)
        assert deps == depset((0, 1))
        t = outermost_parallel(nest, deps)
        assert t is not None
        out = t.apply(nest, deps)
        assert out.loops[0].kind == PARDO
        rng = random.Random(1)
        arrays = {"a": random_array_2d(rng, 0, 7, "a")}
        check_equivalence(nest, out, arrays, symbols={"n": 7})

    def test_outermost_parallel_none_when_serial(self):
        nest = parse_nest("""
        do i = 2, n
          do j = 2, n
            a(i, j) = a(i-1, j-1) + a(i-1, j) + a(i, j-1)
          enddo
        enddo
        """)
        deps = depset((1, 1), (1, 0), (0, 1))
        assert outermost_parallel(nest, deps) is None


class TestTiler:
    def test_tilable_ranges_matmul(self, matmul_nest):
        deps = depset((0, 0, "+"))
        ranges = tilable_ranges(matmul_nest, deps)
        assert ranges[0] == (1, 3)

    def test_auto_tile_legal(self, matmul_nest):
        deps = depset((0, 0, "+"))
        t = auto_tile(matmul_nest, deps, sizes=4)
        assert t is not None
        assert t.output_depth == 6

    def test_auto_tile_respects_preference(self, matmul_nest):
        deps = depset((0, 0, "+"))
        t = auto_tile(matmul_nest, deps, sizes=4, prefer=(2, 3))
        assert t.steps[0].i == 2 and t.steps[0].j == 3

    def test_nonlinear_range_not_tiled(self):
        nest = parse_nest("""
        do j = 1, n
          do k = colstr(j), colstr(j+1)-1
            a(k) = a(k) + 1
          enddo
        enddo
        """)
        ranges = tilable_ranges(nest, depset())
        assert (1, 2) not in ranges
        assert (1, 1) in ranges  # strip-mining the outer loop is fine


class TestSearch:
    def test_finds_parallelism(self, matmul_nest):
        deps = depset((0, 0, "+"))
        result = search(matmul_nest, deps,
                        config=SearchConfig(depth=2, beam=6))
        assert result.transformation is not None
        out = result.transformation.apply(matmul_nest, deps)
        assert any(lp.kind == PARDO for lp in out.loops)
        assert result.explored > result.legal_count

    def test_identity_when_nothing_helps(self):
        nest = parse_nest("""
        do i = 2, n
          a(i) = a(i-1) + 1
        enddo
        """)
        deps = depset((1,))
        result = search(nest, deps,
                        config=SearchConfig(depth=1, score=parallelism_score))
        assert len(result.transformation) == 0

    def test_search_never_mutates_nest(self, matmul_nest):
        before = matmul_nest.pretty()
        search(matmul_nest, depset((0, 0, "+")),
               config=SearchConfig(depth=1))
        assert matmul_nest.pretty() == before
