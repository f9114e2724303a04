"""Integration tests for the search driver with the execution-backed
locality score (interpreter + cache simulator in the loop)."""

import random

import pytest

from repro.cache import CacheConfig, Layout
from repro.core.templates.block import Block
from repro.core.templates.reverse_permute import interchange
from repro.deps import depset
from repro.ir import parse_nest
from repro.optimize import make_locality_score, search
from repro.optimize.search import SearchConfig
from repro.runtime import Array
from tests.conftest import random_array_2d


@pytest.fixture
def column_walker():
    """A nest that traverses a row-major array in column order — the
    canonical candidate for interchange."""
    return parse_nest("""
    do j = 1, n
      do i = 1, n
        s(0) += a(i, j)
      enddo
    enddo
    """)


def _layout(n):
    layout = Layout(element_bytes=8, order="row")
    layout.register("a", [(1, n), (1, n)])
    layout.register("s", [(0, 0)])
    return layout


def test_locality_score_prefers_interchange(column_walker):
    n = 24
    rng = random.Random(0)
    arrays = {"a": random_array_2d(rng, 1, n, "a")}
    score = make_locality_score(
        arrays, {"n": n}, _layout(n),
        CacheConfig(size_bytes=512, line_bytes=64, associativity=2))
    deps = depset(("0+", "0+"))  # serialize everything via the scalar sum

    from repro.core.sequence import Transformation

    identity = Transformation.identity(2)
    swapped = Transformation.of(interchange(2, 1, 2))
    assert score(swapped, column_walker, deps) > \
        score(identity, column_walker, deps)


def test_search_finds_the_interchange(column_walker):
    n = 24
    rng = random.Random(1)
    arrays = {"a": random_array_2d(rng, 1, n, "a")}
    score = make_locality_score(
        arrays, {"n": n}, _layout(n),
        CacheConfig(size_bytes=512, line_bytes=64, associativity=2))
    deps = depset(("0+", "0+"))
    result = search(column_walker, deps,
                    config=SearchConfig(score=score, depth=1, beam=4))
    assert result.transformation is not None
    out = result.transformation.apply(column_walker, deps, check=False)
    # The winner walks the row-major array with j (the fastest-varying
    # subscript) innermost.
    assert out.indices == ("i", "j")


def test_locality_score_robust_to_illegal_candidates(column_walker):
    """Candidates whose codegen fails score -inf instead of raising."""
    n = 8
    rng = random.Random(2)
    arrays = {"a": random_array_2d(rng, 1, n, "a")}
    score = make_locality_score(arrays, {"n": n}, _layout(n))
    deps = depset((1, 1))

    from repro.core.sequence import Transformation

    # Reversal of loop 1 is illegal under (1,1).
    from repro.core.templates.reverse_permute import reversal

    bad = Transformation.of(reversal(2, [1]))
    assert score(bad, column_walker, deps) == float("-inf")
