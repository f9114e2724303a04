"""Retired deprecation shims stay retired.

Search tuning is a ``SearchConfig`` passed as ``config=``: the
historical keyword arguments and positional tuning, each past its
one-release deprecation, are now plain ``TypeError``s, and the
``config=`` form never warns.
"""

from __future__ import annotations

import warnings

import pytest

from repro.api import SearchConfig, analyze, parse_nest, search
from repro.optimize.search import parallelism_score

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


@pytest.fixture
def nest_deps():
    nest = parse_nest(STENCIL)
    return nest, analyze(nest)


def test_legacy_keywords_are_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        search(nest, deps, score=parallelism_score, depth=1, beam=4)


def test_config_search_does_not_warn(nest_deps):
    nest, deps = nest_deps
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        search(nest, deps, config=SearchConfig(depth=1, beam=4))
        search(nest, deps)  # all-defaults call is clean too


def test_positional_tuning_is_now_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="SearchConfig"):
        search(nest, deps, None, parallelism_score, 1, 4)


def test_unknown_keyword_is_a_type_error(nest_deps):
    nest, deps = nest_deps
    with pytest.raises(TypeError, match="unexpected keyword"):
        search(nest, deps, depht=1)
