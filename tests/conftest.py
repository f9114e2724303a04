"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.ir import parse_nest
from repro.runtime import Array


@pytest.fixture
def stencil_nest():
    """Figure 1(a): the 5-point Jacobi-style stencil."""
    return parse_nest("""
    do i = 2, n-1
      do j = 2, n-1
        a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5
      enddo
    enddo
    """)


@pytest.fixture
def matmul_nest():
    """Figure 6: the matrix-multiply input nest."""
    return parse_nest("""
    do i = 1, n
      do j = 1, n
        do k = 1, n
          A(i, j) += B(i, k) * C(k, j)
        enddo
      enddo
    enddo
    """)


@pytest.fixture
def triangular_nest():
    """Figure 4(a): the doubly-nested triangular loop."""
    return parse_nest("""
    do i = 1, n
      do j = i, n
        a(i, j) = i + j
      enddo
    enddo
    """)


@pytest.fixture
def fig2_nest():
    """Figure 2's loop nest with D = {(1,-1), (+,0)}."""
    return parse_nest("""
    do i = 2, n-1
      do j = 2, n-1
        a(i, j) = b(j)
        if (c(i, j) > 0) b(j) = a(i-1, j+1)
      enddo
    enddo
    """)


@pytest.fixture(params=["service", "fleet"])
def make_front(request):
    """Build either admission front — a ``TransformationService`` or a
    ``FleetFrontEnd`` over a fake router, so no worker process starts —
    for the tests both fronts must pass."""
    from repro.fleet import FleetFrontEnd
    from repro.service import TransformationService
    from tests.test_fleet import _FakeRouter

    def build(**kwargs):
        if request.param == "service":
            return TransformationService(**kwargs)
        return FleetFrontEnd(_FakeRouter(), **kwargs)
    return build


def random_array_2d(rng: random.Random, lo: int, hi: int, name: str = "",
                    limit: int = 100) -> Array:
    """A dense random 2-D array over [lo, hi] x [lo, hi]."""
    arr = Array(0, name)
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            arr[(i, j)] = rng.randrange(limit)
    return arr


def random_array_1d(rng: random.Random, lo: int, hi: int, name: str = "",
                    limit: int = 100) -> Array:
    arr = Array(0, name)
    for i in range(lo, hi + 1):
        arr[(i,)] = rng.randrange(limit)
    return arr
