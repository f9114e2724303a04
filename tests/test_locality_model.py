"""Tests for the static locality cost model, including agreement with
the cache simulator's measured ranking."""

import random

import pytest

from repro.cache import CacheConfig, Layout, simulate_trace
from repro.deps import depset
from repro.deps.analysis import analyze
from repro.expr.parser import parse_expr
from repro.ir import parse_nest
from repro.optimize import (
    best_loop_order,
    loop_cost,
    rank_loop_orders,
    reference_cost,
)
from repro.runtime import run_nest
from tests.conftest import random_array_2d


class TestReferenceCost:
    def test_invariant(self):
        subs = (parse_expr("i"), parse_expr("j"))
        assert reference_cost(subs, "k", 8) == 0.0

    def test_unit_stride_row_major(self):
        subs = (parse_expr("i"), parse_expr("j"))
        assert reference_cost(subs, "j", 8) == pytest.approx(1 / 8)

    def test_column_walk_is_stride(self):
        subs = (parse_expr("i"), parse_expr("j"))
        assert reference_cost(subs, "i", 8) == 1.0

    def test_column_major_flips(self):
        subs = (parse_expr("i"), parse_expr("j"))
        assert reference_cost(subs, "i", 8, order="col") == pytest.approx(1 / 8)
        assert reference_cost(subs, "j", 8, order="col") == 1.0

    def test_non_unit_coefficient_is_stride(self):
        subs = (parse_expr("i"), parse_expr("2*j"))
        assert reference_cost(subs, "j", 8) == 1.0

    def test_indexed_subscript_is_stride(self):
        subs = (parse_expr("idx(j)"),)
        assert reference_cost(subs, "j", 8) == 1.0

    def test_coupled_dimensions(self):
        # innermost strides a slow dimension too: full miss.
        subs = (parse_expr("j"), parse_expr("j"))
        assert reference_cost(subs, "j", 8) == 1.0


class TestRanking:
    def test_matmul_classic_orders(self, matmul_nest):
        """The textbook result: for row-major C = A*B, k-innermost (ijk)
        is the worst of the six orders and j-innermost orders win."""
        ranking = rank_loop_orders(matmul_nest, line_elements=8)
        costs = dict(ranking)
        ijk = costs[(1, 2, 3)]     # k innermost
        ikj = costs[(1, 3, 2)]     # j innermost
        jki = costs[(2, 3, 1)]     # i innermost
        assert ikj < ijk
        assert ikj < jki
        best_order, best_cost = ranking[0]
        assert best_order[-1] == 2  # j innermost

    def test_best_loop_order_legal(self, matmul_nest):
        deps = depset((0, 0, "+"))
        T = best_loop_order(matmul_nest, deps)
        assert T is not None
        out = T.apply(matmul_nest, deps)
        assert out.indices[-1] == "j"

    def test_references_follow_the_call_rule(self):
        """Builtin calls cost nothing; a relational name at another arity,
        ``ne`` and a read-only array each cost like an array, read in the
        body or in a leading scalar assignment."""
        def cost(rhs):
            nest = parse_nest(f"do i = 1, n\n do j = 1, n\n  a(j) = {rhs}\n"
                              " enddo\nenddo")
            return loop_cost(nest, "i", line_elements=8)

        assert cost("le(i, j) + abs(i) + sgn(j)") == 0.0
        assert cost("le(i)") == cost("ne(j, i)") == cost("b(i)") == 0.125
        init_read = parse_nest("do i = 1, n\n do j = 1, n\n  t = b(i)\n"
                               "  a(j) = t\n enddo\nenddo")
        assert loop_cost(init_read, "i", line_elements=8) == 0.125

    def test_identity_when_already_best(self):
        nest = parse_nest("""
        do i = 1, n
          do j = 1, n
            s(0) += a(i, j)
          enddo
        enddo
        """)
        T = best_loop_order(nest, depset(("0+", "0+")))
        assert len(T) == 0  # already walks rows

    def test_dependence_blocks_the_cheapest_order(self):
        """When the statically-best order is illegal, the next legal one
        is returned."""
        nest = parse_nest("""
        do j = 2, n
          do i = 1, n
            a(i, j) = a(i, j-1) + a(i, j)
          enddo
        enddo
        """)
        deps = analyze(nest)
        assert deps == depset((1, 0))
        T = best_loop_order(nest, deps)
        assert T is not None
        assert T.legality(nest, deps).legal


class TestAgreementWithSimulator:
    def test_model_ranking_matches_measured(self, matmul_nest):
        """For the three classic matmul orders, the static model and the
        cache simulator must agree on who wins."""
        n = 12
        rng = random.Random(0)
        arrays = {"B": random_array_2d(rng, 1, n, "B"),
                  "C": random_array_2d(rng, 1, n, "C")}
        layout = Layout(element_bytes=8, order="row")
        for name in ("A", "B", "C"):
            layout.register(name, [(1, n), (1, n)])
        cfg = CacheConfig(size_bytes=1024, line_bytes=64, associativity=2)

        from repro.core.sequence import Transformation
        from repro.core.templates.reverse_permute import ReversePermute

        measured = {}
        model = {}
        for order in [(1, 2, 3), (1, 3, 2), (2, 3, 1)]:
            perm = [0, 0, 0]
            for position, loop in enumerate(order, start=1):
                perm[loop - 1] = position
            T = Transformation.of(ReversePermute(3, [False] * 3, perm))
            out = T.apply(matmul_nest, depset((0, 0, "+")))
            result = run_nest(out, arrays, symbols={"n": n},
                              trace_addresses=True)
            measured[order] = simulate_trace(result.address_trace, layout,
                                             cfg).misses
            innermost = matmul_nest.loops[order[-1] - 1].index
            model[order] = loop_cost(matmul_nest, innermost, 8)

        measured_rank = sorted(measured, key=measured.get)
        model_rank = sorted(model, key=model.get)
        assert measured_rank[0] == model_rank[0]
        assert measured_rank[-1] == model_rank[-1]
