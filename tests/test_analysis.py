"""Tests for the dependence analyzer, including brute-force validation
against enumerated concrete accesses."""

import itertools
import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.deps.analysis import DependenceAnalyzer, analyze
from repro.deps.analysis.driver import _conservative_cover
from repro.deps.analysis.linear_system import LinConstraint, LinearSystem
from repro.deps.analysis.references import dependence_candidate_pairs
from repro.deps.analysis.tests import Equality, banerjee_test, gcd_test
from repro.deps.vector import DepEntry, DepSet, depset, depv
from repro.ir.parser import parse_nest
from repro.resilience.guards import GuardLimits, set_limits
from repro.runtime import run_nest
from fractions import Fraction


class TestGcdTest:
    def test_divisible_passes(self):
        # 2x - 2y + 4 = 0 has integer solutions.
        assert gcd_test(Equality({"x$1": Fraction(2), "y$2": Fraction(-2)},
                                 Fraction(4)))

    def test_indivisible_refuted(self):
        # 2x - 2y + 1 = 0 has none.
        assert not gcd_test(Equality({"x$1": Fraction(2),
                                      "y$2": Fraction(-2)}, Fraction(1)))

    def test_no_vars(self):
        assert gcd_test(Equality({}, Fraction(0)))
        assert not gcd_test(Equality({}, Fraction(3)))

    def test_fractional_coeffs_scaled(self):
        assert gcd_test(Equality({"x$1": Fraction(1, 2)}, Fraction(1)))


class TestBanerjeeTest:
    def test_out_of_range_refuted(self):
        # x1 - x2 + 100 = 0 with both in [1, 10]: impossible.
        eq = Equality({"x$1": Fraction(1), "x$2": Fraction(-1)},
                      Fraction(100))
        assert not banerjee_test(eq, {"x": (Fraction(1), Fraction(10))}, {})

    def test_in_range_passes(self):
        eq = Equality({"x$1": Fraction(1), "x$2": Fraction(-1)}, Fraction(3))
        assert banerjee_test(eq, {"x": (Fraction(1), Fraction(10))}, {})

    def test_direction_constraint_refutes(self):
        # x2 = x1 + 3 requires delta = +3, but direction '-' wants < 0.
        eq = Equality({"x$1": Fraction(1), "x$2": Fraction(-1)}, Fraction(3))
        assert not banerjee_test(eq, {"x": (Fraction(1), Fraction(10))},
                                 {"x": "-"})

    def test_unbounded_symbol_passes(self):
        eq = Equality({"x$1": Fraction(1), "n": Fraction(1)}, Fraction(0))
        assert banerjee_test(eq, {"x": (Fraction(1), Fraction(10))}, {})

    def test_impossible_direction_in_tiny_range(self):
        # Range has one point: delta '+' impossible at all.
        eq = Equality({"x$2": Fraction(1), "x$1": Fraction(-1)}, Fraction(0))
        assert not banerjee_test(eq, {"x": (Fraction(4), Fraction(4))},
                                 {"x": "+"})


class TestLinearSystem:
    def test_feasible(self):
        s = LinearSystem()
        s.add_ge({"x": Fraction(1)}, Fraction(-1))   # x >= 1
        s.add_le({"x": Fraction(1)}, Fraction(-10))  # x <= 10
        assert s.is_feasible()

    def test_infeasible(self):
        s = LinearSystem()
        s.add_ge({"x": Fraction(1)}, Fraction(-10))  # x >= 10
        s.add_le({"x": Fraction(1)}, Fraction(-1))   # x <= 1
        assert not s.is_feasible()

    def test_equality_infeasible(self):
        s = LinearSystem()
        s.add_eq({"x": Fraction(1)}, Fraction(-5))   # x == 5
        s.add_ge({"x": Fraction(1)}, Fraction(-7))   # x >= 7
        assert not s.is_feasible()

    def test_bounds_of(self):
        s = LinearSystem()
        s.add_ge({"x": Fraction(1), "y": Fraction(-1)}, 0)   # x >= y
        s.add_ge({"y": Fraction(1)}, Fraction(-2))           # y >= 2
        s.add_le({"x": Fraction(1)}, Fraction(-9))           # x <= 9
        lo, hi = s.bounds_of("x")
        assert lo == 2 and hi == 9

    def test_bounds_unbounded_side(self):
        s = LinearSystem()
        s.add_ge({"x": Fraction(1)}, Fraction(-3))
        lo, hi = s.bounds_of("x")
        assert lo == 3 and hi is None

    def test_bounds_of_infeasible_is_none(self):
        # x >= 2, x <= 1: no variable to eliminate, yet infeasible.
        s = LinearSystem()
        s.add_ge({"x": Fraction(1)}, Fraction(-2))
        s.add_le({"x": Fraction(1)}, Fraction(-1))
        assert s.bounds_of("x") == (None, None)
        # Infeasible only through another variable: x >= y >= 5, x <= 3.
        s = LinearSystem()
        s.add_ge({"x": Fraction(1), "y": Fraction(-1)}, 0)
        s.add_ge({"y": Fraction(1)}, Fraction(-5))
        s.add_le({"x": Fraction(1)}, Fraction(-3))
        assert s.bounds_of("x") == (None, None)
        assert s.bounds_of("y") == (None, None)

    def test_variable_free_contradiction(self):
        s = LinearSystem([LinConstraint({}, -1)])
        assert not s.is_feasible()
        assert s.bounds_of("x") == (None, None)
        assert [(r.coeffs, r.const) for r in s.project(["x"])] == [({}, -1)]

    def test_project_keeps_only_named_variables(self):
        # 0 <= x <= 4, y == x + d, 1 <= y <= 3: d ranges over [-3, 3].
        s = LinearSystem()
        s.add_ge({"x": Fraction(1)}, 0)
        s.add_le({"x": Fraction(1)}, Fraction(-4))
        s.add_eq({"y": Fraction(1), "x": Fraction(-1), "d": Fraction(-1)}, 0)
        s.add_ge({"y": Fraction(1)}, Fraction(-1))
        s.add_le({"y": Fraction(1)}, Fraction(-3))
        rows = s.project(["d"])
        assert rows and all(set(r.coeffs) == {"d"} for r in rows)
        assert LinearSystem(rows).bounds_of("d") == s.bounds_of("d") == (-3, 3)


class TestAnalyzeKnownNests:
    def test_stencil(self, stencil_nest):
        assert analyze(stencil_nest) == depset((1, 0), (0, 1))

    def test_matmul(self, matmul_nest):
        assert analyze(matmul_nest) == depset((0, 0, "+"))

    def test_fig2(self, fig2_nest):
        assert analyze(fig2_nest) == depset((1, -1), ("+", 0))

    def test_recurrence(self):
        nest = parse_nest("do i = 2, n\n a(i) = a(i-1) + 1\nenddo")
        assert analyze(nest) == depset((1,))

    def test_independent(self):
        nest = parse_nest("do i = 1, n\n a(i) = b(i) * 2\nenddo")
        assert analyze(nest).is_empty()

    def test_anti_dependence_direction(self):
        nest = parse_nest("do i = 1, n\n a(i) = a(i+2)\nenddo")
        assert analyze(nest) == depset((2,))

    def test_gcd_refutation(self):
        # a(2i) = a(2i+1): offsets of different parity never alias.
        nest = parse_nest("do i = 1, n\n a(2*i) = a(2*i + 1) + 1\nenddo")
        assert analyze(nest).is_empty()

    def test_nonaffine_subscript_conservative(self):
        nest = parse_nest("do i = 1, n\n a(idx(i)) = a(i) + 1\nenddo")
        result = analyze(nest)
        assert depv("+") in result  # the conservative cover

    def test_symbolic_step_conservative(self):
        nest = parse_nest("do i = 1, n, s\n a(i) = a(i-1) + 1\nenddo")
        result = analyze(nest)
        assert not result.is_empty()

    def test_coupled_subscripts_fm_precision(self):
        # a(i, i) = a(j... only FM sees coupled dims; with i==j forced in
        # dim 1 and i==j+1 in dim 2, no dependence exists.
        nest = parse_nest("""
        do i = 1, n
          a(i, i) = a(i, i + 1) * 2
        enddo
        """)
        # Write (i, i), read (i, i+1): distance would need i2 = i1 and
        # i2 = i1 - 1 simultaneously: impossible.
        assert analyze(nest, level="fm").is_empty()

    def test_scalar_accumulator_is_carried_everywhere(self):
        nest = parse_nest("""
        do i = 1, n
          do j = 1, n
            s(0) += i * j
          enddo
        enddo
        """)
        result = analyze(nest)
        assert depv(0, "+") in result
        # Every lex-positive tuple must be covered (the accumulator
        # serializes everything).
        for tup in [(1, 3), (1, -3), (2, 0), (0, 2)]:
            assert any(v.contains_tuple(tup) for v in result)


LADDER_CASES = {
    "stencil": "do i = 2, n-1\n do j = 2, n-1\n"
               "  a(i, j) = (a(i-1, j) + a(i, j-1)) / 2\n enddo\nenddo",
    "matmul": "do i = 1, n\n do j = 1, n\n  do k = 1, n\n"
              "   A(i, j) += B(i, k) * C(k, j)\n  enddo\n enddo\nenddo",
    "coupled": "do i = 1, n\n a(i, i) = a(i, i + 1) * 2\nenddo",
    "parity": "do i = 1, n\n a(2*i) = a(2*i + 1) + 1\nenddo",
    "transpose": "do i = 1, n\n do j = 1, n\n  A(i, j) += A(j, i)\n"
                 " enddo\nenddo",
}


def _precision_weight(deps):
    """Vectors plus summary (non-distance) entries: lower is sharper,
    0 is fully independent."""
    return sum(1 + sum(not e.is_distance for e in vec) for vec in deps)


class TestLadderPrecision:
    """What each rung of the test ladder buys (DESIGN.md ablation 4; the
    timings stay in ``benchmarks/bench_perf_depanalysis.py``)."""

    @pytest.mark.parametrize("case", sorted(LADDER_CASES))
    def test_deeper_tiers_never_lose_precision(self, case):
        nest = parse_nest(LADDER_CASES[case])
        gcd, banerjee, fm = (_precision_weight(analyze(nest, level=level))
                             for level in ("gcd", "banerjee", "fm"))
        assert gcd >= banerjee >= fm

    def test_coupled_subscripts_need_banerjee(self):
        """GCD keeps a false dependence; Banerjee sees both dimensions
        constrain the same delta and, like FM, proves independence."""
        nest = parse_nest(LADDER_CASES["coupled"])
        assert analyze(nest, level="fm").is_empty()
        assert analyze(nest, level="banerjee").is_empty()
        assert not analyze(nest, level="gcd").is_empty()

    def test_transpose_needs_fourier_motzkin(self):
        """``A(i,j) += A(j,i)`` couples i2 = j1 and j2 = i1: intervals
        cannot see it, Fourier–Motzkin collapses the set to {(+, -)}."""
        nest = parse_nest(LADDER_CASES["transpose"])
        fm = analyze(nest, level="fm")
        assert _precision_weight(fm) < _precision_weight(
            analyze(nest, level="banerjee"))
        assert str(fm) == "{(+, -)}"


class TestTierMonotonicity:
    @pytest.mark.parametrize("source", [
        "do i = 1, n\n a(i) = a(i-1) + 1\nenddo",
        "do i = 1, n\n do j = 1, n\n a(i, j) = a(i-1, j+1) + 1\n enddo\nenddo",
        "do i = 1, n\n a(2*i) = a(2*i+1) + 1\nenddo",
    ])
    def test_deeper_tiers_are_subsets(self, source):
        """Every tuple reported by a deeper tier must be covered by every
        shallower tier (the ladder only removes false dependences)."""
        nest = parse_nest(source)
        sets = {lvl: analyze(nest, level=lvl)
                for lvl in ("gcd", "banerjee", "fm")}
        for fine, coarse in (("fm", "banerjee"), ("banerjee", "gcd")):
            for vec in sets[fine]:
                for t in vec.sample_tuples(bound=2, limit=32):
                    assert any(c.contains_tuple(t) for c in sets[coarse]), \
                        (fine, coarse, vec, t)


def brute_force_dependences(nest, symbols, funcs=None):
    """Ground truth: execute the nest, associate every array access with
    its index tuple, and collect every cross-iteration dependence
    difference in the analyzer's convention — per-level index deltas
    divided by the (constant) step, so a stride-2 recurrence ``a(i) =
    a(i-2)`` reports distance 1."""
    from repro.expr.nodes import Const
    from repro.runtime.interpreter import Interpreter

    steps = []
    for lp in nest.loops:
        assert isinstance(lp.step, Const), \
            "oracle requires constant steps"
        steps.append(lp.step.value)

    touched = {}
    order = []

    class Recorder(Interpreter):
        def _run_body(self, env, state, itrace, atrace, counter):
            local = []
            super()._run_body(env, state, itrace, local, counter)
            key = tuple(env[v] for v in nest.indices)
            order.append(key)
            touched[key] = [(nm, idx, kind) for nm, idx, kind in local]

    Recorder(nest, symbols=symbols, funcs=funcs,
             trace_addresses=True).run({})
    deps = set()
    for p in range(len(order)):
        for q in range(p + 1, len(order)):
            a, b = order[p], order[q]
            for (na, ia, ka) in touched[a]:
                for (nb, ib, kb) in touched[b]:
                    if na == nb and ia == ib and "W" in (ka, kb):
                        deps.add(tuple((x - y) // s
                                       for x, y, s in zip(b, a, steps)))
    deps.discard(tuple([0] * len(nest.indices)))
    return deps


class TestBruteForceValidation:
    """The analyzer must cover every dependence that actually occurs."""

    @pytest.mark.parametrize("source,funcs", [
        ("do i = 2, n-1\n do j = 2, n-1\n a(i, j) = (a(i-1, j) + a(i, j-1))/2\n enddo\nenddo", None),
        ("do i = 1, n\n do j = 1, n\n A(i, j) += B(i, k0) * A(j, i)\n enddo\nenddo", None),
        ("do i = 1, n\n a(i) = a(n - i) + 1\nenddo", None),
        ("do i = 1, n, 2\n a(i) = a(i - 2) + 1\nenddo", None),
        ("do i = 1, n\n do j = i, n\n a(j) = a(i) + 1\n enddo\nenddo", None),
    ])
    @pytest.mark.parametrize("level", ["gcd", "banerjee", "fm"])
    def test_coverage(self, source, funcs, level):
        nest = parse_nest(source)
        symbols = {"n": 7, "k0": 1}
        actual = brute_force_dependences(nest, symbols, funcs)
        reported = analyze(nest, level=level)
        for tup in actual:
            assert any(v.contains_tuple(tup) for v in reported), \
                (level, tup, str(reported))


class TestExplain:
    def test_per_pair_breakdown(self, stencil_nest):
        from repro.deps.analysis.driver import DependenceAnalyzer

        reports = DependenceAnalyzer(stencil_nest).explain()
        # 5 reads + 1 write on 'a': pairs in both orders plus the
        # write-write self pair.
        assert all(r.src.array == "a" for r in reports)
        assert any(not r.conservative and r.vectors for r in reports)
        assert not any(r.conservative for r in reports)

    def test_conservative_flagged(self):
        from repro.deps.analysis.driver import DependenceAnalyzer

        nest = parse_nest("do i = 1, n\n a(idx(i)) = a(i) + 1\nenddo")
        reports = DependenceAnalyzer(nest).explain()
        assert any(r.conservative for r in reports)

    def test_repr_readable(self, matmul_nest):
        from repro.deps.analysis.driver import DependenceAnalyzer

        reports = DependenceAnalyzer(matmul_nest).explain()
        text = "\n".join(repr(r) for r in reports)
        assert "W:A(i, j)" in text
        assert "equalities" in text

    def test_explain_matches_analyze(self, matmul_nest):
        from repro.deps.analysis.driver import DependenceAnalyzer

        analyzer = DependenceAnalyzer(matmul_nest)
        from repro.deps.vector import DepSet
        via_explain = DepSet(
            [v.coarsen() for r in analyzer.explain() for v in r.vectors])
        assert via_explain == analyzer.analyze()


# -- the integer fast path and the pair memo -----------------------------------

_names = st.sampled_from(["a", "b", "c", "d", "e"])
_int_rows = st.dictionaries(_names, st.integers(-6, 6), max_size=5)


def _same_row(x, y):
    return (list(x.coeffs.items()) == list(y.coeffs.items())
            and x.const == y.const and x.equality == y.equality
            and x.key() == y.key())


class TestIntegerRows:
    @given(_int_rows, st.integers(-12, 12), st.booleans())
    def test_from_ints_matches_constructor(self, coeffs, const, equality):
        assert _same_row(LinConstraint.from_ints(dict(coeffs), const,
                                                 equality),
                         LinConstraint(coeffs, const, equality))

    @given(_int_rows, _int_rows, st.integers(1, 4), st.integers(1, 4),
           st.integers(-9, 9), st.integers(-9, 9))
    def test_combined_rows_with_cancellation(self, p, q, ap, aq, pc, qc):
        # The combination _eliminate forms, with q built to cancel
        # some of p's coefficients outright.
        q = {**q, **{v: -c * aq // ap for v, c in p.items()
                     if (c * aq) % ap == 0 and v < "c"}}
        combined = {v: aq * c for v, c in p.items()}
        for v, c in q.items():
            combined[v] = combined.get(v, 0) + ap * c
        const = aq * pc + ap * qc
        assert _same_row(LinConstraint.from_ints(dict(combined), const),
                         LinConstraint(combined, const))

    def test_equality_split_is_cached(self):
        row = LinConstraint({"x": 2, "y": -4}, 6, equality=True)
        pos, neg = row.as_inequalities()
        assert _same_row(pos, LinConstraint({"x": 1, "y": -2}, 3))
        assert _same_row(neg, LinConstraint({"x": -1, "y": 2}, -3))
        assert row.as_inequalities() is row.as_inequalities()
        plain = LinConstraint({"x": 1}, 0)
        assert plain.as_inequalities() == (plain,)


_system_rows = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(["x", "y", "z", "w"]),
                              st.integers(-3, 3), min_size=1, max_size=4),
              st.integers(-5, 5), st.booleans()),
    min_size=1, max_size=9)


def _answers(rows):
    system = LinearSystem([LinConstraint(c, k, e) for c, k, e in rows])
    return (system.is_feasible(),
            [system.bounds_of(v) for v in ("x", "y", "z", "w")])


class TestRowOrderInvariance:
    """The pair memo relies on FM answers being functions of the row
    set: reordering rows never changes a verdict, a bound or a
    give-up."""

    @settings(max_examples=150, deadline=None)
    @given(_system_rows, st.randoms(use_true_random=False),
           st.sampled_from([2, 4, 6, 8, 4000]))
    def test_answers_ignore_row_order(self, rows, rnd, cap):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        set_limits(GuardLimits(max_fme_constraints=cap))
        try:
            expected = _answers(rows)
            assert _answers(shuffled) == expected
            assert _answers(rows[::-1]) == expected
        finally:
            set_limits(None)

    @pytest.mark.parametrize("rows,cap", [
        # Infeasible, but the first step already needs 3 rows.
        ([({"x": 1}, -k, False) for k in range(3)] +
         [({"x": -1}, -1, False), ({"x": 1, "y": 1}, 0, False)], 2),
        # Feasible, x bounded below, with the default cap; under cap 8,
        # bounds_of("x") gives up after a step whose variable is picked
        # by a name tie.
        ([({"y": 3}, -2, False), ({"z": -2, "y": 3}, -1, True),
          ({"z": -2, "x": 3}, -2, False),
          ({"y": -2, "w": -2, "z": -3}, 0, False),
          ({"x": 1, "y": -2, "w": 3}, -5, False),
          ({"y": 1, "w": -2, "z": 2}, -3, False)], 8),
    ])
    def test_give_up_under_shrunk_cap_ignores_row_order(self, rows, cap):
        uncapped = _answers(rows)
        set_limits(GuardLimits(max_fme_constraints=cap))
        try:
            capped = _answers(rows)
            assert capped != uncapped
            assert capped[1][0] == (None, None)  # x's bounds: give-up
            for perm in itertools.permutations(rows):
                assert _answers(list(perm)) == capped
        finally:
            set_limits(None)


def _answers_and_give_ups(rows):
    obs.disable()
    obs.get_metrics().clear()
    obs.enable()
    try:
        answers = _answers(rows)
        return answers, obs.get_metrics().counter("fme.give_up").value
    finally:
        obs.disable()
        obs.get_metrics().clear()


class TestImpliedRowPruning:
    """Dropping dominated and box-implied rows after each elimination
    step never changes an answer: wherever neither gives up, the plain
    algorithm (dedupe only) gives the same verdicts and bounds."""

    @settings(max_examples=200, deadline=None)
    @given(_system_rows)
    def test_pruning_keeps_every_answer(self, rows):
        import repro.deps.analysis.linear_system as ls
        set_limits(GuardLimits(max_fme_constraints=300))
        saved = ls._drop_dominated, ls._drop_box_implied
        try:
            pruned, pruned_give_ups = _answers_and_give_ups(rows)
            ls._drop_dominated, ls._drop_box_implied = ls._dedupe, list
            plain, plain_give_ups = _answers_and_give_ups(rows)
        finally:
            ls._drop_dominated, ls._drop_box_implied = saved
            set_limits(None)
        if plain_give_ups == pruned_give_ups == 0:
            assert pruned == plain

    def test_dominated_rows(self):
        from repro.deps.analysis.linear_system import _drop_dominated
        rows = [LinConstraint({"x": 1}, 3), LinConstraint({"x": 1, "y": 1}, 0),
                LinConstraint({"x": 1}, -2), LinConstraint({"x": 2}, 1),
                LinConstraint({"x": 1}, -2)]
        kept = _drop_dominated(rows)
        assert [(r.coeffs, r.const) for r in kept] == [
            ({"x": 1}, -2), ({"x": 1, "y": 1}, 0), ({"x": 2}, 1)]

    def test_box_implied_rows(self):
        from repro.deps.analysis.linear_system import _drop_box_implied
        # 0 <= x <= 2, 1 <= y: x + y >= 0 holds on the box, y - x >= 0
        # does not (x = 2, y = 1), and x - y has no upper box for y.
        rows = [LinConstraint({"x": 1}, 0), LinConstraint({"x": -1}, 2),
                LinConstraint({"y": 1}, -1), LinConstraint({"x": 1, "y": 1}, 0),
                LinConstraint({"y": 1, "x": -1}, 0),
                LinConstraint({"x": 1, "y": -1}, 5)]
        kept = _drop_box_implied(rows)
        assert [r for r in rows if r not in kept] == [rows[3]]


def _unmemoized(nest):
    """Per-pair vectors with every pair's test ladder actually run."""
    analyzer = DependenceAnalyzer(nest)
    out = []
    for src, dst in dependence_candidate_pairs(nest.accesses()):
        problem = analyzer._build_problem(src, dst)
        out.append(analyzer._enumerate(problem) if problem.equalities
                   else _conservative_cover(nest.depth))
    return out


class TestPairMemo:
    SOURCE = """
    do i = 2, n
      do j = 1, n - 1
        a(i, j) = a(i, j) + a(i - 1, j + 1)
      enddo
    enddo
    """

    def test_memo_hits_give_the_unmemoized_answer(self):
        nest = parse_nest(self.SOURCE)
        obs.enable()
        try:
            reports = DependenceAnalyzer(nest).explain()
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.get_metrics().clear()
        reference = _unmemoized(nest)
        assert [r.vectors for r in reports] == reference
        assert (DepSet([v.coarsen() for vs in reference for v in vs])
                == analyze(nest) == depset((1, -1)))
        # Write->read, read->write and write->write of a(i, j) pose one
        # problem: two of them are answered from the memo.
        assert counters["deps.pairs_reused"] == 2
        assert counters["deps.pairs"] == len(reports) == 5

    def test_report_vector_lists_are_distinct(self, stencil_nest):
        for nest in (stencil_nest, parse_nest(self.SOURCE),
                     parse_nest("do i = 1, n\n a(idx(i)) = a(idx(i)) + 1"
                                "\nenddo")):
            reports = DependenceAnalyzer(nest).explain()
            assert len({id(r.vectors) for r in reports}) == len(reports)


_TIER_NAMES = ("a", "b", "c", "d")
_TIER_NEST = parse_nest("do a = 1, n\n do b = 1, n\n  do c = 1, n\n"
                        "   do d = 1, n\n    x(a, b, c, d) = 0\n"
                        "   enddo\n  enddo\n enddo\nenddo")


def _random_projection(rng):
    """A random system over the distance variables of :data:`_TIER_NAMES`
    as a projection looks: at most 4 variables and 8 rows, mostly
    one-variable bounds (some with a non-unit coefficient, hence a
    fractional bound), plus rows over two or more variables."""
    names = [f"{nm}$d" for nm in _TIER_NAMES[:rng.randint(1, 4)]]
    rows = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.6:
            v = rng.choice(names)
            a = rng.choice((1, 1, 1, 2, 3)) * rng.choice((1, -1))
            rows.append(LinConstraint({v: a}, rng.randint(-6, 6)))
        else:
            coeffs = {v: rng.randint(-3, 3)
                      for v in rng.sample(names, rng.randint(1, len(names)))}
            rows.append(LinConstraint(coeffs, rng.randint(-6, 6),
                                      equality=rng.random() < 0.2))
    return len(names), rows


class TestIntervalTier:
    """The integer interval tier decides a direction node only where its
    answer is rational Fourier–Motzkin's: a refuted node is infeasible,
    a node decided feasible is, and a leaf's distance read off the box
    is the one ``bounds_of`` pins."""

    def _problem(self, depth, rows):
        from repro.deps.analysis.driver import _PairProblem, _direction_rows
        names = _TIER_NAMES[:depth]
        return _PairProblem([], LinearSystem(), rows, names, {}, set(),
                            {nm: _direction_rows(nm) for nm in names})

    def test_decisions_match_fourier_motzkin(self):
        from repro.deps.analysis.driver import DependenceAnalyzer
        rng = random.Random(24)
        refine = DependenceAnalyzer(_TIER_NEST)._refine_entry
        seen = {"refuted": 0, "feasible": 0, "undecided": 0, "pinned": 0}
        for _ in range(400):
            depth, rows = _random_projection(rng)
            problem = self._problem(depth, rows)
            names = problem.index_names
            for k in range(depth + 1):
                for codes in itertools.product("0+-*", repeat=k):
                    directions = dict(zip(names, codes))
                    answer = problem.interval_answer(directions)
                    system = problem.with_directions(directions)
                    if answer is None:
                        seen["undecided"] += 1
                        continue
                    feasible = system.is_feasible()
                    assert (answer is not False) == feasible, (
                        rows, directions)
                    seen["feasible" if feasible else "refuted"] += 1
                    if not feasible or k < depth:
                        continue
                    lo, hi = answer
                    for name in names:
                        d = f"{name}$d"
                        assert (lo.get(d), hi.get(d)) == \
                            system.bounds_of(d), (rows, directions, d)
                        entry = refine(problem, directions, name)
                        want = system.bounds_of(d)
                        if directions[name] in "+-" and \
                                want[0] is not None and \
                                want[0] == want[1] and \
                                want[0].denominator == 1:
                            seen["pinned"] += 1
                            assert entry == DepEntry.distance(int(want[0]))
                        elif directions[name] in "+-":
                            assert entry == DepEntry.direction(
                                directions[name])
        # The sample exercises every outcome, not just the easy ones.
        assert min(seen.values()) >= 200, seen

    def test_tier_counts_do_not_depend_on_the_interval_tier(
            self, monkeypatch):
        """Per node, ``deps.feasible``/``deps.refuted.*`` count the same
        outcomes whether the box or Fourier–Motzkin gave them, and every
        exact-tier node and refinement is counted once, on
        ``deps.interval_decided`` or ``deps.fm_queries``."""
        from repro.deps.analysis.driver import _PairProblem
        from repro.fuzz.gen import CaseGen
        nests = [parse_nest(src) for src in LADDER_CASES.values()]
        nests += [parse_nest(case.text) for case in CaseGen(5).cases(40)]

        def counters():
            obs.disable()
            obs.get_metrics().clear()
            obs.enable()
            try:
                answers = [str(analyze(nest)) for nest in nests]
                return answers, obs.get_metrics().snapshot()["counters"]
            finally:
                obs.disable()
                obs.get_metrics().clear()

        answers, tiered = counters()
        monkeypatch.setattr(_PairProblem, "_interval_answer",
                            lambda self, directions: None)
        fm_answers, fm_only = counters()
        assert answers == fm_answers
        assert tiered["deps.interval_decided"] > tiered["deps.fm_queries"]
        assert "deps.interval_decided" not in fm_only
        assert (tiered["deps.interval_decided"] + tiered["deps.fm_queries"]
                == fm_only["deps.fm_queries"])
        for name in ("deps.feasible", "deps.refuted.gcd",
                     "deps.refuted.banerjee", "deps.refuted.fm",
                     "deps.pairs_projected"):
            assert tiered.get(name) == fm_only.get(name), name
        assert "fme.give_up" not in tiered and "fme.give_up" not in fm_only

    def test_gave_up_projection_keeps_the_conservative_path(self):
        problem = self._problem(2, [])
        problem.distance_rows = None  # what a give-up leaves
        assert problem.box is None
        assert problem.interval_answer({"a": "+"}) is None
        assert problem.with_directions({"a": "+"}) is None

    def test_infeasible_projection_refutes_every_node(self):
        problem = self._problem(2, [LinConstraint({}, -1)])
        answers = [problem.interval_answer(dict(zip("ab", codes)))
                   for codes in itertools.product("0+-", repeat=2)]
        # FM decides: the variable-free row holds nowhere.
        assert answers == [None] * 9
        assert not problem.with_directions({"a": "+"}).is_feasible()

    def test_fraction_equalities_scale_to_the_same_verdicts(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(500):
            names = rng.sample(["x$1", "x$2", "y$1", "y$2", "n"],
                               rng.randint(0, 4))
            coeffs = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for v in names}
            const = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            scale = rng.randint(1, 5) * lcm(
                const.denominator, *(c.denominator for c in coeffs.values()))
            scaled = Equality({v: int(c * scale) for v, c in coeffs.items()},
                              int(const * scale))
            rational = Equality(coeffs, const)
            assert all(type(c) is int for c in rational.coeffs.values())
            assert type(rational.const) is int
            assert gcd_test(rational) == gcd_test(scaled)
            ranges = {"x": (rng.randint(-3, 3), rng.randint(2, 8)),
                      "y": (rng.randint(0, 4), rng.randint(4, 9))}
            for dx, dy in itertools.product("+0-*", repeat=2):
                direction = {"x": dx, "y": dy}
                assert (banerjee_test(rational, ranges, direction)
                        == banerjee_test(scaled, ranges, direction))
                checked += 1
        assert checked == 8000
