"""Tests for the LB/UB/STEP matrix representation (Figure 5)."""

import pytest

from repro.core.bounds_matrix import LB, STEP, UB, BoundsMatrix
from repro.expr.linear import BoundType
from repro.ir.parser import parse_nest


@pytest.fixture
def fig5_nest():
    """The sample loop nest of Figure 5."""
    return parse_nest("""
    do i = max(n, 3), 100, 2
      do j = 1, min(2, i + 512)
        do k = sqrt(i) / 2, 2*j, i
          body(i, j, k) = 0
        enddo
      enddo
    enddo
    """)


class TestFigure5Content:
    def test_lb_invariant_entries(self, fig5_nest):
        bm = BoundsMatrix.of_nest(fig5_nest)
        assert [str(e) for e in bm.invariant_entry(LB, 1)] == ["3", "n"]
        assert [str(e) for e in bm.invariant_entry(LB, 2)] == ["1"]
        assert [str(e) for e in bm.invariant_entry(LB, 3)] == \
            ["div(sqrt(i), 2)"]

    def test_ub_min_entry_splits(self, fig5_nest):
        bm = BoundsMatrix.of_nest(fig5_nest)
        # min(2, i+512): two terms; coefficient of i is <0, 1> per term.
        assert sorted(bm.coefficient(UB, 2, 1)) == [0, 1]
        assert bm._cell(UB, 2).combiner == "min"

    def test_ub_linear_coefficient(self, fig5_nest):
        bm = BoundsMatrix.of_nest(fig5_nest)
        assert bm.coefficient(UB, 3, 2) == (2,)

    def test_step_matrix(self, fig5_nest):
        bm = BoundsMatrix.of_nest(fig5_nest)
        assert bm.step_value(1) == 2
        assert bm.step_value(2) == 1
        assert bm.step_value(3) is None          # step is i, not const
        assert bm.coefficient(STEP, 3, 1) == (1,)

    def test_type_facts(self, fig5_nest):
        """The exact type facts listed under Figure 5."""
        bm = BoundsMatrix.of_nest(fig5_nest)
        assert bm.type_of(UB, 2, 1) is BoundType.LINEAR    # type(u2, i)
        assert bm.type_of(LB, 3, 1) is BoundType.NONLINEAR  # type(l3, i)
        assert bm.type_of(UB, 3, 2) is BoundType.LINEAR    # type(u3, j)
        assert bm.type_of(STEP, 3, 1) is BoundType.LINEAR  # type(s3, i)
        # invar or const in all other cases:
        assert bm.type_of(LB, 2, 1) is BoundType.CONST
        assert bm.type_of(UB, 3, 1) is BoundType.INVAR or \
            bm.type_of(UB, 3, 1) is BoundType.CONST

    def test_pretty_renders(self, fig5_nest):
        bm = BoundsMatrix.of_nest(fig5_nest)
        text = bm.pretty(LB)
        assert "max<3, n>" in text
        assert "sqrt" in text
        types = bm.pretty_types()
        assert "type(l3, i) = nonlinear" in types
        assert "type(u2, i) = linear" in types


class TestQueries:
    def test_type_by_name_or_number(self, triangular_nest):
        bm = BoundsMatrix.of_nest(triangular_nest)
        assert bm.type_of(LB, 2, 1) is BoundType.LINEAR
        assert bm.type_of(LB, 2, "i") is BoundType.LINEAR

    def test_index_error(self, triangular_nest):
        bm = BoundsMatrix.of_nest(triangular_nest)
        with pytest.raises(IndexError):
            bm.type_of(LB, 5, 1)

    def test_negative_step_swaps_minmax_direction(self):
        # With a negative step, a *min* lower bound is the special case.
        nest = parse_nest("""
        do i = 1, n
          do j = min(i, 10), 1, -1
            a(i, j) = 1
          enddo
        enddo
        """)
        bm = BoundsMatrix.of_nest(nest)
        assert bm.type_of(LB, 2, 1) is BoundType.LINEAR

    def test_wrong_direction_minmax_is_nonlinear(self):
        nest = parse_nest("""
        do i = 1, n
          do j = min(i, 10), 20
            a(i, j) = 1
          enddo
        enddo
        """)
        bm = BoundsMatrix.of_nest(nest)
        assert bm.type_of(LB, 2, 1) is BoundType.NONLINEAR

    def test_all_const_cell(self):
        nest = parse_nest("do i = 1, 10\n a(i) = 1\nenddo")
        bm = BoundsMatrix.of_nest(nest)
        assert bm._cell(LB, 1).const_value() == 1
        assert bm._cell(UB, 1).const_value() == 10

    def test_pretty_types_all_invar(self):
        nest = parse_nest("do i = 1, n\n do j = 1, n\n a(i,j)=1\n enddo\nenddo")
        bm = BoundsMatrix.of_nest(nest)
        assert "all cases" in bm.pretty_types()


# -- the shared per-header-tuple memo ---------------------------------------

def _header_stages():
    """(label, loop headers) for the fuzz generator's nests, the example
    kernels, and every stage of their step sequences' loop folds."""
    import pathlib

    from repro.core.sequence import Transformation
    from repro.fuzz.gen import CaseGen
    from repro.util.errors import ReproError

    sources = [(f"fuzz{case.case_id}", case.text, case.steps)
               for case in CaseGen(5).cases(60)]
    examples = pathlib.Path(__file__).resolve().parent.parent / \
        "examples" / "loops"
    sources += [(path.stem, path.read_text(), None)
                for path in sorted(examples.glob("*.loop"))]
    stages = []
    for label, text, steps in sources:
        nest = parse_nest(text)
        trace = [nest.loops]
        if steps:
            try:
                trace = Transformation.from_spec(steps, nest.depth,
                                                 reduce=False).loop_trace(nest)
            except (ReproError, ValueError):
                pass
        stages += [(f"{label}-stage{k}", loops)
                   for k, loops in enumerate(trace)]
    return stages


_STAGES = _header_stages()


@pytest.mark.parametrize("loops", [loops for _, loops in _STAGES],
                         ids=[label for label, _ in _STAGES])
def test_memoized_matrix_answers_like_a_fresh_one(loops):
    from repro.core.bounds_matrix import bounds_matrix_of

    memo, fresh = bounds_matrix_of(loops), BoundsMatrix(loops)
    n = len(loops)
    for i in range(1, n + 1):
        assert memo.step_value(i) == fresh.step_value(i)
        for which in (LB, UB, STEP):
            for j in range(1, n + 1):
                assert memo.type_of(which, i, j) is \
                    fresh.type_of(which, i, j), (which, i, j)


class TestMatrixMemo:
    TEXT = "do i = 1, n\n do j = i, n, 2\n  a(i, j) = 1\n enddo\nenddo"

    def test_content_equal_headers_share_one_matrix(self):
        from repro.core.bounds_matrix import bounds_matrix_of

        first, second = parse_nest(self.TEXT), parse_nest(self.TEXT)
        assert first.loops is not second.loops
        assert first.loops[1] is not second.loops[1]
        assert bounds_matrix_of(first.loops) is \
            bounds_matrix_of(list(second.loops))

    def test_kind_or_step_keeps_matrices_apart(self):
        from repro.core.bounds_matrix import bounds_matrix_of
        from repro.expr.nodes import Const
        from repro.ir.loopnest import PARDO

        loops = parse_nest(self.TEXT).loops
        pardo = (loops[0].with_kind(PARDO), loops[1])
        stepped = (loops[0], loops[1].with_bounds(step=Const(3)))
        base = bounds_matrix_of(loops)
        assert bounds_matrix_of(pardo) is not base
        assert bounds_matrix_of(stepped) is not base
        assert bounds_matrix_of(stepped).step_value(2) == 3
        assert bounds_matrix_of(loops) is base

    def test_counters_show_reuse(self):
        from repro import obs
        from repro.core.bounds_matrix import bounds_matrix_of
        from repro.ir.loopnest import PARDO

        # Headers no other test builds, so the first call is a build.
        loops = tuple(lp.with_kind(PARDO)
                      for lp in parse_nest(self.TEXT).loops)
        obs.enable()
        try:
            bounds_matrix_of(loops)
            bounds_matrix_of(loops)
            bounds_matrix_of(tuple(loops))
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.get_metrics().clear()
        assert counters["bounds_matrix.built"] == 1
        assert counters["bounds_matrix.reused"] == 2
