"""Direct tests for Unimodular polyhedron scanning on the shared
Fourier–Motzkin rows, including property tests scanning random integer
polyhedra with constant and symbolic invariant parts."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.api import Transformation, Unimodular, analyze, parse_nest
from repro.core.fme import (
    _tighten,
    constraint_from_bound,
    make_row,
    remove_redundant,
    scan_bounds,
    transform_constraints,
)
from repro.deps.analysis.linear_system import LinConstraint, LinearSystem
from repro.expr.nodes import (
    Const,
    add,
    evaluate,
    floordiv,
    mod,
    mul,
    var,
    vmax,
    vmin,
)
from repro.expr.parser import parse_expr
from repro.resilience.guards import GuardLimits, set_limits
from repro.util.errors import CodegenError
from repro.util.matrices import IntMatrix


def _row(coeffs, rest, atoms=None):
    return make_row(coeffs, rest, {} if atoms is None else atoms)


class TestConstraint:
    """Codegen's tightening post-pass over the integer rows."""

    def test_normalized_divides_by_gcd(self):
        # 2x + 4y + 7 >= 0 has coprime integers, but its index part has
        # gcd 2: x + 2y + 3 >= 0 (floor(7/2) = 3) is the tightened row.
        [row] = _tighten([LinConstraint({"x": 2, "y": 4}, 7)], ["x", "y"])
        assert row.coeffs == {"x": 1, "y": 2} and row.const == 3

    def test_normalized_floor_tightens(self):
        # 2x + 3 >= 0  <=>  x >= -3/2  <=>  x >= -1  <=>  x + 1 >= 0 ... as
        # floor(3/2) = 1.
        [row] = _tighten([LinConstraint({"x": 2}, 3)], ["x"])
        assert row.coeffs == {"x": 1} and row.const == 1

    def test_symbolic_rest_not_divided(self):
        row = _row({"x": 2, "y": 4}, var("n"))
        [out] = _tighten([row], ["x", "y"])
        assert out.coeffs == {"x": 2, "y": 4, "$n": 1}

    def test_trivial(self):
        rows = [LinConstraint({}, 1), _row({}, var("n")),
                LinConstraint({"x": 1}, 1)]
        assert [r.coeffs for r in _tighten(rows, ["x"])] == [{"x": 1}]

    def test_tightest_row_per_vector_kept(self):
        atoms = {}
        rows = [_row({"x": -1}, add(var("n"), Const(2)), atoms),
                _row({"x": 1}, Const(0), atoms),
                _row({"x": -1}, var("n"), atoms)]
        out = _tighten(rows, ["x"])
        assert [(r.coeffs, r.const) for r in out] == [
            ({"x": -1, "$n": 1}, 0), ({"x": 1}, 0)]


class TestConstraintFromBound:
    def test_lower(self):
        [c] = constraint_from_bound(parse_expr("2*i + 1"), ["i", "j"], 1,
                                    is_lower=True, atoms={})
        # j - (2i + 1) >= 0
        assert c.coeffs == {"i": -2, "j": 1}
        assert c.const == -1

    def test_upper(self):
        atoms = {}
        [c] = constraint_from_bound(parse_expr("n - 1"), ["i"], 0,
                                    is_lower=False, atoms=atoms)
        assert c.coeffs == {"i": -1, "$n": 1} and c.const == -1
        assert atoms == {"$n": var("n")}

    def test_atoms_are_nonconstant_summands(self):
        atoms = {}
        bound = parse_expr("2*n + 2*div(n, 2) - mod(n, 3) + 4")
        [c] = constraint_from_bound(bound, ["i"], 0, is_lower=False,
                                    atoms=atoms)
        assert c.coeffs == {"i": -1, "$n": 2, "$div(n, 2)": 2,
                            "$mod(n, 3)": -1}
        assert c.const == 4
        assert atoms["$div(n, 2)"] == floordiv(var("n"), 2)

    def test_max_lower_splits(self):
        cs = constraint_from_bound(vmax(var("i"), Const(2)), ["i", "j"], 1,
                                   is_lower=True, atoms={})
        assert len(cs) == 2

    def test_min_upper_splits(self):
        cs = constraint_from_bound(vmin(var("n"), Const(100)), ["i"], 0,
                                   is_lower=False, atoms={})
        assert len(cs) == 2

    def test_nonaffine_rejected(self):
        with pytest.raises(CodegenError):
            constraint_from_bound(parse_expr("sqrt(i)"), ["i", "j"], 1,
                                  is_lower=True, atoms={})


class TestTransformConstraints:
    def test_change_of_basis(self):
        # x0 >= 0 under y = [[1,1],[0,1]] x: x = [[1,-1],[0,1]] y, so the
        # constraint becomes y0 - y1 >= 0.
        m = IntMatrix([[1, 1], [0, 1]])
        out = transform_constraints([LinConstraint({"x0": 1}, 0)],
                                    m.inverse_unimodular(), ["x0", "x1"],
                                    ["y0", "y1"])
        assert out[0].coeffs == {"y0": 1, "y1": -1}

    def test_atoms_pass_through(self):
        m = IntMatrix([[0, 1], [1, 0]])
        row = _row({"x0": -1}, var("n"))
        [out] = transform_constraints([row], m.inverse_unimodular(),
                                      ["x0", "x1"], ["y0", "y1"])
        assert out.coeffs == {"y1": -1, "$n": 1}


class TestRemoveRedundant:
    def test_implied_constraint_dropped(self):
        # x <= y, y <= n  =>  x <= n is redundant.
        atoms = {}
        cs = [
            _row({"x": -1, "y": 1}, Const(0), atoms),   # y - x >= 0
            _row({"y": -1}, var("n"), atoms),           # n - y >= 0
            _row({"x": -1}, var("n"), atoms),           # n - x >= 0 (implied)
        ]
        kept = remove_redundant(cs)
        assert len(kept) == 2
        assert all(c.coeffs != {"x": -1, "$n": 1} for c in kept)

    def test_nothing_dropped_when_independent(self):
        cs = [LinConstraint({"x": 1}, 0), LinConstraint({"y": 1}, 0)]
        assert len(remove_redundant(cs)) == 2

    def test_opaque_rests_are_safe(self):
        # Different opaque invariant parts cannot imply each other.
        atoms = {}
        cs = [_row({"x": -1}, parse_expr("f(n)"), atoms),
              _row({"x": -1}, parse_expr("g(n)"), atoms)]
        assert len(remove_redundant(cs)) == 2


def _square_rows(names, lower, upper, atoms):
    rows = []
    for k in range(len(names)):
        rows += constraint_from_bound(lower, names, k, is_lower=True,
                                      atoms=atoms)
        rows += constraint_from_bound(upper, names, k, is_lower=False,
                                      atoms=atoms)
    return rows


class TestScanBounds:
    def test_fig1_bounds(self):
        # The stencil square [2, n-1]^2 under y = [[1,1],[1,0]] x.
        atoms = {}
        cs = _square_rows(["i", "j"], Const(2), parse_expr("n - 1"), atoms)
        m = IntMatrix([[1, 1], [1, 0]])
        out = transform_constraints(cs, m.inverse_unimodular(), ["i", "j"],
                                    ["jj", "ii"])
        bounds = scan_bounds(out, ["jj", "ii"], atoms)
        assert str(bounds[0][0]) == "4"
        assert str(bounds[0][1]) == "2*n - 2"
        assert str(bounds[1][0]) == "max(jj + 1 - n, 2)"
        assert str(bounds[1][1]) == "min(jj - 2, n - 1)"

    def test_unbounded_raises(self):
        with pytest.raises(CodegenError):
            scan_bounds([LinConstraint({"x": 1}, 0)], ["x"], {})  # no upper

    def test_empty_polyhedron_yields_empty_loop(self):
        # x >= 5, x <= 3: scannable, just empty at run time.
        cs = [LinConstraint({"x": 1}, -5), LinConstraint({"x": -1}, 3)]
        (lo, hi), = scan_bounds(cs, ["x"], {})
        assert evaluate(lo, {}) > evaluate(hi, {})

    @pytest.mark.parametrize("text, matrix", [
        ("do i = 1, n\n do j = 0, -1\n do k = 0, j\n a(i, k) = 0\n"
         " enddo\n enddo\nenddo", [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        # CaseGen(11) case 13: elimination derives -1 >= 0 midway.
        ("do i = n - 1, 1, -1\n do j = -1, -2, -1\n do k = 0, j, 2\n"
         " b(i + 2*k) = k\n enddo\n enddo\nenddo",
         [[-1, 0, 1], [0, 1, 0], [-1, 0, 0]]),
    ])
    def test_empty_polyhedron_scans_as_zero_trip_nest(self, text, matrix):
        """A polyhedron whose emptiness shows only during elimination
        scans as a nest that runs no iteration, like its input."""
        from repro.runtime import run_nest

        nest = parse_nest(text)
        out = Transformation.of(Unimodular(3, matrix)).apply(nest,
                                                             check=False)
        for n in (1, 5):
            assert run_nest(nest, {}, symbols={"n": n}).body_count == 0
            assert run_nest(out, {}, symbols={"n": n}).body_count == 0

    def test_variable_free_symbolic_row_rejected(self):
        atoms = {}
        cs = [LinConstraint({"x": 1}, 0), LinConstraint({"x": -1}, 3),
              _row({}, var("n"), atoms)]
        with pytest.raises(CodegenError, match="variable-free"):
            scan_bounds(cs, ["x"], atoms)


STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = a(i-1, j) + a(i, j-1)
  enddo
enddo
"""


def test_one_cap_governs_both_engines():
    """REPRO_MAX_FME_CONSTRAINTS bounds the analyzer's feasibility test
    (give-up answers "feasible", counted on fme.give_up) and Unimodular
    scanning (give-up raises CodegenError) alike."""
    system = LinearSystem()
    for k in range(3):
        system.add_ge({"x": 1}, -k)     # x >= k
    system.add_ge({"x": -1}, -1)        # x <= -1: infeasible
    nest = parse_nest(STENCIL)
    deps = analyze(nest)
    skew = Transformation.of(Unimodular(2, [[1, 1], [1, 0]]))
    assert system.is_feasible() is False
    skew.apply(nest, deps, check=False)

    obs.disable()
    obs.get_metrics().clear()
    obs.enable()
    set_limits(GuardLimits(max_fme_constraints=2))
    try:
        assert system.is_feasible() is True
        assert obs.get_metrics().counter("fme.give_up").value == 1
        with pytest.raises(CodegenError, match="REPRO_MAX_FME_CONSTRAINTS"):
            skew.apply(nest, deps, check=False)
    finally:
        set_limits(None)
        obs.disable()
        obs.get_metrics().clear()


def _brute_points(constraints, box, env):
    pts = []
    for p in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        if all(sum(coeffs.get(f"v{k}", 0) * x for k, x in enumerate(p)) +
               evaluate(rest, env) >= 0 for coeffs, rest in constraints):
            pts.append(p)
    return pts


def _scan_points(bounds, names, env):
    """Enumerate the generated loop nest's points."""
    out = []
    env = dict(env)

    def rec(level):
        if level == len(names):
            out.append(tuple(env[n] for n in names))
            return
        lo, hi = bounds[level]
        for v in range(evaluate(lo, env), evaluate(hi, env) + 1):
            env[names[level]] = v
            rec(level + 1)
        env.pop(names[level], None)

    rec(0)
    return out


N = var("n")
#: Invariant summands the symbolic property test draws from.
SYMBOLIC = (N, floordiv(N, 2), mod(N, 3))


def _random_system(rng, symbolic):
    """(coefficient dict, rest) pairs: a bounding box plus a few random
    cutting planes, and the box that brute force enumerates.  With
    *symbolic*, rests mix in ``n``, ``div(n, 2)`` and ``mod(n, 3)`` (so
    the box reaches at most 3 past its constant part for n <= 7)."""
    dim = rng.choice([2, 3])
    constraints, box = [], []

    def rest(const):
        if not symbolic:
            return Const(const)
        terms = [mul(Const(rng.randint(-1, 1)), s) for s in SYMBOLIC]
        return add(Const(const), *terms)

    for k in range(dim):
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(0, 5)
        constraints.append(({f"v{k}": 1}, Const(-lo)))
        extra = rng.choice(SYMBOLIC[1:]) if symbolic else Const(0)
        constraints.append(({f"v{k}": -1}, add(Const(hi), extra)))
        box.append((lo, hi + 3))
    for _ in range(rng.randint(0, 3)):
        coeffs = {f"v{k}": rng.randint(-2, 2) for k in range(dim)}
        if not any(coeffs.values()):
            coeffs["v0"] = 1
        constraints.append((coeffs, rest(rng.randint(-3, 6))))
    return [f"v{k}" for k in range(dim)], constraints, box


def _check_scan(seed, symbolic, n_values):
    rng = random.Random(seed)
    names, constraints, box = _random_system(rng, symbolic)
    atoms = {}
    rows = [make_row(coeffs, rest, atoms) for coeffs, rest in constraints]
    try:
        bounds = scan_bounds(rows, names, atoms)
    except CodegenError:
        # Unbounded can't happen (box); only blowup guard, which we accept.
        return
    for n in n_values:
        env = {"n": n}
        assert _scan_points(bounds, names, env) == \
            sorted(_brute_points(constraints, box, env)), n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_scan_matches_polyhedron_enumeration(seed):
    """Property: scanning a random bounded 2-D/3-D integer polyhedron
    visits exactly its integer points, in lexicographic order — with
    constant invariant parts, and with parts over ``n``, ``div(n, 2)``
    and ``mod(n, 3)`` (the atom decomposition) evaluated at several
    ``n``."""
    _check_scan(seed, symbolic=False, n_values=(0,))
    _check_scan(seed, symbolic=True, n_values=range(0, 8))
