"""Unit and property tests for the expression engine."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.expr.nodes import (
    Add,
    Const,
    Max,
    Min,
    Mul,
    Var,
    abs_,
    add,
    builtin,
    call,
    ceildiv,
    const,
    contains_call,
    evaluate,
    floordiv,
    free_vars,
    mod,
    mul,
    neg,
    sgn,
    sub,
    subexpressions,
    substitute,
    to_str,
    var,
    vmax,
    vmin,
)
from repro.expr.parser import parse_expr

i, j, n = var("i"), var("j"), var("n")


class TestConstruction:
    def test_const_rejects_bool(self):
        with pytest.raises(TypeError):
            Const(True)

    def test_const_rejects_float(self):
        with pytest.raises(TypeError):
            Const(1.5)

    def test_var_rejects_empty(self):
        with pytest.raises(TypeError):
            Var("")

    def test_immutability(self):
        e = add(i, j)
        with pytest.raises(AttributeError):
            e.terms = ()

    def test_structural_equality(self):
        assert add(i, j) == add(j, i)  # canonical ordering
        assert hash(add(i, 1)) == hash(add(1, i))


class TestAddNormalization:
    def test_constant_folding(self):
        assert add(const(2), const(3)) == const(5)

    def test_like_terms_collect(self):
        assert add(i, i, i) == mul(3, i)

    def test_cancellation(self):
        assert sub(add(i, j), add(i, j)) == const(0)

    def test_flattening(self):
        assert add(add(i, 1), add(j, 2)) == add(i, j, 3)

    def test_zero_identity(self):
        assert add(i, const(0)) == i

    def test_mixed_coefficients(self):
        e = add(mul(2, i), mul(-2, i), j)
        assert e == j


class TestMulNormalization:
    def test_constant_folding(self):
        assert mul(const(2), const(3)) == const(6)

    def test_zero_annihilates(self):
        assert mul(const(0), i, j) == const(0)

    def test_one_identity(self):
        assert mul(const(1), i) == i

    def test_distribution_over_add(self):
        assert mul(2, add(i, 1)) == add(mul(2, i), 2)

    def test_binomial_expansion(self):
        e = mul(add(i, 1), add(j, 1))
        assert e == add(mul(i, j), i, j, 1)

    def test_neg(self):
        assert neg(neg(i)) == i
        assert neg(const(5)) == const(-5)


class TestDivMod:
    def test_floordiv_by_one(self):
        assert floordiv(i, 1) == i

    def test_floordiv_consts(self):
        assert floordiv(const(-7), const(2)) == const(-4)

    def test_floordiv_exact_coefficient(self):
        assert floordiv(mul(4, i), 2) == mul(2, i)

    def test_floordiv_inexact_kept(self):
        e = floordiv(add(i, 1), 2)
        assert to_str(e) == "div(i + 1, 2)"

    def test_floordiv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            floordiv(i, 0)

    def test_ceildiv_consts(self):
        assert ceildiv(const(7), const(2)) == const(4)

    def test_ceildiv_by_one(self):
        assert ceildiv(add(i, j), 1) == add(i, j)

    def test_mod_by_one(self):
        assert mod(i, 1) == const(0)

    def test_mod_consts_floored(self):
        assert mod(const(-7), const(3)) == const(2)

    def test_mod_self(self):
        assert mod(i, i) == const(0)

    def test_div_self(self):
        assert floordiv(add(i, j), add(i, j)) == const(1)


class TestMinMax:
    def test_flatten_and_fold_constants(self):
        assert vmax(vmax(i, 2), 5) == vmax(i, 5)

    def test_single_arg(self):
        assert vmin(i) == i

    def test_all_const(self):
        assert vmin(3, 7, 5) == const(3)

    def test_dominated_pruning(self):
        # i+1 dominates i in a max
        assert vmax(add(i, 1), i) == add(i, 1)
        assert vmin(add(i, 1), i) == i

    def test_incomparable_kept(self):
        e = vmax(i, j)
        assert isinstance(e, Max) and len(e.args) == 2

    def test_dedup(self):
        assert vmin(i, i, j) == vmin(i, j)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            vmax()


class TestCalls:
    def test_abs_folds(self):
        assert abs_(const(-4)) == const(4)

    def test_sgn_folds(self):
        assert sgn(const(-4)) == const(-1)

    def test_abs_negation_normalized(self):
        assert abs_(neg(i)) == abs_(i)

    def test_opaque_call_kept(self):
        e = call("colstr", add(j, 1))
        assert contains_call(e)
        assert to_str(e) == "colstr(j + 1)"

    def test_contains_call_nested(self):
        assert contains_call(add(i, call("f", j)))
        assert not contains_call(add(i, j))

    def test_subexpressions_pre_order(self):
        e = call("f", call("g", i), j)
        assert [to_str(x) for x in subexpressions(e)] == [
            "f(g(i), j)", "g(i)", "i", "j"]


class TestBuiltins:
    """One table decides which calls are builtins, at which arity."""

    def test_rule(self):
        assert builtin("le", 2).infix == "<="
        assert builtin("abs", 1) and builtin("sgn", 3)
        for func, arity in (("le", 1), ("eq", 3), ("ne", 2), ("f", 1)):
            assert builtin(func, arity) is None

    def test_folding_uses_the_first_argument(self):
        assert call("abs", -3, 5) == Const(3)
        assert call("sgn", -4, 7) == Const(-1)
        assert to_str(call("le", 1, 2)) == "le(1, 2)"  # a guard stays

    def test_evaluate_reads_the_table(self):
        env = {"i": 1, "j": 2}
        assert evaluate(call("le", i, j), env) == 1
        assert evaluate(call("gt", i, j), env) == 0
        assert evaluate(call("abs", i - j, j), env) == 1
        with pytest.raises(NameError):
            evaluate(call("le", i), env)


class TestFreeVarsSubstitute:
    def test_free_vars(self):
        assert free_vars(add(i, mul(2, j), 3)) == {"i", "j"}

    def test_free_vars_leaf(self):
        assert free_vars(const(3)) == frozenset()

    def test_substitute_simple(self):
        assert substitute(add(i, j), {"i": const(5)}) == add(j, 5)

    def test_substitute_renormalizes(self):
        assert substitute(sub(i, j), {"i": j}) == const(0)

    def test_substitute_into_minmax(self):
        e = substitute(vmax(i, j), {"i": add(j, 1)})
        assert e == add(j, 1)

    def test_substitute_missing_untouched(self):
        e = add(i, j)
        assert substitute(e, {"z": const(1)}) is e


class TestEvaluate:
    def test_basic(self):
        e = parse_expr("2*i + j - 1")
        assert evaluate(e, {"i": 3, "j": 4}) == 9

    def test_div_mod_minmax(self):
        e = parse_expr("max(min(i/2, 10), i % 3)")
        assert evaluate(e, {"i": 7}) == max(min(7 // 2, 10), 7 % 3)

    def test_unbound_raises(self):
        with pytest.raises(NameError):
            evaluate(i, {})

    def test_funcs(self):
        e = call("f", i)
        assert evaluate(e, {"i": 2}, {"f": lambda x: x * x}) == 4

    def test_missing_func_raises(self):
        with pytest.raises(NameError):
            evaluate(call("f", i), {"i": 2})


# -- property tests -----------------------------------------------------------

_names = st.sampled_from(["i", "j", "k", "n"])


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        if draw(st.booleans()):
            return const(draw(st.integers(-8, 8)))
        return var(draw(_names))
    kind = draw(st.integers(0, 5))
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    if kind == 0:
        return add(a, b)
    if kind == 1:
        return sub(a, b)
    if kind == 2:
        return mul(a, b)
    if kind == 3:
        return vmax(a, b)
    if kind == 4:
        return vmin(a, b)
    return floordiv(a, const(draw(st.sampled_from([2, 3, 5]))))


@given(exprs())
def test_print_parse_roundtrip(e):
    """Printing then parsing reproduces the same canonical expression."""
    assert parse_expr(to_str(e)) == e


@given(exprs(), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5))
def test_roundtrip_preserves_value(e, vi, vj, vk, vn):
    env = {"i": vi, "j": vj, "k": vk, "n": vn}
    assert evaluate(parse_expr(to_str(e)), env) == evaluate(e, env)


@given(exprs(depth=2), exprs(depth=2), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5))
def test_smart_constructors_match_semantics(a, b, vi, vj, vk, vn):
    """add/mul/vmax normalization never changes the value."""
    env = {"i": vi, "j": vj, "k": vk, "n": vn}
    assert evaluate(add(a, b), env) == evaluate(a, env) + evaluate(b, env)
    assert evaluate(mul(a, b), env) == evaluate(a, env) * evaluate(b, env)
    assert evaluate(vmax(a, b), env) == max(evaluate(a, env), evaluate(b, env))
    assert evaluate(vmin(a, b), env) == min(evaluate(a, env), evaluate(b, env))


class TestDivChainSimplification:
    def test_floordiv_of_floordiv_folds(self):
        e = floordiv(floordiv(i, 2), 3)
        assert e == floordiv(i, 6)

    def test_ceildiv_of_ceildiv_folds(self):
        e = ceildiv(ceildiv(i, 2), 3)
        assert e == ceildiv(i, 6)

    def test_negative_divisor_not_folded(self):
        e = floordiv(floordiv(i, -2), 3)
        # floor(floor(x/-2)/3) != floor(x/-6) in general; must stay nested.
        assert isinstance(e, type(floordiv(i, const(5))))

    @given(st.integers(-100, 100), st.integers(1, 9), st.integers(1, 9))
    def test_identity_holds_on_integers(self, x, m, n_):
        assert (x // m) // n_ == x // (m * n_)
        assert -((-x) // m) == -(-(-((-x) // (1)) ) // m)  # sanity only

    @given(st.integers(-100, 100), st.integers(1, 9), st.integers(1, 9))
    def test_simplified_matches_semantics(self, x, m, n_):
        e = floordiv(floordiv(i, m), n_)
        assert evaluate(e, {"i": x}) == (x // m) // n_
        e2 = ceildiv(ceildiv(i, m), n_)
        assert evaluate(e2, {"i": x}) == -((-(-((-x) // m))) // n_)


def _pairwise_fold(args, op, cls):
    """Reference: the pairwise ``min``/``max`` fold — every argument
    compared with every other through a symbolic ``sub``."""
    flat = []
    stack = list(reversed(args))
    while stack:
        a = stack.pop()
        if isinstance(a, cls):
            stack.extend(reversed(a.args))
        else:
            flat.append(a)
    constant = None
    seen = []
    for a in flat:
        if isinstance(a, Const):
            constant = a.value if constant is None else op(constant, a.value)
        elif a not in seen:
            seen.append(a)
    pruned = []
    for x in seen:
        dominated = False
        for y in seen:
            if x is y:
                continue
            diff = sub(x, y)
            if isinstance(diff, Const):
                later = seen.index(y) < seen.index(x)
                if cls is Max and (diff.value < 0 or
                                   (diff.value == 0 and later)):
                    dominated = True
                    break
                if cls is Min and (diff.value > 0 or
                                   (diff.value == 0 and later)):
                    dominated = True
                    break
        if not dominated:
            pruned.append(x)
    result = pruned + ([Const(constant)] if constant is not None else [])
    if len(result) == 1:
        return result[0]
    result.sort(key=lambda e: (type(e).__name__, to_str(e)))
    return cls(tuple(result))


#: 64 distinct summands: a sum of them is at the distribution limit,
#: one more term (its constant) puts it past it.
WIDE = [var(f"x{k}") for k in range(64)]


def _random_minmax_arg(rng):
    kind = rng.random()
    if kind < 0.15:
        # Around the distribution limit: neg() of a sum with more than
        # 64 terms stays factored, so the pairwise rule never folds it.
        extra = [var("x64")] if rng.random() < 0.3 else []
        return add(*WIDE, *extra, Const(rng.choice([0, 0, 1, -2, 3])))
    if kind < 0.25:
        inner = [_random_minmax_arg(rng) for _ in range(rng.randint(1, 3))]
        return rng.choice([vmin, vmax])(*inner)
    if kind < 0.35:
        return Const(rng.randint(-3, 3))
    atoms = [i, j, n, floordiv(n, 2), mul(i, j), mod(i, 3)]
    terms = [mul(Const(rng.randint(-2, 2)), a)
             for a in rng.sample(atoms, rng.randint(1, 3))]
    arg = add(*terms, Const(rng.randint(-3, 3)))
    if kind < 0.45 and isinstance(arg, Add):
        # Not in normal form: structurally distinct from ``arg`` yet
        # equal to it under ``sub``, so the fold's tie rule decides.
        return Mul((Const(1), arg))
    return arg


@given(st.integers(0, 10**9))
def test_minmax_fold_matches_pairwise_rule(seed):
    rng = random.Random(seed)
    args = [_random_minmax_arg(rng) for _ in range(rng.randint(1, 12))]
    # Repeat some arguments up to a constant shift, so groups form.
    for a in rng.sample(args, len(args) // 2):
        args.append(add(a, Const(rng.randint(-2, 2))))
    rng.shuffle(args)
    assert vmin(*args) == _pairwise_fold(args, min, Min)
    assert vmax(*args) == _pairwise_fold(args, max, Max)


def test_minmax_fold_is_not_pairwise(monkeypatch):
    """One ``vmin`` over 700 mutually incomparable terms (the shape that
    made Wavefront legality hang) must not compare every pair through a
    symbolic ``sub``."""
    import repro.expr.nodes as nodes

    terms = [add(mul(Const(k), i), mul(Const(700 - k), j), Const(k % 5))
             for k in range(700)]
    calls = []
    real_sub = nodes.sub

    def counting_sub(a, b):
        calls.append(1)
        if len(calls) > len(terms):
            raise AssertionError("min/max fold compares arguments pairwise")
        return real_sub(a, b)

    monkeypatch.setattr(nodes, "sub", counting_sub)
    result = vmin(*terms)
    assert isinstance(result, Min) and len(result.args) == 700
    assert len(calls) <= len(terms)
