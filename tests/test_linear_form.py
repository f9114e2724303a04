"""Property tests for the cached linear normal form of expressions.

Every node's form (``linear_parts``) is an ordered atom -> coefficient
map plus a constant, computed at most once and cached on sums and
products; ``affine_form`` and the other affine views are filters over
it.
"""

import pickle

from hypothesis import given, settings, strategies as st

import repro.expr.nodes as nodes
from repro.expr.linear import affine_form
from repro.expr.nodes import (
    Add,
    Mul,
    Var,
    add,
    call,
    ceildiv,
    evaluate,
    floordiv,
    free_vars,
    linear_parts,
    mod,
    mul,
    neg,
    sub,
    var,
    vmax,
    vmin,
)

NAMES = ("i", "j", "n", "m")
FUNCS = {"f": lambda *a: 3 * sum(a) + 1}

leaves = st.one_of(st.integers(-5, 5), st.sampled_from(NAMES).map(var))
divisors = st.integers(1, 4)


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: add(*p)),
        st.tuples(children, children).map(lambda p: sub(*p)),
        st.tuples(st.integers(-3, 3), children).map(lambda p: mul(*p)),
        st.tuples(children, children).map(lambda p: mul(*p)),
        children.map(neg),
        st.lists(children, min_size=1, max_size=3).map(lambda a: vmin(*a)),
        st.lists(children, min_size=1, max_size=3).map(lambda a: vmax(*a)),
        st.tuples(children, divisors).map(lambda p: floordiv(*p)),
        st.tuples(children, divisors).map(lambda p: ceildiv(*p)),
        st.tuples(children, divisors).map(lambda p: mod(*p)),
        children.map(lambda a: call("f", a)),
        children.map(lambda a: call("abs", a)),
    )


exprs = st.recursive(leaves.map(nodes._coerce), _extend, max_leaves=12)
wanted_sets = st.sets(st.sampled_from(NAMES))
envs = st.fixed_dictionaries({v: st.integers(-20, 20) for v in NAMES})


@given(exprs)
def test_form_rebuilds_the_expression(e):
    parts, const = linear_parts(e)
    assert 0 not in parts.values()
    assert add(*(mul(c, a) for a, c in parts.items()), const) == e
    assert nodes.from_linear(parts, const) == e


@settings(deadline=None)
@given(exprs, wanted_sets, st.lists(envs, min_size=1, max_size=4))
def test_affine_form_is_a_filter_over_the_form(e, wanted, points):
    parts, _ = linear_parts(e)
    non_affine = any(
        free_vars(a) & wanted
        for a in parts if not (isinstance(a, Var) and a.name in wanted))
    form = affine_form(e, sorted(wanted))
    assert (form is None) == non_affine
    if form is None:
        return
    assert not (free_vars(form.rest) & wanted)
    assert set(form.coeffs) <= wanted
    for env in points:
        assert (evaluate(form.to_expr(), env, FUNCS) ==
                evaluate(e, env, FUNCS))


@given(exprs)
def test_form_is_computed_once_and_cached(e):
    calls = []
    real = nodes._collect

    def counting(terms):
        calls.append(1)
        return real(terms)

    nodes._collect = counting
    try:
        first = linear_parts(e)
        again = linear_parts(e)
        affine_form(e, ("i",))
    finally:
        nodes._collect = real
    assert len(calls) <= 1
    if isinstance(e, (Add, Mul)):
        assert again is first
    else:
        # A leaf or opaque atom is its own form: nothing to split or keep.
        assert not calls and again == first


@given(exprs)
def test_pickle_ignores_the_cached_form(e):
    before = pickle.dumps(e)
    parts, const = linear_parts(e)
    assert pickle.dumps(e) == before
    clone = pickle.loads(before)
    assert clone == e
    assert linear_parts(clone) == (parts, const)
