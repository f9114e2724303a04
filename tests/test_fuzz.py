"""Fuzz-style robustness tests: arbitrary input must either parse or
raise :class:`ParseError` — never crash with anything else.

The catch-alls that used to tolerate ``ZeroDivisionError`` (constant
folding of ``1/0``) and ``ValueError`` (zero constant step) are gone:
both now surface as typed, positioned parse errors, so the generative
fuzzer (:mod:`repro.fuzz`) can assert the tight contract.
"""

import string

from hypothesis import given, strategies as st

from repro.expr.parser import parse_expr
from repro.ir.parser import parse_nest
from repro.util.errors import ParseError


printable = st.text(alphabet=string.printable, max_size=80)
loopish = st.text(
    alphabet=list("dopar enj=+-*/%(),0123456789ijkn\n"), max_size=120)


@given(printable)
def test_parse_expr_parse_error_or_success(text):
    try:
        parse_expr(text)
    except ParseError:
        pass


@given(loopish)
def test_parse_nest_parse_error_or_success(text):
    try:
        parse_nest(text)
    except ParseError:
        pass


def test_constant_division_by_zero_is_a_parse_error():
    for text in ("1/0", "mod(i, 0)", "div(j, 0)", "ceil(n, 0)", "5 % 0"):
        try:
            parse_expr(text)
        except ParseError as exc:
            assert exc.line is not None
        else:
            raise AssertionError(f"{text!r} parsed")


def test_builder_arity_is_a_parse_error():
    for text in ("mod(1)", "div(1)", "ceil(1, 2, 3)", "abs(1, 2)"):
        try:
            parse_expr(text)
        except ParseError:
            pass
        else:
            raise AssertionError(f"{text!r} parsed")


def test_zero_step_is_a_parse_error():
    try:
        parse_nest("do i = 1, 9, 0\n a(i) = 0\nenddo")
    except ParseError as exc:
        assert "step" in str(exc)
    else:
        raise AssertionError("zero-step nest parsed")


def test_duplicate_index_is_a_parse_error():
    try:
        parse_nest("do i = 1, 9\n do i = 1, 9\n a(i) = 0\n enddo\nenddo")
    except ParseError:
        pass
    else:
        raise AssertionError("duplicate-index nest parsed")


def test_inner_index_in_bound_is_a_parse_error():
    try:
        parse_nest("do i = 1, j\n do j = 1, 9\n a(i) = 0\n enddo\nenddo")
    except ParseError:
        pass
    else:
        raise AssertionError("inner-index bound parsed")


@given(st.text(alphabet=list("interchange skew block coalesce(),;0123456789"),
               max_size=60))
def test_cli_spec_never_crashes(spec):
    from repro.core.spec import SpecError, parse_steps
    from repro.util.errors import ReproError as RE

    try:
        parse_steps(spec, 3)
    except (SpecError, RE, ValueError):
        pass


def test_expression_parser_handles_deep_nesting():
    text = "(" * 50 + "1" + ")" * 50
    assert parse_expr(text).value == 1


def test_huge_flat_sum():
    text = " + ".join(["i"] * 200)
    e = parse_expr(text)
    from repro.expr.nodes import evaluate
    assert evaluate(e, {"i": 1}) == 200
