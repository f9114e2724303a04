"""Parser for the paper's ``do``/``enddo`` loop-nest surface syntax.

Example (Figure 1(a) of the paper)::

    do i = 2, n-1
      do j = 2, n-1
        a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5
      enddo
    enddo

Grammar (newline-separated statements, ``!``/``#`` comments)::

    nest      := loop
    loop      := ("do" | "pardo") IDENT "=" expr "," expr ["," expr]
                 body "enddo"
    body      := (loop | stmt)*          -- but the result must be perfect
    stmt      := IDENT "(" expr,* ")" ("=" | "+=") expr
               | IDENT "=" expr                       -- init statement
               | "if" "(" cond ")" stmt
    cond      := expr [("<=" | ">=" | "==" | "<" | ">") expr]

Conditions become ``Call`` nodes (``le``, ``ge``, ``eq``, ``lt``, ``gt``)
which the interpreter evaluates to 0/1.

Scalar assignments are only accepted at the top of the innermost body and
become :class:`~repro.ir.loopnest.InitStmt` entries, mirroring how the
framework's code generator emits initialization statements.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.expr.nodes import Expr, call
from repro.expr.parser import Token, TokenStream, parse_expression, tokenize
from repro.obs import trace as _obs
from repro.resilience import chaos as _chaos
from repro.resilience import guards as _guards
from repro.ir.loopnest import (
    Assign,
    ArrayRef,
    DO,
    If,
    InitStmt,
    Loop,
    LoopNest,
    PARDO,
    Statement,
    validate_nest,
)
from repro.util.errors import ParseError, ReproError

_RELOPS = {"<=": "le", ">=": "ge", "==": "eq", "=": "eq",
           "<": "lt", ">": "gt"}


def _make_loop(index: str, lower: Expr, upper: Expr, step: Expr,
               kind: str, kw: Token) -> Loop:
    """Construct a :class:`Loop` at the parse boundary: IR-level domain
    rejections (zero constant step) become positioned parse errors
    instead of leaking ``ValueError`` to parser callers."""
    try:
        return Loop(index, lower, upper, step, kind)
    except ValueError as exc:
        raise ParseError(str(exc), line=kw.line, column=kw.column) from None


def _parse_condition(stream: TokenStream) -> Expr:
    left = parse_expression(stream)
    tok = stream.peek()
    if tok.kind == "op" and tok.text in _RELOPS:
        stream.next()
        right = parse_expression(stream)
        return call(_RELOPS[tok.text], left, right)
    return left


def _parse_statement(stream: TokenStream) -> Statement:
    tok = stream.peek()
    if tok.kind == "ident" and tok.text == "if":
        stream.next()
        stream.expect("op", "(")
        cond = _parse_condition(stream)
        stream.expect("op", ")")
        then = _parse_statement(stream)
        return If(cond, then)
    if tok.kind != "ident":
        raise ParseError(f"expected statement, found {tok.text or tok.kind!r}",
                         line=tok.line, column=tok.column)
    name = stream.next().text
    if stream.accept("op", "("):
        subscripts = [parse_expression(stream)]
        while stream.accept("op", ","):
            subscripts.append(parse_expression(stream))
        stream.expect("op", ")")
        target = ArrayRef(name, subscripts)
        if stream.accept("op", "+="):
            return Assign(target, parse_expression(stream), accumulate=True)
        stream.expect("op", "=")
        return Assign(target, parse_expression(stream))
    stream.expect("op", "=")
    return InitStmt(name, parse_expression(stream))


def _nest_guard(stream: TokenStream, kw: Token) -> None:
    """Loop-nesting depth guard: reject hostile "do do do ..." input
    with a typed error before Python's recursion limit is at risk."""
    cap = _guards.limits().max_nest_depth
    if stream.depth > cap:
        raise ParseError(
            f"loop nesting exceeds {cap} levels (REPRO_MAX_NEST_DEPTH)",
            line=kw.line, column=kw.column)


def _parse_loop(stream: TokenStream):
    kw = stream.expect("ident")
    if kw.text not in (DO, PARDO):
        raise ParseError(f"expected 'do' or 'pardo', found {kw.text!r}",
                         line=kw.line, column=kw.column)
    stream.depth += 1
    _nest_guard(stream, kw)
    index = stream.expect("ident").text
    stream.expect("op", "=")
    lower = parse_expression(stream)
    stream.expect("op", ",")
    upper = parse_expression(stream)
    from repro.expr.nodes import Const
    step: Expr = Const(1)
    if stream.accept("op", ","):
        step = parse_expression(stream)
    stream.skip_newlines()

    inner_loops: List[Loop] = []
    stmts: List[Statement] = []
    while True:
        tok = stream.peek()
        if tok.kind == "eof":
            raise ParseError("missing 'enddo'", line=tok.line, column=tok.column)
        if tok.kind == "ident" and tok.text == "enddo":
            stream.next()
            break
        if tok.kind == "ident" and tok.text in (DO, PARDO):
            if stmts:
                raise ParseError(
                    "imperfect nest: statement before an inner loop",
                    line=tok.line, column=tok.column)
            sub_loops, sub_stmts = _parse_loop(stream)
            inner_loops.extend(sub_loops)
            stmts.extend(sub_stmts)
            stream.skip_newlines()
            tok2 = stream.peek()
            if not (tok2.kind == "ident" and tok2.text == "enddo"):
                raise ParseError(
                    "imperfect nest: content after inner loop",
                    line=tok2.line, column=tok2.column)
            stream.next()
            break
        stmts.append(_parse_statement(stream))
        stream.skip_newlines()
    stream.depth -= 1
    return [_make_loop(index, lower, upper, step, kw.text, kw)] \
        + inner_loops, stmts


def parse_nest(text: str) -> LoopNest:
    """Parse a perfect loop nest from *text* and validate it."""
    with _obs.span("ir.parse", chars=len(text)):
        return _parse_nest(text)


def _parse_nest(text: str) -> LoopNest:
    _chaos.inject("ir.parse")
    _guards.check_source_size(text, "loop nest source")
    stream = TokenStream(tokenize(text))
    stream.skip_newlines()
    loops, stmts = _parse_loop(stream)
    stream.skip_newlines()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}",
                         line=tok.line, column=tok.column)

    inits: List[InitStmt] = []
    body: List[Statement] = []
    for stmt in stmts:
        if isinstance(stmt, InitStmt) and not body:
            inits.append(stmt)
        elif isinstance(stmt, InitStmt):
            raise ParseError(
                f"scalar assignment {stmt} must precede the loop body")
        else:
            body.append(stmt)
    try:
        nest = LoopNest(loops, body, inits)
        validate_nest(nest)
    except ParseError:
        raise
    except (ValueError, ReproError) as exc:
        # Structural rejections (duplicate loop index names, a bound
        # referencing an inner index) are bad *input* here, not API
        # misuse: the parser's contract is "ParseError or success".
        raise ParseError(str(exc)) from None
    return nest


def _parse_imperfect_loop(stream: TokenStream):
    """Recursive descent for :func:`parse_imperfect`."""
    from repro.ir.sinking import ImperfectNest

    kw = stream.expect("ident")
    if kw.text not in (DO, PARDO):
        raise ParseError(f"expected 'do' or 'pardo', found {kw.text!r}",
                         line=kw.line, column=kw.column)
    stream.depth += 1
    _nest_guard(stream, kw)
    index = stream.expect("ident").text
    stream.expect("op", "=")
    lower = parse_expression(stream)
    stream.expect("op", ",")
    upper = parse_expression(stream)
    from repro.expr.nodes import Const as _Const
    step: Expr = _Const(1)
    if stream.accept("op", ","):
        step = parse_expression(stream)
    stream.skip_newlines()

    pre: List[Statement] = []
    post: List[Statement] = []
    inner = None
    while True:
        tok = stream.peek()
        if tok.kind == "eof":
            raise ParseError("missing 'enddo'", line=tok.line,
                             column=tok.column)
        if tok.kind == "ident" and tok.text == "enddo":
            stream.next()
            break
        if tok.kind == "ident" and tok.text in (DO, PARDO):
            if inner is not None:
                raise ParseError(
                    "multiple inner loops at one level; distribute the "
                    "loop first (not supported)",
                    line=tok.line, column=tok.column)
            inner = _parse_imperfect_loop(stream)
            stream.skip_newlines()
            continue
        stmt = _parse_statement(stream)
        if isinstance(stmt, InitStmt) and inner is not None:
            raise ParseError(
                f"scalar assignment {stmt} after an inner loop cannot be "
                "sunk soundly; use an array element",
                line=tok.line, column=tok.column)
        (post if inner is not None else pre).append(stmt)
        stream.skip_newlines()
    loop = _make_loop(index, lower, upper, step, kw.text, kw)
    if inner is not None and any(isinstance(s, InitStmt) for s in pre):
        raise ParseError("scalar assignments before an inner loop cannot "
                         "be sunk soundly; use an array element")
    stream.depth -= 1
    return ImperfectNest(loop, pre, inner, post)


def parse_imperfect(text: str):
    """Parse a (possibly imperfect) loop nest into an
    :class:`~repro.ir.sinking.ImperfectNest` tree, ready for
    :func:`~repro.ir.sinking.sink`.

    Each level may have statements before and after at most one inner
    loop; scalar assignments in those positions are rejected (sinking
    them under guards would not be modeled by the dependence analyzer).
    """
    _chaos.inject("ir.parse")
    _guards.check_source_size(text, "loop nest source")
    stream = TokenStream(tokenize(text))
    stream.skip_newlines()
    tree = _parse_imperfect_loop(stream)
    stream.skip_newlines()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}",
                         line=tok.line, column=tok.column)
    return tree
