"""The step mini-language: the wire form of transformation sequences.

A *spec* is a semicolon-separated list of step builders, evaluated left
to right against the current nest depth::

    interchange(1,2); block(1,3,16); parallelize(1)
    skew(2,1); interchange(1,2)
    permute(3,1,2); coalesce(1,2)
    unimodular([[1,1],[1,0]])
    reverse(2); interleave(1,2,4,4); wavefront()

Loop numbers are 1-based, outermost first, as in the paper.

This module owns both directions of the serialization that everything
else builds on — ``Template.to_spec()`` renders a step, and the parsers
here rebuild it — so the CLI (``--steps``), the parallel-search wire
forms (:mod:`repro.parallel.worker`) and the transformation service
protocol (:mod:`repro.service`) all speak exactly the same language:

* :func:`parse_steps` — spec string -> :class:`Transformation`
  (the inverse of :meth:`Transformation.to_spec`);
* :func:`step_from_spec` — one step's spec -> :class:`Template`
  (the inverse of :meth:`Template.to_spec`); ``names`` restores the
  loop renaming a Unimodular spec omits.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

from repro.core.derived import wavefront as _wavefront
from repro.core.sequence import Transformation
from repro.core.template import Template
from repro.core.templates.block import Block
from repro.core.templates.coalesce import Coalesce
from repro.core.templates.interleave import Interleave
from repro.core.templates.parallelize import Parallelize
from repro.core.templates.reverse_permute import ReversePermute
from repro.core.templates.unimodular import Unimodular
from repro.expr.parser import parse_expr
from repro.util.errors import ReproError
from repro.util.matrices import IntMatrix

__all__ = [
    "SpecError", "build_step", "parse_call", "parse_steps", "split_calls",
    "step_from_spec",
]


class SpecError(ReproError):
    """A malformed --steps specification."""


def split_calls(spec: str) -> List[str]:
    calls = [part.strip() for part in spec.split(";")]
    return [c for c in calls if c]


def parse_call(text: str) -> Tuple[str, List]:
    """``name(arg, ...)`` -> (name, [args]).  An argument that is an
    integer, a signed integer, a quoted string (the fuzzer writes
    ``'precise'``), or a list or tuple of such values becomes that
    value; any other argument stays its text (block sizes may be
    symbolic)."""
    open_paren = text.find("(")
    if open_paren < 0 or not text.endswith(")"):
        raise SpecError(f"malformed step {text!r}; expected name(args)")
    name = text[:open_paren].strip().lower()
    body = text[open_paren + 1:-1].strip()
    if not body:
        return name, []
    args = []
    depth = 0
    current = ""
    for ch in body + ",":
        if ch == "," and depth == 0:
            args.append(current.strip())
            current = ""
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        current += ch
    parsed = []
    for a in args:
        try:
            parsed.append(_literal(ast.parse(a, mode="eval").body))
        except (ValueError, SyntaxError):
            parsed.append(a)  # symbolic size / identifier
    return name, parsed


def _literal(node: ast.expr):
    """The value of a step argument's expression *node*: an int, an int
    under one unary sign, a string, or a list or tuple of such values;
    ValueError for any other form.  (``ast.literal_eval`` accepts more,
    and each call leaves a reference cycle of nested closures behind.)"""
    if isinstance(node, ast.Constant) and type(node.value) in (int, str):
        return node.value
    if (isinstance(node, ast.UnaryOp) and
            isinstance(node.op, (ast.UAdd, ast.USub)) and
            isinstance(node.operand, ast.Constant) and
            type(node.operand.value) is int):
        value = node.operand.value
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.List):
        return [_literal(e) for e in node.elts]
    if isinstance(node, ast.Tuple):
        return tuple(_literal(e) for e in node.elts)
    raise ValueError("not an integer literal")


def _ints(args, count: Optional[int] = None, what: str = "argument"):
    for a in args:
        if not isinstance(a, int):
            raise SpecError(f"expected integer {what}s, got {a!r}")
    if count is not None and len(args) != count:
        raise SpecError(f"expected {count} {what}(s), got {len(args)}")
    return list(args)


def build_step(name: str, args: List, n: int) -> Template:
    """Instantiate one kernel template for a nest of current depth *n*."""
    if name == "interchange":
        a, b = _ints(args, 2, "loop number")
        perm = list(range(1, n + 1))
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
        return ReversePermute(n, [False] * n, perm)
    if name == "permute":
        order = _ints(args, n, "loop number")
        perm = [0] * n
        for position, loop in enumerate(order, start=1):
            perm[loop - 1] = position
        return ReversePermute(n, [False] * n, perm)
    if name == "reverse":
        which = _ints(args, None, "loop number")
        rev = [k + 1 in which for k in range(n)]
        return ReversePermute(n, rev, list(range(1, n + 1)))
    if name == "revpermute":
        if (len(args) != 2 or not isinstance(args[0], list) or
                not isinstance(args[1], list)):
            raise SpecError("revpermute takes ([rev 0/1 flags], [perm]), "
                            "e.g. revpermute([0,1], [2,1])")
        rev = [bool(r) for r in args[0]]
        return ReversePermute(n, rev, args[1])
    if name == "skew":
        if len(args) == 2:
            target, source = _ints(args, 2, "skew parameter")
            factor = 1
        else:
            target, source, factor = _ints(args, 3, "skew parameter")
        return Unimodular(n, IntMatrix.skew(n, target - 1, source - 1,
                                            factor))
    if name == "unimodular":
        if len(args) != 1 or not isinstance(args[0], list):
            raise SpecError("unimodular takes one matrix, e.g. "
                            "unimodular([[1,1],[1,0]])")
        return Unimodular(n, args[0])
    if name == "wavefront":
        factors = _ints(args, None, "factor") if args else None
        return _wavefront(n, factors).steps[0]
    if name == "parallelize":
        which = _ints(args, None, "loop number")
        return Parallelize(n, [k + 1 in which for k in range(n)])
    if name in ("block", "tile"):
        if len(args) < 3:
            raise SpecError(f"{name} needs (i, j, size...)")
        i, j = _ints(args[:2], 2, "range bound")
        sizes = args[2:]
        precise = False
        if sizes and sizes[-1] == "precise":
            precise = True
            sizes = sizes[:-1]
        width = j - i + 1
        if len(sizes) == 1:
            sizes = sizes * width
        return Block(n, i, j, [_coerce_size(s) for s in sizes],
                     precise=precise)
    if name in ("stripmine", "strip_mine"):
        if len(args) != 2:
            raise SpecError("stripmine needs (loop, size)")
        k = _ints(args[:1], 1, "loop number")[0]
        return Block(n, k, k, [_coerce_size(args[1])])
    if name == "coalesce":
        i, j = _ints(args, 2, "range bound")
        return Coalesce(n, i, j)
    if name == "interleave":
        if len(args) < 3:
            raise SpecError("interleave needs (i, j, size...)")
        i, j = _ints(args[:2], 2, "range bound")
        sizes = args[2:]
        precise = False
        if sizes and sizes[-1] == "precise":
            precise = True
            sizes = sizes[:-1]
        width = j - i + 1
        if len(sizes) == 1:
            sizes = sizes * width
        return Interleave(n, i, j, [_coerce_size(s) for s in sizes],
                          precise=precise)
    raise SpecError(f"unknown step {name!r}")


def _coerce_size(s):
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        return parse_expr(s)
    raise SpecError(f"bad size {s!r}")


def step_from_spec(spec: str, n: int,
                   names: Optional[Sequence[str]] = None) -> Template:
    """Rebuild one template from its :meth:`Template.to_spec` rendering.

    *n* is the nest depth the step expects (specs omit it for some
    templates); *names* restores the loop renaming of a Unimodular,
    which its spec also omits.  The rebuilt step has the same
    legality-cache content key as the original — that equivalence is
    what :func:`repro.parallel.worker.step_roundtrips` verifies.
    """
    name, args = parse_call(spec)
    step = build_step(name, args, n)
    if names is not None and isinstance(step, Unimodular):
        step = Unimodular(step.n, step.matrix, names=list(names))
    return step


def parse_steps(spec: str, depth: int, reduce: bool = True) -> Transformation:
    """Build a Transformation from a SPEC string for a *depth*-deep nest.

    By default the sequence is peephole-reduced, so
    ``skew(2,1); interchange(1,2)`` becomes the single fused Unimodular
    step of Figure 1; ``reduce=False`` keeps the steps verbatim (the
    form the parallel-search wire protocol needs).
    """
    steps = []
    n = depth
    for call in split_calls(spec):
        name, args = parse_call(call)
        step = build_step(name, args, n)
        steps.append(step)
        n = step.output_depth
    T = Transformation(steps, n=depth)
    return T.reduced() if reduce else T
