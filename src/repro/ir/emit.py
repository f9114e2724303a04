"""C source emitter: turn a loop nest into readable C99.

The framework's output is a transformed :class:`LoopNest`; downstream
users usually want real code.  :func:`emit_c` writes ``for`` loops
(``pardo`` becomes an ``#pragma omp parallel for``) over arrays left as
upper-case macros, from the nest exactly as the framework produced it:
loop headers, init statements, unchanged body.  The Python counterpart
is :func:`repro.runtime.compiled.emit_python`, the code the compiled
engine runs.
"""

from __future__ import annotations

from typing import List, Set

from repro.expr.nodes import (
    Add,
    Call,
    CeilDiv,
    Const,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Var,
)
from repro.ir.loopnest import (
    Assign,
    If,
    InitStmt,
    LoopNest,
    PARDO,
    Statement,
)
from repro.util.errors import CodegenError

_RELATIONAL = {"le": "<=", "ge": ">=", "lt": "<", "gt": ">", "eq": "=="}


def _c_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return "(" + " + ".join(_c_expr(t) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_c_expr(f) for f in e.factors) + ")"
    if isinstance(e, FloorDiv):
        return f"FLOOR_DIV({_c_expr(e.num)}, {_c_expr(e.den)})"
    if isinstance(e, CeilDiv):
        return f"CEIL_DIV({_c_expr(e.num)}, {_c_expr(e.den)})"
    if isinstance(e, Mod):
        return f"FLOOR_MOD({_c_expr(e.num)}, {_c_expr(e.den)})"
    if isinstance(e, Min):
        inner = _c_expr(e.args[0])
        for a in e.args[1:]:
            inner = f"MIN({inner}, {_c_expr(a)})"
        return inner
    if isinstance(e, Max):
        inner = _c_expr(e.args[0])
        for a in e.args[1:]:
            inner = f"MAX({inner}, {_c_expr(a)})"
        return inner
    if isinstance(e, Call):
        if e.func in _RELATIONAL and len(e.args) == 2:
            return (f"({_c_expr(e.args[0])} {_RELATIONAL[e.func]} "
                    f"{_c_expr(e.args[1])})")
        if e.func == "abs":
            return f"ABS({_c_expr(e.args[0])})"
        if e.func == "sgn":
            return f"SGN({_c_expr(e.args[0])})"
        args = ", ".join(_c_expr(a) for a in e.args)
        return f"{e.func.upper()}({args})"
    raise CodegenError(f"cannot emit C for {e!r}")


_C_PRELUDE = """\
/* Generated by repro (Sarkar & Thekkath, PLDI 1992 framework). */
#define FLOOR_DIV(a, b) ((a) / (b) - (((a) % (b) != 0) && (((a) < 0) != ((b) < 0))))
#define FLOOR_MOD(a, b) ((a) - (b) * FLOOR_DIV(a, b))
#define CEIL_DIV(a, b)  (-FLOOR_DIV(-(a), (b)))
#define MIN(a, b)       ((a) < (b) ? (a) : (b))
#define MAX(a, b)       ((a) > (b) ? (a) : (b))
#define ABS(a)          ((a) < 0 ? -(a) : (a))
#define SGN(a)          ((a) > 0 ? 1 : ((a) < 0 ? -1 : 0))
"""


def _c_stmt(stmt: Statement, indent: str) -> List[str]:
    if isinstance(stmt, Assign):
        subs = ", ".join(_c_expr(s) for s in stmt.target.subscripts)
        lhs = f"{stmt.target.name.upper()}({subs})"
        op = "+=" if stmt.accumulate else "="
        return [f"{indent}{lhs} {op} {_c_expr(stmt.expr)};"]
    if isinstance(stmt, If):
        lines = [f"{indent}if ({_c_expr(stmt.cond)})"]
        lines.extend(_c_stmt(stmt.then, indent + "    "))
        return lines
    if isinstance(stmt, InitStmt):
        return [f"{indent}{stmt.var} = {_c_expr(stmt.expr)};"]
    raise CodegenError(f"cannot emit C for statement {stmt!r}")


def emit_c(nest: LoopNest, func_name: str = "kernel") -> str:
    """Emit a C function scanning the nest.

    Array accesses are left as upper-case macros (``A(i, j)``) so the
    caller binds storage; loop indices and scalar (init) variables are
    declared ``long`` at function scope.  ``pardo`` loops get an OpenMP
    pragma whose ``private`` clause names the indices of the loops inside
    it and every scalar, so no thread writes a variable another reads.
    """
    scalars: Set[str] = {init.var for init in nest.inits}
    for stmt in nest.body:
        while isinstance(stmt, If):
            stmt = stmt.then
        if isinstance(stmt, InitStmt):
            scalars.add(stmt.var)
    invariants = sorted(nest.invariants())

    lines = [_C_PRELUDE]
    params = ", ".join(f"long {v}" for v in invariants) or "void"
    lines.append(f"void {func_name}({params})")
    lines.append("{")
    decls = ", ".join(sorted(scalars.union(nest.indices)))
    lines.append(f"    long {decls};")
    indent = "    "
    for level, lp in enumerate(nest.loops):
        if lp.kind == PARDO:
            private = ", ".join(sorted(scalars.union(
                nest.indices[level + 1:])))
            clause = f" private({private})" if private else ""
            lines.append(f"{indent}#pragma omp parallel for{clause}")
        step = _c_expr(lp.step)
        cmp = (f"{lp.index} <= ({_c_expr(lp.upper)})"
               if not (isinstance(lp.step, Const) and lp.step.value < 0)
               else f"{lp.index} >= ({_c_expr(lp.upper)})")
        lines.append(
            f"{indent}for ({lp.index} = {_c_expr(lp.lower)}; {cmp}; "
            f"{lp.index} += {step})")
        lines.append(indent + "{")
        indent += "    "
    for init in nest.inits:
        lines.extend(_c_stmt(init, indent))
    for stmt in nest.body:
        lines.extend(_c_stmt(stmt, indent))
    for _ in range(nest.depth):
        indent = indent[:-4]
        lines.append(indent + "}")
    lines.append("}")
    return "\n".join(lines)
