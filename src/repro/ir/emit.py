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
    builtin,
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


def _c_expr(e: Expr, arrays: Set[str]) -> str:
    """*e* in C; a call to a name in *arrays* is an array reference even
    where the name is a builtin's."""
    if isinstance(e, Const):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return "(" + " + ".join(_c_expr(t, arrays) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(_c_expr(f, arrays)
                                for f in e.factors) + ")"
    if isinstance(e, FloorDiv):
        return (f"FLOOR_DIV({_c_expr(e.num, arrays)}, "
                f"{_c_expr(e.den, arrays)})")
    if isinstance(e, CeilDiv):
        return (f"CEIL_DIV({_c_expr(e.num, arrays)}, "
                f"{_c_expr(e.den, arrays)})")
    if isinstance(e, Mod):
        return (f"FLOOR_MOD({_c_expr(e.num, arrays)}, "
                f"{_c_expr(e.den, arrays)})")
    if isinstance(e, Min):
        inner = _c_expr(e.args[0], arrays)
        for a in e.args[1:]:
            inner = f"MIN({inner}, {_c_expr(a, arrays)})"
        return inner
    if isinstance(e, Max):
        inner = _c_expr(e.args[0], arrays)
        for a in e.args[1:]:
            inner = f"MAX({inner}, {_c_expr(a, arrays)})"
        return inner
    if isinstance(e, Call):
        entry = None if e.func in arrays else builtin(e.func, len(e.args))
        if entry is not None and entry.infix is not None:
            return (f"({_c_expr(e.args[0], arrays)} {entry.infix} "
                    f"{_c_expr(e.args[1], arrays)})")
        # ABS/SGN read their first argument, as the interpreter does.
        args = e.args[:1] if entry is not None else e.args
        return (f"{e.func.upper()}("
                + ", ".join(_c_expr(a, arrays) for a in args) + ")")
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


def _c_stmt(stmt: Statement, indent: str, arrays: Set[str]) -> List[str]:
    if isinstance(stmt, Assign):
        subs = ", ".join(_c_expr(s, arrays) for s in stmt.target.subscripts)
        lhs = f"{stmt.target.name.upper()}({subs})"
        op = "+=" if stmt.accumulate else "="
        return [f"{indent}{lhs} {op} {_c_expr(stmt.expr, arrays)};"]
    if isinstance(stmt, If):
        lines = [f"{indent}if ({_c_expr(stmt.cond, arrays)})"]
        lines.extend(_c_stmt(stmt.then, indent + "    ", arrays))
        return lines
    if isinstance(stmt, InitStmt):
        return [f"{indent}{stmt.var} = {_c_expr(stmt.expr, arrays)};"]
    raise CodegenError(f"cannot emit C for statement {stmt!r}")


def emit_c(nest: LoopNest, func_name: str = "kernel") -> str:
    """Emit a C function scanning the nest.

    Array accesses are left as upper-case macros (``A(i, j)``) so the
    caller binds storage; loop indices and scalar (init) variables are
    declared ``long`` at function scope.  ``pardo`` loops get an OpenMP
    pragma whose ``private`` clause names the indices of the loops inside
    it and every scalar, so no thread writes a variable another reads.
    """
    scalars = nest.defined_names()
    arrays = nest.written_names()
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
        step = _c_expr(lp.step, arrays)
        cmp = (f"{lp.index} <= ({_c_expr(lp.upper, arrays)})"
               if not (isinstance(lp.step, Const) and lp.step.value < 0)
               else f"{lp.index} >= ({_c_expr(lp.upper, arrays)})")
        lines.append(
            f"{indent}for ({lp.index} = {_c_expr(lp.lower, arrays)}; "
            f"{cmp}; {lp.index} += {step})")
        lines.append(indent + "{")
        indent += "    "
    for init in nest.inits:
        lines.extend(_c_stmt(init, indent, arrays))
    for stmt in nest.body:
        lines.extend(_c_stmt(stmt, indent, arrays))
    for _ in range(nest.depth):
        indent = indent[:-4]
        lines.append(indent + "}")
    lines.append("}")
    return "\n".join(lines)
