"""Loop-nest execution engines, traces, and semantic oracles.

Three engines share one semantics: :class:`Interpreter` (the
tree-walking oracle), :class:`CompiledNest` (the nest lowered to Python
and ``exec``-compiled — the portable fast path), and
:class:`VectorizedNest` (the nest lowered to NumPy whole-array
kernels — the native-speed path, delegating to the compiled engine for
anything it cannot prove safe).  Differential tests keep all three
interchangeable on final arrays; the interpreter and compiled engine
are additionally bit-for-bit on traces.
"""

from repro.options import ENGINE_NAMES
from repro.runtime.arrays import Array
from repro.runtime.compiled import CompiledNest, emit_python, run_compiled
from repro.runtime.interpreter import (
    ExecutionResult,
    Interpreter,
    Schedule,
    run_nest,
)
from repro.runtime.oracle import (
    OracleFailure,
    check_dependence_order,
    check_equivalence,
    dependence_order_holds,
    same_iteration_multiset,
)
from repro.runtime.parallel_sim import CostResult, simulate_makespan
from repro.runtime.vectorized import (
    VectorizedNest,
    VectorizedNestCache,
    numpy_available,
    run_vectorized,
)


def resolve_engine(name: str):
    """The engine class registered under *name*.

    ``ValueError`` on an unknown name;
    :class:`~repro.util.errors.ReproError` for ``"vectorized"`` when
    NumPy is not installed (it is an optional dependency), so callers
    can surface a typed unavailability error instead of an ImportError.
    """
    if name == "interpreter":
        return Interpreter
    if name == "compiled":
        return CompiledNest
    if name == "vectorized":
        from repro.runtime.vectorized import _require_numpy
        _require_numpy()
        return VectorizedNest
    raise ValueError(f"unknown engine {name!r} "
                     f"(choose from {', '.join(ENGINE_NAMES)})")


__all__ = [
    "Array", "ExecutionResult", "Interpreter", "Schedule", "run_nest",
    "CompiledNest", "emit_python", "run_compiled",
    "VectorizedNest", "VectorizedNestCache", "numpy_available",
    "run_vectorized", "ENGINE_NAMES", "resolve_engine",
    "OracleFailure", "check_dependence_order", "check_equivalence",
    "dependence_order_holds", "same_iteration_multiset",
    "CostResult", "simulate_makespan",
]
