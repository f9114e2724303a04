"""Perf-6 — execution substrates: reference interpreter vs compiled
Python kernels.

The interpreter is the semantic oracle; the fast paths are the
trace-faithful engine (:class:`repro.runtime.CompiledNest`, which also
reproduces the oracle's address traces and schedule hook) and the
standalone module :func:`repro.runtime.emit_python` prints from the
same code.  This bench measures all of them on the matmul nest
(original and tiled) and asserts the expected shape: compiled is an
order of magnitude faster, and everything agrees bit-for-bit.
"""

import random
import time
from collections import defaultdict

import pytest

from repro.core import Block, Transformation
from repro.deps import depset
from repro.ir.emit import emit_c
from repro.runtime import CompiledNest, Interpreter, emit_python, run_nest

from benchmarks.conftest import random_square

N = 14


def _module_kernel(nest):
    """The ``kernel`` entry of the nest's emitted Python module."""
    namespace = {}
    exec(compile(emit_python(nest), "<kernel>", "exec"), namespace)
    return namespace["kernel"]


def _best_of(fn, repeats=3):
    """Smallest wall-clock of *repeats* calls; returns (seconds, result)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.fixture
def matmul_inputs(matmul_nest):
    rng = random.Random(0)
    B = random_square(rng, 1, N, "B")
    C = random_square(rng, 1, N, "C")
    return matmul_nest, B, C


def test_interpreter_matmul(report, benchmark, matmul_inputs):
    nest, B, C = matmul_inputs
    result = benchmark(run_nest, nest, {"B": B, "C": C}, symbols={"n": N})
    report("Perf-6: interpreter", f"{result.body_count} iterations")


def test_compiled_matmul(report, benchmark, matmul_inputs):
    nest, B, C = matmul_inputs
    fn = _module_kernel(nest)

    def run():
        arrays = {"A": defaultdict(int),
                  "B": defaultdict(int, B.data),
                  "C": defaultdict(int, C.data)}
        fn(arrays, {"n": N})
        return arrays

    arrays = benchmark(run)
    expected = run_nest(nest, {"B": B, "C": C}, symbols={"n": N})
    for key, value in expected.arrays["A"].data.items():
        assert arrays["A"][key] == value
    report("Perf-6: compiled Python kernel", "matches the interpreter")


def test_compiled_tiled_matmul(report, benchmark, matmul_inputs):
    nest, B, C = matmul_inputs
    tiled = Transformation.of(Block(3, 1, 3, [4, 4, 4])).apply(
        nest, depset((0, 0, "+")))
    fn = _module_kernel(tiled)

    def run():
        arrays = {"A": defaultdict(int),
                  "B": defaultdict(int, B.data),
                  "C": defaultdict(int, C.data)}
        fn(arrays, {"n": N})
        return arrays

    arrays = benchmark(run)
    expected = run_nest(nest, {"B": B, "C": C}, symbols={"n": N})
    for key, value in expected.arrays["A"].data.items():
        assert arrays["A"][key] == value
    report("Perf-6: compiled tiled kernel", "matches the interpreter")


def test_compiled_engine_matmul(report, benchmark, matmul_inputs):
    nest, B, C = matmul_inputs
    engine = CompiledNest(nest, symbols={"n": N})
    arrays = {"B": B, "C": C}
    engine.run(arrays)  # compile outside the timed region

    result = benchmark(engine.run, arrays)
    expected = run_nest(nest, arrays, symbols={"n": N})
    assert result.arrays["A"] == expected.arrays["A"]
    report("Perf-6: compiled engine", "matches the interpreter")


def test_compiled_engine_traced_matmul(report, benchmark, matmul_inputs):
    nest, B, C = matmul_inputs
    engine = CompiledNest(nest, symbols={"n": N}, trace_addresses=True)
    arrays = {"B": B, "C": C}
    engine.run(arrays)

    result = benchmark(engine.run, arrays)
    expected = Interpreter(nest, symbols={"n": N},
                           trace_addresses=True).run(arrays)
    assert result.address_trace == expected.address_trace
    report("Perf-6: compiled engine with address trace",
           f"{len(result.address_trace)} accesses, trace matches oracle")


@pytest.mark.smoke
def test_smoke_compiled_engine_speedup(report, smoke_summary, matmul_inputs):
    """CI guardrail: the compiled engine must stay >= 5x faster than the
    interpreter oracle while agreeing bit-for-bit, traces included."""
    nest, B, C = matmul_inputs
    arrays = {"B": B, "C": C}
    symbols = {"n": N}

    engine = CompiledNest(nest, symbols=symbols)
    engine.run(arrays)  # warm the compile cache
    compiled_s, got = _best_of(lambda: engine.run(arrays))
    interp_s, ref = _best_of(lambda: run_nest(nest, arrays, symbols=symbols))
    assert got.arrays["A"] == ref.arrays["A"]
    assert got.body_count == ref.body_count

    traced_engine = CompiledNest(nest, symbols=symbols, trace_addresses=True)
    traced = traced_engine.run(arrays)
    oracle = Interpreter(nest, symbols=symbols,
                         trace_addresses=True).run(arrays)
    assert traced.address_trace == oracle.address_trace

    speedup = interp_s / compiled_s
    smoke_summary["compiled_engine"] = {
        "benchmark": "matmul", "n": N,
        "interpreter_seconds": round(interp_s, 6),
        "compiled_seconds": round(compiled_s, 6),
        "speedup": round(speedup, 2),
        "threshold": 5.0,
    }
    report("Perf-6 smoke: compiled engine speedup",
           f"{speedup:.1f}x over the interpreter (floor 5x)")
    assert speedup >= 5.0, (
        f"compiled engine only {speedup:.2f}x faster than interpreter")


def test_emitted_c_compiles_structurally(report, benchmark, matmul_inputs):
    """Check structure and time the emitter (tests/test_emit.py runs
    gcc on the corpus outputs)."""
    nest, _, _ = matmul_inputs
    tiled = Transformation.of(Block(3, 1, 3, [4, 4, 4])).apply(
        nest, depset((0, 0, "+")))
    src = benchmark(emit_c, tiled)
    assert src.count("{") == src.count("}")
    assert src.count("for (") == 6
    report("Perf-6: C emitter", f"{len(src.splitlines())} lines of C")
