"""Differential tests: CompiledNest vs the interpreter oracle.

The compiled engine promises bit-for-bit agreement with
:class:`~repro.runtime.Interpreter` — final arrays, iteration traces,
address traces, body counts, and error messages — under every schedule
policy.  These tests enforce that over the shipped example nests and a
bank of edge-case nests (negative steps, zero-trip loops, dynamic and
zero steps, pardo, builtin calls, array reads in bounds).
"""

import glob
import os
import random

import pytest

from repro.expr.nodes import call, var
from repro.ir.loopnest import ArrayRef, Assign, LoopNest
from repro.ir.parser import parse_nest
from repro.runtime import Array, CompiledNest, Interpreter, run_compiled
from repro.runtime.interpreter import Schedule
from repro.util.errors import ReproError

EXAMPLES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "..", "examples", "loops",
                 "*.loop")))

SCHEDULES = [Schedule(), Schedule("reverse"), Schedule("shuffle", seed=1)]
SCHEDULE_IDS = ["seq", "reverse", "shuffle"]


def rand_arrays(names, rank, rng, default=0):
    """Sparse random content for every base array of a nest, at every
    rank up to *rank* (a nest may subscript an array with fewer indices
    than it has loops)."""
    out = {}
    for nm in sorted(names):
        arr = Array(default, nm)
        for r in range(1, rank + 1):
            for _ in range(20):
                idx = tuple(rng.randrange(0, 8) for _ in range(r))
                arr[idx] = rng.randrange(-50, 50)
        out[nm] = arr
    return out


def outcome(engine, arrays):
    """``(result, None)`` or ``(None, (error type, message))``."""
    try:
        return engine.run(arrays), None
    except Exception as exc:  # compared by the caller, not swallowed
        return None, (type(exc).__name__, str(exc))


def assert_engines_agree(nest, arrays, symbols, schedule, funcs=None):
    """Run both engines; every observable must match, errors included."""
    interp = Interpreter(nest, symbols=symbols, funcs=funcs,
                         schedule=schedule, trace_vars=(),
                         trace_addresses=True)
    comp = CompiledNest(nest, symbols=symbols, funcs=funcs,
                        schedule=schedule, trace_vars=(),
                        trace_addresses=True)
    ref, ref_err = outcome(interp, arrays)
    got, got_err = outcome(comp, arrays)
    assert ref_err == got_err
    if ref_err is not None:
        return
    assert set(ref.arrays) == set(got.arrays)
    for nm in ref.arrays:
        assert ref.arrays[nm] == got.arrays[nm], f"array {nm} differs"
    assert ref.iteration_trace == got.iteration_trace
    assert ref.address_trace == got.address_trace
    assert ref.body_count == got.body_count


def assert_untraced_agree(nest, arrays, symbols, schedule, funcs=None):
    """The untraced twin: no traces, so the compiled engine hoists loop
    invariants and keeps accumulators in locals.  Final arrays, the set of
    array names, the body count and any error must still match."""
    interp = Interpreter(nest, symbols=symbols, funcs=funcs,
                         schedule=schedule)
    comp = CompiledNest(nest, symbols=symbols, funcs=funcs,
                        schedule=schedule)
    ref, ref_err = outcome(interp, arrays)
    got, got_err = outcome(comp, arrays)
    assert ref_err == got_err
    if ref_err is not None:
        return
    assert set(ref.arrays) == set(got.arrays)
    for nm in ref.arrays:
        assert ref.arrays[nm] == got.arrays[nm], f"array {nm} differs"
    assert got.iteration_trace is None and got.address_trace is None
    assert ref.body_count == got.body_count


@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_examples_differential(path, schedule):
    with open(path) as fh:
        nest = parse_nest(fh.read())
    symbols = {s: 6 for s in ("n", "m", "p", "nz")}
    rng = random.Random(hash(os.path.basename(path)) & 0xFFFF)
    names = CompiledNest(nest)._base_arrays
    arrays = rand_arrays(names, max(1, nest.depth), rng)
    assert_engines_agree(nest, arrays, symbols, schedule)
    assert_untraced_agree(nest, arrays, symbols, schedule)


def _abs_sgn_arity_2():
    """``abs``/``sgn`` with a second argument: builtin at any arity, they
    use the first.  The parser builds them at arity 1 only."""
    loops = parse_nest("do i = 1, 4\n do j = 1, 4\n  a(i, j) = 0\n enddo\n"
                       "enddo").loops
    i, j = var("i"), var("j")
    value = call("abs", i - j, j) + call("sgn", i - 3, j) * 10
    return LoopNest(loops, [Assign(ArrayRef("a", (i, j)), value)])


#: Calls at the edges of the builtin rule: a relational name at another
#: arity and ``ne`` are arrays, ``abs``/``sgn`` are builtin at any arity,
#: and an array the nest writes shadows a builtin of its name.  The
#: vectorized and emitted-module differentials run these too.
CALL_NESTS = [
    ("relational-arity-1-3",
     "do i = 1, 5\n a(i) = le(i) + ge(i, 2, 3)*10\nenddo", {}),
    ("abs-sgn-arity-2", _abs_sgn_arity_2(), {}),
    ("ne",
     "do i = 1, 4\n do j = 1, 4\n  if (ne(i, j)) a(i, j) = ne(j, i) + 1\n"
     " enddo\nenddo", {}),
    ("le-written",
     "do i = 1, 5\n le(i, 2) = i*3\n a(i) = le(i, 2) + le(2, i)\nenddo", {}),
    ("le-compared", "do i = 1, 5\n a(i) = le(i, 3) * 10 + i\nenddo", {}),
]


EDGE_NESTS = CALL_NESTS + [
    ("negstep",
     "do i = 10, 1, -3\n do j = i, 1, -1\n  a(i,j) += i*j\n enddo\nenddo",
     {}),
    ("zerotrip", "do i = 5, 1\n a(i) = i\nenddo", {}),
    # The body references an unbound name; a zero-trip loop must not
    # evaluate it (neither engine may raise).
    ("zerotrip-unbound", "do i = 5, 1\n a(q) = q\nenddo", {}),
    ("dynstep", "do i = 1, n, k\n a(i) += 1\nenddo", {"n": 9, "k": 2}),
    ("negdynstep", "do i = n, 1, k\n a(i) += 1\nenddo", {"n": 9, "k": -2}),
    ("pardo",
     "do i = 1, 6\n pardo j = 1, 6\n  a(i,j) = a(i, j - 1) + 1\n enddo\n"
     "enddo", {}),
    ("mod", "do i = -7, 7\n a(i) = mod(i, 3) + mod(i, -3)\nenddo", {}),
    ("minmax",
     "do i = 1, 8\n do j = max(1, i - 2), min(8, i + 2)\n  a(i,j) += 1\n"
     " enddo\nenddo", {}),
    ("relational",
     "do i = 1, 5\n do j = 1, 5\n  a(i,j) = le(i, j) + gt(i, j)*10 "
     "+ eq(i,j)*100\n enddo\nenddo", {}),
    ("abs-sgn", "do i = -4, 4\n a(i) = abs(i) + sgn(i)*10\nenddo", {}),
    ("accum-init", "do i = 1, 6\n t = i*2\n a(t) += t\nenddo", {}),
    # An invariant accumulator whose array another statement reads: the
    # read must see every partial sum, so no scalar replacement.
    ("accum-read-elsewhere",
     "do i = 1, 4\n do j = 1, 5\n  s(i) += j\n  b(i, j) = s(i)\n enddo\n"
     "enddo", {}),
    # Another statement writes the accumulator's array: no replacement.
    ("accum-written-elsewhere",
     "do i = 1, 4\n do j = 1, 5\n  s(i) += j\n  s(6 - j) = i\n enddo\n"
     "enddo", {}),
    # An invariant read of an array the nest writes: not hoisted.
    ("invariant-read-written",
     "do i = 1, 4\n do j = 1, 4\n  a(i, j) = b(i) * 2\n  b(j) = b(j) + i\n"
     " enddo\nenddo", {}),
    ("zerotrip-invariant",
     "do i = 1, 3\n do j = 5, 1\n  z(i) += q(i + n)\n enddo\nenddo",
     {"n": 2}),
    ("accum-symbol-subscript",
     "do i = 1, 3\n do j = 1, 4\n  s(i + n) += b(j) * abs(i - 3)\n enddo\n"
     "enddo", {"n": 2}),
    # The subscript is an init target, so it moves every iteration.
    ("accum-init-target",
     "do i = 1, 3\n do j = 1, 4\n  t = j\n  s(t) += i\n enddo\nenddo", {}),
    # The init redefines a symbol: n moves every iteration, so neither
    # n * i nor the subscript n is invariant.
    ("init-shadows-symbol",
     "do i = 1, 3\n do j = 1, 4\n  n = j\n  s(n) += b(n * i)\n enddo\n"
     "enddo", {"n": 2}),
    ("accum-guarded",
     "do i = 1, 3\n do j = 1, 4\n  if (j > 2) s(i) += j * c(i)\n enddo\n"
     "enddo", {}),
]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("tag,src,symbols", EDGE_NESTS,
                         ids=[e[0] for e in EDGE_NESTS])
def test_edge_nests_differential(tag, src, symbols, schedule):
    nest = src if isinstance(src, LoopNest) else parse_nest(src)
    rng = random.Random(hash(tag) & 0xFFFF)
    names = CompiledNest(nest)._base_arrays
    arrays = rand_arrays(names, max(1, nest.depth), rng)
    assert_engines_agree(nest, arrays, symbols, schedule)
    assert_untraced_agree(nest, arrays, symbols, schedule)


def test_array_read_in_bounds_differential():
    """sparse.loop-style pattern: loop bounds read an array (s)."""
    nest = parse_nest(
        "do i = 1, 5\n do j = s(i), s(i + 1) - 1\n  a(j) += i\n enddo\n"
        "enddo")
    s = Array(0, "s")
    for k in range(1, 8):
        s[(k,)] = k
    for schedule in SCHEDULES:
        assert_engines_agree(nest, {"s": s}, {}, schedule)
        assert_untraced_agree(nest, {"s": s}, {}, schedule)


def test_zero_step_raises_same_error():
    nest = parse_nest("do i = 1, n, k\n a(i) += 1\nenddo")
    symbols = {"n": 9, "k": 0}
    with pytest.raises(ReproError) as comp_err:
        CompiledNest(nest, symbols=symbols).run({})
    with pytest.raises(ReproError) as ref_err:
        Interpreter(nest, symbols=symbols).run({})
    assert str(comp_err.value) == str(ref_err.value)


def test_funcs_and_runtime_array_shadowing():
    """A run-time array named like a func shadows the func, exactly as
    the interpreter resolves names at execution time."""
    nest = parse_nest("do i = 1, 6\n a(i) = f(i) + g(i, 2)\nenddo")
    funcs = {"f": lambda x: x * x, "g": lambda x, y: x + y}
    for schedule in SCHEDULES:
        assert_engines_agree(nest, {}, {}, schedule, funcs=funcs)
        assert_untraced_agree(nest, {}, {}, schedule, funcs=funcs)
    shadow = Array(3, "f")
    shadow[(2,)] = 99
    for schedule in SCHEDULES:
        assert_engines_agree(nest, {"f": shadow}, {}, schedule, funcs=funcs)
        assert_untraced_agree(nest, {"f": shadow}, {}, schedule,
                              funcs=funcs)


def test_runtime_array_shadows_a_builtin():
    """An array the caller binds as ``le`` is read where ``le(i, j)``
    would otherwise compare, as the interpreter resolves it."""
    nest = parse_nest("do i = 1, 4\n do j = 1, 4\n  a(i, j) = le(i, j)\n"
                      " enddo\nenddo")
    shadow = Array(5, "le")
    shadow[(2, 3)] = 99
    for schedule in SCHEDULES:
        assert_engines_agree(nest, {"le": shadow}, {}, schedule)
        assert_untraced_agree(nest, {"le": shadow}, {}, schedule)
    got = CompiledNest(nest).run({"le": shadow}).arrays["a"]
    assert got[(2, 3)] == 99 and got[(1, 1)] == 5


def test_inputs_not_mutated():
    nest = parse_nest("do i = 1, 4\n a(i) = b(i) + 1\n b(i) = 0\nenddo")
    b = Array(0, "b")
    for k in range(1, 5):
        b[(k,)] = 10 * k
    before = dict(b.data)
    result = run_compiled(nest, {"b": b})
    assert b.data == before
    assert result.arrays["b"] != b  # the engine returned a new array


def test_source_is_inspectable():
    nest = parse_nest("do i = 1, n\n a(i) = i\nenddo")
    engine = CompiledNest(nest, symbols={"n": 4})
    engine.run({})
    src = engine.source
    assert "def _kernel" in src
    assert "_arr_a" in src
    compile(src, "<check>", "exec")  # stays valid Python


def test_max_iterations_matches_interpreter():
    nest = parse_nest("do i = 1, 100\n a(i) = i\nenddo")
    with pytest.raises(ReproError) as comp_err:
        CompiledNest(nest, max_iterations=10).run({})
    with pytest.raises(ReproError) as ref_err:
        Interpreter(nest, max_iterations=10).run({})
    assert str(comp_err.value) == str(ref_err.value)


def test_trace_vars_subset():
    nest = parse_nest(
        "do i = 1, 3\n do j = 1, 3\n  a(i,j) = i + j\n enddo\nenddo")
    ref = Interpreter(nest, trace_vars=("j",)).run({})
    got = CompiledNest(nest, trace_vars=("j",)).run({})
    assert ref.iteration_trace == got.iteration_trace
    assert got.iteration_trace == [(j,) for _ in range(3)
                                   for j in range(1, 4)]


# -- the untraced fast path: invariants, accumulators, the iteration cap ----

def test_zero_trip_invariant_leaves_arrays_absent():
    """A zero-trip inner loop must neither load the invariant accumulator
    nor read the invariant operand: both arrays stay out of the result."""
    nest = parse_nest("do i = 1, 3\n do j = 5, 1\n  z(i) += q(i + n)\n"
                      " enddo\nenddo")
    for traced in (False, True):
        got = CompiledNest(nest, symbols={"n": 2},
                           trace_addresses=traced).run({})
        assert got.arrays == {} and got.body_count == 0


def test_guarded_invariant_read_not_hoisted():
    """A read under an ``If`` that never holds touches nothing."""
    nest = parse_nest("do i = 1, 3\n do j = 1, 4\n  if (j > 9) a(i, j) = c(i)\n"
                      " enddo\nenddo")
    ref = Interpreter(nest).run({})
    got = CompiledNest(nest).run({})
    assert set(ref.arrays) == set(got.arrays) == set()


def test_user_func_in_invariant_position_called_every_iteration():
    nest = parse_nest("do i = 1, 3\n do j = 1, 4\n  a(i, j) = f(i) + j\n"
                      " enddo\nenddo")
    calls = {"interp": [], "comp": []}

    def recorder(key):
        return {"f": lambda x: calls[key].append(x) or x * 10}

    ref = Interpreter(nest, funcs=recorder("interp")).run({})
    got = CompiledNest(nest, funcs=recorder("comp")).run({})
    assert calls["comp"] == calls["interp"] == [1] * 4 + [2] * 4 + [3] * 4
    assert ref.arrays["a"] == got.arrays["a"]


def test_float_accumulation_bit_identical():
    """The scalar-replaced accumulator adds in the interpreter's order, so
    float sums that depend on association come out identical."""
    nest = parse_nest("do i = 1, 2\n do j = 1, 6\n  s(i) += x(j) * y(i)\n"
                      " enddo\nenddo")
    x = Array.from_values([1e16, 1.0, -1e16, 0.1, 0.2, 0.3])
    y = Array.from_values([1.0, 3.0])
    s = Array(0.5, "s")
    arrays = {"x": x, "y": y, "s": s}
    engine = CompiledNest(nest)
    got = engine.run(arrays)
    assert "_acc" in engine.source and "_h1 = _arr_y[(i,)]" in engine.source
    ref = Interpreter(nest).run(arrays)
    assert got.arrays["s"].data == ref.arrays["s"].data
    naive = sum(x[(j,)] * y[(1,)] for j in range(1, 7)) + 0.5
    assert ref.arrays["s"][(1,)] != naive  # the order is observable


def test_invariant_accumulator_counters():
    """matmul after interchange(1,2) keeps ``A(i, j)`` in a local when
    untraced; a traced variant keeps per-read emission."""
    from repro import obs
    from repro.api import Transformation, analyze

    with open(os.path.join(os.path.dirname(__file__), "..", "examples",
                           "loops", "matmul.loop")) as fh:
        nest = parse_nest(fh.read())
    out = Transformation.from_spec("interchange(1,2)", 3).apply(
        nest, analyze(nest))
    counts = {}
    for traced in (False, True):
        obs.disable()
        obs.get_metrics().clear()
        obs.enable()
        try:
            CompiledNest(out, symbols={"n": 3},
                         trace_addresses=traced).run({})
            counters = obs.get_metrics().snapshot()["counters"]
        finally:
            obs.disable()
            obs.get_metrics().clear()
        counts[traced] = (counters.get("compiled.scalar_replaced", 0),
                          counters.get("compiled.hoisted_exprs", 0))
    assert counts == {False: (1, 0), True: (0, 0)}


CAP_NEST = ("do i = 1, 4\n do j = 1, i - 2\n  pardo k = 1, 3\n"
            "   a(i, j, k) += i * j + k\n  enddo\n enddo\nenddo")
#: Innermost loops that never run: a negative cap must not trip on them,
#: since the interpreter checks the cap only when a body runs; the second
#: nest's zero-trip entry comes before a zero step.
ZERO_TRIP_CAP_NESTS = (
    "do i = 1, 2\n do j = 5, 1\n  a(i, j) += i\n enddo\nenddo",
    "do i = 1, 2\n do j = 3, 1, 2 - i\n  a(i, j) += i\n enddo\nenddo",
)


def assert_cap_agrees(nest, cap, schedule):
    """Interpreter and compiled engine, traced and untraced, under one
    cap: the same error, or the same body count, arrays and iterations."""
    ref, ref_err = outcome(
        Interpreter(nest, schedule=schedule, max_iterations=cap,
                    trace_vars=()), {})
    for traced in (False, True):
        got, got_err = outcome(
            CompiledNest(nest, schedule=schedule, max_iterations=cap,
                         trace_addresses=traced, trace_vars=()), {})
        assert got_err == ref_err, (cap, traced)
        if ref_err is None:
            assert got.body_count == ref.body_count
            assert got.arrays.keys() == ref.arrays.keys()
            for name in ref.arrays:
                assert got.arrays[name] == ref.arrays[name]
            if traced:
                assert got.iteration_trace == ref.iteration_trace
    return ref_err


def test_iteration_cap_exact_for_every_cap():
    """Every cap from -2 to one past the iteration total: the compiled
    engine, traced and untraced, raises the interpreter's exact error or
    returns its body count and arrays."""
    nest = parse_nest(CAP_NEST)
    schedule = Schedule("shuffle", seed=3)
    total = Interpreter(nest, schedule=schedule).run({}).body_count
    assert total == (0 + 0 + 1 + 2) * 3
    for cap in range(-2, total + 2):
        ref_err = assert_cap_agrees(nest, cap, schedule)
        assert (ref_err is None) == (cap >= total)
    loops_only, zero_step = map(parse_nest, ZERO_TRIP_CAP_NESTS)
    for cap in (-2, -1, 0, 1):
        assert assert_cap_agrees(loops_only, cap, schedule) is None
        assert assert_cap_agrees(zero_step, cap, schedule) == (
            "ReproError", "loop j has zero step at run time")


def test_iteration_cap_against_raising_body():
    """The body divides by zero at iteration 3 (i=1, j=3): a cap below 3
    raises the cap error, a cap at or above it the division error."""
    nest = parse_nest("do i = 1, 3\n do j = 1, 4\n"
                      "  a(i, j) = div(12, i * 4 + j - 7)\n enddo\nenddo")
    for cap in range(14):
        want = "ReproError" if cap < 3 else "ZeroDivisionError"
        _, ref_err = outcome(Interpreter(nest, max_iterations=cap), {})
        assert ref_err[0] == want
        for traced in (False, True):
            _, got_err = outcome(
                CompiledNest(nest, max_iterations=cap,
                             trace_addresses=traced), {})
            assert got_err[0] == want, (cap, traced)
            if want == "ReproError":
                assert got_err == ref_err
