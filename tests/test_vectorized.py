"""Differential tests: VectorizedNest vs the interpreter oracle.

The vectorized engine promises *final-array identity* with
:class:`~repro.runtime.Interpreter` — final arrays, body counts, and
error messages — under every schedule policy, over every nest: what it
cannot prove safe to lower to NumPy whole-array kernels it runs on the
compiled engine instead (per statement group or for the whole run), so
a fallback is a slower answer, never a different one.  Tracing is not
part of the vectorized contract (a tracing run delegates wholly, and
the delegated traces are bit-for-bit — covered here too).

The suite skips when NumPy is absent (it is an optional dependency);
the no-NumPy behavior itself is tested by masking the module's handle.
"""

import glob
import os
import random

import pytest

numpy = pytest.importorskip("numpy")

from repro.expr.nodes import Call, subexpressions  # noqa: E402
from repro.ir.loopnest import LoopNest  # noqa: E402
from repro.ir.parser import parse_nest  # noqa: E402
from repro.runtime import Array, CompiledNest, Interpreter  # noqa: E402
from repro.runtime.interpreter import Schedule  # noqa: E402
from repro.runtime.vectorized import (  # noqa: E402
    VectorizedNest,
    VectorizedNestCache,
    numpy_available,
    run_vectorized,
)
from repro.util.errors import ReproError  # noqa: E402
from tests.test_compiled import CALL_NESTS  # noqa: E402

EXAMPLES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "..", "examples", "loops",
                 "*.loop")))

SCHEDULES = [Schedule(), Schedule("reverse"), Schedule("shuffle", seed=1)]
SCHEDULE_IDS = ["seq", "reverse", "shuffle"]


def array_ranks(nest):
    """Observed subscript arity per array name (bounds, then accesses)."""
    ranks = {}
    names = CompiledNest(nest)._base_arrays
    for lp in nest.loops:
        for e in (lp.lower, lp.upper, lp.step):
            for c in subexpressions(e):
                if isinstance(c, Call) and c.func in names:
                    ranks.setdefault(c.func, len(c.args))
    for access in nest.accesses(names):
        ranks.setdefault(access.array, len(access.subscripts))
    for nm in names:
        ranks.setdefault(nm, max(1, nest.depth))
    return ranks


def rand_arrays(nest, rng, default=0):
    """Sparse random content, keyed at each array's observed rank."""
    out = {}
    for nm, rank in sorted(array_ranks(nest).items()):
        arr = Array(default, nm)
        for _ in range(20):
            idx = tuple(rng.randrange(0, 8) for _ in range(rank))
            arr[idx] = rng.randrange(-50, 50)
        out[nm] = arr
    return out


def assert_final_arrays_agree(nest, arrays, symbols, schedule, funcs=None,
                              **engine_kwargs):
    """Run oracle and vectorized engine; final arrays, body counts and
    errors must match.  Names absent from one result compare as empty
    (the interpreter materializes read-but-never-written arrays lazily;
    the vectorized engine only returns what it wrote or was given)."""
    interp = Interpreter(nest, symbols=symbols, funcs=funcs,
                         schedule=schedule)
    vec = VectorizedNest(nest, symbols=symbols, funcs=funcs,
                         schedule=schedule, **engine_kwargs)
    try:
        ref = interp.run(arrays)
        ref_err = None
    except Exception as exc:  # compared below, not swallowed
        ref, ref_err = None, (type(exc).__name__, str(exc))
    try:
        got = vec.run(arrays)
        got_err = None
    except Exception as exc:
        got, got_err = None, (type(exc).__name__, str(exc))
    assert ref_err == got_err
    if ref_err is not None:
        return None
    for nm in set(ref.arrays) | set(got.arrays):
        default = (ref.arrays[nm].default if nm in ref.arrays
                   else got.arrays[nm].default)
        lhs = ref.arrays.get(nm, Array(default, nm))
        rhs = got.arrays.get(nm, Array(default, nm))
        assert lhs == rhs, f"array {nm} differs"
    assert ref.body_count == got.body_count
    return vec


@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("path", EXAMPLES,
                         ids=[os.path.basename(p) for p in EXAMPLES])
def test_examples_differential(path, schedule):
    with open(path) as fh:
        nest = parse_nest(fh.read())
    symbols = {s: 6 for s in ("n", "m", "p", "nz")}
    rng = random.Random(hash(os.path.basename(path)) & 0xFFFF)
    arrays = rand_arrays(nest, rng)
    assert_final_arrays_agree(nest, arrays, symbols, schedule)


#: The compiled suite's edge bank plus vectorization-specific shapes:
#: carried innermost dependences, non-affine subscripts, provably
#: disjoint in-place shifts, reductions, statement fission.
EDGE_NESTS = CALL_NESTS + [
    ("negstep",
     "do i = 10, 1, -3\n do j = i, 1, -1\n  a(i,j) += i*j\n enddo\nenddo",
     {}),
    ("zerotrip", "do i = 5, 1\n a(i) = i\nenddo", {}),
    ("zerotrip-unbound", "do i = 5, 1\n a(q) = q\nenddo", {}),
    ("dynstep", "do i = 1, n, k\n a(i) += 1\nenddo", {"n": 9, "k": 2}),
    ("negdynstep", "do i = n, 1, k\n a(i) += 1\nenddo", {"n": 9, "k": -2}),
    ("pardo",
     "do i = 1, 6\n pardo j = 1, 6\n  a(i,j) = a(i, j - 1) + 1\n enddo\n"
     "enddo", {}),
    ("pardo-outer",
     "pardo i = 1, 8\n do j = 1, 8\n  a(i,j) = b(i,j)*2 + i\n enddo\n"
     "enddo", {}),
    ("mod", "do i = -7, 7\n a(i) = mod(i, 3) + mod(i, -3)\nenddo", {}),
    ("div", "do i = -7, 7\n a(i) = i / 3 + i / -2\nenddo", {}),
    ("minmax",
     "do i = 1, 8\n do j = max(1, i - 2), min(8, i + 2)\n  a(i,j) += 1\n"
     " enddo\nenddo", {}),
    ("relational",
     "do i = 1, 5\n do j = 1, 5\n  a(i,j) = le(i, j) + gt(i, j)*10 "
     "+ eq(i,j)*100\n enddo\nenddo", {}),
    ("abs-sgn", "do i = -4, 4\n a(i) = abs(i) + sgn(i)*10\nenddo", {}),
    ("accum-init", "do i = 1, 6\n t = i*2\n a(t) += t\nenddo", {}),
    ("redefined-init",
     "do i = 2, 9\n t = i - 1\n u = a(t)\n t = i\n a(i) = u + 1\nenddo", {}),
    ("carried-innermost", "do i = 2, 9\n a(i) = a(i-1) + 1\nenddo", {}),
    ("nonaffine", "do i = 1, 8\n a(i*i) = i\nenddo", {}),
    ("indirect", "do i = 1, 8\n a(p(i)) += 1\nenddo", {}),
    ("disjoint-shift",
     "do i = 2, 9\n do j = 1, 8\n  a(i,j) = a(i-1,j) + 1\n enddo\nenddo",
     {}),
    ("reduction",
     "do i = 1, 6\n do j = 1, 6\n  s(i) += a(i,j)*2\n enddo\nenddo", {}),
    ("fission-mixed",
     "do i = 1, 8\n a(i) = i*3\n b(i) = sgn(i - 4)\nenddo", {}),
    ("triangular-suffix",
     "do i = 1, 8\n do j = 1, i\n  a(i,j) = i + j\n enddo\nenddo", {}),
]


@pytest.mark.parametrize("schedule", SCHEDULES, ids=SCHEDULE_IDS)
@pytest.mark.parametrize("tag,src,symbols", EDGE_NESTS,
                         ids=[e[0] for e in EDGE_NESTS])
def test_edge_nests_differential(tag, src, symbols, schedule):
    nest = src if isinstance(src, LoopNest) else parse_nest(src)
    rng = random.Random(hash(tag) & 0xFFFF)
    arrays = rand_arrays(nest, rng)
    assert_final_arrays_agree(nest, arrays, symbols, schedule)


# ---------------------------------------------------------------------------
# lowering decisions: what vectorizes, what falls back, and why
# ---------------------------------------------------------------------------

def test_matmul_vectorizes_full_suffix():
    nest = parse_nest(
        "do i = 1, n\n do j = 1, n\n  do k = 1, n\n"
        "   A(i, j) += B(i, k) * C(k, j)\n  enddo\n enddo\nenddo")
    vec = VectorizedNest(nest, symbols={"n": 6})
    plan = vec.describe()
    assert plan["full_fallback"] is None
    assert plan["vector_groups"] == [{"statements": [0], "suffix_len": 3}]
    assert plan["compiled_groups"] == []


def test_nonaffine_subscript_falls_back():
    nest = parse_nest("do i = 1, 8\n a(i*i) = i\nenddo")
    plan = VectorizedNest(nest).describe()
    assert "non-affine-subscript" in plan["fallback_reasons"]


def test_carried_innermost_dependence_falls_back():
    nest = parse_nest("do i = 2, 9\n a(i) = a(i-1) + 1\nenddo")
    plan = VectorizedNest(nest).describe()
    assert "carried-dependence" in plan["fallback_reasons"]


def test_statement_fission_splits_groups():
    """Independent statements fission: the affine one vectorizes while
    the sgn one runs compiled — in the same nest, same run."""
    nest = parse_nest("do i = 1, 8\n a(i) = i*3\n b(i) = sgn(i - 4)\nenddo")
    vec = VectorizedNest(nest)
    plan = vec.describe()
    assert plan["full_fallback"] is None
    assert plan["vector_groups"] == [{"statements": [0], "suffix_len": 1}]
    assert [g["statements"] for g in plan["compiled_groups"]] == [[1]]
    result = vec.run({})
    ref = Interpreter(nest).run({})
    assert result.arrays["a"] == ref.arrays["a"]
    assert result.arrays["b"] == ref.arrays["b"]


def test_disjoint_shift_vectorizes():
    """a(i,j) = a(i-1,j) + 1 carries a dependence on the *prefix* loop
    only; the constant-difference disjointness proof keeps the inner
    loop vectorized."""
    nest = parse_nest(
        "do i = 2, 9\n do j = 1, 8\n  a(i,j) = a(i-1,j) + 1\n enddo\nenddo")
    plan = VectorizedNest(nest).describe()
    assert plan["full_fallback"] is None
    assert plan["vector_groups"] == [{"statements": [0], "suffix_len": 1}]


def test_bound_reading_array_falls_back_whole_run():
    nest = parse_nest(
        "do i = 1, 5\n do j = s(i), s(i + 1) - 1\n  a(j) += i\n enddo\n"
        "enddo")
    plan = VectorizedNest(nest).describe()
    assert plan["full_fallback"] == "bound-reads-array"
    s = Array(0, "s")
    for k in range(1, 8):
        s[(k,)] = k
    for schedule in SCHEDULES:
        assert_final_arrays_agree(nest, {"s": s}, {}, schedule)


def test_scalar_flow_falls_back_whole_run():
    """A scalar without one straight-line definition is not folded."""
    nest = parse_nest("do i = 2, 9\n t = i - 1\n u = a(t)\n t = i\n"
                      " a(i) = u + 1\nenddo")
    assert VectorizedNest(nest).describe()["full_fallback"] == "scalar-flow"
    once = parse_nest("do i = 1, 6\n t = i*2\n a(t) += t\nenddo")
    assert VectorizedNest(once).describe()["full_fallback"] is None


def test_tracing_request_delegates_with_full_trace_parity():
    """Tracing is not vectorizable; a tracing engine delegates wholly
    to the compiled engine, whose traces are bit-for-bit."""
    nest = parse_nest(
        "do i = 1, 3\n do j = 1, 3\n  a(i,j) = i + j\n enddo\nenddo")
    vec = VectorizedNest(nest, trace_vars=("j",), trace_addresses=True)
    assert vec.describe()["full_fallback"] == "tracing-requested"
    ref = Interpreter(nest, trace_vars=("j",), trace_addresses=True).run({})
    got = vec.run({})
    assert ref.iteration_trace == got.iteration_trace
    assert ref.address_trace == got.address_trace
    assert ref.arrays["a"] == got.arrays["a"]


# ---------------------------------------------------------------------------
# run-time guards: wrong-shaped data delegates instead of mis-answering
# ---------------------------------------------------------------------------

def test_non_integer_data_delegates():
    nest = parse_nest("do i = 1, 4\n a(i) = b(i) + 1\nenddo")
    b = Array(0, "b")
    b[(1,)] = 2.5
    vec = VectorizedNest(nest)
    ref = Interpreter(nest).run({"b": b})
    got = vec.run({"b": b})
    assert ref.arrays["a"] == got.arrays["a"]
    assert vec.fallback_runs == 1


def test_wrong_rank_keys_delegate():
    nest = parse_nest("do i = 1, 4\n a(i) = b(i) + 1\nenddo")
    b = Array(0, "b")
    b[(1, 2)] = 7  # rank-2 key on an array read with one subscript
    vec = VectorizedNest(nest)
    ref = Interpreter(nest).run({"b": b})
    got = vec.run({"b": b})
    assert ref.arrays["a"] == got.arrays["a"]
    assert vec.fallback_runs == 1


def test_overflow_risk_delegates_and_answers_match():
    """Values that could exceed int64 inside a kernel delegate to the
    arbitrary-precision engines rather than wrapping."""
    nest = parse_nest("do i = 1, 40\n a(1) = a(1) * 3 + 1\nenddo")
    for schedule in SCHEDULES:
        vec = assert_final_arrays_agree(nest, {}, {}, schedule)
    big = Array(0, "b")
    big[(1,)] = 2 ** 70  # already beyond int64 on input
    nest2 = parse_nest("do i = 1, 4\n a(i) = b(1) + i\nenddo")
    vec = VectorizedNest(nest2)
    ref = Interpreter(nest2).run({"b": big})
    got = vec.run({"b": big})
    assert ref.arrays["a"] == got.arrays["a"]
    assert vec.fallback_runs == 1


def test_runtime_array_shadows_function_delegates():
    nest = parse_nest("do i = 1, 6\n a(i) = f(i) + 1\nenddo")
    funcs = {"f": lambda x: x * x}
    for schedule in SCHEDULES:
        assert_final_arrays_agree(nest, {}, {}, schedule, funcs=funcs)
    shadow = Array(3, "f")
    shadow[(2,)] = 99
    for schedule in SCHEDULES:
        assert_final_arrays_agree(nest, {"f": shadow}, {}, schedule,
                                  funcs=funcs)


def test_runtime_array_shadows_builtin_delegates():
    nest = parse_nest("do i = 1, 4\n do j = 1, 4\n  a(i, j) = le(i, j)\n"
                      " enddo\nenddo")
    shadow = Array(5, "le")
    shadow[(2, 3)] = 99
    for schedule in SCHEDULES:
        vec = assert_final_arrays_agree(nest, {"le": shadow}, {}, schedule)
        assert vec.fallback_runs == 1


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------

def test_zero_step_raises_same_error():
    nest = parse_nest("do i = 1, n, k\n a(i) += 1\nenddo")
    symbols = {"n": 9, "k": 0}
    with pytest.raises(ReproError) as vec_err:
        VectorizedNest(nest, symbols=symbols).run({})
    with pytest.raises(ReproError) as ref_err:
        Interpreter(nest, symbols=symbols).run({})
    assert str(vec_err.value) == str(ref_err.value)


def test_max_iterations_matches_interpreter():
    nest = parse_nest("do i = 1, 100\n a(i) = i\nenddo")
    with pytest.raises(ReproError) as vec_err:
        VectorizedNest(nest, max_iterations=10).run({})
    with pytest.raises(ReproError) as ref_err:
        Interpreter(nest, max_iterations=10).run({})
    assert str(vec_err.value) == str(ref_err.value)


def test_division_by_zero_matches_interpreter():
    nest = parse_nest("do i = -2, 2\n a(i) = 7 / i\nenddo")
    with pytest.raises(ZeroDivisionError) as vec_err:
        VectorizedNest(nest).run({})
    with pytest.raises(ZeroDivisionError) as ref_err:
        Interpreter(nest).run({})
    assert str(vec_err.value) == str(ref_err.value)


# ---------------------------------------------------------------------------
# execution mechanics
# ---------------------------------------------------------------------------

def test_inputs_not_mutated():
    nest = parse_nest("do i = 1, 4\n a(i) = b(i) + 1\n b(i) = 0\nenddo")
    b = Array(0, "b")
    for k in range(1, 5):
        b[(k,)] = 10 * k
    before = dict(b.data)
    result = run_vectorized(nest, {"b": b})
    assert b.data == before
    assert result.arrays["b"] != b  # the engine returned a new array


def test_pardo_thread_pool_matches_oracle():
    """An outermost pardo prefix is chunked over a thread pool; the
    result must match the sequential oracle under every schedule."""
    nest = parse_nest(
        "pardo i = 1, 16\n do j = 1, 8\n  a(i,j) = b(i,j)*2 + i\n enddo\n"
        "enddo")
    rng = random.Random(11)
    arrays = rand_arrays(nest, rng)
    for schedule in SCHEDULES:
        vec = assert_final_arrays_agree(nest, arrays, {}, schedule,
                                        workers=4)
        assert vec is not None
        assert vec.describe()["full_fallback"] is None


def test_cache_reuses_engines_by_content():
    cache = VectorizedNestCache(max_entries=4)
    text = "do i = 1, 4\n a(i) = i\nenddo"
    first = cache.get(parse_nest(text))
    again = cache.get(parse_nest(text))
    assert first is again
    assert cache.hits == 1
    assert isinstance(first, VectorizedNest)


def test_warm_state_vectorized_cache_lazy():
    from repro.service.state import WarmState

    state = WarmState()
    assert state.stats()["vectorized"] is None  # not created yet
    cache = state.vectorized()
    assert cache is state.vectorized()  # one instance
    assert state.stats()["vectorized"]["entries"] == 0


# ---------------------------------------------------------------------------
# NumPy as an optional dependency
# ---------------------------------------------------------------------------

def test_numpy_absence_is_a_typed_error(monkeypatch):
    import repro.runtime.vectorized as mod

    monkeypatch.setattr(mod, "_np", None)
    assert not numpy_available()
    with pytest.raises(ReproError, match="NumPy is not installed"):
        VectorizedNest(parse_nest("do i = 1, 2\n a(i) = i\nenddo"))
    with pytest.raises(ReproError):
        VectorizedNestCache()


def test_service_run_without_numpy_is_bad_request(monkeypatch):
    import repro.runtime.vectorized as mod
    from repro.service.protocol import BAD_REQUEST, ProtocolError
    from repro.service.server import TransformationService

    monkeypatch.setattr(mod, "_np", None)
    svc = TransformationService()
    with pytest.raises(ProtocolError) as err:
        svc._op_run({"text": "do i = 1, 2\n a(i) = i\nenddo",
                     "engine": "vectorized"})
    assert err.value.code == BAD_REQUEST


def test_service_run_selects_engines():
    from repro.service.server import TransformationService

    svc = TransformationService()
    text = "do i = 1, n\n a(i) = i\nenddo"
    for engine in ("interpreter", "compiled", "vectorized"):
        doc = svc._op_run({"text": text, "symbols": {"n": 5},
                           "engine": engine})
        assert doc["iterations"] == 5
        assert doc["engine"] == engine
    assert "vectorized" in svc.state.stats()
    warm = svc._op_run({"text": text, "symbols": {"n": 5},
                        "engine": "vectorized"})
    assert warm["warm"] is True


@pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 4, 2)],
                         ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("offset", [0, -3, 2], ids=["zero", "neg", "pos"])
def test_write_back_matches_argwhere_keys(shape, offset):
    """The per-axis key builder gives the dict the argwhere rows gave,
    key order included, with a nonzero default among the values."""
    from types import SimpleNamespace

    rng = numpy.random.default_rng(len(shape) * 10 + offset)
    default = 7
    arr = rng.integers(0, 4, size=shape) + 5  # about a quarter at default
    offs = tuple(offset * (axis + 1) for axis in range(len(shape)))
    fake = SimpleNamespace(_prepared={"a": (None, None, default, 0)})
    got = VectorizedNest._write_back(fake, "a", arr, offs)

    hot = arr != default
    coords = numpy.argwhere(hot) + numpy.array(offs, dtype=numpy.int64)
    want = dict(zip(map(tuple, coords.tolist()), arr[hot].tolist()))
    assert 0 < len(want) < arr.size
    assert list(got.data.items()) == list(want.items())
    assert got.default == default and got.name == "a"
    assert all(type(k) is int for key in got.data for k in key)
