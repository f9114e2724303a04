"""Tests for the C emitter and the emitted Python module."""

import random
import re
import shutil
import subprocess
from collections import defaultdict

import pytest

from repro.core import Block, Transformation, Unimodular
from repro.core.derived import skew_and_interchange
from repro.deps import depset
from repro.deps.analysis import analyze
from repro.ir import parse_nest
from repro.ir.emit import emit_c
from repro.runtime import Array, emit_python, run_nest
from tests.conftest import random_array_2d
from tests.test_compiled import CALL_NESTS, rand_arrays
from tests.test_corpus import CORPUS, load_case
from repro.core.spec import parse_steps
from repro.ir.loopnest import LoopNest


def corpus_output(path):
    """The transformed nest a corpus case pins."""
    case = load_case(path)
    nest = parse_nest(case["nest"])
    steps = parse_steps(case["steps"], nest.depth)
    return steps.apply(nest, analyze(nest))


class TestEmitC:
    def test_basic_structure(self, matmul_nest):
        src = emit_c(matmul_nest, "matmul")
        assert "void matmul(long n)" in src
        assert "for (i = 1; i <= (n); i += 1)" in src
        assert "A(i, j) += (B(i, k) * C(k, j));" in src
        assert src.count("{") == src.count("}")

    def test_pardo_pragma(self):
        nest = parse_nest("pardo i = 1, n\n a(i) = i\nenddo")
        src = emit_c(nest)
        assert "#pragma omp parallel for" in src

    def test_negative_step_comparison(self):
        nest = parse_nest("do i = 10, 1, -2\n a(i) = i\nenddo")
        src = emit_c(nest)
        assert "i >= (1)" in src
        assert "i += (-2)" in src

    def test_init_statements_emitted(self, stencil_nest):
        deps = depset((1, 0), (0, 1))
        out = skew_and_interchange(names=["jj", "ii"]).apply(
            stencil_nest, deps)
        src = emit_c(out)
        assert "j = (((-1) * ii) + jj);" in src
        assert "i = ii;" in src
        assert "long" in src

    def test_minmax_and_div_macros(self, stencil_nest):
        out = skew_and_interchange().apply(stencil_nest,
                                           depset((1, 0), (0, 1)))
        src = emit_c(out)
        assert "MAX(" in src and "MIN(" in src
        assert "FLOOR_DIV" in src  # the /5 in the body

    def test_if_statement(self):
        nest = parse_nest("do i = 1, n\n if (b(i) > 0) a(i) = 1\nenddo")
        src = emit_c(nest)
        assert "if ((B(i) > 0))" in src

    def test_call_rule(self):
        """An array the nest writes shadows the builtin of its name; a
        relational name at another arity, and ``ne``, are arrays."""
        nest = parse_nest("do i = 1, 5\n le(i, 2) = i\n"
                          " a(i) = le(i, 2) + ge(i, 1) + lt(i) + ne(i, 2)\n"
                          "enddo")
        src = emit_c(nest)
        assert ("A(i) = ((i >= 1) + LE(i, 2) + LT(i) + NE(i, 2));"
                in src)

    @pytest.mark.parametrize("stem", ["wavefront_parallel",
                                      "stripmine_then_parallel"])
    def test_pardo_privatizes_what_its_body_assigns(self, stem):
        """Indices and init variables are declared at function scope, so
        OpenMP shares them across threads unless the pragma names them
        private: every variable assigned inside a ``pardo`` must be."""
        lines = emit_c(corpus_output(
            CORPUS[0].parent / f"{stem}.case")).splitlines()
        pragmas = [k for k, line in enumerate(lines)
                   if "#pragma omp parallel for" in line]
        checked = set()
        for k in pragmas:
            clause = re.search(r"private\(([^)]*)\)", lines[k])
            private = set(clause.group(1).split(", ")) if clause else set()
            depth, end = 0, k + 2
            while True:
                depth += lines[end].count("{") - lines[end].count("}")
                if depth == 0:
                    break
                end += 1
            body = "\n".join(lines[k + 3:end])
            assigned = set(re.findall(r"^\s*for \((\w+) =", body, re.M))
            assigned |= set(re.findall(r"^\s*(\w+) = ", body, re.M))
            assert assigned <= private, (lines[k], assigned)
            checked |= assigned
        assert checked


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is absent")
@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_c_compiles(path):
    """gcc accepts the C of every corpus output, OpenMP pragmas included,
    with each array or function bound to a stub lvalue macro."""
    src = emit_c(corpus_output(path))
    names = (set(re.findall(r"\b([A-Z][A-Z0-9_]*)\(", src))
             - set(re.findall(r"#define (\w+)\(", src)))
    stubs = "long *repro_ref();\n" + "".join(
        f"#define {name}(...) (*repro_ref(__VA_ARGS__))\n"
        for name in sorted(names))
    proc = subprocess.run(
        ["gcc", "-std=c99", "-fopenmp", "-fsyntax-only", "-x", "c", "-"],
        input=stubs + src, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _dict_arrays(*names):
    return {name: defaultdict(int) for name in names}


def compile_module(nest, funcs=()):
    """``exec`` the :func:`emit_python` module; return its ``kernel``."""
    namespace = {}
    exec(compile(emit_python(nest, funcs), "<kernel>", "exec"), namespace)
    return namespace["kernel"]


class TestEmitPython:
    def test_source_compiles(self, matmul_nest):
        src = emit_python(matmul_nest)
        compile(src, "<test>", "exec")
        assert "def kernel(arrays, symbols, funcs=None):" in src

    def test_compiled_matches_interpreter(self, matmul_nest):
        rng = random.Random(0)
        n = 6
        B = random_array_2d(rng, 1, n, "B")
        C = random_array_2d(rng, 1, n, "C")
        expected = run_nest(matmul_nest, {"B": B, "C": C},
                            symbols={"n": n}).arrays["A"]

        fn = compile_module(matmul_nest)
        arrays = _dict_arrays("A")
        arrays["B"] = dict(B.data)
        arrays["C"] = dict(C.data)
        # dict subscripting needs defaults for reads of unwritten keys:
        arrays["B"] = defaultdict(int, B.data)
        arrays["C"] = defaultdict(int, C.data)
        fn(arrays, {"n": n})
        for key, value in expected.data.items():
            assert arrays["A"][key] == value

    def test_compiled_transformed_nest(self, stencil_nest):
        deps = depset((1, 0), (0, 1))
        out = skew_and_interchange().apply(stencil_nest, deps)
        n = 8
        rng = random.Random(1)
        a = random_array_2d(rng, 0, n + 1, "a")
        expected = run_nest(stencil_nest, {"a": a},
                            symbols={"n": n}).arrays["a"]

        fn = compile_module(out)
        arrays = {"a": defaultdict(int, a.data)}
        fn(arrays, {"n": n})
        for key, value in expected.data.items():
            assert arrays["a"][key] == value

    def test_opaque_functions_bound(self):
        nest = parse_nest("""
        do j = 1, 3
          do k = colstr(j), colstr(j+1) - 1
            out(k) = j
          enddo
        enddo
        """)
        fn = compile_module(nest, funcs=["colstr"])
        arrays = _dict_arrays("out")
        colstr = [0, 1, 3, 4, 6]
        fn(arrays, {}, {"colstr": lambda x: colstr[x]})
        assert arrays["out"][(3,)] == 2

    def test_negative_step(self):
        nest = parse_nest("do i = 9, 1, -3\n a(i) = i\nenddo")
        fn = compile_module(nest)
        arrays = _dict_arrays("a")
        fn(arrays, {})
        assert sorted(arrays["a"]) == [(3,), (6,), (9,)]

    def test_if_and_relationals(self):
        nest = parse_nest("do i = 1, 6\n if (i % 2 == 0) a(i) = 1\nenddo")
        fn = compile_module(nest)
        arrays = _dict_arrays("a")
        fn(arrays, {})
        assert set(arrays["a"]) == {(2,), (4,), (6,)}

    @pytest.mark.parametrize("tag,src,symbols", CALL_NESTS,
                             ids=[c[0] for c in CALL_NESTS])
    def test_call_rule_matches_interpreter(self, tag, src, symbols):
        """The module follows the interpreter's call rule: which calls
        are builtins, which are arrays.  An array passed under the name
        of a call the module evaluates, which the interpreter would
        read, is refused with the module's typed error."""
        nest = src if isinstance(src, LoopNest) else parse_nest(src)
        inputs = rand_arrays(nest.array_names(), nest.depth,
                             random.Random(tag))
        expected = run_nest(nest, inputs, symbols=symbols).arrays
        arrays = {name: defaultdict(int, arr.data)
                  for name, arr in inputs.items()}
        kernel = compile_module(nest)
        kernel(arrays, symbols)
        for name, arr in expected.items():
            assert Array(0, name, dict(arrays[name])) == arr, name
        for name in {f for f, _ in nest.calls()} - nest.array_names():
            with pytest.raises(kernel.__globals__["_ReproError"],
                               match=repr(name)):
                kernel(dict(arrays, **{name: defaultdict(int)}), symbols)

    @pytest.mark.parametrize("bsize", [2, 3])
    def test_compiled_blocked_matmul(self, matmul_nest, bsize):
        deps = depset((0, 0, "+"))
        out = Transformation.of(Block(3, 1, 3, [bsize] * 3)).apply(
            matmul_nest, deps)
        n = 7
        rng = random.Random(bsize)
        B = random_array_2d(rng, 1, n, "B")
        C = random_array_2d(rng, 1, n, "C")
        expected = run_nest(matmul_nest, {"B": B, "C": C},
                            symbols={"n": n}).arrays["A"]
        fn = compile_module(out)
        arrays = {"A": defaultdict(int),
                  "B": defaultdict(int, B.data),
                  "C": defaultdict(int, C.data)}
        fn(arrays, {"n": n})
        for key, value in expected.data.items():
            assert arrays["A"][key] == value

    def test_compiled_is_faster_than_interpreter(self, matmul_nest):
        """The point of the compiler: beat the reference interpreter."""
        import time

        n = 12
        rng = random.Random(5)
        B = random_array_2d(rng, 1, n, "B")
        C = random_array_2d(rng, 1, n, "C")

        start = time.perf_counter()
        run_nest(matmul_nest, {"B": B, "C": C}, symbols={"n": n})
        interp = time.perf_counter() - start

        fn = compile_module(matmul_nest)
        arrays = {"A": defaultdict(int),
                  "B": defaultdict(int, B.data),
                  "C": defaultdict(int, C.data)}
        start = time.perf_counter()
        fn(arrays, {"n": n})
        compiled = time.perf_counter() - start
        assert compiled < interp


class TestNumpyInterop:
    def test_compiled_kernel_on_numpy_arrays(self):
        """The module works directly on numpy arrays (tuple indexing),
        using 0-based bounds."""
        import numpy as np

        nest = parse_nest("""
        do i = 0, n-1
          do j = 0, n-1
            c(i, j) = a(i, j) + b(j, i)
          enddo
        enddo
        """)
        n = 8
        rng = np.random.default_rng(0)
        a = rng.integers(0, 50, size=(n, n))
        b = rng.integers(0, 50, size=(n, n))
        c = np.zeros((n, n), dtype=a.dtype)
        fn = compile_module(nest)
        fn({"a": a, "b": b, "c": c}, {"n": n})
        assert (c == a + b.T).all()

    def test_transformed_kernel_on_numpy(self):
        import numpy as np

        nest = parse_nest("""
        do i = 0, n-1
          do j = 0, n-1
            do k = 0, n-1
              C(i, j) += A(i, k) * B(k, j)
            enddo
          enddo
        enddo
        """)
        deps = depset((0, 0, "+"))
        out = Transformation.of(Block(3, 1, 3, [4, 4, 4])).apply(nest, deps)
        n = 9
        rng = np.random.default_rng(1)
        A = rng.integers(0, 10, size=(n, n))
        B = rng.integers(0, 10, size=(n, n))
        C = np.zeros((n, n), dtype=A.dtype)
        fn = compile_module(out)
        fn({"A": A, "B": B, "C": C}, {"n": n})
        assert (C == A @ B).all()
