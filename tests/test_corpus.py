"""Golden-output corpus: every case file pins the exact generated code
for a (nest, step-spec) pair, the analyzed dependence set, and —
independently of the stored text — re-verifies semantics by execution.

Case format (tests/corpus/*.case)::

    -- nest
    <loop nest source>
    -- steps
    <CLI step specification>
    -- deps
    <str(DepSet) of the analyzed input>
    -- expect
    <exact LoopNest.pretty() of the transformed nest>
"""

import random
from collections import defaultdict
from pathlib import Path

import pytest

from repro.core.spec import parse_steps
from repro.deps.analysis import analyze
from repro.ir import parse_nest
from repro.runtime import (
    Array,
    check_equivalence,
    emit_python,
    run_nest,
    same_iteration_multiset,
)

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.case"))
assert CORPUS, "corpus directory is empty"


def load_case(path: Path):
    sections = {}
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("-- "):
            current = line[3:].strip()
            sections[current] = []
        else:
            sections[current].append(line)
    return {k: "\n".join(v).strip() for k, v in sections.items()}


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_golden_output(path):
    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    assert str(deps) == case["deps"]
    T = parse_steps(case["steps"], nest.depth)
    report = T.legality(nest, deps)
    assert report.legal, report.reason
    out = T.apply(nest, deps)
    assert out.pretty() == case["expect"]


def _inputs(path, nest, out):
    """Concrete symbols and random arrays to execute a case on."""
    symbols = {}
    for name in sorted(nest.invariants() | out.invariants()):
        symbols[name] = {"n": 7, "m": 5}.get(name, 3)
    rng = random.Random(path.stem)
    arrays = {}
    for arr_name in ("a", "b", "A", "B", "C"):
        arr = Array(0, arr_name)
        for i in range(-1, 9):
            for j in range(-1, 9):
                arr[(i, j)] = rng.randrange(50)
                arr[(i,)] = rng.randrange(50)
        arrays[arr_name] = arr
    return symbols, arrays


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_semantics(path):
    """Independent of the golden text: execute original vs transformed
    with concrete sizes and random arrays."""
    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    T = parse_steps(case["steps"], nest.depth)
    out = T.apply(nest, deps)
    symbols, arrays = _inputs(path, nest, out)
    check_equivalence(nest, out, arrays, symbols=symbols)
    same_iteration_multiset(nest, out, arrays, symbols=symbols)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_emitters(path):
    """Every corpus output emits structurally valid C, and a Python
    module that, run with plain ``exec``, leaves the interpreter's
    arrays."""
    from repro.ir.emit import emit_c

    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    T = parse_steps(case["steps"], nest.depth)
    out = T.apply(nest, deps)
    c_src = emit_c(out)
    assert c_src.count("{") == c_src.count("}")
    assert c_src.count("for (") == out.depth

    symbols, arrays = _inputs(path, nest, out)
    expected = run_nest(out, arrays, symbols=symbols).arrays
    namespace = {}
    exec(compile(emit_python(out), f"<{path.stem}>", "exec"), namespace)
    state = defaultdict(lambda: defaultdict(int))
    state.update((name, defaultdict(int, arr.data))
                 for name, arr in arrays.items())
    namespace["kernel"](state, symbols)
    for name in set(expected) | set(state):
        got = Array(0, name, state[name])
        assert got == expected.get(name, Array(0, name)), name
