"""Golden answers of Unimodular code generation and the vectorized planner.

Two sections, each hashed against ``tests/corpus/codegen_golden.json``:

* ``unimodular``: for every nest of ``CaseGen(seed).cases(CASES)`` (each
  of ``SEEDS``), three random unimodular matrices drawn from a
  ``random.Random`` seeded by the case label; each line is the
  ``Transformation.of(Unimodular(depth, m)).apply(nest, check=False)``
  output's ``pretty()``, or the error type and message.  Transformed
  bounds carry ``min``/``max``/``div``/``mod`` terms and every
  Fourier–Motzkin scan, so this pins the codegen path that the
  dependence golden (``test_deps_golden.py``) reaches only for the
  fuzzer's own step sequences.
* ``vectorized``: ``VectorizedNest(nest).describe()`` plans (as sorted
  JSON) over ``examples/loops/*.loop`` and the three unimodular outputs
  of each (symbols at 6), and over the CaseGen nests (each case's own
  symbols).  Skipped when NumPy is absent.

The digests pin answers, not the algorithm: a refactor or speed change
must leave them untouched.  A change that is *meant* to change answers
regenerates the file with
``PYTHONPATH=src:. python tests/test_codegen_golden.py > tests/corpus/codegen_golden.json``
and says why in its commit message.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.sequence import Transformation
from repro.core.templates.unimodular import Unimodular
from repro.fuzz.gen import CaseGen
from repro.ir.parser import parse_nest
from repro.runtime.vectorized import numpy_available
from repro.util.errors import ReproError
from tests.test_util_matrices import random_unimodular

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "corpus" / "codegen_golden.json"
SEEDS = (7, 11)
CASES = 150
MATRICES = 3
EXAMPLE_SYMBOLS = {"n": 6, "m": 6, "p": 6, "nz": 6}


def _casegen_nests():
    """``(label, nest, symbols)`` over the CaseGen slice."""
    for seed in SEEDS:
        for case in CaseGen(seed).cases(CASES):
            yield f"{seed}/{case.case_id}", parse_nest(case.text), case.symbols


def _unimodular_outputs(label, nest):
    """``(line label, applied nest or None, answer)`` for each matrix."""
    rng = random.Random(label)
    for k in range(MATRICES):
        template = Unimodular(nest.depth,
                              random_unimodular(rng, nest.depth, ops=3))
        line_label = f"{label}#{k} {template.to_spec()}"
        try:
            out = Transformation.of(template).apply(nest, check=False)
        except ReproError as exc:
            yield line_label, None, f"error {type(exc).__name__}: {exc}"
        else:
            yield line_label, out, out.pretty()


def unimodular_lines():
    return [f"{line_label}\t{answer}"
            for label, nest, _ in _casegen_nests()
            for line_label, _, answer in _unimodular_outputs(label, nest)]


def _plan(nest, symbols):
    from repro.runtime.vectorized import VectorizedNest

    try:
        doc = VectorizedNest(nest, symbols=symbols).describe()
    except ReproError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return json.dumps(doc, sort_keys=True)


def vectorized_lines():
    lines = []
    for path in sorted((ROOT / "examples" / "loops").glob("*.loop")):
        nest = parse_nest(path.read_text())
        lines.append(f"{path.name}\t{_plan(nest, EXAMPLE_SYMBOLS)}")
        for line_label, out, answer in _unimodular_outputs(path.name, nest):
            plan = answer if out is None else _plan(out, EXAMPLE_SYMBOLS)
            lines.append(f"{line_label}\t{plan}")
    lines.extend(f"{label}\t{_plan(nest, symbols)}"
                 for label, nest, symbols in _casegen_nests())
    return lines


def golden_sections():
    """Section name -> list of ``label<TAB>answer`` lines."""
    return {"unimodular": unimodular_lines(),
            "vectorized": vectorized_lines()}


def digest_doc(sections):
    return {name: {"lines": len(lines),
                   "sha256": hashlib.sha256(
                       "\n".join(lines).encode()).hexdigest()}
            for name, lines in sections.items()}


def _expected(section):
    return json.loads(GOLDEN.read_text())["sections"][section]


def test_unimodular_codegen_matches_golden_digest():
    got = digest_doc({"unimodular": unimodular_lines()})
    assert got["unimodular"] == _expected("unimodular")


@pytest.mark.skipif(not numpy_available(), reason="NumPy is absent")
def test_vectorized_plans_match_golden_digest():
    got = digest_doc({"vectorized": vectorized_lines()})
    assert got["vectorized"] == _expected("vectorized")


if __name__ == "__main__":
    doc = {"seeds": list(SEEDS), "cases": CASES, "matrices": MATRICES,
           "sections": digest_doc(golden_sections())}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
