"""Golden answers of the dependence analyzer.

Every ``str(analyze(nest))`` over a fixed corpus must hash to the digest
committed in ``tests/corpus/deps_golden.json``.  The corpus is:

* ``examples``: the example kernels ``examples/loops/*.loop``;
* ``casegen``: a fixed slice of the fuzzer's generator,
  ``CaseGen(seed).cases(CASES)`` for each of ``SEEDS``;
* ``applied``: for each of those cases with a step sequence, the nest
  ``Transformation.from_spec(steps, depth).apply(nest, deps,
  check=False)`` produces (or the apply error's type), analyzed again.
  Transformed nests carry ``min``/``max``/``div``/``mod`` bounds, which
  stress Fourier–Motzkin the most.

The digests pin answers, not the algorithm: a speed change must leave
them untouched, and the analysis must not give up at the
Fourier–Motzkin cap anywhere in the corpus (``fme.give_up`` stays 0).
A change that is *meant* to change answers regenerates the file with
``PYTHONPATH=src python tests/test_deps_golden.py > tests/corpus/deps_golden.json``
and says why in its commit message.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro import obs
from repro.core.sequence import Transformation
from repro.deps.analysis import analyze
from repro.fuzz.gen import CaseGen
from repro.ir.parser import parse_nest
from repro.util.errors import ReproError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "corpus" / "deps_golden.json"
SEEDS = (7, 11)
CASES = 150


def golden_sections():
    """Section name -> list of ``label<TAB>answer`` lines."""
    sections = {"examples": [], "casegen": [], "applied": []}
    for path in sorted((ROOT / "examples" / "loops").glob("*.loop")):
        nest = parse_nest(path.read_text())
        sections["examples"].append(f"{path.name}\t{analyze(nest)}")
    for seed in SEEDS:
        for case in CaseGen(seed).cases(CASES):
            label = f"{seed}/{case.case_id}"
            nest = parse_nest(case.text)
            deps = analyze(nest)
            sections["casegen"].append(f"{label}\t{deps}")
            if not case.steps:
                continue
            try:
                out = Transformation.from_spec(case.steps, nest.depth).apply(
                    nest, deps, check=False)
            except ReproError as exc:
                answer = f"apply error {type(exc).__name__}"
            else:
                answer = str(analyze(out))
            sections["applied"].append(f"{label}\t{answer}")
    return sections


def digest_doc(sections):
    return {name: {"lines": len(lines),
                   "sha256": hashlib.sha256(
                       "\n".join(lines).encode()).hexdigest()}
            for name, lines in sections.items()}


def test_answers_match_golden_digest():
    expected = json.loads(GOLDEN.read_text())
    obs.disable()
    obs.get_metrics().clear()
    obs.enable()
    try:
        sections = golden_sections()
        give_ups = obs.get_metrics().counter("fme.give_up").value
    finally:
        obs.disable()
        obs.get_metrics().clear()
    assert digest_doc(sections) == expected["sections"]
    assert give_ups == 0


if __name__ == "__main__":
    doc = {"seeds": list(SEEDS), "cases": CASES,
           "sections": digest_doc(golden_sections())}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
