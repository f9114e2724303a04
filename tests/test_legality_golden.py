"""Golden answers of the legality test, cached and uncached.

Every answer over a fixed corpus must hash to the digest committed in
``tests/corpus/legality_golden.json``.  Inputs are the fuzzer's
generator slice ``CaseGen(seed).cases(CASES)`` for each of ``SEEDS``
(the case's own steps, or the identity) and the example kernels
``examples/loops/*.loop`` under ``SPECS`` — which put Block,
Interleave and Coalesce after a skew, where the dependence mapping
depends on the loops a step receives.  The sections are:

* ``uncached``: the :meth:`Transformation.legality` report fields
  (legal, reason, failed step, final dependence vectors in order) and
  what ``apply(nest, deps)`` makes of a fresh transformation (the
  transformed nest, or the error type);
* ``cached``: the same fields from one shared :class:`LegalityCache`
  per nest, from ``legality`` and ``dep_legality`` over every prefix
  of each sequence, ``apply`` right after the cached verdict, and the
  cache's ``stats`` — once unbounded and once under a 3-entry LRU cap,
  which pins the eviction and flush counters too;
* ``search``: ``repr(SearchResult)`` on the example kernels, brute
  force and with ``prune`` + ``speculate`` — which carries the cache
  counters.

The digests pin answers and counters, not the algorithm.  A change that
is *meant* to change them regenerates the file with
``PYTHONPATH=src python tests/test_legality_golden.py > tests/corpus/legality_golden.json``
and says why in its commit message.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.core.legality_cache import LegalityCache
from repro.core.sequence import Transformation
from repro.deps.analysis import analyze
from repro.fuzz.gen import CaseGen
from repro.ir.parser import parse_nest
from repro.optimize.search import SearchConfig, search
from repro.util.errors import ReproError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "corpus" / "legality_golden.json"
SEEDS = (7, 11)
CASES = 150

#: Step specs per nest depth for the example kernels.
SPECS = {
    2: ("skew(1,2,1); block(1,2,4)",
        "skew(1,2,1); interleave(1,2,2,2)",
        "skew(1,2,1); coalesce(1,2)",
        "skew(1,2,1); interchange(1,2); parallelize(2)",
        "interchange(1,2); block(1,2,4); parallelize(2)",
        "reverse(1); stripmine(2,4)",
        "wavefront(); coalesce(1,2)",
        "block(1,2,4); coalesce(3,4)"),
    3: ("skew(1,2,1); block(1,3,4)",
        "skew(2,3,1); coalesce(2,3)",
        "skew(1,3,1); interleave(1,2,2,2)",
        "interchange(2,3); block(2,3,8); parallelize(1)",
        "permute(3,1,2); reverse(3)",
        "reverse(1); coalesce(1,2)",
        "skew(1,2,1); interchange(1,2); block(1,2,4)",
        "block(1,3,4); coalesce(4,6)"),
}


def report_fields(report):
    final = (None if report.final_deps is None
             else [str(v) for v in report.final_deps])
    return (f"{report.legal}\t{report.reason}\t{report.failed_step}\t"
            f"{final}")


def apply_answer(T, nest, deps):
    try:
        return T.apply(nest, deps).pretty()
    except ReproError as exc:
        return f"apply error {type(exc).__name__}"


def workloads():
    """(label, nest, deps, [spec, ...]) over the whole corpus."""
    out = []
    for path in sorted((ROOT / "examples" / "loops").glob("*.loop")):
        nest = parse_nest(path.read_text())
        out.append((path.name, nest, analyze(nest), SPECS[nest.depth]))
    for seed in SEEDS:
        for case in CaseGen(seed).cases(CASES):
            nest = parse_nest(case.text)
            out.append((f"{seed}/{case.case_id}", nest, analyze(nest),
                        (case.steps or "",)))
    return out


def build(spec, depth):
    return (Transformation.from_spec(spec, depth) if spec
            else Transformation.identity(depth))


def cached_lines(lines, label, nest, deps, specs, cache):
    for spec in specs:
        T = build(spec, nest.depth)
        for k in range(len(T.steps) + 1):
            P = Transformation(T.steps[:k], n=nest.depth)
            for test in (cache.dep_legality, cache.legality):
                lines.append(f"{label}\t{P.to_spec()}\t{test.__name__}\t"
                             f"{report_fields(test(P, nest, deps))}")
        lines.append(f"{label}\t{spec}\tapply\t{apply_answer(T, nest, deps)}")
    lines.append(f"{label}\tstats\t{cache.stats}")


def golden_sections():
    """Section name -> list of ``label<TAB>answer`` lines."""
    sections = {"uncached": [], "cached": [], "search": []}
    for label, nest, deps, specs in workloads():
        for spec in specs:
            T = build(spec, nest.depth)
            sections["uncached"].append(
                f"{label}\t{spec}\t{report_fields(T.legality(nest, deps))}"
                f"\t{apply_answer(build(spec, nest.depth), nest, deps)}")
        for cache in (LegalityCache(), LegalityCache(max_entries=3)):
            cached_lines(sections["cached"], label, nest, deps, specs, cache)
    for path in sorted((ROOT / "examples" / "loops").glob("*.loop")):
        nest = parse_nest(path.read_text())
        deps = analyze(nest)
        for config in (SearchConfig(),
                       SearchConfig(prune=True, speculate=True)):
            sections["search"].append(
                f"{path.name}\t{config.prune}\t"
                f"{search(nest, deps, config=config)!r}")
    return sections


def digest_doc(sections):
    return {name: {"lines": len(lines),
                   "sha256": hashlib.sha256(
                       "\n".join(lines).encode()).hexdigest()}
            for name, lines in sections.items()}


def test_answers_match_golden_digest():
    expected = json.loads(GOLDEN.read_text())
    assert digest_doc(golden_sections()) == expected["sections"]


if __name__ == "__main__":
    doc = {"seeds": list(SEEDS), "cases": CASES,
           "sections": digest_doc(golden_sections())}
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
