"""The request path leaves no cyclic garbage.

Objects in a reference cycle outlive their last use until the cyclic
collector runs, and a full collection over a warm service's memos is
one of its largest pauses.  With the collector off, every operation a
request runs — parse the nest, analyse it, parse the steps, test
legality, apply, search — must free everything it made by reference
counting alone: an explicit ``gc.collect()`` afterwards finds nothing.
"""

import gc
from pathlib import Path

import pytest

from repro.core.spec import parse_steps
from repro.deps.analysis import analyze
from repro.ir import parse_nest
from repro.optimize.search import SearchConfig, search

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples" /
                   "loops").glob("*.loop"))

#: A legal and an illegal step sequence per nest depth (the legality
#: golden's first spec, and a reversal of the outer loop).
SPECS = {2: ("skew(1,2,1); block(1,2,4)", "reverse(1)"),
         3: ("skew(1,2,1); block(1,3,4)", "reverse(1)")}


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_request_path_leaves_no_cyclic_garbage(path):
    text = path.read_text()
    garbage = []

    def check(stage):
        garbage.append((stage, gc.collect()))

    gc.collect()
    gc.disable()
    try:
        nest = parse_nest(text)
        check("parse_nest")
        deps = analyze(nest)
        check("analyze")
        for spec in SPECS[nest.depth]:
            transformation = parse_steps(spec, nest.depth)
            check(f"parse_steps {spec}")
            report = transformation.legality(nest, deps)
            check(f"legality {spec}")
            if report.legal:
                transformation.apply(nest, deps)
                check(f"apply {spec}")
        result = search(nest, deps, config=SearchConfig())
        check("search")
        result.transformation.apply(nest, deps)
        check("apply winner")
    finally:
        gc.enable()
    assert garbage == [(stage, 0) for stage, _ in garbage]
