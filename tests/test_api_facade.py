"""The ``repro.api`` façade and the documented export surface.

``docs/API.md`` carries explicit code-fenced export lists for both
``repro.api`` and the top-level ``repro`` package; these tests parse
the document so the code and the docs cannot drift apart silently.
"""

from __future__ import annotations

import re
from pathlib import Path

API_MD = (Path(__file__).parent.parent / "docs" / "API.md").read_text()


def documented_exports(which: int) -> set:
    """The *which*-th code-fenced name list in the ``repro.api``
    section of docs/API.md (0 = repro.api, 1 = top-level repro)."""
    section = API_MD.split("## `repro.api`")[1].split("\n## ")[0]
    blocks = re.findall(r"```\n(.*?)```", section, flags=re.S)
    names = re.findall(r"[A-Za-z_][A-Za-z0-9_]*", blocks[which])
    return set(names)


def test_facade_all_matches_docs():
    import repro.api as api
    assert set(api.__all__) == documented_exports(0)


def test_top_level_all_matches_docs():
    import repro
    assert set(repro.__all__) == documented_exports(1)


def test_star_import_exposes_exactly_all():
    namespace: dict = {}
    exec("from repro.api import *", namespace)  # noqa: S102
    imported = {name for name in namespace if not name.startswith("__")}
    import repro.api as api
    assert imported == set(api.__all__)


def test_every_facade_name_resolves_and_is_the_canonical_object():
    """The façade re-exports, never wraps: each name is the same object
    the implementing module owns."""
    import repro.api as api
    from repro.core.legality_cache import LegalityCache
    from repro.core.sequence import Transformation
    from repro.deps.analysis import analyze
    from repro.ir import parse_nest
    from repro.optimize.search import search
    from repro.runtime.compiled import CompiledNest

    assert api.parse_nest is parse_nest
    assert api.analyze is analyze
    assert api.Transformation is Transformation
    assert api.search is search
    assert api.LegalityCache is LegalityCache
    assert api.CompiledNest is CompiledNest


def test_facade_pipeline_end_to_end():
    """The quickstart documented in the module docstring actually runs."""
    from repro.api import (
        SearchConfig,
        Transformation,
        analyze,
        parse_nest,
        search,
    )

    nest = parse_nest("""
    do i = 2, n-1
      do j = 2, n-1
        a(i, j) = a(i-1, j) + a(i, j-1)
      enddo
    enddo
    """)
    deps = analyze(nest)
    transformation = Transformation.from_spec("interchange(1,2)",
                                              nest.depth)
    assert transformation.legality(nest, deps).legal
    result = search(nest, deps, config=SearchConfig(depth=1, beam=4))
    assert result.explored > 1


def test_top_level_all_resolves():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name
