"""Search and undo: Section 5's headline advantage, live.

"A loop nest remains unchanged while the transformation system considers
the legality and effectiveness of applying various alternative
transformations; the loop nest only needs to be updated when code
generation is finally requested."

This example builds a menu of candidate transformations, evaluates every
one against the same untouched nest with two different objectives —
static parallelism, then measured cache locality (each candidate is
compiled, executed and run through the cache simulator) — and only then
generates code for the winners.

Run:  python examples/search_and_undo.py
"""

import random

from repro import analyze, parse_nest
from repro.cache import CacheConfig, Layout
from repro.optimize import (
    default_candidates,
    make_locality_score,
    parallelism_score,
    search,
)
from repro.optimize.search import SearchConfig
from repro.runtime import Array

N = 20

nest = parse_nest("""
do j = 1, n
  do i = 1, n
    b(i, j) = a(i, j) * 2 + a(i, j)
  enddo
enddo
""")
deps = analyze(nest)
print(nest.pretty())
print(f"\ndeps: {deps} (fully parallel)")
before = nest.pretty()

# Objective 1: parallelism.
result = search(nest, deps,
                config=SearchConfig(score=parallelism_score, depth=2, beam=6))
print(f"\n[parallelism] explored {result.explored} candidates, "
      f"{result.legal_count} legal")
print(f"winner: {result.transformation.signature()} "
      f"(score {result.score})")

# Objective 2: measured locality (row-major arrays, tiny cache).
rng = random.Random(0)
a = Array(0, "a")
for x in range(1, N + 1):
    for y in range(1, N + 1):
        a[(x, y)] = rng.randrange(100)
layout = Layout(element_bytes=8, order="row")
layout.register("a", [(1, N), (1, N)])
layout.register("b", [(1, N), (1, N)])
score = make_locality_score({"a": a}, {"n": N}, layout,
                            CacheConfig(512, 64, 2))
result2 = search(nest, deps,
                 config=SearchConfig(score=score, depth=1, beam=6))
print(f"\n[locality] explored {result2.explored} candidates")
print(f"winner: {result2.transformation.signature()} "
      f"({-result2.score:.0f} simulated misses)")
out = result2.transformation.apply(nest, deps, check=False)
print(out.pretty())

# The nest itself was never touched.
assert nest.pretty() == before
print("\nthe original nest is untouched — "
      f"{result.explored + result2.explored} candidates were evaluated "
      "without a single mutation")
