"""The analyzer's distance-space projection answers exactly what the
full pair system answers.

Every pair problem is projected once onto its distance variables
``x$d = x$2 - x$1``; direction nodes and distance refinements then run
Fourier–Motzkin on the projection.  These tests rebuild, independently
of the driver, the full system it replaced — base rows over both
iteration copies and the invariants, the direction rows over
``x$2 - x$1``, and the equality ``x$d == x$2 - x$1`` — and check every
verdict and bound against it.
"""

import itertools
from pathlib import Path

import pytest

from repro import obs
from repro.core.sequence import Transformation
from repro.deps.analysis import DependenceAnalyzer, analyze
from repro.deps.analysis.linear_system import LinConstraint, LinearSystem
from repro.deps.analysis.references import dependence_candidate_pairs
from repro.deps.analysis.tests import DIRECTION_INTERVALS
from repro.fuzz.gen import CaseGen
from repro.ir.parser import parse_nest
from repro.resilience.guards import GuardLimits, set_limits
from repro.util.errors import ReproError

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "loops"


def _nests():
    """Example kernels, seeded generator nests and their transformed
    versions (which carry min/max/div/mod bounds) up to depth 3, where
    the full-system reference stays cheap."""
    for path in sorted(EXAMPLES.glob("*.loop")):
        yield parse_nest(path.read_text())
    for seed in (3, 5):
        for case in CaseGen(seed).cases(30):
            nest = parse_nest(case.text)
            yield nest
            if not case.steps:
                continue
            try:
                out = Transformation.from_spec(case.steps, nest.depth).apply(
                    nest, analyze(nest), check=False)
            except ReproError:
                continue
            if out.depth <= 3:
                yield out


def _full_direction_rows(name, code):
    """The rows bounding ``name$2 - name$1`` to *code*'s interval."""
    lo, hi = DIRECTION_INTERVALS[code]
    rows = []
    if lo is not None:
        rows.append(LinConstraint({f"{name}$2": 1, f"{name}$1": -1}, -lo))
    if hi is not None:
        rows.append(LinConstraint({f"{name}$2": -1, f"{name}$1": 1}, hi))
    return rows


def _full_system(problem, directions, distance_of=None):
    rows = list(problem.base.constraints)
    for name, code in directions.items():
        rows.extend(_full_direction_rows(name, code))
    if distance_of is not None:
        rows.append(LinConstraint(
            {f"{distance_of}$d": 1, f"{distance_of}$2": -1,
             f"{distance_of}$1": 1}, 0, equality=True))
    return LinearSystem(rows)


def _pair_problems():
    """The distinct pair problems (by base row set) of :func:`_nests`."""
    seen = set()
    for nest in _nests():
        analyzer = DependenceAnalyzer(nest)
        for src, dst in dependence_candidate_pairs(nest.accesses()):
            problem = analyzer._build_problem(src, dst)
            key = frozenset(c.key() for c in problem.base.constraints)
            if problem.equalities and key not in seen:
                seen.add(key)
                yield problem


def _nodes(names):
    """Every partial direction assignment over a prefix of *names*."""
    for k in range(len(names) + 1):
        for codes in itertools.product("0+-", repeat=k):
            yield dict(zip(names, codes))


def test_projection_matches_full_system():
    problems = nodes = bounds = 0
    for problem in _pair_problems():
        problems += 1
        assert problem.distance_rows is not None
        names = problem.index_names
        for directions in _nodes(names):
            nodes += 1
            projected = problem.with_directions(directions)
            full = _full_system(problem, directions)
            assert projected.is_feasible() == full.is_feasible(), (
                problem.base.constraints, directions)
            if len(directions) < len(names):
                continue
            for name in names:
                bounds += 1
                assert (projected.bounds_of(f"{name}$d") ==
                        _full_system(problem, directions,
                                     name).bounds_of(f"{name}$d")), (
                    problem.base.constraints, directions, name)
    assert problems >= 100 and nodes >= 3000 and bounds >= 1000


def _covers(wide, exact):
    return all(e.iset.issubset(w.iset) for w, e in zip(wide, exact))


@pytest.mark.parametrize("source", [
    "do i = 2, n-1\n do j = 2, n-1\n"
    "  a(i, j) = a(i-1, j) + a(i, j-1) + a(i+1, j)\n enddo\nenddo",
    "do i = 1, n\n a(2*i) = a(2*i - 4) + 1\nenddo",
])
def test_projection_give_up_is_conservative_and_counted(source):
    nest = parse_nest(source)
    exact = DependenceAnalyzer(nest).explain()
    obs.disable()
    obs.get_metrics().clear()
    obs.enable()
    set_limits(GuardLimits(max_fme_constraints=2))
    try:
        capped = DependenceAnalyzer(nest).explain()
        counters = obs.get_metrics().snapshot()["counters"]
    finally:
        set_limits(None)
        obs.disable()
        obs.get_metrics().clear()
    assert counters["deps.pairs_projected"] >= 1
    assert counters["fme.give_up"] == counters["deps.pairs_projected"]
    widened = False
    for got, want in zip(capped, exact):
        for vec in want.vectors:
            assert any(_covers(wide, vec) for wide in got.vectors), (
                got, want)
        widened |= got.vectors != want.vectors
    assert widened
