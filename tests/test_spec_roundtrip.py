"""Round-trip tests: Transformation.to_spec <-> repro.cli.parse_steps."""

import random

import pytest

from repro.core.spec import parse_steps
from repro.core import (
    Block,
    Coalesce,
    Interleave,
    Parallelize,
    ReversePermute,
    Transformation,
    Unimodular,
)
from repro.deps import depset, depv
from tests.test_property_roundtrip import random_step


class TestSingleSteps:
    @pytest.mark.parametrize("step", [
        ReversePermute(3, [True, False, False], [2, 3, 1]),
        Parallelize(3, [True, False, True]),
        Unimodular(2, [[1, 1], [1, 0]]),
        Block(3, 1, 2, [4, "bs"]),
        Coalesce(3, 1, 3),
        Interleave(2, 2, 2, [3]),
    ])
    def test_spec_reparses_to_same_signature(self, step):
        spec = step.to_spec()
        rebuilt = parse_steps(spec, step.n)
        assert len(rebuilt) == 1
        assert rebuilt.steps[0].signature() == step.signature()

    def test_block_symbolic_size_survives(self):
        step = Block(2, 1, 2, ["bs", 8])
        rebuilt = parse_steps(step.to_spec(), 2)
        assert str(rebuilt.steps[0].bsize[0]) == "bs"

    def test_sequence_spec(self):
        T = Transformation.of(
            ReversePermute(3, [False] * 3, [3, 1, 2]),
            Block(3, 1, 3, [2, 2, 2]),
            Parallelize(6, [True] + [False] * 5),
        )
        spec = T.to_spec()
        assert spec.count(";") == 2
        rebuilt = parse_steps(spec, 3)
        deps = depset((0, 1, -1), (1, 0, 0))
        assert rebuilt.map_dep_set(deps) == T.map_dep_set(deps)


class TestRandomSequences:
    @pytest.mark.parametrize("seed", range(20))
    def test_dep_mapping_preserved(self, seed):
        rng = random.Random(seed)
        depth = rng.choice([2, 3])
        steps = []
        d = depth
        for _ in range(rng.randint(1, 3)):
            step = random_step(rng, d)
            steps.append(step)
            d = step.output_depth
        T = Transformation(steps)
        spec = T.to_spec()
        rebuilt = parse_steps(spec, depth)
        vec = depv(*([1] + [0] * (depth - 1)))
        assert (rebuilt.map_dep_set(depset(vec)) ==
                T.reduced().map_dep_set(depset(vec)))

    def test_identity_spec_is_empty(self):
        assert Transformation.identity(3).to_spec() == ""
        rebuilt = parse_steps("", 3)
        assert len(rebuilt) == 0
