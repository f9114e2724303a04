"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import LAYER_SUM_TOLERANCE, ROOT, Recorder  # noqa: E402

WORKLOADS = ("compile", "search", "execute", "serve")


def _digest_in_fresh_process(workload, seed, hashseed):
    code = ("import sys; sys.path.insert(0, %r); import gen; "
            "sys.stdout.write(gen.inputs_digest_doc(%r, %d))"
            % (HERE, workload, seed))
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _digest_in_fresh_process(workload, 7, 1)
    assert first == _digest_in_fresh_process(workload, 7, 2)
    assert first == gen.inputs_digest_doc(workload, 7)
    assert first != gen.inputs_digest_doc(workload, 8)


def _traced_ops(rec, untracked_s=0.0):
    """Three ops clocked the way the op loops clock them; *untracked_s* of
    each op's time falls outside its root span.  Returns the op wall."""
    wall = 0.0
    for _ in range(3):
        start = time.perf_counter()
        if untracked_s:
            time.sleep(untracked_s)
        with rec.span(ROOT):
            with rec.span("outer"):
                with rec.span("inner"):
                    time.sleep(0.01)
                time.sleep(0.005)
            with rec.span("outer"):
                pass
        wall += time.perf_counter() - start
    return wall


def test_self_times_add_up_to_op_wall_time():
    rec = Recorder()
    wall = _traced_ops(rec)
    selfs = rec.layer_self()
    assert set(selfs) == {ROOT, "outer", "inner"}
    assert all(v >= 0 for v in selfs.values())
    assert selfs["inner"] >= 3 * 0.01
    assert rec.layer_sum_error(wall) < LAYER_SUM_TOLERANCE


def test_layer_sum_check_catches_untracked_time():
    rec = Recorder()
    wall = _traced_ops(rec, untracked_s=0.005)
    assert rec.layer_sum_error(wall) > LAYER_SUM_TOLERANCE


def test_benchmark_json_lists_what_the_runner_reports():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
