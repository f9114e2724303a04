"""Tests for the command-line interface and its step mini-language."""

import pytest

from repro.cli import main
from repro.core.spec import SpecError, build_step, parse_call, parse_steps
from repro.core import (
    Block,
    Coalesce,
    Interleave,
    Parallelize,
    ReversePermute,
    Unimodular,
)

# A file handle left for the garbage collector is a bug: every leak
# (a ResourceWarning, or the same raised from a finalizer) fails the test.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning")

STENCIL = """
do i = 2, n-1
  do j = 2, n-1
    a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5
  enddo
enddo
"""

MATMUL = """
do i = 1, n
  do j = 1, n
    do k = 1, n
      A(i, j) += B(i, k) * C(k, j)
    enddo
  enddo
enddo
"""


@pytest.fixture
def stencil_file(tmp_path):
    path = tmp_path / "stencil.loop"
    path.write_text(STENCIL)
    return str(path)


@pytest.fixture
def matmul_file(tmp_path):
    path = tmp_path / "matmul.loop"
    path.write_text(MATMUL)
    return str(path)


class TestStepLanguage:
    def test_interchange(self):
        step = build_step("interchange", [1, 2], 3)
        assert isinstance(step, ReversePermute)
        assert step.perm == (2, 1, 3)

    def test_permute(self):
        step = build_step("permute", [3, 1, 2], 3)
        assert step.perm == (2, 3, 1)

    def test_reverse(self):
        step = build_step("reverse", [2], 3)
        assert step.rev == (False, True, False)

    def test_skew_default_factor(self):
        step = build_step("skew", [2, 1], 2)
        assert isinstance(step, Unimodular)
        assert step.matrix.rows() == ((1, 0), (1, 1))

    def test_unimodular_matrix_literal(self):
        step = build_step("unimodular", [[[1, 1], [1, 0]]], 2)
        assert step.matrix.rows() == ((1, 1), (1, 0))

    def test_parallelize(self):
        step = build_step("parallelize", [1, 3], 3)
        assert step.parflag == (True, False, True)

    def test_block_broadcast_size(self):
        step = build_step("block", [1, 3, 16], 3)
        assert isinstance(step, Block)
        assert len(step.bsize) == 3

    def test_block_symbolic_size(self):
        step = build_step("block", [1, 1, "bs"], 2)
        assert str(step.bsize[0]) == "bs"

    def test_stripmine(self):
        step = build_step("stripmine", [2, 8], 3)
        assert (step.i, step.j) == (2, 2)

    def test_coalesce(self):
        assert isinstance(build_step("coalesce", [1, 2], 3), Coalesce)

    def test_interleave(self):
        step = build_step("interleave", [1, 2, 4], 2)
        assert isinstance(step, Interleave)

    def test_wavefront(self):
        step = build_step("wavefront", [], 3)
        assert list(step.matrix.row(0)) == [1, 1, 1]

    def test_unknown_step(self):
        with pytest.raises(SpecError):
            build_step("frobnicate", [], 2)

    def test_bad_arity(self):
        with pytest.raises(SpecError):
            build_step("interchange", [1], 2)

    def test_sequence_depth_tracking(self):
        T = parse_steps("block(1,2,4); parallelize(1); coalesce(3,4)", 2)
        assert T.input_depth == 2
        assert T.output_depth == 3

    def test_malformed_call(self):
        with pytest.raises(SpecError):
            parse_steps("interchange 1 2", 2)

    @pytest.mark.parametrize("text,args", [
        ("revpermute([0, 1], [2, 1])", [[0, 1], [2, 1]]),
        ("skew(-1, +2, (1, [2]))", [-1, 2, (1, [2])]),
        ("block(1, 2, n/2, 'precise')", [1, 2, "n/2", "precise"]),
        ("reverse(1.5, True, None, --1)", ["1.5", "True", "None", "--1"]),
    ])
    def test_call_arguments(self, text, args):
        """Integers, one-signed integers, strings, and lists or tuples of
        them are values; any other argument stays its text."""
        assert parse_call(text) == (text.split("(")[0], args)

    @pytest.mark.parametrize("spec,message", [
        ("reverse(True)", "expected integer loop numbers, got 'True'"),
        ("skew(2, n)", "expected integer skew parameters, got 'n'"),
    ])
    def test_non_integer_arguments_are_spec_errors(self, spec, message):
        with pytest.raises(SpecError, match=message):
            parse_steps(spec, 2)


class TestCommands:
    def test_show(self, stencil_file, capsys):
        assert main(["show", stencil_file]) == 0
        out = capsys.readouterr().out
        assert "do i = 2, n - 1" in out

    def test_show_deps_and_bounds(self, stencil_file, capsys):
        assert main(["show", stencil_file, "--deps", "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "{(1, 0), (0, 1)}" in out
        assert "LB =" in out

    def test_analyze_levels(self, matmul_file, capsys):
        assert main(["analyze", matmul_file, "--level", "fm"]) == 0
        assert "{(0, 0, +)}" in capsys.readouterr().out

    def test_legality_legal(self, stencil_file, capsys):
        code = main(["legality", stencil_file,
                     "--steps", "skew(2,1); interchange(1,2)"])
        assert code == 0
        assert "legal: True" in capsys.readouterr().out

    def test_legality_illegal(self, stencil_file, capsys):
        code = main(["legality", stencil_file,
                     "--steps", "reverse(1)"])
        assert code == 1
        out = capsys.readouterr().out
        assert "legal: False" in out

    def test_transform_loop_output(self, stencil_file, capsys):
        code = main(["transform", stencil_file,
                     "--steps", "skew(2,1); interchange(1,2)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "do jj = 4, 2*n - 2" in out

    def test_transform_illegal_refused(self, stencil_file, capsys):
        code = main(["transform", stencil_file, "--steps", "reverse(1)"])
        assert code == 1
        assert "ILLEGAL" in capsys.readouterr().err

    def test_transform_force(self, stencil_file, capsys):
        code = main(["transform", stencil_file, "--steps", "reverse(1)",
                     "--force"])
        assert code == 0
        assert "do i = n - 1, 2, -1" in capsys.readouterr().out

    def test_transform_emit_c(self, matmul_file, capsys):
        code = main(["transform", matmul_file,
                     "--steps", "block(1,3,8)", "--emit", "c"])
        assert code == 0
        out = capsys.readouterr().out
        assert "void kernel(long n)" in out
        assert "FLOOR_DIV" in out or "for (" in out

    def test_transform_emit_python(self, matmul_file, capsys):
        code = main(["transform", matmul_file,
                     "--steps", "interchange(1,3)", "--emit", "python"])
        assert code == 0
        out = capsys.readouterr().out
        assert "def kernel(arrays, symbols, funcs=None):" in out
        compile(out, "<cli>", "exec")

    def test_transform_emit_python_kernel_runs(self, matmul_file, capsys):
        """The printed module runs as documented and matches the
        interpreter; the never-written B and C are arrays, not
        functions."""
        from collections import defaultdict

        from repro.ir import parse_nest
        from repro.runtime import Array, run_nest

        assert main(["transform", matmul_file,
                     "--steps", "interchange(1,3)", "--emit", "python"]) == 0
        namespace = {}
        exec(capsys.readouterr().out, namespace)
        n = 5
        B = Array(0, "B", {(i, j): i + 2 * j for i in range(1, n + 1)
                           for j in range(1, n + 1)})
        C = Array(0, "C", {(i, j): 3 * i - j for i in range(1, n + 1)
                           for j in range(1, n + 1)})
        arrays = {"A": defaultdict(int), "B": defaultdict(int, B.data),
                  "C": defaultdict(int, C.data)}
        namespace["kernel"](arrays, {"n": n})
        expected = run_nest(parse_nest(MATMUL), {"B": B, "C": C},
                            symbols={"n": n}).arrays["A"]
        assert Array(0, "A", arrays["A"]) == expected

    def test_transform_trace(self, matmul_file, capsys):
        code = main(["transform", matmul_file, "--trace",
                     "--steps", "permute(2,3,1); block(1,3,2); "
                                "parallelize(1,3); interchange(2,3); "
                                "coalesce(1,2)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- START: D = {(0, 0, +)}" in out
        assert "-- Coalesce" in out

    def test_transform_trace_prints_the_sets_legality_used(self,
                                                           stencil_file,
                                                           capsys):
        """A Block after a skew widens the sets it maps by the loops it
        receives; the trace's last ``D`` is the set the verdict read."""
        from repro.deps.analysis import analyze
        from repro.ir import parse_nest

        steps = "skew(1,2,1); block(1,2,4)"
        code = main(["transform", stencil_file, "--steps", steps,
                     "--trace"])
        assert code == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("-- ")]
        nest = parse_nest(STENCIL)
        deps = analyze(nest)
        final = parse_steps(steps, nest.depth).legality(nest, deps).final_deps
        assert rows[-1] == f"-- Block: D = {final}"

    def test_transform_trace_of_bounds_illegal_sequence(self, tmp_path,
                                                         capsys):
        """``--trace`` prints the stages that fold, then the verdict:
        exit 1 with ``ILLEGAL``, exactly as without ``--trace``."""
        path = tmp_path / "triangular.loop"
        path.write_text("do i = 1, n\n  do j = i, n\n    a(i, j) = i + j\n"
                        "  enddo\nenddo\n")
        code = main(["transform", str(path), "--steps", "interchange(1,2)",
                     "--trace"])
        assert code == 1
        captured = capsys.readouterr()
        rows = [line for line in captured.out.splitlines()
                if line.startswith("-- ")]
        assert rows == ["-- START: D = {}"]
        assert captured.err.startswith("ILLEGAL: ")

    def test_spec_error_reported(self, stencil_file, capsys):
        code = main(["transform", stencil_file, "--steps", "bogus(1)"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("do i = 1, n\n a(i) = 1\n")  # missing enddo
        code = main(["show", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServeClient:
    """The service commands at the CLI surface (the lifecycle itself is
    tested in test_service.py)."""

    def test_help_lists_serve_and_client(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "serve" in out and "client" in out
        assert "exit codes:" in out

    def test_uniform_flags_accepted_everywhere(self, stencil_file,
                                               tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        for cmd in (["show", stencil_file],
                    ["analyze", stencil_file],
                    ["legality", stencil_file, "--steps",
                     "interchange(1,2)"]):
            assert main(cmd + ["--jobs", "2", "--candidate-timeout", "5",
                               "--trace-json", str(trace)]) in (0, 1)
            capsys.readouterr()
        assert trace.exists()

    def test_client_replays_script_against_spawned_server(
            self, tmp_path, capsys):
        import json as json_mod
        nest = ("do i = 2, n-1\n  do j = 2, n-1\n"
                "    a(i, j) = a(i-1, j) + a(i, j-1)\n  enddo\nenddo\n")
        script = tmp_path / "script.ndjson"
        script.write_text(
            json_mod.dumps({"op": "ping"}) + "\n"
            + json_mod.dumps({"op": "legality",
                              "params": {"text": nest,
                                         "steps": "interchange(1,2)"}})
            + "\n")
        assert main(["client", str(script)]) == 0
        lines = [json_mod.loads(line)
                 for line in capsys.readouterr().out.splitlines()]
        assert [r["ok"] for r in lines] == [True, True]
        assert lines[1]["result"]["legal"] is True

    def test_client_exit_1_on_failed_request(self, tmp_path, capsys):
        import json as json_mod
        script = tmp_path / "script.ndjson"
        script.write_text(json_mod.dumps(
            {"op": "analyze", "params": {"text": "not a nest"}}) + "\n")
        assert main(["client", str(script)]) == 1
        line = json_mod.loads(capsys.readouterr().out.splitlines()[0])
        assert line["error"]["code"] == "bad-input"

    def test_client_exit_2_on_malformed_script(self, tmp_path, capsys):
        script = tmp_path / "script.ndjson"
        script.write_text("not json\n")
        assert main(["client", str(script)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_children_inherit_serve_options(self, tmp_path,
                                                  monkeypatch, capsys):
        """The ``--supervise`` child and every fleet worker start from
        one argv builder; parsed back, each carries the serve options it
        was given.  ``--jobs`` is inert for ``serve`` and is not passed
        on."""
        from repro import fleet
        from repro.cli import build_parser
        from repro.fleet import FleetError, WorkerHandle
        from repro.resilience import supervisor

        options = ["--engine", "interpreter", "--queue-max", "7",
                   "--batch-max", "3", "--cache-max-entries", "99",
                   "--prune", "--speculate", "--model", "evidence",
                   "--request-timeout", "2.5"]
        argvs = []

        class RecordingSupervisor:
            def __init__(self, argv, **kwargs):
                argvs.append(argv)
                self.restarts = []

            def install_signal_handlers(self):
                pass

            def run(self):
                return 0

        class RecordingRouter:
            def __init__(self, n, directory, **worker_options):
                handle = WorkerHandle(0, directory, **worker_options)
                argvs.append(handle.supervisor.child_argv)

            def start(self):
                raise FleetError("not started")

        monkeypatch.setattr(supervisor, "Supervisor", RecordingSupervisor)
        monkeypatch.setattr(fleet, "FleetRouter", RecordingRouter)
        assert main(["serve", "--tcp", "--supervise", "--heartbeat-file",
                     str(tmp_path / "s.hb"), *options, "--jobs", "3"]) == 0
        assert main(["serve", "--tcp", "--fleet", "2", "--fleet-dir",
                     str(tmp_path), *options, "--jobs", "3"]) == 1
        capsys.readouterr()
        parser = build_parser()
        given = parser.parse_args(["serve", *options])
        assert len(argvs) == 2
        for argv in argvs:
            assert argv[1:4] == ["-m", "repro", "serve"]
            child = parser.parse_args(argv[3:])
            for name in ("engine", "queue_max", "batch_max",
                         "cache_max_entries", "prune", "speculate",
                         "model", "request_timeout"):
                assert getattr(child, name) == getattr(given, name), name
            assert "--jobs" not in argv

    def test_serve_jobs_is_inert_and_search_forks_nothing(self,
                                                          monkeypatch,
                                                          capsys):
        """``serve --stdio --jobs 2`` still parses, and the service it
        builds answers ``search`` in-process: with ``os.fork`` refused,
        the reply is the cold in-process search's answer."""
        import json as json_mod
        import os

        from repro import service as service_mod
        from repro.deps.analysis import analyze
        from repro.ir import parse_nest
        from repro.optimize.search import SearchConfig, search

        built = []
        monkeypatch.setattr(service_mod, "serve_stdio",
                            lambda service, *a, **kw: built.append(service))
        assert main(["serve", "--stdio", "--jobs", "2"]) == 0
        capsys.readouterr()
        (service,) = built

        def refuse_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refuse_fork)
        replies = []
        service.ingest(json_mod.dumps(
            {"id": 1, "op": "search",
             "params": {"text": MATMUL, "depth": 2, "beam": 6}}),
            replies.append)
        service.request_drain("test")
        service.run()

        (reply,) = replies
        assert reply["ok"], reply
        nest = parse_nest(MATMUL)
        expected = search(nest, analyze(nest),
                          config=SearchConfig(depth=2, beam=6))
        got = reply["result"]
        assert got["spec"] == expected.transformation.to_spec()
        assert got["score"] == expected.score
        assert (got["explored"], got["legal"]) == (expected.explored,
                                                   expected.legal_count)
        assert got["parallel"] is None
