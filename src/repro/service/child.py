"""Launching ``repro serve`` children: the supervised server behind
``repro serve --supervise`` and every fleet worker
(:class:`~repro.fleet.worker.WorkerHandle`) start from the argv
:func:`serve_child_argv` builds, on a port from :func:`free_port`, in
the environment :func:`child_env` returns."""

from __future__ import annotations

import os
import socket
import sys
from typing import Dict, List, Optional, Sequence


def free_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral port number a supervised child can rebind
    across restarts (port 0 would move on every restart)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def child_env() -> Dict[str, str]:
    """This process's environment with this package importable, so a
    child starts from a source checkout (PYTHONPATH=src) as well as
    from an installed package."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    parts = [src_dir] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


def serve_child_argv(host: str, port: int, heartbeat: str,
                     checkpoint: str, *, hang_timeout: float,
                     checkpoint_every: int,
                     request_timeout: Optional[float] = None,
                     options: Sequence[str] = ()) -> List[str]:
    """The argv of one supervised ``repro serve --tcp`` incarnation:
    the heartbeat/checkpoint plumbing every restart shares, the
    supervision timings, then *options* (the serve options the child
    inherits) verbatim."""
    argv = [sys.executable, "-m", "repro", "serve", "--tcp",
            "--host", host, "--port", str(port),
            "--heartbeat-file", heartbeat,
            "--hang-timeout", str(hang_timeout),
            "--checkpoint", checkpoint,
            "--checkpoint-every", str(checkpoint_every)]
    if request_timeout is not None:
        argv += ["--request-timeout", str(request_timeout)]
    return argv + list(options)
