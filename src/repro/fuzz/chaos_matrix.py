"""The chaos dimension: fuzz cases under fault injection.

For a sampled case the harness already proved healthy, this module
replays a deterministic request script twice through a **supervised**
TCP server with a **retrying** client — once fault-free, once with a
:mod:`repro.resilience.chaos` plan arming crash/hang/drop/error faults
across the injection points — and asserts the two response streams are
field-identical: exactly-once answers, zero lost, zero duplicated, zero
changed.  Supervision and retry are supposed to make faults invisible
to callers; this is the generative test of that claim.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.fuzz.gen import FuzzCase
from repro.fuzz.oracles import CaseOutcome
from repro.obs import trace as _obs
from repro.resilience.retry import RetryPolicy, RetryingClient
from repro.service import protocol
from repro.service.child import child_env, free_port

#: The default chaos plan: every injection point the spec grammar
#: names, with the fault kind that bites hardest there.  Counts are
#: small so the bounded retry budget always wins.
DEFAULT_CHAOS_SPEC = ",".join((
    "service.dispatch:crash:1",
    "service.dispatch:hang:1:60",
    "service.dispatch:drop:1",
    "ir.parse:error:1",
    "deps.analysis:error:1",
    "legality:error:1",
    "compiled.codegen:error:1",
    "pool.worker:crash:1",
))

#: Wall-clock ceiling for one supervised replay (spawn + restarts).
REPLAY_DEADLINE = 120.0


def request_script(case: FuzzCase) -> List[Dict[str, object]]:
    """A deterministic request script for *case* — every op's answer is
    a pure function of its params, so runs compare field-for-field."""
    ops: List[Dict[str, object]] = [
        {"op": "parse", "params": {"text": case.text}},
        {"op": "analyze", "params": {"text": case.text}},
    ]
    if case.steps:
        ops.append({"op": "legality",
                    "params": {"text": case.text, "steps": case.steps}})
    ops.append({"op": "run",
                "params": {"text": case.text, "symbols": case.symbols,
                           "engine": "compiled"}})
    # Repeat the cycle so the armed fault counts are all consumed while
    # answers keep being comparable one-to-one.
    script = [dict(ops[k % len(ops)], id=k) for k in range(3 * len(ops))]
    return script


def _pythonpath_env() -> Dict[str, str]:
    """Subprocess env whose PYTHONPATH can import this very package."""
    env = child_env()
    # A chaos plan armed in *this* process must not leak into the
    # subordinate servers; they get exactly the spec we pass via argv.
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_CHAOS_STATE", None)
    return env


def supervised_replay(script: Sequence[Dict[str, object]],
                      workdir: str,
                      tag: str,
                      chaos_spec: Optional[str] = None,
                      hang_timeout: float = 2.0) -> List[dict]:
    """Replay *script* through a supervised TCP server; returns the raw
    responses in script order.  With *chaos_spec*, the server runs with
    that plan armed (state file under *workdir* so counts survive
    supervised restarts)."""
    port = free_port()
    argv = [sys.executable, "-m", "repro", "serve", "--tcp",
            "--port", str(port), "--supervise",
            "--hang-timeout", str(hang_timeout),
            "--heartbeat-file", os.path.join(workdir, f"{tag}.hb"),
            "--max-restarts", "10"]
    if chaos_spec:
        argv += ["--chaos", chaos_spec,
                 "--chaos-state", os.path.join(workdir, f"{tag}.chaos")]
    sup = subprocess.Popen(argv, env=_pythonpath_env(),
                           stderr=subprocess.DEVNULL)
    try:
        client = RetryingClient.tcp(
            "127.0.0.1", port,
            policy=RetryPolicy(attempts=10, backoff_initial=0.2,
                               backoff_max=2.0, budget=REPLAY_DEADLINE),
            attempt_timeout=2 * hang_timeout + 5.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.request("ping")
                break
            except protocol.ServiceError:
                if time.monotonic() > deadline:
                    raise
        responses = client.replay([dict(req) for req in script])
        client.request_raw("shutdown")
        client.close()
        sup.wait(timeout=30)
        return responses
    finally:
        if sup.poll() is None:
            sup.kill()
            sup.wait()


def chaos_check(case: FuzzCase,
                chaos_spec: str = DEFAULT_CHAOS_SPEC,
                workdir: Optional[str] = None,
                time_limit: float = 10.0) -> CaseOutcome:
    """The chaos oracle for one case.

    Replays the case's script fault-free and under *chaos_spec*; any
    difference between the two response streams — an answer changed,
    lost, duplicated or reordered — is a ``divergence``.  *time_limit*
    is accepted for driver symmetry; replays run under their own
    (much larger) supervision deadline.
    """
    del time_limit  # replays use REPLAY_DEADLINE; see docstring
    import tempfile

    script = request_script(case)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-chaos-",
                                     dir=workdir) as tmp:
        with _obs.span("fuzz.chaos", case_id=case.case_id,
                       requests=len(script)):
            try:
                baseline = supervised_replay(script, tmp, "base")
                chaotic = supervised_replay(script, tmp, "chaos",
                                            chaos_spec=chaos_spec)
            except Exception as exc:  # noqa: BLE001
                return CaseOutcome(
                    case, "crash", "chaos",
                    f"supervised replay died: "
                    f"{type(exc).__name__}: {exc}")
    if len(chaotic) != len(baseline):
        return CaseOutcome(
            case, "divergence", "chaos",
            f"{len(baseline)} fault-free answers vs {len(chaotic)} "
            f"under chaos (lost or duplicated responses)")
    for base, chaot in zip(baseline, chaotic):
        if base != chaot:
            return CaseOutcome(
                case, "divergence", "chaos",
                f"request id {base.get('id')!r} answered differently "
                f"under chaos:\n  fault-free: {base!r}\n"
                f"  chaotic:    {chaot!r}")
    return CaseOutcome(case, "ok")
