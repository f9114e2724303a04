"""repro.resilience — fault injection, supervision, retries and guards.

Four pieces, one goal: a transformation service that keeps answering
correctly while the world misbehaves.

:mod:`repro.resilience.chaos`
    A unified fault-injection registry with named injection points
    threaded through the whole pipeline (``ir.parse``,
    ``deps.analysis``, ``legality``, ``compiled.codegen``,
    ``service.dispatch``, ``pool.worker``), plus the index-addressed
    pool-worker :class:`~repro.resilience.chaos.FaultPlan`.

:mod:`repro.resilience.supervisor`
    A process supervisor for ``repro serve``: heartbeat-based crash and
    hang detection, exponential-backoff restarts behind a crash-loop
    circuit breaker, warm-state restore from a
    :meth:`~repro.service.state.WarmState.checkpoint` file.

:mod:`repro.resilience.retry`
    A retrying service client: exponential backoff with deterministic
    jitter, a retry budget, and idempotency keys so a replayed request
    after a connection drop is answered from the server's dedup window
    instead of re-executed.

:mod:`repro.resilience.guards`
    Resource guardrails (recursion depth, source size, iteration count,
    constraint count, RSS) that convert runaway work into typed
    :class:`~repro.util.errors.ReproError`\\ s the service surfaces as
    ``bad-input`` — never a raw ``RecursionError`` or ``MemoryError``.

See the "Resilience" section of ``docs/API.md`` and tutorial §8.8.
"""

from repro.resilience.chaos import (
    ChaosError,
    ChaosPlan,
    arm,
    arm_from_env,
    current_plan,
    disarm,
    inject,
    parse_spec,
)
from repro.resilience.guards import (
    GuardLimits,
    ResourceLimitError,
    limits,
    set_limits,
)

# retry/supervisor pull in repro.service, whose server consults the
# chaos registry — resolve those lazily so `import repro.service` and
# `import repro.resilience` can each be the first import.
_LAZY = {
    "CrashLoopError": ("repro.resilience.supervisor", "CrashLoopError"),
    "RetryPolicy": ("repro.resilience.retry", "RetryPolicy"),
    "RetryingClient": ("repro.resilience.retry", "RetryingClient"),
    "Supervisor": ("repro.resilience.supervisor", "Supervisor"),
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(target[0]), target[1])


__all__ = [
    "ChaosError", "ChaosPlan", "CrashLoopError", "GuardLimits",
    "ResourceLimitError", "RetryPolicy", "RetryingClient", "Supervisor",
    "arm", "arm_from_env", "current_plan", "disarm", "inject", "limits",
    "parse_spec", "set_limits",
]
