"""Rendering observability data: per-phase profile table + JSON document.

Aggregates a tracer's spans by name into phases (call count, total/mean/
max wall time, self time, total CPU time), renders them as a fixed-width
text table
for ``--profile`` output, and bundles phases + metrics snapshot into one
machine-readable document for the ``profile`` CLI command and the bench
harness.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.metrics import Metrics, get_metrics
from repro.obs.trace import Tracer, get_tracer

__all__ = ["aggregate_phases", "profile_table", "profile_document",
           "load_trace"]


def aggregate_phases(tracer: Optional[Tracer] = None) -> List[Dict[str, Any]]:
    """Spans grouped by name, sorted by total wall time (descending).

    ``wall_s`` is inclusive: a phase nested in another counts in both.
    ``self_s`` is each span's wall time minus its direct children's
    (matched by ``parent_id`` among the buffered spans), so the phases'
    self times add up to the wall time of the root spans.
    """
    tracer = tracer or get_tracer()
    if tracer is None:
        return []
    spans = tracer.spans()
    child_wall: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            child_wall[sp.parent_id] = (child_wall.get(sp.parent_id, 0.0)
                                        + sp.wall)
    phases: Dict[str, Dict[str, Any]] = {}
    for sp in spans:
        ph = phases.get(sp.name)
        if ph is None:
            ph = phases[sp.name] = {
                "phase": sp.name, "count": 0, "wall_s": 0.0, "self_s": 0.0,
                "cpu_s": 0.0, "max_s": 0.0, "errors": 0,
            }
        ph["count"] += 1
        ph["wall_s"] += sp.wall
        ph["self_s"] += sp.wall - child_wall.get(sp.span_id, 0.0)
        ph["cpu_s"] += sp.cpu
        if sp.wall > ph["max_s"]:
            ph["max_s"] = sp.wall
        if sp.error is not None:
            ph["errors"] += 1
    out = sorted(phases.values(), key=lambda p: -p["wall_s"])
    for ph in out:
        ph["mean_s"] = ph["wall_s"] / ph["count"]
        for key in ("wall_s", "self_s", "cpu_s", "max_s", "mean_s"):
            ph[key] = round(ph[key], 9)
    return out


def profile_table(tracer: Optional[Tracer] = None) -> str:
    """The per-phase profile as a fixed-width text table."""
    phases = aggregate_phases(tracer)
    if not phases:
        return "(no spans recorded)"
    header = (f"{'phase':<28} {'calls':>7} {'wall ms':>10} "
              f"{'self ms':>10} {'mean ms':>10} {'max ms':>10} "
              f"{'cpu ms':>10}")
    lines = [header, "-" * len(header)]
    for ph in phases:
        lines.append(
            f"{ph['phase']:<28} {ph['count']:>7} "
            f"{ph['wall_s'] * 1e3:>10.3f} {ph['self_s'] * 1e3:>10.3f} "
            f"{ph['mean_s'] * 1e3:>10.3f} {ph['max_s'] * 1e3:>10.3f} "
            f"{ph['cpu_s'] * 1e3:>10.3f}")
    # Inclusive wall times double-count nested phases; self times add
    # up to the root spans' wall time.
    total_wall = sum(ph["wall_s"] for ph in phases)
    total_self = sum(ph["self_s"] for ph in phases)
    lines.append("-" * len(header))
    lines.append(f"{'total (by phase)':<28} {'':>7} {total_wall * 1e3:>10.3f} "
                 f"{total_self * 1e3:>10.3f}")
    return "\n".join(lines)


def profile_document(tracer: Optional[Tracer] = None,
                     metrics: Optional[Metrics] = None) -> Dict[str, Any]:
    """The machine-readable profile: phases, metrics, span accounting."""
    tracer = tracer or get_tracer()
    metrics = metrics or get_metrics()
    doc: Dict[str, Any] = {
        "phases": aggregate_phases(tracer),
        "metrics": metrics.snapshot(),
    }
    if tracer is not None:
        doc["spans"] = {
            "completed": tracer.completed,
            "buffered": len(tracer.spans()),
            "dropped": tracer.dropped,
            "ring_size": tracer.ring_size,
        }
    else:
        doc["spans"] = {"completed": 0, "buffered": 0, "dropped": 0,
                        "ring_size": 0}
    return doc


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a ``--trace-json`` JSON-lines file back into span records."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
