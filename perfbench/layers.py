"""Per-layer metrics of a traced run: every workload reports all of them.

Times are seconds of self time per operation, counts are per operation,
rates are over the whole run.  A layer a workload never passes through
reads 0 there: ``prove-cold`` uses no store, pool or service, and
``edit-recheck`` no pool or service.  In ``serve-check`` the pool
workers run untraced, so the layers inside them come from the
service's own counters instead (see :mod:`serve_check`).
"""

from __future__ import annotations

#: (name, unit, better) — the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = (
    ("smv.parse_s", "s", "lower"),
    ("smv.elaborate_s", "s", "lower"),
    ("smv.compile_s", "s", "lower"),
    ("smv.transition_nodes", "count", "lower"),
    ("checking.holds_s", "s", "lower"),
    ("checking.fixpoint_iterations", "count", "lower"),
    ("bdd.and_exists_s", "s", "lower"),
    ("bdd.and_exists_calls", "count", "lower"),
    ("bdd.nodes_allocated", "count", "lower"),
    ("bdd.cache_hit_rate", "ratio", "higher"),
    ("compositional.obligations", "count", "lower"),
    ("compositional.deduction_s", "s", "lower"),
    ("systems.describe_s", "s", "lower"),
    ("store.fingerprint_s", "s", "lower"),
    ("store.read_s", "s", "lower"),
    ("store.write_s", "s", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("parallel.items", "count", "lower"),
    ("parallel.worker_s", "s", "lower"),
    ("parallel.dispatch_overhead_s", "s", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.check_s", "s", "lower"),
    ("serve.serialize_s", "s", "lower"),
    ("serve.client_wait_s", "s", "lower"),
    ("unaccounted_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Span layer → metric, for layers timed by wrappers.
SELF_TIME = {
    "smv.parse": "smv.parse_s",
    "smv.elaborate": "smv.elaborate_s",
    "smv.compile": "smv.compile_s",
    "checking.holds": "checking.holds_s",
    "bdd.and_exists": "bdd.and_exists_s",
    "compositional.deduction": "compositional.deduction_s",
    "systems.describe": "systems.describe_s",
    "store.fingerprint": "store.fingerprint_s",
    "store.read": "store.read_s",
    "store.write": "store.write_s",
}

#: Recorder counter → metric, summed per operation.
COUNTS = {
    "smv.transition_nodes": "smv.transition_nodes",
    "checking.fixpoint_iterations": "checking.fixpoint_iterations",
    "bdd.nodes_allocated": "bdd.nodes_allocated",
    "compositional.obligations": "compositional.obligations",
}


def merge(summaries: list[dict]) -> dict:
    """Add up recorder summaries (see ``tracing.Recorder.summary``)."""
    total: dict = {"self_s": {}, "calls": {}, "counts": {}, "covered_s": 0.0}
    for summary in summaries:
        for key in ("self_s", "calls", "counts"):
            for name, value in summary[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["covered_s"] += summary["covered_s"]
    return total


def overhead_pct(traced: tuple[int, float], untraced: tuple[int, float]) -> float:
    """Tracing overhead: untraced ops/s over traced ops/s, minus one.

    Each argument is ``(operations, seconds)`` of the rounds run that way.
    """
    traced_rate = traced[0] / traced[1]
    untraced_rate = untraced[0] / untraced[1]
    return (untraced_rate / traced_rate - 1.0) * 100.0


def from_recorder(total: dict, ops: int, op_seconds: float) -> dict:
    """Per-operation metrics from merged in-process recorder totals.

    ``op_seconds`` is the summed wall time of those operations; the part
    no outermost span covers is ``unaccounted_s``.
    """
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer, name in SELF_TIME.items():
        metrics[name] = total["self_s"].get(layer, 0.0) / ops
    for counter, name in COUNTS.items():
        metrics[name] = total["counts"].get(counter, 0) / ops
    metrics["bdd.and_exists_calls"] = total["calls"].get("bdd.and_exists", 0) / ops
    lookups = total["counts"].get("bdd.cache_lookups", 0)
    if lookups:
        metrics["bdd.cache_hit_rate"] = total["counts"]["bdd.cache_hits"] / lookups
    metrics["unaccounted_s"] = (op_seconds - total["covered_s"]) / ops
    return metrics


def render(metrics: dict) -> dict:
    """The ``metrics`` object of the result line."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}
