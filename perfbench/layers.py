"""Which public functions the traced runs wrap, and the per-layer metrics.

Every wrapper goes around a public function or method of one layer of
``repro``, patched where its callers look it up.  Spans stay in the
:class:`~perfbench.tracing.Tracer`; :func:`layer_metrics` reduces them
to the per-layer metrics listed in ``BENCHMARK.json``.

Importing this module imports nothing from ``repro``; the ``install_*``
functions do.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .stats import median, percentile, tail_percentile
from .tracing import LayerTotals, Span, Tracer

#: The query kinds the service workload sends (``ServiceCore`` ops).
QUERY_KINDS = ("counts", "fractions", "equilibrium", "majority", "convergence")

#: Per-layer metrics in report order: name -> (unit, better).
PER_LAYER: Dict[str, tuple] = {
    "import_s": ("s", "lower"),
    "protocol.resolve_s": ("s", "lower"),
    "check.verify_s": ("s", "lower"),
    "planner.plan_calls": ("count", "lower"),
    "planner.plan_s": ("s", "lower"),
    "pools.apply_deltas_s": ("s", "lower"),
    "batch_engine.steps": ("count", "lower"),
    "batch_engine.step_s": ("s", "lower"),
    "batch_engine.step_self_s": ("s", "lower"),
    "batch_engine.step_share": ("ratio", "lower"),
    "recorder.record_s": ("s", "lower"),
    "exec.units": ("count", "lower"),
    "exec.plan_wall_s": ("s", "lower"),
    "exec.first_result_s": ("s", "lower"),
    "exec.unit_busy_s": ("s", "lower"),
    "exec.parallel_efficiency": ("ratio", "higher"),
    "campaign.points": ("count", "higher"),
    "campaign.tensor_bytes": ("bytes", "lower"),
    "campaign.replay_s": ("s", "lower"),
    **{f"core.query_ms.{kind}": ("ms", "lower") for kind in QUERY_KINDS},
    "core.apply_event_ms": ("ms", "lower"),
    "core.tick_ms": ("ms", "lower"),
    "core.ticks": ("count", "higher"),
    "eventlog.appends": ("count", "higher"),
    "eventlog.append_ms": ("ms", "lower"),
    "snapshot.writes": ("count", "higher"),
    "snapshot.ms": ("ms", "lower"),
    "snapshot.bytes": ("bytes", "lower"),
    "loop.lag_p99_ms": ("ms", "lower"),
    "service.period_ratio": ("ratio", "higher"),
    "whatif.run_ms": ("ms", "lower"),
    "whatif.wait_ms": ("ms", "lower"),
    "gen.late_max_ms": ("ms", "lower"),
    "trace.window_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def install_batch_layers(tracer: Tracer) -> None:
    """Protocol, planner, member pools, batch engine, recorder."""
    from repro.experiment.experiment import Experiment
    from repro.experiment.protocol import Protocol
    from repro.runtime.batch_engine import BatchMetricsRecorder, BatchRoundEngine
    from repro.runtime.planner import ActionPlanner, TrialMemberPools

    tracer.install(Protocol, "resolve", "protocol.resolve")
    tracer.install(Protocol, "verify", "check.verify")
    tracer.install(Experiment, "run", "experiment.run")
    tracer.install(ActionPlanner, "plan", "planner.plan")
    tracer.install(TrialMemberPools, "apply_deltas", "pools.apply_deltas")
    tracer.install(BatchRoundEngine, "step", "batch_engine.step")
    tracer.install(BatchMetricsRecorder, "record", "recorder.record")


def install_campaign_layers(tracer: Tracer) -> None:
    """``run_plan`` as the campaign runner calls it, unit landings
    included, and ``verify_replay``."""
    import repro.campaign as campaign
    import repro.campaign.runner as runner

    tracer.install(campaign, "verify_replay", "campaign.replay")

    original = runner.run_plan

    def run_plan(plan, *args, on_unit=None, **kwargs):
        def landed(index, output):
            now = tracer.clock()
            tracer.record("exec.unit", now, now, index=index)
            if on_unit is not None:
                on_unit(index, output)

        with tracer.span("exec.run_plan"):
            return original(plan, *args, on_unit=landed, **kwargs)

    tracer.patch(runner, "run_plan", run_plan)


def install_service_layers(tracer: Tracer) -> None:
    """Service core calls, event-log appends and snapshots."""
    from repro.service.core import ServiceCore
    from repro.store.eventlog import EventLog

    def snapshot_bytes(span: Span, args, kwargs, result) -> None:
        if result is not None:
            span.attrs["bytes"] = Path(result).stat().st_size

    tracer.install(
        ServiceCore, "query", "core.query",
        namer=lambda self, op, *rest, **kw: f"core.query.{op}",
    )
    tracer.install(ServiceCore, "apply_event", "core.apply_event")
    tracer.install(ServiceCore, "tick", "core.tick")
    tracer.install(
        ServiceCore, "snapshot_now", "snapshot.write",
        annotate=snapshot_bytes,
    )
    tracer.install(EventLog, "append", "eventlog.append")


# ----------------------------------------------------------------------
# Reducing spans to metrics
# ----------------------------------------------------------------------
def _median_ms(values: Sequence[float]) -> float:
    return median(values) * 1e3 if values else 0.0


def layer_metrics(
    spans: List[Span],
    *,
    workers: int = 1,
    unit_busy_s: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics derivable from spans alone (zero when untouched).

    Times ending in ``_s`` are totals over the traced phase; times
    ending in ``_ms`` are medians per call.
    """
    layers = LayerTotals.of(spans)
    calls, total = layers.calls, layers.total
    out: Dict[str, float] = {
        "protocol.resolve_s": total.get("protocol.resolve", 0.0),
        "check.verify_s": total.get("check.verify", 0.0),
        "planner.plan_calls": calls.get("planner.plan", 0),
        "planner.plan_s": total.get("planner.plan", 0.0),
        "pools.apply_deltas_s": total.get("pools.apply_deltas", 0.0),
        "batch_engine.steps": calls.get("batch_engine.step", 0),
        "batch_engine.step_s": total.get("batch_engine.step", 0.0),
        "batch_engine.step_self_s": layers.self_total.get(
            "batch_engine.step", 0.0
        ),
        "recorder.record_s": total.get("recorder.record", 0.0),
        "batch_engine.step_share": _share_of_roots(spans, "batch_engine.step"),
        "campaign.replay_s": total.get("campaign.replay", 0.0),
    }

    plans = [s for s in spans if s.name == "exec.run_plan"]
    landings = sorted(
        (s for s in spans if s.name == "exec.unit"), key=lambda s: s.start
    )
    first_result = 0.0
    for plan in plans:
        inside = [s.start for s in landings if plan.start <= s.start <= plan.end]
        if inside:
            first_result += min(inside) - plan.start
    plan_wall = sum(s.duration for s in plans)
    out.update({
        "exec.units": len(landings),
        "exec.plan_wall_s": plan_wall,
        "exec.first_result_s": first_result,
        "exec.unit_busy_s": unit_busy_s,
        "exec.parallel_efficiency": (
            unit_busy_s / (plan_wall * workers) if plan_wall else 0.0
        ),
    })

    durations = layers.durations
    for kind in QUERY_KINDS:
        out[f"core.query_ms.{kind}"] = _median_ms(
            durations.get(f"core.query.{kind}", ())
        )
    snapshots = [s for s in spans if s.name == "snapshot.write"]
    out.update({
        "core.apply_event_ms": _median_ms(durations.get("core.apply_event", ())),
        "core.tick_ms": _median_ms(durations.get("core.tick", ())),
        "core.ticks": calls.get("core.tick", 0),
        "eventlog.appends": calls.get("eventlog.append", 0),
        "eventlog.append_ms": _median_ms(durations.get("eventlog.append", ())),
        "snapshot.writes": len(snapshots),
        "snapshot.ms": _median_ms([s.duration for s in snapshots]),
        "snapshot.bytes": (
            median([s.attrs.get("bytes", 0) for s in snapshots])
            if snapshots else 0
        ),
    })
    return out


def _share_of_roots(spans: List[Span], name: str) -> float:
    """Time in ``name`` spans over the wall time of the root calls
    (no parent) that led to them."""
    by_id = {span.id: span for span in spans}
    roots = {}
    inside = 0.0
    for span in spans:
        if span.name != name:
            continue
        inside += span.duration
        root = span
        while root.parent is not None and root.parent in by_id:
            root = by_id[root.parent]
        roots[root.id] = root
    outer = sum(root.duration for root in roots.values())
    return inside / outer if outer else 0.0


def lag_tail_ms(lags_s: Sequence[float]) -> Dict[str, Any]:
    """The loop-lag tail by the percentile rule (p99 at >= 1000 probes)."""
    p = tail_percentile(len(lags_s))
    if p is None:
        return {"value": max(lags_s) * 1e3 if lags_s else 0.0,
                "label": "max", "n": len(lags_s)}
    return {"value": percentile(lags_s, p) * 1e3, "label": f"p{p:g}",
            "n": len(lags_s)}


def whatif_wait_ms(
    client_latencies_ms: Sequence[float], run_spans: Sequence[Span]
) -> Optional[float]:
    """Median of (client latency - server run time), matched in order.

    What-ifs travel one connection and the server answers them in
    order, so the k-th reply belongs to the k-th ``Experiment.run``.
    """
    runs = sorted(run_spans, key=lambda s: s.start)
    pairs = list(zip(client_latencies_ms, runs))
    if not pairs:
        return None
    return median([lat - run.duration * 1e3 for lat, run in pairs])
