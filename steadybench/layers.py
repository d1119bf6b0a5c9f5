"""Per-layer metrics of one traced pass.

Layers are named after the program's modules.  Every metric is
reported for every workload so the result line always has the same
keys; a layer the workload does not exercise reads 0 (the map of
which workload exercises which layer is in ``README.md``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from tracing import ATTRS, CPU, END, PID, START, Trace


def tail_percentile(
    samples: Sequence[float], beyond: int = 10
) -> Tuple[float, float, int]:
    """The highest percentile with at least *beyond* samples above it.

    Returns ``(value, percentile, sample_count)``.  The value at
    sorted index ``i`` has ``n - 1 - i`` samples beyond it, so the
    answer is index ``n - 1 - beyond``, reported as the percentile
    ``100 * (i + 1) / n``.  With too few samples for any such
    percentile, the minimum (percentile 0) is returned.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 1 - beyond
    if index < 0:
        return ordered[0], 0.0, n
    return ordered[index], 100.0 * (index + 1) / n, n


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(trace: Trace, extras: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric derivable from *trace*.

    *extras* carries what the workload measured itself (service queue
    and HTTP figures, coalescing and refusal counts).
    """
    metrics: Dict[str, float] = {}

    def calls_and_total(name: str) -> None:
        metrics[f"{name}.calls"] = trace.calls(name)
        metrics[f"{name}.total_s"] = trace.total(name)

    # core.generator
    metrics["core.generator.generate.self_s"] = trace.self_total(
        "core.generator.generate")
    calls_and_total("core.generator.probe")
    calls_and_total("core.generator.commit")
    metrics["core.generator.probe_useful_ratio"] = _ratio(
        metrics["core.generator.commit.calls"],
        metrics["core.generator.probe.calls"])
    # core.pruner
    metrics["core.pruner.prune.total_s"] = trace.total("core.pruner.prune")
    calls_and_total("core.pruner.accepts")
    metrics["core.pruner.accept_ratio"] = _ratio(
        trace.attr_sum("core.pruner.accepts", "accepted"),
        metrics["core.pruner.accepts.calls"])
    # sim.coverage
    calls_and_total("sim.coverage.evaluate")
    metrics["sim.coverage.qualify_outcomes.calls"] = trace.calls(
        "sim.coverage.qualify_outcomes")
    metrics["sim.coverage.qualify_outcomes.self_s"] = trace.self_total(
        "sim.coverage.qualify_outcomes")
    metrics["sim.coverage.contexts"] = int(trace.attr_sum(
        "sim.coverage.qualify_outcomes", "contexts"))
    # kernels
    calls_and_total("sim.engine.run_element")
    calls_and_total("sim.bitpar.advance_all")
    metrics["sim.bitpar.lanes_per_pack"] = _ratio(
        trace.counts["sim.bitpar.lanes"], trace.counts["sim.bitpar.packs"])
    for kernel in ("dense", "sparse", "bitpar"):
        name = f"sim.backends.resolved.{kernel}"
        metrics[name] = trace.counts[name]
    # store
    calls_and_total("store.get")
    calls_and_total("store.get_many")
    metrics["store.hit_ratio"] = _ratio(
        trace.attr_sum("store.get", "hits")
        + trace.attr_sum("store.get_many", "hits"),
        trace.attr_sum("store.get", "lookups")
        + trace.attr_sum("store.get_many", "lookups"))
    calls_and_total("store.put")
    # sim.campaign / sim.supervisor
    metrics["sim.campaign.run.self_s"] = trace.self_total(
        "sim.campaign.run")
    runs = trace.named("sim.supervisor.run")
    metrics["sim.supervisor.run.total_s"] = trace.total(
        "sim.supervisor.run")
    metrics["sim.supervisor.tasks"] = int(
        trace.attr_sum("sim.supervisor.run", "tasks"))
    metrics["sim.supervisor.failure_events"] = int(
        trace.attr_sum("sim.supervisor.run", "events"))
    worker_cpu = sum(
        span[CPU] for span in trace.named("sim.coverage.qualify_outcomes")
        if span[PID] != trace.main_pid)
    capacity = sum(
        (span[ATTRS] or {}).get("workers", 0) * (span[END] - span[START])
        for span in runs)
    metrics["sim.supervisor.worker_busy_ratio"] = _ratio(
        worker_cpu, capacity)
    # diagnosis / analysis.bist / sim.bist
    metrics["diagnosis.dictionary.build.total_s"] = trace.total(
        "diagnosis.dictionary.build")
    metrics["diagnosis.fleet.diagnose.total_s"] = trace.total(
        "diagnosis.fleet.diagnose")
    metrics["analysis.bist.compile.total_s"] = trace.total(
        "analysis.bist.compile")
    metrics["sim.bist.verify.total_s"] = trace.total("sim.bist.verify")
    # service
    metrics["service.submit_s"] = trace.total("service.client.submit")
    metrics["service.run_s"] = trace.total("service.run")
    for name in ("service.queue_wait_s", "service.http_overhead_s",
                 "service.coalesced", "service.refused"):
        metrics[name] = extras.get(name, 0)
    return metrics


def unattributed(trace: Trace, records: Sequence) -> float:
    """Operation seconds that no root span of the operation's thread
    covers."""
    return sum(
        record.latency - trace.roots_within(
            record.pid, record.thread, record.start, record.end)
        for record in records)
