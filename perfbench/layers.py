"""From the traced pass's spans to the per-layer metrics and checks.

Per-op figures are medians over the stream's write ops (reads for
``service.read_exec_ms``); set-up, publish and recovery figures are per
set-up, publish and recovery.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

from typing import Any

from measure import Pass, median, percentile
from tracing import SpanIndex, rung_table

# (name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("datasets.build_s", "s"),
    ("gepc.solve_s", "s"),
    ("gepc.fill_s", "s"),
    ("gepc.grab_s", "s"),
    ("iep.apply_ms", "ms"),
    ("iep.rebind_ms", "ms"),
    ("iep.repair_ms", "ms"),
    ("iep.other_ms", "ms"),
    ("metrics.total_utility_ms", "ms"),
    ("tiles.hit_ratio", "ratio"),
    ("tiles.peak_backend_mib", "MiB"),
    ("platform.submit_ms", "ms"),
    ("platform.self_ms", "ms"),
    ("durable.wal_append_ms", "ms"),
    ("durable.wal_bytes_per_op", "B"),
    ("durable.snapshot_ms", "ms"),
    ("durable.snapshot_mib", "MiB"),
    ("durable.snapshots", "count"),
    ("durable.recover_load_s", "s"),
    ("durable.recover_replay_s", "s"),
    ("durable.recover_audit_s", "s"),
    ("durable.recover_replayed_ops", "count"),
    ("batched.flush_ms", "ms"),
    ("batched.check_plan_ms", "ms"),
    ("batched.fold_ratio", "ratio"),
    ("service.rtt_ms", "ms"),
    ("service.server_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.inbox_wait_ms", "ms"),
    ("service.write_apply_ms", "ms"),
    ("service.read_exec_ms", "ms"),
    ("service.queue_depth_max", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.offered_ops_s", "1/s"),
    ("loadgen.achieved_ops_s", "1/s"),
    ("trace.overhead_pct", "%"),
)

# The rungs of each workload, outermost first, with the share of a
# rung's time its own glue code (the spans' self time) may take before
# the layer sum check fails.  The service's top rung is the exception:
# its remainder is the wire (client + HTTP/WS + framing), a layer of
# its own, so its bound only catches a server that stopped reporting.
# ``platform.submit`` gets 10%: at 10^5 users its self time includes
# freeing the replaced copy-on-write plan.
RUNGS = {
    "vancouver-durable": [
        ("client.op", 0.05),
        ("durable.submit", 0.05),
        ("platform.submit", 0.10),
        ("iep.apply", 0.05),
    ],
    "scale-100k": [
        ("client.op", 0.05),
        ("platform.submit", 0.10),
        ("iep.apply", 0.05),
    ],
    "service-mix": [
        ("client.rtt", 0.30),
        ("service.dispatch", 0.25),
        ("service.run_write", 0.25),
        ("service.write_apply", 0.10),
        ("batched.flush", 0.10),
        ("durable.submit", 0.05),
        ("platform.submit", 0.10),
        ("iep.apply", 0.05),
    ],
}
RUNGS["service-closed"] = RUNGS["service-mix"]


def _med(values: list[float]) -> float:
    return median(values) if values else 0.0


def analyse(workload: str, base: Pass, traced: Pass, spans: list[list],
            writes: list[Any], reads: list[Any]) -> dict:
    """Per-layer metrics, rung table and tail split of one traced pass."""
    index = SpanIndex(spans)
    total = index.total

    def per_write(name: str) -> float:
        return _med([total(op, name) * 1e3 for op in writes])

    def ops_named(prefix: str) -> list[Any]:
        return [op for op in index.by_op
                if isinstance(op, str) and op.startswith(prefix)]

    setup_ops, publish_ops = ops_named("setup") + ops_named("create"), \
        ops_named("publish")
    recover_ops = ops_named("recover")
    solve = sum(total(op, "gepc.solve") for op in publish_ops)
    fill = sum(total(op, "gepc.fill") for op in publish_ops)
    stream_snapshots = [
        span for op in writes for span in index.named("durable.snapshot", op)
    ]
    flushes = [span for op in writes for span in index.named("batched.flush", op)]
    submitted = sum(span[6].get("submitted", 0) for span in flushes)
    depths = [span[6]["queue_depth"] for span in index.named("service.run_write")]
    rtts = {span[2]: span[4] - span[3] for span in index.named("client.rtt")}
    layer = traced.layer
    appends = layer.get("wal_appends", 0)
    metrics = {
        "datasets.build_s": sum(total(op, "datasets.build") for op in setup_ops),
        "gepc.solve_s": solve,
        "gepc.fill_s": fill,
        "gepc.grab_s": solve - fill,
        "iep.apply_ms": per_write("iep.apply"),
        "iep.rebind_ms": per_write("iep.rebind"),
        "iep.repair_ms": per_write("iep.repair"),
        "iep.other_ms": _med([
            (total(op, "iep.apply") - total(op, "iep.rebind")
             - total(op, "iep.repair")) * 1e3
            for op in writes
        ]),
        "metrics.total_utility_ms": per_write("metrics.total_utility"),
        "tiles.hit_ratio": layer.get("tiles.hit_ratio", 0.0),
        "tiles.peak_backend_mib": layer.get("tiles.peak_backend_mib", 0.0),
        "platform.submit_ms": per_write("platform.submit"),
        "platform.self_ms": _med([
            (total(op, "platform.submit") - total(op, "iep.apply")) * 1e3
            for op in writes
        ]),
        "durable.wal_append_ms": per_write("durable.wal_append"),
        "durable.wal_bytes_per_op": (
            layer.get("wal_bytes", 0) / appends if appends else 0.0
        ),
        "durable.snapshot_ms": _med(
            [(s[4] - s[3]) * 1e3 for s in stream_snapshots]
        ),
        "durable.snapshot_mib": _med(
            [s[6].get("bytes", 0) / 2**20 for s in stream_snapshots]
        ),
        "durable.snapshots": float(len(stream_snapshots)),
        "durable.recover_load_s": _med(
            [total(op, "durable.recover_load") for op in recover_ops]
        ),
        "durable.recover_replay_s": _med(
            [total(op, "iep.apply") for op in recover_ops]
        ),
        "durable.recover_audit_s": _med([
            total(op, "durable.recover_audit") + total(op, "platform.audit")
            for op in recover_ops
        ]),
        "durable.recover_replayed_ops": _med(
            [len(index.named("iep.apply", op)) for op in recover_ops]
        ),
        "batched.flush_ms": per_write("batched.flush"),
        "batched.check_plan_ms": per_write("batched.check_plan"),
        "batched.fold_ratio": (
            sum(span[6].get("folded", 0) for span in flushes) / submitted
            if submitted else 0.0
        ),
        "service.rtt_ms": _med([rtts[op] * 1e3 for op in writes if op in rtts]),
        "service.server_ms": per_write("service.dispatch"),
        "service.wire_ms": _med([
            (rtts[op] - total(op, "service.dispatch")) * 1e3
            for op in writes if op in rtts
        ]),
        "service.inbox_wait_ms": per_write("service.inbox_wait"),
        "service.write_apply_ms": per_write("service.write_apply"),
        "service.read_exec_ms": _med(
            [total(op, "service.read_exec") * 1e3 for op in reads]
        ),
        "service.queue_depth_max": float(max(depths, default=0)),
        "loadgen.late_p99_ms": layer.get("loadgen.late_p99_ms", 0.0),
        "loadgen.offered_ops_s": layer.get("loadgen.offered_ops_s", 0.0),
        "loadgen.achieved_ops_s": layer.get("loadgen.achieved_ops_s", 0.0),
        "trace.overhead_pct": (
            percentile(traced.write_s, 0.5) / percentile(base.write_s, 0.5) - 1
        ) * 100,
    }
    return {
        "metrics": metrics,
        "rungs": rung_table(index, writes, RUNGS[workload]),
        "median_op": _self_split(index, writes),
        "tail": _tail_split(index, writes, traced.write_s),
    }


def _self_ms(index: SpanIndex, op: Any) -> dict[str, float]:
    split: dict[str, float] = {}
    for span in index.by_op.get(op, []):
        split[span[1]] = split.get(span[1], 0.0) + index.self_time(span) * 1e3
    return split


def _self_split(index: SpanIndex, writes: list[Any]) -> dict[str, float]:
    """Median self time per span name over the write ops, in ms."""
    splits = [_self_ms(index, op) for op in writes]
    names = {name for split in splits for name in split}
    return {
        name: _med([split.get(name, 0.0) for split in splits])
        for name in sorted(names)
    }


def _tail_split(index: SpanIndex, writes: list[Any],
                latencies: list[float]) -> dict:
    """Mean self time per span name over the ops at or above p99."""
    threshold = percentile(latencies, 0.99)
    tail = [op for op, latency in zip(writes, latencies) if latency >= threshold]
    splits = [_self_ms(index, op) for op in tail]
    names = {name for split in splits for name in split}
    return {
        "p99_ms": threshold * 1e3,
        "ops": len(tail),
        "self_ms": {
            name: sum(split.get(name, 0.0) for split in splits) / len(tail)
            for name in sorted(names)
        },
    }
