"""The two in-process workloads: ``vancouver-durable`` and ``scale-100k``.

Both publish with the greedy GEPC solver, then submit a generated op
stream one op at a time from one caller (closed loop), timing each
``submit`` as the caller sees it.  After every write the caller times a
few ``plan_for``/``attendees_of`` calls, so the read path is measured
too.  How many is a sampling constant, not a measured read:write mix.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

from measure import Pass, peak_rss_mib
from opgen import OpGenerator
from tracing import Tracer

# Reads timed after each write (alternating user plans and attendee
# lists).  A sampling constant, not traffic: no source gives a read to
# write ratio for this platform.  Reads take microseconds, so eight
# sample the read percentiles well without moving the write timings.
READS_PER_WRITE = 8


def _span(tracer: Tracer | None, name: str) -> Any:
    return tracer.span(name) if tracer is not None else nullcontext()


def _op(tracer: Tracer | None, op_id: Any) -> Any:
    return tracer.op(op_id) if tracer is not None else nullcontext()


def _reads(instance: Any, seed: int, count: int) -> list[tuple[str, int]]:
    rng = random.Random(f"reads-{seed}")
    return [
        ("plan", rng.randrange(instance.n_users))
        if i % 2 == 0
        else ("attendees", rng.randrange(instance.n_events))
        for i in range(count)
    ]


def _setup(
    result: Pass,
    tracer: Tracer | None,
    build: Callable[[], Any],
    start: Callable[[Any], Any],
) -> Any:
    """Build, start and publish one platform, timing set-up and publish.

    The host's speed drifts over tens of seconds, so workloads spread
    their set-ups over the run instead of bunching them at the start.
    """
    gc.collect()
    with _op(tracer, "setup"):
        begin = time.perf_counter()
        with _span(tracer, "datasets.build"):
            instance = build()
        platform = start(instance)
        result.setup_s.append(time.perf_counter() - begin)
    with _op(tracer, "publish"):
        begin = time.perf_counter()
        utility = platform.publish_plans()
        result.publish_s.append(time.perf_counter() - begin)
    result.publish_utilities.append(utility)
    return platform


def _stream(
    result: Pass,
    tracer: Tracer | None,
    platform: Any,
    operations: list,
    reads: list[tuple[str, int]],
    first: int = 0,
) -> None:
    """Closed loop: one write, then its reads, then the next write.

    ``operations`` start at op ``first`` of the stream; a stream played
    in parts adds up its time in ``result.stream_s``.
    """
    from repro.platform.durable import REJECTION_ERRORS

    gc.collect()
    begin = time.perf_counter()
    for index, operation in enumerate(operations, start=first):
        with _op(tracer, index):
            sent = time.perf_counter()
            try:
                with _span(tracer, "client.op"):
                    platform.submit(operation)
            except REJECTION_ERRORS:
                result.failed += 1
            else:
                result.acked += 1
            result.write_s.append(time.perf_counter() - sent)
        mine = reads[index * READS_PER_WRITE:(index + 1) * READS_PER_WRITE]
        for kind, target in mine:
            sent = time.perf_counter()
            if kind == "plan":
                platform.plan_for(target)
            else:
                platform.attendees_of(target)
            result.read_s.append(time.perf_counter() - sent)
        result.attempted += 1 + len(mine)
    result.stream_s += time.perf_counter() - begin


def _final_state(result: Pass, platform: Any) -> Any:
    """Check the plan, record utility and dif; returns the plan summary."""
    from repro.core.plan import PlanSummary

    audit = platform.audit()  # runs check_plan
    result.utility = audit["utility"]
    result.dif = audit["total_dif"]
    result.check("check_plan reports 0 violations", audit["violations"] == 0)
    return PlanSummary.of(platform.plan)


def run_vancouver_durable(
    state: Path, seed: int, n_ops: int, repeats: int, recoveries: int,
    tracer: Tracer | None = None,
) -> Pass:
    """Vancouver x1.0 into a DurablePlatform (fsync on, snapshot every 32).

    The stream pauses ``repeats - 1`` times; each pause times one
    recovery from a copy of the live directory and one more set-up and
    publish.  The other recoveries follow the stream.
    """
    from repro.core.gepc import GreedySolver
    from repro.datasets import make_city
    from repro.datasets.io import instance_to_documents
    from repro.platform import DurablePlatform

    result = Pass()
    directory = state / "vancouver"
    spare = state / "vancouver-spare"

    def build() -> Any:
        return make_city("vancouver", scale=1.0)

    def start(target: Path) -> Callable[[Any], Any]:
        def make(instance: Any) -> Any:
            shutil.rmtree(target, ignore_errors=True)
            return DurablePlatform(instance, target, solver=GreedySolver(seed=0))

        return make

    platform = _setup(result, tracer, build, start(directory))
    operations = OpGenerator(platform.instance, seed).stream(n_ops)
    reads = _reads(platform.instance, seed, n_ops * READS_PER_WRITE)
    # Pauses fall 16 ops past a snapshot, as the end of the stream does,
    # so every recovery replays the same 16-op WAL suffix.
    pauses = repeats - 1
    cuts = sorted({
        32 * (n_ops // 32 * k // (pauses + 1)) + 16
        for k in range(1, pauses + 1)
    })
    attempts = iter(range(recoveries))
    for lo, hi in zip([0, *cuts], [*cuts, n_ops]):
        if lo:
            copy = state / "vancouver-copy"
            shutil.copytree(directory, copy)
            _recover(result, tracer, copy, _live(result, platform),
                     next(attempts))
            shutil.rmtree(copy)
            _setup(result, tracer, build, start(spare)).close()
            shutil.rmtree(spare)
        _stream(result, tracer, platform, operations[lo:hi], reads, first=lo)
    plans = _final_state(result, platform)
    live = (result.utility, plans, instance_to_documents(platform.instance))
    platform.close()
    result.layer["wal_bytes"] = (directory / "wal.jsonl").stat().st_size
    result.layer["wal_appends"] = len(operations)
    for attempt in attempts:
        _recover(result, tracer, directory, live, attempt)
    result.peak_rss_mib = peak_rss_mib()
    shutil.rmtree(directory, ignore_errors=True)
    return result


def _live(result: Pass, platform: Any) -> tuple:
    """Utility, per-user plans and instance documents, checked first."""
    from repro.core.plan import PlanSummary
    from repro.datasets.io import instance_to_documents

    audit = platform.audit()  # runs check_plan
    result.check("check_plan reports 0 violations", audit["violations"] == 0)
    return (
        audit["utility"],
        PlanSummary.of(platform.plan),
        instance_to_documents(platform.instance),
    )


def _recover(result: Pass, tracer: Tracer | None, directory: Path,
             live: tuple, attempt: int) -> None:
    """Time one ``DurablePlatform.recover``; check it against ``live``."""
    from repro.core.gepc import GreedySolver
    from repro.core.plan import PlanSummary
    from repro.datasets.io import instance_to_documents
    from repro.platform import DurablePlatform

    utility, plans, instance = live
    gc.collect()
    with _op(tracer, f"recover-{attempt}"):
        begin = time.perf_counter()
        with _span(tracer, "durable.recover"):
            recovered, report = DurablePlatform.recover(
                directory, solver=GreedySolver(seed=0), strict=True
            )
        result.recover_s.append(time.perf_counter() - begin)
    result.check(
        "recovered utility equals the live utility", report.utility == utility
    )
    result.check(
        "recovered per-user plans equal the live plans",
        PlanSummary.of(recovered.plan) == plans,
    )
    result.check(
        "recovered instance equals the live instance",
        instance_to_documents(recovered.instance) == instance,
    )
    recovered.close()


def run_scale_100k(
    state: Path, seed: int, n_ops: int, repeats: int, recoveries: int,
    tracer: Tracer | None = None,
) -> Pass:
    """10^5 users x 256 events on the tiled backend, through submit."""
    # Read by TiledDistanceMatrix when the instance builds its distance
    # cache: the 32 MiB LRU the old scale preset ran with.
    os.environ["REPRO_TILE_CACHE_MIB"] = "32"
    from repro.core.fsio import atomic_write_text
    from repro.core.gepc import GreedySolver
    from repro.core.plan import PlanSummary
    from repro.core.tiles import use_distance_backend
    from repro.datasets import ScaleConfig, generate_scale_instance
    from repro.platform import EBSNPlatform
    from repro.platform.snapshot import plan_from_document, plan_to_document

    config = ScaleConfig(n_users=100_000, n_events=256, seed=0)
    result = Pass()

    def build() -> Any:
        return generate_scale_instance(config)

    def start(instance: Any) -> Any:
        return EBSNPlatform(instance, solver=GreedySolver(seed=0))

    with use_distance_backend("tiled"):
        platform = _setup(result, tracer, build, start)
        operations = OpGenerator(platform.instance, seed).stream(n_ops)
        reads = _reads(platform.instance, seed, n_ops * READS_PER_WRITE)
        _stream(result, tracer, platform, operations, reads)
        live = _final_state(result, platform)
        stats = platform.instance.distances.tile_stats()
        lookups = stats["hits"] + stats["misses"]
        result.layer["tiles.hit_ratio"] = (
            stats["hits"] / lookups if lookups else 0.0
        )
        result.layer["tiles.peak_backend_mib"] = stats["peak_backend_mib"]

        # No WAL here.  A restart rebuilds the state from what a caller
        # of EBSNPlatform keeps: the instance's generator config, the
        # ops it submitted, and a plan checkpoint on disk (the plan half
        # of a DurablePlatform snapshot; the instance half would be a
        # 25.6M-entry utility matrix).
        checkpoint = state / "scale-plan.json"
        atomic_write_text(checkpoint, json.dumps(plan_to_document(platform.plan)))
        for attempt in range(recoveries):
            gc.collect()
            with _op(tracer, f"recover-{attempt}"):
                begin = time.perf_counter()
                with _span(tracer, "durable.recover"):
                    instance = generate_scale_instance(config)
                    for operation in operations:
                        instance = operation.apply_to_instance(instance)
                    plan = plan_from_document(
                        instance, json.loads(checkpoint.read_text())
                    )
                    fresh = EBSNPlatform(instance, solver=GreedySolver(seed=0))
                    fresh.install_plan(plan)
                    audit = fresh.audit()
                result.recover_s.append(time.perf_counter() - begin)
            result.check(
                "restarted instance equals the live instance",
                _same_instance(instance, platform.instance),
            )
            result.check(
                "restarted utility equals the live utility",
                audit["utility"] == result.utility,
            )
            result.check(
                "restarted per-user plans equal the live plans",
                PlanSummary.of(fresh.plan) == live,
            )
            result.check(
                "check_plan reports 0 violations", audit["violations"] == 0
            )
            del fresh, plan, instance
        checkpoint.unlink()
        # The other set-ups come last, one platform at a time: two live
        # 10^5-user platforms would double the peak memory.
        del platform
        for _ in range(repeats - 1):
            _setup(result, tracer, build, start)
    result.peak_rss_mib = peak_rss_mib()
    return result


def _same_instance(a: Any, b: Any) -> bool:
    """Users, events, fees and the utility matrix all equal."""
    import numpy as np

    fees_a, fees_b = a.cost_model.fees, b.cost_model.fees
    return (
        list(a.users) == list(b.users)
        and list(a.events) == list(b.events)
        and np.array_equal(a.utility, b.utility)
        and (fees_a is None) == (fees_b is None)
        and (fees_a is None or np.array_equal(fees_a, fees_b))
    )
