"""The planning stack's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload vancouver-durable --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same stream twice at half length, untraced and then with the timing
shims of ``tracing.py`` installed, and reports the per-layer split.
Every run checks the program's outputs and exits 1 when a check fails.
The last line of standard output is the result as one JSON object;
everything above it is for people.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

# Stream sizes: ops (or requests) per second of --seconds, at the rate
# each workload sustains on the reference host (README.md), so a run on
# that host measures for about --seconds.  The stream is fixed by the
# seed and the size, never cut by the clock: a faster commit finishes
# sooner and is scored on the same ops.
VANCOUVER_OPS_PER_S = 19.0
SCALE_OPS_PER_S = 4.4
SERVICE_WRITES_PER_S = 70.0
# Set-ups and recoveries per untraced run; their medians are reported.
# One each in a traced pass.
REPEATS = {
    "vancouver-durable": (3, 5),
    "scale-100k": (3, 3),
    "service-mix": (3, 3),
    "service-closed": (3, 3),
}


def vancouver_ops(seconds: float) -> int:
    # 16 past a multiple of the 32-op snapshot cadence, so recovery
    # always replays the same WAL suffix.
    return 32 * max(1, round(seconds * VANCOUVER_OPS_PER_S / 32)) + 16


def scale_ops(seconds: float) -> int:
    return 8 * max(1, round(seconds * SCALE_OPS_PER_S / 8))


def service_requests(seconds: float) -> int:
    from service_mix import RATE

    return 32 * max(1, round(seconds * RATE / 32))


def service_writes(seconds: float) -> int:
    return 32 * max(1, round(seconds * SERVICE_WRITES_PER_S / 32))


WORKLOADS = ("vancouver-durable", "scale-100k", "service-mix",
             "service-closed")


def run_pass(workload: str, state: Path, seed: int, seconds: float,
             repeats: tuple[int, int], traced: bool) -> tuple:
    """One pass; returns ``(Pass, spans, write op ids, read op ids)``."""
    from tracing import Tracer, install

    if workload.startswith("service-"):
        from service_mix import run_service_mix

        closed = workload == "service-closed"
        count = (service_writes if closed else service_requests)(seconds)
        result, raw = run_service_mix(
            state, seed, count, *repeats, trace=traced, closed=closed
        )
        return (result, *_service_spans(raw))
    from inproc import run_scale_100k, run_vancouver_durable

    run, n_ops = {
        "vancouver-durable": (run_vancouver_durable, vancouver_ops(seconds)),
        "scale-100k": (run_scale_100k, scale_ops(seconds)),
    }[workload]
    tracer = Tracer() if traced else None
    uninstall = install(tracer) if traced else (lambda: None)
    try:
        result = run(state, seed, n_ops, *repeats, tracer)
    finally:
        uninstall()
    spans = tracer.spans if traced else []
    return result, spans, list(range(n_ops)), []


def _service_spans(raw: dict) -> tuple[list, list, list]:
    """Client round trips joined to the server's spans by frame id.

    Span ids restart in every process, so the client's spans take
    negative ids and the restarted server's are shifted past the first
    server's.
    """
    spans = [list(span) for span in raw["server_spans"]]
    shift = 1 + max((span[0] for span in spans), default=0)
    for span in raw["restart_spans"]:
        span = list(span)
        span[0] += shift
        if span[5] is not None:
            span[5] += shift
        spans.append(span)
    writes, reads = [], []
    dispatch = {
        span[2]: span for span in spans
        if span[1] == "service.dispatch" and span[5] is None
    }
    for index, (request, outcome) in enumerate(
        zip(raw["requests"], raw["outcomes"])
    ):
        if outcome.error is not None or not (outcome.response or {}).get("ok"):
            continue
        client_id = -(index + 1)
        spans.append([client_id, "client.rtt", index, outcome.sent,
                      outcome.done, None, {}])
        if index in dispatch:
            dispatch[index][5] = client_id
        (writes if request.kind == "write" else reads).append(index)
    return spans, writes, reads


def _table(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    for row in rows:
        print("  " + "  ".join(str(cell) for cell in row))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no planning stack to measure: {src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from layers import PER_LAYER, analyse
    from measure import host_fingerprint

    work = CHECKOUT / ".perfbench"
    state = work / "state"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    host = host_fingerprint(state)
    _table("host", sorted(host.items()))

    if args.trace == 0:
        result, *_ = run_pass(args.workload, state, args.seed, args.seconds,
                              REPEATS[args.workload], traced=False)
        metrics = result.end_to_end()
        report: dict = {}
        correct_from = [result]
    else:
        base, *_ = run_pass(args.workload, state, args.seed,
                            args.seconds / 2, (1, 1), traced=False)
        result, spans, writes, reads = run_pass(
            args.workload, state, args.seed, args.seconds / 2, (1, 1),
            traced=True,
        )
        report = analyse(args.workload, base, result, spans, writes, reads)
        result.check(
            "layer sum check: every rung's remainder within its tolerance",
            all(row["ok"] for row in report["rungs"]),
        )
        units = dict(PER_LAYER)
        metrics = {
            name: (value, units[name])
            for name, value in report["metrics"].items()
        }
        correct_from = [base, result]
        (work / f"trace-{args.workload}.jsonl").write_text(
            "\n".join(json.dumps(span) for span in spans) + "\n"
        )
        _print_trace(report)

    checks: dict[str, bool] = {}
    for part in correct_from:
        for name, ok in part.checks.items():
            checks[name] = checks.get(name, True) and ok
    checks["publish utility repeats bit-identically"] = len({
        utility for part in correct_from for utility in part.publish_utilities
    }) == 1
    checks["every op acknowledged"] = all(
        part.failed == 0 for part in correct_from
    )
    _table("metrics", [(name, f"{value:.6g}", unit)
                       for name, (value, unit) in metrics.items()])
    _table("checks", [("ok" if ok else "FAILED", name)
                      for name, ok in checks.items()])
    correct = all(checks.values())
    attempted = sum(part.attempted for part in correct_from)
    failed = sum(part.failed for part in correct_from)
    document = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = work / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(
        {**document, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "host": host, "checks": checks,
         "samples": {"writes": len(result.write_s),
                     "reads": len(result.read_s)},
         "trace": report},
        indent=2, default=str,
    ) + "\n")
    shutil.rmtree(state, ignore_errors=True)
    print(json.dumps(document))
    return 0 if correct else 1


def _print_trace(report: dict) -> None:
    _table("layer sum check (per rung: total, child layers, remainder)", [
        (("ok  " if row["ok"] else "HOLE"), row["rung"],
         f"total {row['total_ms']:.1f} ms over {row['spans']} spans",
         f"remainder {row['remainder_ms']:.1f} ms "
         f"({row['remainder_share']:.1%}, tolerance {row['tolerance']:.0%})",
         ", ".join(f"{name} {ms:.1f}" for name, ms in row["layers_ms"].items()))
        for row in report["rungs"]
    ])
    split = sorted(report["median_op"].items(), key=lambda kv: -kv[1])
    _table("median write op: self time per layer (ms)",
           [(name, f"{ms:.3f}") for name, ms in split if ms > 0])
    tail = report["tail"]
    _table(f"tail: {tail['ops']} op(s) at or above p99 = "
           f"{tail['p99_ms']:.1f} ms, mean self time per layer (ms)",
           [(name, f"{ms:.3f}") for name, ms in
            sorted(tail["self_ms"].items(), key=lambda kv: -kv[1])[:8]])


if __name__ == "__main__":
    sys.exit(main())
